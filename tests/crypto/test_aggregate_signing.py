"""Aggregated batch signing: one root signature, per-record proofs."""

import dataclasses

import pytest

from repro.crypto.ed25519 import generate_ed25519_keypair
from repro.crypto.merkle import MerkleProof
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import (
    _ROOT_MEMO,
    AggregateSignedPayload,
    SignedPayload,
    Signer,
    TrustStore,
    Verifier,
    purge_signature_memo,
)
from repro.errors import AuthenticationError

RSA_KEYPAIR = generate_keypair(768)
ED_KEYPAIR = generate_ed25519_keypair(seed=bytes(range(32)))


def payloads(n=5):
    return [{"record": f"rec-{i}", "action": "created"} for i in range(n)]


@pytest.mark.parametrize("keypair", [RSA_KEYPAIR, ED_KEYPAIR], ids=["rsa", "ed25519"])
def test_batch_round_trip(keypair):
    signer = Signer("site-A", keypair=keypair)
    verifier = signer.verifier()
    signed = signer.sign_batch(payloads())
    assert len(signed) == 5
    for i, item in enumerate(signed):
        assert isinstance(item, AggregateSignedPayload)
        assert verifier.verify(item) == {"record": f"rec-{i}", "action": "created"}


def test_one_signature_covers_the_batch():
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    signed = signer.sign_batch(payloads())
    assert len({item.signature for item in signed}) == 1
    assert len({item.batch_root for item in signed}) == 1
    assert all(item.leaf_count == 5 for item in signed)


def test_tampered_member_fails_alone():
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    verifier = signer.verifier()
    signed = signer.sign_batch(payloads())
    bad = AggregateSignedPayload(
        payload={"record": "rec-2", "action": "FORGED"},
        signer_id=signed[2].signer_id,
        key_fingerprint=signed[2].key_fingerprint,
        signature=signed[2].signature,
        batch_root=signed[2].batch_root,
        leaf_count=signed[2].leaf_count,
        proof=signed[2].proof,
    )
    with pytest.raises(AuthenticationError):
        verifier.verify(bad)
    # Every untampered member of the batch still verifies.
    for i, item in enumerate(signed):
        assert verifier.verify(item)["record"] == f"rec-{i}"


def test_proof_swap_between_members_rejected():
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    verifier = signer.verifier()
    signed = signer.sign_batch(payloads())
    crossed = AggregateSignedPayload(
        payload=signed[0].payload,
        signer_id=signed[0].signer_id,
        key_fingerprint=signed[0].key_fingerprint,
        signature=signed[0].signature,
        batch_root=signed[0].batch_root,
        leaf_count=signed[0].leaf_count,
        proof=signed[1].proof,
    )
    with pytest.raises(AuthenticationError):
        verifier.verify(crossed)


def test_forged_root_rejected():
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    verifier = signer.verifier()
    (signed,) = signer.sign_batch(payloads(1))
    forged = AggregateSignedPayload(
        payload=signed.payload,
        signer_id=signed.signer_id,
        key_fingerprint=signed.key_fingerprint,
        signature=signed.signature,
        batch_root=bytes(32),
        leaf_count=signed.leaf_count,
        proof=signed.proof,
    )
    with pytest.raises(AuthenticationError):
        verifier.verify(forged)


def test_serialization_round_trip_dispatches_to_aggregate():
    signer = Signer("site-A", keypair=RSA_KEYPAIR)
    verifier = signer.verifier()
    signed = signer.sign_batch(payloads(3))
    for item in signed:
        revived = SignedPayload.from_dict(item.to_dict())
        assert isinstance(revived, AggregateSignedPayload)
        assert verifier.verify(revived) == item.payload


def test_scalar_and_batch_coexist_in_trust_store():
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    trust = TrustStore()
    trust.add(signer.verifier())
    scalar = signer.sign({"kind": "scalar"})
    (batched,) = signer.sign_batch([{"kind": "batched"}])
    assert trust.verify(scalar) == {"kind": "scalar"}
    assert trust.verify(batched) == {"kind": "batched"}


def test_root_memo_caches_and_purges():
    purge_signature_memo()
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    verifier = signer.verifier()
    signed = signer.sign_batch(payloads())
    for item in signed:
        verifier.verify(item)
    assert len(_ROOT_MEMO) == 1  # one root signature memoized for the batch
    purge_signature_memo()
    assert len(_ROOT_MEMO) == 0
    # Verification is unaffected by a purge — just slower the first time.
    assert verifier.verify(signed[0]) == signed[0].payload


def test_empty_batch_is_empty():
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    assert signer.sign_batch([]) == []


def test_leaf_count_mismatch_rejected():
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    verifier = signer.verifier()
    signed = signer.sign_batch(payloads(2))
    inflated = AggregateSignedPayload(
        payload=signed[0].payload,
        signer_id=signed[0].signer_id,
        key_fingerprint=signed[0].key_fingerprint,
        signature=signed[0].signature,
        batch_root=signed[0].batch_root,
        leaf_count=3,
        proof=signed[0].proof,
    )
    with pytest.raises(AuthenticationError):
        verifier.verify(inflated)


def test_relabelled_member_proof_rejected():
    # Member 3's genuine path, claimed for position 4 of the same batch:
    # tree_size still equals leaf_count, so only position binding stops it.
    signer = Signer("site-A", keypair=ED_KEYPAIR)
    verifier = signer.verifier()
    member = signer.sign_batch(payloads(5))[3]
    relabelled = dataclasses.replace(
        member, proof=MerkleProof(leaf_index=4, tree_size=5, path=member.proof.path)
    )
    with pytest.raises(AuthenticationError):
        verifier.verify(relabelled)
