"""Merkle tree: inclusion, consistency, tamper sensitivity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleProof,
    MerkleTree,
    verify_consistency,
    verify_inclusion,
)
from repro.errors import IntegrityError, ValidationError


def leaves(n):
    return [f"leaf-{i}".encode() for i in range(n)]


def test_empty_tree_root():
    assert MerkleTree().root() == EMPTY_ROOT


def test_single_leaf_inclusion():
    tree = MerkleTree([b"only"])
    verify_inclusion(b"only", tree.prove_inclusion(0), tree.root())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 15, 16, 33])
def test_inclusion_all_sizes_all_leaves(n):
    tree = MerkleTree(leaves(n))
    root = tree.root()
    for i in range(n):
        verify_inclusion(leaves(n)[i], tree.prove_inclusion(i), root)


def test_inclusion_wrong_leaf_fails():
    tree = MerkleTree(leaves(8))
    proof = tree.prove_inclusion(3)
    with pytest.raises(IntegrityError):
        verify_inclusion(b"not-the-leaf", proof, tree.root())


def test_inclusion_wrong_root_fails():
    tree = MerkleTree(leaves(8))
    with pytest.raises(IntegrityError):
        verify_inclusion(leaves(8)[3], tree.prove_inclusion(3), bytes(32))


def test_root_changes_on_any_leaf_change():
    base = MerkleTree(leaves(10)).root()
    for i in range(10):
        altered = leaves(10)
        altered[i] = b"tampered"
        assert MerkleTree(altered).root() != base


def test_root_at_matches_prefix_tree():
    tree = MerkleTree(leaves(12))
    for size in range(13):
        assert tree.root_at(size) == MerkleTree(leaves(size)).root()


@pytest.mark.parametrize("old,new", [(1, 2), (2, 3), (3, 7), (4, 8), (6, 13), (1, 16)])
def test_consistency_proofs(old, new):
    tree = MerkleTree(leaves(new))
    old_root = MerkleTree(leaves(old)).root()
    verify_consistency(old_root, tree.root(), old, new, tree.prove_consistency(old))


def test_consistency_detects_history_rewrite():
    tree = MerkleTree(leaves(8))
    # Claim a different history of size 4
    fake_old = MerkleTree([b"forged"] * 4).root()
    with pytest.raises(IntegrityError):
        verify_consistency(fake_old, tree.root(), 4, 8, tree.prove_consistency(4))


def test_consistency_empty_old_always_passes():
    tree = MerkleTree(leaves(5))
    verify_consistency(EMPTY_ROOT, tree.root(), 0, 5, [])


def test_consistency_same_size_requires_equal_roots():
    tree = MerkleTree(leaves(4))
    verify_consistency(tree.root(), tree.root(), 4, 4, [])
    with pytest.raises(IntegrityError):
        verify_consistency(bytes(32), tree.root(), 4, 4, [])


def test_consistency_shrinking_rejected():
    tree = MerkleTree(leaves(4))
    with pytest.raises(IntegrityError):
        verify_consistency(tree.root(), bytes(32), 8, 4, [])


def test_consistency_truncated_proof_rejected():
    tree = MerkleTree(leaves(8))
    proof = tree.prove_consistency(3)
    with pytest.raises(IntegrityError):
        verify_consistency(
            MerkleTree(leaves(3)).root(), tree.root(), 3, 8, proof[:-1]
        )


def test_bad_indices_rejected():
    tree = MerkleTree(leaves(3))
    with pytest.raises(ValidationError):
        tree.prove_inclusion(3)
    with pytest.raises(ValidationError):
        tree.prove_inclusion(-1)
    with pytest.raises(ValidationError):
        tree.root_at(4)
    with pytest.raises(ValidationError):
        tree.prove_consistency(5)


def test_non_bytes_leaf_rejected():
    with pytest.raises(ValidationError):
        MerkleTree().append("text")  # type: ignore[arg-type]


def test_prove_inclusion_at_historical_size():
    tree = MerkleTree(leaves(12))
    for size in (1, 3, 5, 8, 12):
        historical_root = tree.root_at(size)
        for index in range(size):
            proof = tree.prove_inclusion_at(index, size)
            verify_inclusion(leaves(12)[index], proof, historical_root)


def test_prove_inclusion_at_current_root_fails_for_old_proof():
    tree = MerkleTree(leaves(12))
    proof = tree.prove_inclusion_at(2, 5)
    with pytest.raises(IntegrityError):
        verify_inclusion(leaves(12)[2], proof, tree.root())


def test_prove_inclusion_at_bounds():
    tree = MerkleTree(leaves(4))
    with pytest.raises(ValidationError):
        tree.prove_inclusion_at(0, 0)
    with pytest.raises(ValidationError):
        tree.prove_inclusion_at(0, 5)
    with pytest.raises(ValidationError):
        tree.prove_inclusion_at(3, 3)


def test_proof_dict_round_trip():
    tree = MerkleTree(leaves(6))
    proof = tree.prove_inclusion(2)
    restored = MerkleProof.from_dict(proof.to_dict())
    verify_inclusion(leaves(6)[2], restored, tree.root())


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_property_inclusion(n, data):
    tree = MerkleTree(leaves(n))
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    verify_inclusion(leaves(n)[index], tree.prove_inclusion(index), tree.root())


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=30), st.data())
def test_property_consistency(new, data):
    old = data.draw(st.integers(min_value=1, max_value=new))
    tree = MerkleTree(leaves(new))
    old_root = MerkleTree(leaves(old)).root()
    verify_consistency(old_root, tree.root(), old, new, tree.prove_consistency(old))


def test_relabelled_proof_rejected():
    # A genuine path for leaf 3 of 8 reproduces the root whatever
    # position it claims; the verifier must bind the claimed position.
    tree = MerkleTree(leaves(8))
    genuine = tree.prove_inclusion(3)
    verify_inclusion(leaves(8)[3], genuine, tree.root())
    relabelled = MerkleProof(leaf_index=6, tree_size=1000, path=genuine.path)
    with pytest.raises(IntegrityError):
        verify_inclusion(leaves(8)[3], relabelled, tree.root())


@pytest.mark.parametrize(
    "index,size", [(3, 3), (0, 0), (-1, 8), (2, 7), (3, 9), (3, 16), (3, 4)]
)
def test_proof_position_must_match_its_path(index, size):
    tree = MerkleTree(leaves(8))
    path = tree.prove_inclusion(3).path
    with pytest.raises(IntegrityError):
        verify_inclusion(leaves(8)[3], MerkleProof(index, size, path), tree.root())


def test_flipped_side_flag_rejected():
    tree = MerkleTree(leaves(8))
    path = list(tree.prove_inclusion(3).path)
    digest, is_left = path[0]
    path[0] = (digest, not is_left)
    with pytest.raises(IntegrityError, match="sides"):
        verify_inclusion(leaves(8)[3], MerkleProof(3, 8, tuple(path)), tree.root())
