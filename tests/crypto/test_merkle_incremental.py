"""Incremental Merkle roots must equal the RFC 6962 recursive rebuild."""

from repro.crypto import merkle
from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    verify_consistency,
    verify_inclusion,
)


def _leaves(n):
    return [f"event-{i}".encode() for i in range(n)]


def test_incremental_root_matches_rebuild_at_every_size():
    incremental = MerkleTree()
    assert incremental.root() == EMPTY_ROOT
    for i, leaf in enumerate(_leaves(33)):
        incremental.append(leaf)
        rebuilt = MerkleTree(_leaves(i + 1))
        assert incremental.root() == rebuilt.root(), f"size {i + 1}"
        # root_at resolves the same range from stored nodes; it must agree
        assert incremental.root_at(i + 1) == incremental.root()


def test_roots_and_proofs_hash_logarithmically(monkeypatch):
    # Stored subtree roots leave only the right edge of a range to hash:
    # no root or proof at any size may rebuild from the leaves.
    calls = 0
    real_node_hash = merkle._node_hash

    def counting(left, right):
        nonlocal calls
        calls += 1
        return real_node_hash(left, right)

    def most_hashes(op, arg_lists):
        nonlocal calls
        most = 0
        for args in arg_lists:
            calls = 0
            op(*args)
            most = max(most, calls)
        return most

    for n in (1061, 65573):
        tree = MerkleTree()
        for i in range(n):
            tree.append_hash(merkle.leaf_hash(i.to_bytes(4, "big")))
        edges = {s for k in range(n.bit_length()) for s in (2**k - 1, 2**k, 2**k + 1)}
        sizes = sorted(s for s in {*range(1, n, max(1, n // 1500)), n, *edges} if 1 <= s <= n)
        inclusions = [(i, s) for s in sizes for i in {0, s // 3, s // 2, max(0, s - 2), s - 1}]
        bound = 2 * n.bit_length()
        monkeypatch.setattr(merkle, "_node_hash", counting)
        assert most_hashes(tree.root_at, [(s,) for s in sizes]) <= bound
        assert most_hashes(tree.prove_inclusion_at, inclusions) <= bound
        assert most_hashes(tree.prove_consistency, [(s,) for s in sizes]) <= bound
        monkeypatch.undo()


def test_inclusion_proofs_verify_against_incremental_root():
    tree = MerkleTree(_leaves(21))
    root = tree.root()
    for index in (0, 7, 15, 20):
        proof = tree.prove_inclusion(index)
        verify_inclusion(_leaves(21)[index], proof, root)


def test_consistency_proof_spans_incremental_appends():
    tree = MerkleTree(_leaves(12))
    old_root = tree.root()
    for leaf in _leaves(20)[12:]:
        tree.append(leaf)
    proof = tree.prove_consistency(12)
    verify_consistency(old_root, tree.root(), 12, 20, proof)


def test_historical_proof_after_more_appends():
    tree = MerkleTree(_leaves(10))
    anchored_root = tree.root()
    for leaf in _leaves(17)[10:]:
        tree.append(leaf)
    proof = tree.prove_inclusion_at(3, 10)
    verify_inclusion(_leaves(10)[3], proof, anchored_root)
