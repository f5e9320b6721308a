"""The level-stored tree must produce byte-identical roots and proofs to
the recursive RFC 6962 construction it replaced.

The reference below is the original prover, frozen: every subtree root
is rebuilt recursively from the leaf hashes (memoized per range only to
keep the sweep fast; the recursion and split rule are unchanged).
"""

import hashlib
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import MerkleTree, leaf_hash

MAX_LEAVES = 5000
LEAF_HASHES = [leaf_hash(f"leaf-{i}".encode()) for i in range(MAX_LEAVES)]


def ref_node_hash(left, right):
    hasher = hashlib.blake2b(digest_size=32, person=b"merkle/node")
    hasher.update(left)
    hasher.update(right)
    return hasher.digest()


def ref_split(n):
    k = 1
    while k * 2 < n:
        k *= 2
    return k


@lru_cache(maxsize=None)
def ref_root(lo, hi):
    if hi - lo == 1:
        return LEAF_HASHES[lo]
    split = lo + ref_split(hi - lo)
    return ref_node_hash(ref_root(lo, split), ref_root(split, hi))


def ref_path(index, size):
    path = []

    def walk(lo, hi):
        if hi - lo == 1:
            return
        split = lo + ref_split(hi - lo)
        if index < split:
            walk(lo, split)
            path.append((ref_root(split, hi), False))
        else:
            walk(split, hi)
            path.append((ref_root(lo, split), True))

    walk(0, size)
    return tuple(path)


def ref_consistency(old_size, size):
    if old_size in (0, size):
        return []
    proof = []

    def subproof(lo, hi, m, complete):
        if m == hi:
            if not complete:
                proof.append(ref_root(lo, hi))
            return
        split = lo + ref_split(hi - lo)
        if m <= split:
            subproof(lo, split, m, complete)
            proof.append(ref_root(split, hi))
        else:
            subproof(split, hi, m, False)
            proof.append(ref_root(lo, split))

    subproof(0, size, old_size, True)
    return proof


def tree_of(n):
    tree = MerkleTree()
    for digest in LEAF_HASHES[:n]:
        tree.append_hash(digest)
    return tree


def test_every_root_path_and_consistency_proof_up_to_300_leaves():
    tree = MerkleTree()
    for n in range(1, 301):
        tree.append_hash(LEAF_HASHES[n - 1])
        assert tree.root() == ref_root(0, n)
        for old_size in range(n + 1):
            assert tree.prove_consistency(old_size) == ref_consistency(old_size, n)
    for size in range(1, 301):
        assert tree.root_at(size) == ref_root(0, size)
        for index in range(size):
            proof = tree.prove_inclusion_at(index, size)
            assert (proof.leaf_index, proof.tree_size) == (index, size)
            assert proof.path == ref_path(index, size)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_sizes_up_to_5000_match_the_reference(data):
    n = data.draw(st.integers(1, MAX_LEAVES), label="n")
    tree = tree_of(n)
    assert tree.root() == ref_root(0, n)
    for _ in range(8):
        size = data.draw(st.integers(1, n), label="size")
        index = data.draw(st.integers(0, size - 1), label="index")
        old_size = data.draw(st.integers(0, n), label="old_size")
        assert tree.root_at(size) == ref_root(0, size)
        assert tree.prove_inclusion_at(index, size).path == ref_path(index, size)
        assert tree.prove_inclusion(index).path == ref_path(index, n)
        assert tree.prove_consistency(old_size) == ref_consistency(old_size, n)
