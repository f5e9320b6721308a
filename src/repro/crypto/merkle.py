"""Merkle trees with inclusion and consistency proofs.

Used in three places:

* **Audit anchoring** — the audit log periodically commits its entries'
  Merkle root to an external witness; consistency proofs show a later
  root extends an earlier one (no history rewriting).
* **Migration manifests** — the source store publishes the Merkle root
  of all record digests; the destination proves completeness by
  recomputing it, and any single lost/altered record changes the root.
* **Backup verification** — restored data is checked against the
  backed-up root.

The construction follows RFC 6962 (Certificate Transparency) in shape —
an unbalanced tree recurses on the largest power of two smaller than n —
but is instantiated over BLAKE2b-256 with *personalization*-based
leaf/node domain separation instead of SHA-256 with prefix bytes.
BLAKE2b's lower per-call overhead wins on the 32–64 byte node inputs
these trees hash, and personalization means every node hash streams
its two child digests straight into the hasher with no
``prefix + left + right`` concatenation.  Leaves may be any buffer
(``bytes``, ``bytearray``, ``memoryview``).  Interior nodes are stored
by level as they complete (see :class:`MerkleTree`), so roots and
proofs at any historical size cost O(log n).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import IntegrityError, ValidationError

_LEAF_PERSON = b"merkle/leaf"
_NODE_PERSON = b"merkle/node"

EMPTY_ROOT = hashlib.blake2b(b"", digest_size=32).digest()
"""Root of the empty tree (hash of the empty string, as in RFC 6962)."""


def _leaf_hash(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=32, person=_LEAF_PERSON).digest()


def leaf_hash(data: bytes) -> bytes:
    """The domain-separated leaf hash of *data*.

    Public so verifiers can compare independently derived bytes against
    a tree's stored leaf digests (see :meth:`MerkleTree.leaf_digest`)
    without rebuilding any tree structure.
    """
    return _leaf_hash(data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    hasher = hashlib.blake2b(digest_size=32, person=_NODE_PERSON)
    hasher.update(left)
    hasher.update(right)
    return hasher.digest()


def _largest_power_of_two_below(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    return 1 << ((n - 1).bit_length() - 1)


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: the path of sibling hashes from a leaf to the root.

    ``path`` entries are ``(sibling_digest, sibling_is_left)``.
    """

    leaf_index: int
    tree_size: int
    path: tuple[tuple[bytes, bool], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """Serializable form (for embedding in manifests/reports)."""
        return {
            "leaf_index": self.leaf_index,
            "tree_size": self.tree_size,
            "path": [[digest, is_left] for digest, is_left in self.path],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MerkleProof":
        return cls(
            leaf_index=data["leaf_index"],
            tree_size=data["tree_size"],
            path=tuple((digest, bool(is_left)) for digest, is_left in data["path"]),
        )


class MerkleTree:
    """An append-only Merkle tree over byte-string leaves.

    Nodes are stored by level: ``_levels[k][i]`` is the root of leaves
    ``[i * 2**k, (i + 1) * 2**k)`` and ``_levels[0]`` holds the leaf
    hashes.  A node is written once, when its last leaf arrives — in an
    append-only tree every complete aligned subtree is immutable (RFC
    6962 §2.1).  Any RFC 6962 range therefore resolves to stored nodes
    plus at most O(log n) hashes along its right edge, so the current
    root, every historical root, and every inclusion and consistency
    proof cost O(log n).
    """

    def __init__(self, leaves: list[bytes] | None = None) -> None:
        self._levels: list[list[bytes]] = [[]]
        for leaf in leaves or []:
            self.append(leaf)

    def __len__(self) -> int:
        return len(self._levels[0])

    def _push_leaf(self, leaf_hash: bytes) -> int:
        levels = self._levels
        levels[0].append(leaf_hash)
        # Every even-length level just completed a pair: write its parent.
        level = 0
        while len(levels[level]) % 2 == 0:
            if level + 1 == len(levels):
                levels.append([])
            row = levels[level]
            levels[level + 1].append(_node_hash(row[-2], row[-1]))
            level += 1
        return len(levels[0]) - 1

    def _range_root(self, lo: int, hi: int) -> bytes:
        """Root of the RFC 6962 subtree over leaves ``[lo, hi)``.

        Every range the RFC 6962 recursion visits that spans a power of
        two starts at a multiple of its size, so it is a stored node.
        """
        size = hi - lo
        if size & (size - 1) == 0:
            level = size.bit_length() - 1
            return self._levels[level][lo >> level]
        split = lo + _largest_power_of_two_below(size)
        return _node_hash(self._range_root(lo, split), self._range_root(split, hi))

    def append(self, leaf: bytes) -> int:
        """Append a leaf; returns its index."""
        if not isinstance(leaf, (bytes, bytearray, memoryview)):
            raise ValidationError("Merkle leaves must be bytes")
        return self._push_leaf(_leaf_hash(leaf))

    def append_hash(self, leaf_hash: bytes) -> int:
        """Append a pre-hashed leaf (32 bytes, already leaf-hashed)."""
        if len(leaf_hash) != 32:
            raise ValidationError("leaf hash must be 32 bytes")
        return self._push_leaf(bytes(leaf_hash))

    def root(self) -> bytes:
        """Current root digest (EMPTY_ROOT for the empty tree)."""
        return self._range_root(0, len(self)) if len(self) else EMPTY_ROOT

    def root_at(self, size: int) -> bytes:
        """Root of the historical tree containing only the first *size* leaves."""
        if size < 0 or size > len(self):
            raise ValidationError(f"size {size} out of range 0..{len(self)}")
        return self._range_root(0, size) if size else EMPTY_ROOT

    def leaf_digest(self, index: int) -> bytes:
        """The stored leaf hash at *index* (already leaf-hashed).

        Incremental audit verification compares device-derived bytes
        against these trusted in-memory digests: a sealed-prefix frame
        whose re-derived :func:`leaf_hash` disagrees has been tampered
        with on the raw device.
        """
        if index < 0 or index >= len(self):
            raise ValidationError(f"leaf index {index} out of range 0..{len(self) - 1}")
        return self._levels[0][index]

    def _inclusion_proof(self, index: int, size: int) -> MerkleProof:
        if index < 0 or index >= size:
            raise ValidationError(f"leaf index {index} out of range 0..{size - 1}")
        path: list[tuple[bytes, bool]] = []
        lo, hi = 0, size
        while hi - lo > 1:
            split = lo + _largest_power_of_two_below(hi - lo)
            if index < split:
                path.append((self._range_root(split, hi), False))
                hi = split
            else:
                path.append((self._range_root(lo, split), True))
                lo = split
        path.reverse()  # leaf to root
        return MerkleProof(leaf_index=index, tree_size=size, path=tuple(path))

    def prove_inclusion(self, index: int) -> MerkleProof:
        """Produce an inclusion proof for the leaf at *index*."""
        return self._inclusion_proof(index, len(self))

    def prove_inclusion_at(self, index: int, size: int) -> MerkleProof:
        """Inclusion proof against the *historical* tree of the first
        ``size`` leaves (proofs must match the root they verify against,
        e.g. a previously published anchor)."""
        if size < 1 or size > len(self):
            raise ValidationError(f"size {size} out of range 1..{len(self)}")
        return self._inclusion_proof(index, size)

    def prove_consistency(self, old_size: int) -> list[bytes]:
        """Consistency proof that the current tree extends the tree of
        *old_size* leaves (RFC 6962 §2.1.2, simplified recursive form)."""
        n = len(self)
        if old_size < 0 or old_size > n:
            raise ValidationError(f"old_size {old_size} out of range 0..{n}")
        if old_size == 0 or old_size == n:
            return []

        proof: list[bytes] = []

        def subproof(lo: int, hi: int, m: int, complete: bool) -> None:
            # Proves the subtree over [lo, hi) is consistent with its
            # first (m - lo) leaves. `complete` means the old subtree
            # equals the whole [lo, split) range at some ancestor.
            if m == hi:
                if not complete:
                    proof.append(self._range_root(lo, hi))
                return
            split = lo + _largest_power_of_two_below(hi - lo)
            if m <= split:
                subproof(lo, split, m, complete)
                proof.append(self._range_root(split, hi))
            else:
                subproof(split, hi, m, False)
                proof.append(self._range_root(lo, split))

        subproof(0, n, old_size, True)
        return proof


def verify_inclusion(leaf: bytes, proof: MerkleProof, root: bytes) -> None:
    """Verify an inclusion proof; raises :class:`IntegrityError` on failure.

    The proof's position is bound as well as its hashes: each sibling's
    side is derived from ``(leaf_index, tree_size)`` (RFC 9162
    §2.1.3.2), so a path whose length or ``is_left`` flags disagree with
    its claimed position is rejected even if it reproduces *root*.
    """
    index, last = proof.leaf_index, proof.tree_size - 1
    if not 0 <= index <= last:
        raise IntegrityError(
            f"leaf index {index} outside a tree of {proof.tree_size} leaves"
        )
    digest = _leaf_hash(leaf)
    for sibling, sibling_is_left in proof.path:
        if last == 0:
            raise IntegrityError("inclusion proof path too long for its position")
        if bool(sibling_is_left) != (index & 1 == 1 or index == last):
            raise IntegrityError("inclusion proof sides disagree with its position")
        if sibling_is_left:
            digest = _node_hash(sibling, digest)
            # A right-edge node with no sibling at the levels above it
            # is carried up unchanged.
            while index and not index & 1:
                index >>= 1
                last >>= 1
        else:
            digest = _node_hash(digest, sibling)
        index >>= 1
        last >>= 1
    if last != 0:
        raise IntegrityError("inclusion proof path too short for its position")
    if digest != root:
        raise IntegrityError(
            f"Merkle inclusion proof failed for leaf index {proof.leaf_index}"
        )


def verify_consistency(
    old_root: bytes,
    new_root: bytes,
    old_size: int,
    new_size: int,
    proof: list[bytes],
) -> None:
    """Verify a consistency proof produced by :meth:`MerkleTree.prove_consistency`.

    Raises :class:`IntegrityError` if *new_root* does not extend *old_root*.
    """
    if old_size == 0:
        return  # the empty tree is a prefix of everything
    if old_size == new_size:
        if old_root != new_root:
            raise IntegrityError("equal-size trees with different roots")
        return
    if old_size > new_size:
        raise IntegrityError("old tree is larger than new tree")

    # Reconstruct both roots from the proof hashes by replaying the
    # same recursion shape used by prove_consistency.
    proof_iter = iter(proof)

    def reconstruct(lo: int, hi: int, m: int, complete: bool) -> tuple[bytes, bytes]:
        # returns (old_subtree_root, new_subtree_root) for range [lo, hi)
        if m == hi:
            if complete:
                # verifier knows this subtree root: it's old_root itself
                return old_root, old_root
            digest = next(proof_iter)
            return digest, digest
        split = lo + _largest_power_of_two_below(hi - lo)
        if m <= split:
            # The old tree's first m leaves lie entirely in the left child,
            # so the old root of this range is the old root of the left child.
            old_left, new_left = reconstruct(lo, split, m, complete)
            right = next(proof_iter)
            return old_left, _node_hash(new_left, right)
        old_right, new_right = reconstruct(split, hi, m, False)
        left = next(proof_iter)
        return _node_hash(left, old_right), _node_hash(left, new_right)

    try:
        computed_old, computed_new = reconstruct(0, new_size, old_size, True)
    except StopIteration:
        raise IntegrityError("consistency proof truncated") from None
    remaining = list(proof_iter)
    if remaining:
        raise IntegrityError("consistency proof has extra hashes")
    if computed_old != old_root:
        raise IntegrityError("consistency proof does not reproduce the old root")
    if computed_new != new_root:
        raise IntegrityError("consistency proof does not reproduce the new root")
