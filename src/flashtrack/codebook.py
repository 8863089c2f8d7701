"""Cyclic code-book construction and decode lookup tables.

A beacon transmits one n-bit word forever, end to end, with no framing
comma. The receiver sees the word at an arbitrary rotation, so the unit
of identity is the cyclic equivalence class: the set of all rotations
of a word. One identifier is assigned per class and a flat lookup table
maps every window the receiver might sample back to that identifier.

Two table flavours exist. The initial flavour claims only the clean
rotations of each word. The robust flavour additionally claims every
single-error corruption (bit flip, adjacent duplication, deletion) of
every rotation, so a sampled window that suffered one such error still
resolves to the right identifier. Classes whose corruption sets collide
with an earlier class are dropped by a greedy pass.
Neither flavour is built one class at a time: the initial table is
closed-form and the robust pass checks classes in blocks (see
`_generate` for why both give the greedy result exactly).

Words are handled as plain integers (most significant bit first) and
variant sets of differing lengths share one index space by integer
value, which is why the table has 2^(n+1) slots: the largest variant of
an n-bit word is n+1 bits long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRIVIAL_MODES = ("initial", "robust")

MIN_BITS_INITIAL = 2
MIN_BITS_ROBUST = 4
MAX_BITS = 24


@dataclass(frozen=True)
class BitWord:
    """Fixed-length binary word, most significant bit first."""

    value: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("word length must be >= 1")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} does not fit in {self.n} bits")

    @classmethod
    def from_string(cls, s: str) -> "BitWord":
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"not a bit string: {s!r}")
        return cls(int(s, 2), len(s))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.n - 1 - i)) & 1 for i in range(self.n))

    @property
    def is_trivial(self) -> bool:
        return self.value == 0 or self.value == (1 << self.n) - 1

    def rotate_left(self, k: int = 1) -> "BitWord":
        k %= self.n
        mask = (1 << self.n) - 1
        return BitWord(((self.value << k) & mask) | (self.value >> (self.n - k)), self.n)

    def rotations(self) -> list["BitWord"]:
        return [self.rotate_left(i) for i in range(self.n)]

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")


def canonical_rotation(w: BitWord) -> BitWord:
    """Rotation with the smallest integer value; represents the class."""
    return min(w.rotations(), key=lambda r: r.value)


def _totient(d: int) -> int:
    result, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def necklace_count(n: int) -> int:
    """Number of binary cyclic equivalence classes of length n.

    Burnside count over the rotation group: (1/n) * sum over divisors d
    of phi(d) * 2^(n/d). Includes the two trivial classes.
    """
    if not 1 <= n <= 32:
        raise ValueError(f"n={n} out of range [1, 32]")
    total = sum(_totient(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def noisify(w: BitWord) -> set[int]:
    """Integer indices of every single-error variant of one word.

    Covers all single bit flips (length n), all single adjacent
    duplications (length n+1, a copy of bit j inserted next to bit j),
    and all single deletions (length n-1). Lengths share one index
    space by integer value; leading-zero collapse is intentional.
    """
    v, n = w.value, w.n
    out = set()
    for j in range(n):
        low = v & ((1 << j) - 1)
        out.add(v ^ (1 << j))
        out.add(((v >> j) << (j + 1)) | (((v >> j) & 1) << j) | low)
        out.add(((v >> (j + 1)) << j) | low)
    return out


class Codebook:
    """Ordered canonical code-words; identifiers are their 1-based ranks."""

    def __init__(self, n: int, mode: str, words: list[BitWord]):
        if mode not in TRIVIAL_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.n = n
        self.mode = mode
        self.words = list(words)
        self._id_by_value = {w.value: i + 1 for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def word(self, identifier: int) -> BitWord:
        if not 1 <= identifier <= len(self.words):
            raise ValueError(f"identifier {identifier} out of range 1..{len(self.words)}")
        return self.words[identifier - 1]

    def identifier_of(self, w: BitWord) -> int | None:
        return self._id_by_value.get(canonical_rotation(w).value)


class LookupTable:
    """Flat decode table: window integer value -> identifier, 0 = unknown.

    Sized 2^(n+1) so n-bit and (n+1)-bit windows index the same array.
    Initial-mode tables only populate the low 2^n slots.
    """

    def __init__(self, n: int, mode: str, entries: np.ndarray):
        if entries.shape != (1 << (n + 1),):
            raise ValueError(f"table for n={n} must have {1 << (n + 1)} entries")
        self.n = n
        self.mode = mode
        self.entries = entries

    def __getitem__(self, index: int) -> int:
        return int(self.entries[index])

    def __len__(self) -> int:
        return len(self.entries)


def _rotations_array(values: np.ndarray, n: int) -> np.ndarray:
    """All n rotations of each value, shape (len(values), n)."""
    mask = (1 << n) - 1
    out = np.empty((len(values), n), dtype=np.int64)
    out[:, 0] = values
    for i in range(1, n):
        prev = out[:, i - 1]
        out[:, i] = ((prev << 1) & mask) | (prev >> (n - 1))
    return out


def _variant_block(rots: np.ndarray, n: int) -> np.ndarray:
    """Flip, duplication, and deletion variants of every rotation.

    rots has shape (k, n). The result is one flat int64 array per class
    row concatenated along axis 1; duplicates are fine, the caller
    treats it as a set.
    """
    j = np.arange(n)
    low_mask = (np.int64(1) << j) - 1
    r = rots[:, :, None]
    low = r & low_mask

    flips = r ^ (np.int64(1) << j)
    dups = ((r >> j) << (j + 1)) | (((r >> j) & 1) << j) | low
    dels = ((r >> (j + 1)) << j) | low

    k = rots.shape[0]
    return np.concatenate(
        [flips.reshape(k, -1), dups.reshape(k, -1), dels.reshape(k, -1)], axis=1
    )


def _canonical_reps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical representative (min rotation) of every class, ascending,
    and the min rotation of every n-bit value, indexed by value.

    Running minimum over rotations keeps peak memory at two arrays of
    2^n rather than the full (2^n, n) rotation matrix.
    """
    mask = (1 << n) - 1
    rot = np.arange(1 << n, dtype=np.int64)
    rot_min = rot.copy()
    for _ in range(n - 1):
        rot = ((rot << 1) & mask) | (rot >> (n - 1))
        np.minimum(rot_min, rot, out=rot_min)
    return np.flatnonzero(np.arange(1 << n, dtype=np.int64) == rot_min), rot_min


def _robust_claims(reps: np.ndarray, n: int) -> np.ndarray:
    """Rotations and their single-error variants, one row per class."""
    rots = _rotations_array(reps, n)
    return np.concatenate([rots, _variant_block(rots, n)], axis=1)


# Claim slots checked per block of robust classes; bounds memory at any n.
CLAIM_BLOCK_ENTRIES = 1 << 16


def _generate(n: int, mode: str) -> tuple[Codebook, LookupTable]:
    """Greedy claim pass shared by both table flavours.

    Classes are visited in ascending order of canonical value. A class
    is accepted when none of its claim slots is taken; acceptance then
    writes its identifier into all of them. The claim set is the clean
    rotations plus, in robust mode, every single-error variant of every
    rotation. The two trivial classes take part in claiming, which
    blocks their corruption neighbourhoods, and are struck from the
    book afterwards: their slots are zeroed and the surviving words are
    renumbered in ascending canonical order.

    Clean rotations of distinct classes never meet, so in initial mode
    every class is accepted: a value's identifier is the rank of its
    min rotation. In robust mode one gather per block of classes drops
    the rows already blocked by earlier blocks; taken slots stay taken,
    so the greedy pass would drop them too. The rest are rechecked and
    accepted in order, which sees earlier rows of the same block.
    """
    table = np.zeros(1 << (n + 1), dtype=np.uint32)
    reps, rot_min = _canonical_reps(n)

    if mode == "initial":
        table[: 1 << n] = np.searchsorted(reps, rot_min) + 1
        accepted = reps
    else:
        taken: list[int] = []
        rows = max(1, CLAIM_BLOCK_ENTRIES // (n + 3 * n * n))
        for lo in range(0, len(reps), rows):
            block = reps[lo : lo + rows]
            claims = _robust_claims(block, n)
            for i in np.flatnonzero(~table[claims].any(axis=1)).tolist():
                if not table[claims[i]].any():
                    taken.append(int(block[i]))
                    table[claims[i]] = len(taken)
        accepted = np.array(taken, dtype=np.int64)

    keep = (accepted != 0) & (accepted != (1 << n) - 1)
    remap = np.zeros(len(accepted) + 1, dtype=np.uint32)
    remap[1:][keep] = np.arange(1, np.count_nonzero(keep) + 1)
    table = remap[table]

    words = [BitWord(rep, n) for rep in accepted[keep].tolist()]
    return Codebook(n, mode, words), LookupTable(n, mode, table)


def generate_initial_codebook(n: int) -> tuple[Codebook, LookupTable]:
    """One identifier per nontrivial class; table claims clean rotations only."""
    if not MIN_BITS_INITIAL <= n <= MAX_BITS:
        raise ValueError(f"n={n} out of range [{MIN_BITS_INITIAL}, {MAX_BITS}]")
    return _generate(n, "initial")


def generate_robust_codebook(n: int) -> tuple[Codebook, LookupTable]:
    """Greedy single-error-robust book; see module docstring."""
    if not MIN_BITS_ROBUST <= n <= MAX_BITS:
        raise ValueError(f"n={n} out of range [{MIN_BITS_ROBUST}, {MAX_BITS}]")
    return _generate(n, "robust")


def brute_force_max_codebook(n: int) -> int:
    """Size of a maximum mutually-non-overlapping class set, exactly.

    Two classes overlap when their claim sets (rotations plus all
    single-error variants) intersect. The maximum independent set of
    the overlap graph is found as a maximum clique of its complement.
    Exponential in the worst case; fine at this scale, hopeless much
    above n=14.
    """
    if not 4 <= n <= 10:
        raise ValueError(f"n={n} out of range [4, 10]")
    import networkx as nx

    trivial = {0, (1 << n) - 1}
    reps = [r for r in _canonical_reps(n)[0].tolist() if r not in trivial]
    rows = _robust_claims(np.array(reps, dtype=np.int64), n)
    claims = {r: frozenset(row.tolist()) for r, row in zip(reps, rows)}
    graph = nx.Graph()
    graph.add_nodes_from(reps)
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            if not claims[a].isdisjoint(claims[b]):
                graph.add_edge(a, b)
    _, size = nx.max_weight_clique(nx.complement(graph), weight=None)
    return size


def codebook_to_json(cb: Codebook, lut: LookupTable) -> dict:
    """JSON-ready dict; the table is run-length encoded over nonzero spans."""
    runs = []
    entries = lut.entries
    nonzero = np.flatnonzero(entries)
    if len(nonzero):
        breaks = np.flatnonzero(
            (np.diff(nonzero) != 1) | (np.diff(entries[nonzero]) != 0)
        )
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(nonzero) - 1]])
        for s, e in zip(starts, ends):
            runs.append([int(nonzero[s]), int(e - s + 1), int(entries[nonzero[s]])])
    return {
        "n": cb.n,
        "mode": cb.mode,
        "words": [str(w) for w in cb.words],
        "table": {"encoding": "rle", "size": len(entries), "runs": runs},
    }


def codebook_from_json(data: dict) -> tuple[Codebook, LookupTable]:
    n = int(data["n"])
    mode = data["mode"]
    words = [BitWord.from_string(s) for s in data["words"]]
    entries = np.zeros(data["table"]["size"], dtype=np.uint32)
    for start, length, ident in data["table"]["runs"]:
        entries[start : start + length] = ident
    return Codebook(n, mode, words), LookupTable(n, mode, entries)
