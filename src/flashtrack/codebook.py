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
The initial table is closed-form: a value's class rank. The robust pass
builds claim sets for kept classes only: accepting a class marks every
class that claims one of its slots, found in closed form by undoing each
single error, and the pass jumps to the next unmarked class. Claim
overlap is symmetric, so the marks are exactly the classes the greedy
pass would find blocked (see `_generate`).

Words are handled as plain integers (most significant bit first) and
variant sets of differing lengths share one index space by integer
value, which is why the table has 2^(n+1) slots: the largest variant of
an n-bit word is n+1 bits long.
"""

from __future__ import annotations

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
        if not isinstance(s, str) or not s or set(s) - {"0", "1"}:
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
    """Ordered canonical code-words; identifiers are their 1-based ranks.

    The words are held as their integer values; `word` and `words`
    build BitWords on demand.
    """

    def __init__(self, n: int, mode: str, values: list[int]):
        if mode not in TRIVIAL_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.n = n
        self.mode = mode
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def words(self) -> list[BitWord]:
        return [BitWord(v, self.n) for v in self.values]

    def word(self, identifier: int) -> BitWord:
        if not 1 <= identifier <= len(self.values):
            raise ValueError(f"identifier {identifier} out of range 1..{len(self.values)}")
        return BitWord(self.values[identifier - 1], self.n)


class LookupTable:
    """Flat decode table: window integer value -> identifier, 0 = unknown.

    Sized 2^(n+1) so n-bit and (n+1)-bit windows index the same array.
    Initial-mode tables only populate the low 2^n slots. slots is a
    zero-copy memoryview of entries whose items are plain ints, so the
    decoder pays no numpy scalar per lookup and in-place writes to
    entries show through it.
    """

    def __init__(self, n: int, mode: str, entries: np.ndarray):
        if entries.shape != (1 << (n + 1),):
            raise ValueError(f"table for n={n} must have {1 << (n + 1)} entries")
        self.n = n
        self.mode = mode
        self.entries = entries
        self.slots = memoryview(entries)

    def __reduce__(self):
        # a memoryview does not pickle; rebuild the view from the entries
        return LookupTable, (self.n, self.mode, self.entries)

    def __getitem__(self, index: int) -> int:
        return self.slots[index]

    def __len__(self) -> int:
        return len(self.entries)


def _rotations_array(values: np.ndarray, n: int) -> np.ndarray:
    """All n rotations of each value, shape (len(values), n)."""
    k = np.arange(n)
    v = values[:, None]
    out = v << k
    out &= (1 << n) - 1
    out |= v >> (n - k)
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
    and the 1-based class rank of every n-bit value, indexed by value.

    A running minimum over rotations, updated in place in 32-bit words,
    keeps peak memory at four arrays of 2^n rather than the full (2^n, n)
    rotation matrix. The rank is one cumulative count of the canonical
    values, read at each value's min rotation.
    """
    mask = (1 << n) - 1
    values = np.arange(1 << n, dtype=np.uint32)
    rot, rot_min, high = values.copy(), values.copy(), np.empty_like(values)
    for _ in range(n - 1):
        np.right_shift(rot, n - 1, out=high)
        np.left_shift(rot, 1, out=rot)
        rot &= mask
        rot |= high
        np.minimum(rot_min, rot, out=rot_min)
    is_rep = rot_min == values
    return np.flatnonzero(is_rep), np.cumsum(is_rep, dtype=np.uint32)[rot_min]


def _robust_claims(reps: np.ndarray, n: int) -> np.ndarray:
    """Rotations and their single-error variants, one row per class."""
    rots = _rotations_array(reps, n)
    return np.concatenate([rots, _variant_block(rots, n)], axis=1)


def _claimants(slots: np.ndarray, n: int) -> np.ndarray:
    """n-bit words whose classes claim any of the slots, in closed form.

    A slot x is claimed by the class of a word w when x is a rotation of
    w or a flip, duplication or deletion of one. Undoing each error
    gives every such w: x itself and its n flips when x < 2^n; x with
    one bit of an equal adjacent pair deleted (any x); x with a 0 or a 1
    inserted at each position when x < 2^(n-1). The slots must ascend,
    so the two bounds cut prefixes. Some words are rotations rather
    than canonical values, and repeats are fine: the caller maps them
    to classes through the rank array.
    """
    j = np.arange(n)
    bit = np.int64(1) << j
    x = slots[:, None]
    low, mid, high = x & (bit - 1), x >> j, x >> (j + 1)
    undup = ((high << j) | low)[(mid ^ high) & 1 == 0]
    w = x[: np.searchsorted(slots, 1 << n)]
    undel = ((mid << (j + 1)) | low)[: np.searchsorted(slots, 1 << (n - 1))]
    return np.concatenate(
        [w.ravel(), (w ^ bit).ravel(), undup, undel.ravel(), (undel | bit).ravel()]
    )


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
    every class is accepted: a value's identifier is its class rank.
    In robust mode a class finds a slot taken exactly when its claim
    set meets that of an accepted class, and claim overlap is
    symmetric. So accepting a class marks as blocked every class that
    claims one of its slots (`_claimants`), and the pass jumps straight
    to the next unmarked class: only kept classes build claim sets.
    """
    table = np.zeros(1 << (n + 1), dtype=np.uint32)
    reps, rank = _canonical_reps(n)

    if mode == "initial":
        table[: 1 << n] = rank
        accepted = reps
    else:
        # unmarked[c] holds while class rank c overlaps no accepted class;
        # the entry past the last rank stays set and ends the pass
        unmarked = np.ones(len(reps) + 2, dtype=bool)
        taken: list[int] = []
        c = 1
        while (c := c + int(np.argmax(unmarked[c:]))) <= len(reps):
            # ascending, as _claimants needs, and without repeats, which
            # would only repeat its work; np.unique is slower on so few
            claims = np.sort(_robust_claims(reps[c - 1 : c], n), axis=None)
            slots = claims[np.diff(claims, prepend=-1) != 0]
            taken.append(int(reps[c - 1]))
            table[slots] = len(taken)
            unmarked[rank[_claimants(slots, n)]] = False
        accepted = np.array(taken, dtype=np.int64)

    keep = (accepted != 0) & (accepted != (1 << n) - 1)
    remap = np.zeros(len(accepted) + 1, dtype=np.uint32)
    remap[1:][keep] = np.arange(1, np.count_nonzero(keep) + 1)
    table = remap[table]
    return Codebook(n, mode, accepted[keep].tolist()), LookupTable(n, mode, table)


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


def generate_codebook(n: int, mode: str) -> tuple[Codebook, LookupTable]:
    """The initial or the robust book of n-bit words, by mode."""
    if mode not in TRIVIAL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return generate_robust_codebook(n) if mode == "robust" else generate_initial_codebook(n)


def brute_force_max_codebook(n: int) -> int:
    """Size of a maximum mutually-non-overlapping class set, exactly.

    Two classes overlap when their claim sets (rotations plus all
    single-error variants) intersect. The answer is the maximum
    independent set of the overlap graph, found by branch and bound
    over bitmasks of classes. Exponential in the worst case; fine at
    this scale, hopeless much above n=14. A test oracle.
    """
    if not 4 <= n <= 10:
        raise ValueError(f"n={n} out of range [4, 10]")

    trivial = {0, (1 << n) - 1}
    reps = [r for r in _canonical_reps(n)[0].tolist() if r not in trivial]
    rows = _robust_claims(np.array(reps, dtype=np.int64), n)
    claims = [frozenset(row.tolist()) for row in rows]
    # closed neighbourhoods: bit j of overlap[i] is set when classes i and j
    # overlap, and every class overlaps itself
    overlap = [
        sum(1 << j for j, other in enumerate(claims) if not mine.isdisjoint(other))
        for mine in claims
    ]

    def largest(cand: int) -> int:
        """Size of a maximum independent set within the classes in cand."""
        if not cand:
            return 0
        # a maximum set holds the class of least degree or one of its
        # neighbours, or that class could be added to it
        members = [i for i in range(len(reps)) if cand >> i & 1]
        v = min(members, key=lambda i: (overlap[i] & cand).bit_count())
        branch, best = overlap[v] & cand, 0
        # branch on each u in turn, then drop u: later branches hold no u
        while branch and cand.bit_count() > best:
            u = branch.bit_length() - 1
            branch ^= 1 << u
            best = max(best, 1 + largest(cand & ~overlap[u]))
            cand ^= 1 << u
        return best

    return largest((1 << len(reps)) - 1)


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


#: each key codebook_from_json reads besides the table object, with the type
#: its value must have; n's type is checked with its range
BOOK_KEYS = (
    ("n", None), ("mode", str), ("words", list),
    ("table.encoding", str), ("table.size", int), ("table.runs", list),
)


def codebook_from_json(data: dict) -> tuple[Codebook, LookupTable]:
    """Inverse of codebook_to_json; a malformed book raises ValueError.

    Every key of BOOK_KEYS and its type, the mode, the range of n, the
    table header, the word lengths, that each word is the smallest
    rotation of its class, and every run (inside the table, identifier in
    1..len(words)) are checked before the table is allocated, and then
    that each word is claimed by its own identifier.
    """
    if not isinstance(data, dict) or not isinstance(data.get("table"), dict):
        raise ValueError("a book must be a JSON object with a table object")
    for path, kind in BOOK_KEYS:
        holder, _, key = path.rpartition(".")
        fields = data[holder] if holder else data
        if key not in fields:
            raise ValueError(f"book key {path} is missing")
        if kind and (not isinstance(fields[key], kind) or isinstance(fields[key], bool)):
            raise ValueError(
                f"book key {path} must be {kind.__name__}, got {type(fields[key]).__name__}")
    n, mode, table = data["n"], data["mode"], data["table"]
    if mode not in TRIVIAL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    low = MIN_BITS_ROBUST if mode == "robust" else MIN_BITS_INITIAL
    if type(n) is not int or not low <= n <= MAX_BITS:
        raise ValueError(f"n={n!r} out of range [{low}, {MAX_BITS}] for mode {mode}")
    size = 2 << n
    if table["encoding"] != "rle" or table["size"] != size:
        raise ValueError(f"table must be rle-encoded with size {size}")
    words = [BitWord.from_string(s) for s in data["words"]]
    if any(w.n != n for w in words):
        raise ValueError(f"every word must be {n} bits long")
    # a book holds each class as its smallest rotation, as the generators write it
    values = np.array([w.value for w in words], dtype=np.int64)
    off = np.flatnonzero(_rotations_array(values, n).min(axis=1) != values)
    if len(off):
        w = words[off[0]]
        raise ValueError(f"word {w} is not its class's smallest rotation {canonical_rotation(w)}")
    runs = table["runs"]
    for run in runs:
        if not (isinstance(run, list) and len(run) == 3 and all(type(v) is int for v in run)):
            raise ValueError(f"table run {run!r} is not three integers")
        start, length, ident = run
        if not 0 <= start < start + length <= size:
            raise ValueError(f"table run {run} lies outside the {size} entries")
        if not 1 <= ident <= len(words):
            raise ValueError(f"table run {run} has identifier outside 1..{len(words)}")
    entries = np.zeros(size, dtype=np.uint32)
    for start, length, ident in runs:
        entries[start : start + length] = ident
    for ident, w in enumerate(words, 1):
        if entries[w.value] != ident:
            raise ValueError(f"word {w} is not claimed by its identifier {ident}")
    return Codebook(n, mode, values.tolist()), LookupTable(n, mode, entries)
