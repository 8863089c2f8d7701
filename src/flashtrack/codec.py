"""Streaming decode with lock-on, and identifier utilities.

A beacon repeats its canonical word, `Codebook.word`, forever. The
decoder is a per-stream state machine fed one sampled bit at a time.
It keeps a rolling window of the last n+1 bits as an integer and looks
up the last n bits (and, for robust tables, also the last n+1 bits) in
the decode table. The two lookups are merged into a single per-step
vote: a lone nonzero lookup votes, two agreeing nonzero lookups vote
once, two different nonzero lookups cancel to unknown.

Lock-on requires a run of consecutive identical nonzero votes. Initial
tables lock on the first vote. Robust tables need a run of 3: windows
that straddle a duplication or deletion are two edits away from any
clean rotation, and such a window can land on a slot legitimately
claimed by a different word. Exhaustive sweeps over every word, phase,
and single error for n <= 12 show those alias votes never persist for
more than 2 consecutive steps, so a run of 3 is the smallest threshold
that never locks onto the wrong identifier; a clean stream still locks
within n+2 bits. The lock is the state's identifier: 0 until the rule
fires, then the voted identifier for good; a new stream takes a fresh
decoder.

Every sampled bit of every tracked beacon passes through push_bit, so
the step is kept lean: the state is an immutable named tuple, a fresh
snapshot per bit, and lookups read `LookupTable.slots`, a zero-copy
view of the table whose items are plain ints.
"""

from __future__ import annotations

from fractions import Fraction
import math
from typing import NamedTuple

import numpy as np

from .codebook import BitWord, Codebook, LookupTable, generate_robust_codebook

LOCK_RUN = {"initial": 1, "robust": 3}


class DecodeState(NamedTuple):
    """Streaming decoder state; advance with push_bit, one bit per sample.

    identifier is the lock: 0 until the lock rule fires, then the locked
    identifier for good. vote is this step's merged table vote (0 =
    unknown), kept visible for analysis.
    """

    identifier: int = 0
    bits_consumed: int = 0
    agreement_run: int = 0
    vote: int = 0
    window: int = 0

    @property
    def locked(self) -> bool:
        return self.identifier != 0


def push_bit(state: DecodeState, lut: LookupTable, bit: int) -> DecodeState:
    """Feed one bit; returns the successor state."""
    identifier, consumed, run, last, window = state
    n, slots = lut.n, lut.slots
    window = ((window << 1) | (bit & 1)) & lut._window_mask
    consumed += 1

    vote = 0
    if consumed >= n:
        vote = slots[window & lut._word_mask]
        if consumed > n and lut.mode == "robust":
            longer = slots[window]
            if longer != vote:
                # a lone nonzero lookup votes; two different ones cancel
                vote = 0 if vote and longer else vote or longer

    if not vote:
        run = 0
    elif vote == last:
        run += 1
    else:
        run = 1

    # a nonzero vote implies at least n bits consumed
    if not identifier and vote and run >= LOCK_RUN[lut.mode]:
        identifier = vote
    return DecodeState(identifier, consumed, run, vote, window)


class StreamDecoder:
    """Mutable wrapper around DecodeState for one tracked flash point."""

    def __init__(self, lut: LookupTable):
        self.lut = lut
        self.state = DecodeState()

    def push(self, bit: int) -> DecodeState:
        self.state = push_bit(self.state, self.lut, bit)
        return self.state

    @property
    def identifier(self) -> int:
        return self.state.identifier


def _check_lock_on_inputs(n: int, fps: float) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"word length must be an integer >= 1, got {n!r}")
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be finite and > 0, got {fps!r}")


def lock_on_time(n: int, fps: float) -> float:
    """Seconds from first sample to a full clean code cycle: n / fps."""
    _check_lock_on_inputs(n, fps)
    return n / fps


def lock_on_display(n: int, fps: float) -> str:
    """Lock-on time truncated (not rounded) to 2 decimals for table output."""
    _check_lock_on_inputs(n, fps)
    if isinstance(fps, int) or float(fps).is_integer():
        hundredths = (100 * n) // int(fps)
    else:
        hundredths = math.floor(Fraction(100 * n) / Fraction(fps))
    return f"{hundredths // 100}.{hundredths % 100:02d}"


LOCKON_TABLE_BITS = range(7, 22)
LOCKON_TABLE_FPS = (30, 45, 60, 75, 90, 120, 180, 240)


def render_lockon_table(sizes: dict[int, int] | None = None) -> dict:
    """Lock-on grid for n = 7..21 across the standard frame rates.

    sizes maps n to robust code-book size; when omitted the books are
    generated, which takes about 1.2 s on a 2-CPU machine (Python 3.11,
    numpy 2.4), most of it for n = 20 and 21.
    """
    rows = {}
    for n in LOCKON_TABLE_BITS:
        size = sizes[n] if sizes else len(generate_robust_codebook(n)[0])
        rows[n] = {
            "size": size,
            "lockon_s": {fps: lock_on_display(n, fps) for fps in LOCKON_TABLE_FPS},
        }
    return rows


def _as_bits(w) -> tuple[int, ...]:
    if isinstance(w, BitWord):
        return w.bits
    if isinstance(w, str):
        return BitWord.from_string(w).bits
    return tuple(int(b) for b in w)


def indel_distance(a, b) -> int:
    """Minimum single-symbol insertions plus deletions turning a into b.

    Computed as len(a) + len(b) - 2 * LCS(a, b); a substitution costs 2
    because it decomposes into one deletion plus one insertion. The LCS is
    bit-parallel (Allison & Dix 1986; Hyyro 2004): v holds one row of the
    LCS table over b, bit j clear where the row steps up from b[:j] to
    b[:j+1], so each symbol of a costs a few integer operations and the
    LCS is the number of clear bits.
    """
    xa, xb = _as_bits(a), _as_bits(b)
    match: dict[int, int] = {}  # symbol -> positions in b as bits
    for j, y in enumerate(xb):
        match[y] = match.get(y, 0) | (1 << j)
    full = (1 << len(xb)) - 1
    v = full
    for x in xa:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & full
    lcs = len(xb) - v.bit_count()
    return len(xa) + len(xb) - 2 * lcs


def assign_ids(
    positions, visibility_radius: float, cb: Codebook, candidates=None
) -> dict[int, int]:
    """Greedy identifier assignment spreading edit distance locally.

    Flashers are processed in order; each takes the unused identifier
    maximizing the minimum indel distance to identifiers already held
    by flashers within visibility_radius. Distant flashers impose no
    constraint, so close code pairs may be reused across rooms. Ties
    break toward the lowest identifier, so the first flasher gets 1.
    candidates restricts the pool to those identifiers (all of
    1..len(cb) when None), so the first flasher gets the lowest of them.
    """
    pts = [np.asarray(p, dtype=float) for p in positions]
    free = sorted(range(1, len(cb) + 1) if candidates is None else set(candidates))
    if len(pts) > len(free):
        raise ValueError(f"{len(pts)} flashers but only {len(free)} code-words")

    bits = {ident: cb.word(ident).bits for ident in free}
    # a pair's distance is asked again by every later flasher near both
    pair_distance: dict[tuple[int, int], int] = {}

    def distance(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        if key not in pair_distance:
            pair_distance[key] = indel_distance(bits[a], bits[b])
        return pair_distance[key]

    assigned: dict[int, int] = {}
    for i, p in enumerate(pts):
        neighbours = [
            assigned[j]
            for j in assigned
            if float(np.linalg.norm(pts[j] - p)) <= visibility_radius
        ]
        if neighbours:
            best = max(
                free,
                key=lambda ident: (min(distance(ident, o) for o in neighbours), -ident),
            )
        else:
            best = free[0]
        assigned[i] = best
        free.remove(best)
    return assigned
