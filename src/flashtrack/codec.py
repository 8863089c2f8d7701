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
claimed by a different word. Exhaustive sweeps over every word, phase
and single error cover only n <= 12: there alias votes never last more
than 2 steps, so a run of 3 never locks onto the wrong identifier, and a
clean stream locks within n+2 bits. From n = 13 a deletion before the
first lock can lock wrong (F1, ROADMAP item 1). The lock is the state's
identifier: 0 until the rule fires, then the voted identifier for good;
a new stream takes a fresh decoder.

The rule lives once, in `StreamDecoder.push`. Every sampled bit of every
tracked beacon passes through that method, so it is kept lean: a decoder
takes its table's constants once (n, the `LookupTable.slots` view, the
n-bit and (n+1)-bit masks, the robust flag, the lock run), each push
returns a fresh immutable snapshot, and lookups read `slots` live, a
zero-copy view of the table's entries whose items are plain ints.
"""

from __future__ import annotations

from fractions import Fraction
import math
from typing import NamedTuple

import numpy as np

from .codebook import BitWord, Codebook, LookupTable, generate_robust_codebook

LOCK_RUN = {"initial": 1, "robust": 3}


class DecodeState(NamedTuple):
    """Streaming decoder state; advance with StreamDecoder.push, one bit per sample.

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


# builds a DecodeState without the named tuple's Python-level __new__
_new_tuple = tuple.__new__


class StreamDecoder:
    """Decoder for one tracked flash point: the one copy of the lock rule.

    Takes the table's constants once: n, the live `lut.slots` view (an
    edit to `lut.entries` shows in the next vote), the n-bit and
    (n+1)-bit window masks, whether the table is robust, and
    LOCK_RUN[lut.mode]. state is the latest DecodeState; each push
    stores and returns a new snapshot.
    """

    __slots__ = ("lut", "state", "_n", "_slots", "_word_mask", "_window_mask", "_robust", "_lock_run")

    def __init__(self, lut: LookupTable):
        n = lut.n
        self.lut = lut
        self.state = DecodeState()
        self._n = n
        self._slots = lut.slots
        self._word_mask = (1 << n) - 1
        self._window_mask = (2 << n) - 1
        self._robust = lut.mode == "robust"
        self._lock_run = LOCK_RUN[lut.mode]

    def push(self, bit: int) -> DecodeState:
        """Feed one bit; stores and returns the successor state."""
        identifier, consumed, run, last, window = self.state
        window = ((window << 1) | (bit & 1)) & self._window_mask
        consumed += 1

        vote = 0
        if consumed >= self._n:
            slots = self._slots
            vote = slots[window & self._word_mask]
            if self._robust and consumed > self._n:
                longer = slots[window]
                if longer != vote:
                    # a lone nonzero lookup votes; two different ones cancel
                    vote = 0 if vote and longer else vote or longer

        if vote:
            run = run + 1 if vote == last else 1
            # a nonzero vote implies at least n bits consumed
            if not identifier and run >= self._lock_run:
                identifier = vote
        else:
            run = 0
        self.state = state = _new_tuple(DecodeState, (identifier, consumed, run, vote, window))
        return state

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


def indel_distance(a: BitWord, b: BitWord) -> int:
    """Minimum single-bit insertions plus deletions turning word a into b.

    Computed as a.n + b.n - 2 * LCS(a, b); a substitution costs 2 because
    it decomposes into one deletion plus one insertion. The LCS is
    bit-parallel (Allison & Dix 1986; Hyyro 2004) on the words' integers,
    both read last bit first, which leaves it unchanged: v holds one row
    of the LCS table over b, bit j clear where the row steps up at b's
    j-th bit from the end, and the LCS is the number of clear bits.
    """
    full = (1 << b.n) - 1
    match = (full ^ b.value, b.value)  # b's positions of each bit value
    v = full
    for i in range(a.n):
        u = v & match[(a.value >> i) & 1]
        v = ((v + u) | (v - u)) & full
    return a.n + b.n - 2 * (b.n - v.bit_count())


def assign_ids(positions, visibility_radius: float, cb: Codebook, ids=None) -> dict[int, int]:
    """Greedy identifier assignment spreading edit distance locally.

    Returns each flasher's identifier by index. ids holds each flasher's
    explicit identifier, or None to assign one; ids=None assigns all. A
    flasher with one keeps it and counts as a neighbour from the start;
    the others are processed in order, each taking the unused identifier
    maximizing the minimum indel distance to identifiers already held by
    flashers within visibility_radius. Distant flashers impose no
    constraint, so close code pairs may be reused across rooms. Ties break
    toward the lowest identifier, so a flasher with no neighbour takes the
    lowest unused one.
    """
    pts = [np.asarray(p, dtype=float) for p in positions]
    ids = [None] * len(pts) if ids is None else ids
    assigned = {i: ident for i, ident in enumerate(ids) if ident is not None}
    auto = [i for i, ident in enumerate(ids) if ident is None]
    free = sorted(set(range(1, len(cb) + 1)) - set(assigned.values()))
    if len(auto) > len(free):
        raise ValueError(f"{len(auto)} flashers but only {len(free)} code-words")

    # a pair's distance is asked again by every later flasher near both
    pair_distance: dict[tuple[int, int], int] = {}

    def distance(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        if key not in pair_distance:
            pair_distance[key] = indel_distance(cb.word(a), cb.word(b))
        return pair_distance[key]

    for i in auto:
        neighbours = [
            assigned[j]
            for j in assigned
            if float(np.linalg.norm(pts[j] - pts[i])) <= visibility_radius
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
    return dict(sorted(assigned.items()))
