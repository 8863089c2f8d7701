"""Streaming decode, lock-on arithmetic, indel metric, id assignment."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtrack import codec
from flashtrack.codebook import BitWord, generate_robust_codebook
from flashtrack.codec import (
    LOCK_RUN,
    StreamDecoder,
    assign_ids,
    indel_distance,
    lock_on_display,
    lock_on_time,
    render_lockon_table,
)
from flashtrack.codec import DecodeState

bit_strings = st.text(alphabet="01", min_size=1, max_size=12)

UNKNOWN, LOCKED = "unknown", "locked"


def drive(lut, bits):
    decoder = StreamDecoder(lut)
    return [decoder.push(int(b)) for b in bits]


@dataclasses.dataclass(frozen=True)
class ReferenceState:
    """The decoder state as a frozen dataclass, stepped by reference_push_bit."""

    status: str = UNKNOWN
    identifier: int = 0
    bits_consumed: int = 0
    agreement_run: int = 0
    vote: int = 0
    window: int = 0

    @property
    def locked(self) -> bool:
        return self.status == LOCKED


def reference_push_bit(state: ReferenceState, lut, bit: int) -> ReferenceState:
    """The decoder step written plainly: a vote list, a set, dataclasses.replace."""
    n = lut.n
    window = ((state.window << 1) | (bit & 1)) & ((1 << (n + 1)) - 1)
    consumed = state.bits_consumed + 1

    votes = []
    if consumed >= n:
        votes.append(lut[window & ((1 << n) - 1)])
    if lut.mode == "robust" and consumed >= n + 1:
        votes.append(lut[window])
    nonzero = {v for v in votes if v}
    vote = nonzero.pop() if len(nonzero) == 1 else 0

    if vote and vote == state.vote:
        run = state.agreement_run + 1
    elif vote:
        run = 1
    else:
        run = 0

    if state.locked:
        return dataclasses.replace(
            state, bits_consumed=consumed, agreement_run=run, vote=vote, window=window
        )
    if vote and consumed >= n and run >= LOCK_RUN[lut.mode]:
        return ReferenceState(LOCKED, vote, consumed, run, vote, window)
    return ReferenceState(UNKNOWN, 0, consumed, run, vote, window)


def assert_matches_reference(lut, bits) -> list:
    """Step a bare state, one StreamDecoder and the reference side by side.

    Every field of every state must agree; the bare state takes each step
    through a fresh decoder set to it, the decoder carries its own across
    the stream.
    """
    state, ref, states = DecodeState(), ReferenceState(), []
    decoder = StreamDecoder(lut)
    for b in bits:
        stepper = StreamDecoder(lut)
        stepper.state = state
        state, ref = stepper.push(b), reference_push_bit(ref, lut, b)
        pushed = decoder.push(b)
        assert tuple(state) == dataclasses.astuple(ref)[1:], (lut.n, lut.mode, bits)
        assert pushed == state and type(pushed) is DecodeState, (lut.n, lut.mode, bits)
        assert state.locked == ref.locked == pushed.locked
        states.append(state)
    return states


def corrupt(bits: list, kind: str, pos: int) -> list:
    """One flip, adjacent duplication or deletion at pos."""
    bits = list(bits)
    if kind == "flip":
        bits[pos] ^= 1
    elif kind == "dup":
        bits.insert(pos, bits[pos])
    else:
        del bits[pos]
    return bits


class TestEncode:
    def test_word_for_identifier(self, initial_books):
        book, _ = initial_books[4]
        assert str(book.word(4)) == "0111"

    def test_unknown_identifier(self, initial_books):
        book, _ = initial_books[4]
        with pytest.raises(ValueError):
            book.word(5)


class TestDecodeWindow:
    def test_window_of_n_bits(self, initial_books):
        _, lut = initial_books[4]
        assert lut[0b1101] == 4
        assert lut[0b0000] == 0

    def test_robust_window_of_n_plus_one(self, robust_books):
        _, lut = robust_books[4]
        assert lut[0b11110] == 1
        assert lut[0b00011] == 1
        assert lut[0b10101] == 0


class TestReferenceStream:
    def test_vote_stream_4444444(self, initial_books):
        """1101110111 votes identifier 4 from the 4th bit onward."""
        _, lut = initial_books[4]
        states = drive(lut, "1101110111")
        assert [s.vote for s in states] == [0, 0, 0] + [4] * 7

    def test_lock_is_immediate_in_initial_mode(self, initial_books):
        _, lut = initial_books[4]
        states = drive(lut, "1101110111")
        assert not states[2].locked
        assert states[3].locked
        assert states[3].identifier == 4


class TestPushBit:
    def test_bits_consumed_counts(self, robust_books):
        _, lut = robust_books[4]
        decoder = StreamDecoder(lut)
        for k, b in enumerate("0111", start=1):
            assert decoder.push(int(b)).bits_consumed == k

    def test_lock_requires_agreement_run_in_robust_mode(self, robust_books):
        _, lut = robust_books[4]
        states = drive(lut, "011101110111")
        first_lock = next(i for i, s in enumerate(states) if s.locked)
        # clean stream: first vote at n bits consumed, lock once the
        # agreement run fills, i.e. at n + LOCK_RUN - 1 bits
        assert states[first_lock].bits_consumed == 4 + LOCK_RUN["robust"] - 1
        assert states[first_lock - 1].vote == 1  # voting before locking
        assert states[first_lock].identifier == 1

    def test_lock_is_sticky(self, robust_books):
        _, lut = robust_books[4]
        decoder = StreamDecoder(lut)
        for b in "011101110111":
            decoder.push(int(b))
        assert decoder.identifier == 1
        for b in "000000000":
            state = decoder.push(int(b))
        assert state.locked and state.identifier == 1

    def test_conflicting_tables_vote_zero(self, robust_books):
        """The two window lengths must agree or the step abstains."""
        _, lut = robust_books[8]
        window = "100111001"
        # the last 8 bits look up identifier 1, all 9 identifier 2
        assert lut.slots[int(window[1:], 2)] == 1
        assert lut.slots[int(window, 2)] == 2
        states = drive(lut, window)
        assert states[-1].vote == 0 and states[-1].agreement_run == 0

    @given(bit_strings)
    @settings(max_examples=200)
    def test_never_locks_without_enough_bits(self, bits):
        from flashtrack.codebook import generate_robust_codebook

        _, lut = generate_robust_codebook(4)
        decoder = StreamDecoder(lut)
        for i, b in enumerate(bits, start=1):
            state = decoder.push(int(b))
            if i < 4:
                assert not state.locked


ERRORS = ("flip", "dup", "del")


@st.composite
def decoder_streams(draw):
    """(mode, n, stream): free bits, or cycles of one book word with one error."""
    mode = draw(st.sampled_from(["initial", "robust"]))
    n = draw(st.integers(4, 10))
    kind = draw(st.sampled_from(("free",) + ERRORS))
    if kind == "free":
        return mode, n, kind, draw(st.lists(st.integers(0, 1), max_size=5 * n))
    pick, phase = draw(st.integers(0, 1 << 16)), draw(st.integers(0, n - 1))
    return mode, n, kind, (pick, phase, draw(st.integers(0, 4 * n - 1)))


class TestMatchesReference:
    """StreamDecoder.push against the plain reference step, state for state."""

    @given(decoder_streams())
    @settings(max_examples=300, deadline=None)
    def test_every_field_of_every_state(self, robust_books, initial_books, case):
        mode, n, kind, drawn = case
        book, lut = (robust_books if mode == "robust" else initial_books)[n]
        if kind == "free":
            bits = drawn
        else:
            pick, phase, pos = drawn
            word = book.word(1 + pick % len(book)).bits
            bits = corrupt([word[(phase + i) % n] for i in range(4 * n)], kind, pos)
        assert_matches_reference(lut, bits)

    def test_word_streams_hit_votes_cancellations_and_locks(self, robust_books, initial_books):
        """Every word, phase and error of the small books: all branches are taken."""
        votes = cancels = locked = 0
        books = [robust_books[n] for n in range(4, 9)] + [initial_books[n] for n in range(4, 7)]
        for book, lut in books:
            n = lut.n
            for word in (w.bits for w in book.words):
                for phase, kind, pos in itertools.product(range(n), ERRORS, range(n, 2 * n)):
                    bits = corrupt([word[(phase + i) % n] for i in range(4 * n)], kind, pos)
                    for s in assert_matches_reference(lut, bits):
                        votes += s.vote != 0
                        locked += s.locked
                        short, longer = lut[s.window & ((1 << n) - 1)], lut[s.window]
                        cancels += (
                            lut.mode == "robust" and s.bits_consumed > n
                            and short and longer and short != longer
                        )
        assert votes and cancels and locked, (votes, cancels, locked)


class TestLongWordLocks:
    """The lock-sweep single-error family beyond criterion 04's n <= 12."""

    @pytest.mark.parametrize(
        "n, want_streams, want_bits", [(13, 6084, 91311), (14, 8820, 141161)]
    )
    def test_every_single_error_stream_locks_its_own_identifier(self, n, want_streams, want_bits):
        # every word and phase, four clean cycles, one flip, duplication or
        # deletion at stream position n+pos, pushed until the decoder locks
        book, lut = generate_robust_codebook(n)
        streams = pushed = 0
        wrong = []
        for ident in range(1, len(book) + 1):
            word = book.word(ident).bits
            for phase, kind, pos in itertools.product(range(n), ERRORS, range(n)):
                bits = corrupt([word[(phase + i) % n] for i in range(4 * n)], kind, n + pos)
                decoder = StreamDecoder(lut)
                for b in bits:
                    pushed += 1
                    if decoder.push(b).locked:
                        break
                streams += 1
                if decoder.identifier != ident:
                    wrong.append((ident, phase, kind, pos, decoder.identifier))
        assert wrong == []
        assert (streams, pushed) == (want_streams, want_bits)


class TestDecoderState:
    def test_defaults_and_locked(self):
        state = DecodeState()
        assert tuple(state) == (0, 0, 0, 0, 0)
        assert state._fields == ("identifier", "bits_consumed", "agreement_run", "vote", "window")
        assert not state.locked
        assert DecodeState(3).locked

    def test_successive_pushes_are_distinct_snapshots(self, robust_books):
        _, lut = robust_books[4]
        decoder = StreamDecoder(lut)
        first = decoder.push(0)
        second = decoder.push(1)
        assert first is not second
        assert (first.bits_consumed, second.bits_consumed) == (1, 2)

    def test_write_through_entries_changes_next_vote(self):
        _, lut = generate_robust_codebook(4)
        decoder = StreamDecoder(lut)
        for b in (0, 1, 1):
            decoder.push(b)
        lut.entries[0b0111] = 9
        assert lut.slots[0b0111] == 9
        assert decoder.push(1).vote == 9

    def test_slots_share_memory_with_entries(self, robust_books):
        _, lut = robust_books[8]
        assert np.shares_memory(np.asarray(lut.slots), lut.entries)
        assert all(lut.slots[i] == lut.entries[i] for i in range(len(lut)))

    def test_table_survives_pickle(self, robust_books):
        _, lut = robust_books[6]
        copy = pickle.loads(pickle.dumps(lut))
        assert (copy.n, copy.mode) == (lut.n, lut.mode)
        assert np.array_equal(copy.entries, lut.entries)
        assert copy.slots[copy.entries.argmax()] == int(lut.entries.max())


class TestRoundTripSmall:
    """Error-free and single-error streams for the small books."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_clean_stream_locks_every_word_every_phase(self, n, robust_books):
        book, lut = robust_books[n]
        for ident in range(1, len(book) + 1):
            word = book.word(ident)
            for phase in range(n):
                bits = [word.bits[(phase + i) % n] for i in range(3 * n)]
                decoder = StreamDecoder(lut)
                for b in bits:
                    decoder.push(b)
                assert decoder.identifier == ident

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_single_error_streams_lock_correctly(self, n, robust_books):
        book, lut = robust_books[n]
        for ident in range(1, len(book) + 1):
            word = book.word(ident)
            clean = list(word.bits) * 4
            for kind, pos in itertools.product(ERRORS, range(n)):
                bits = corrupt(clean, kind, n + pos)
                decoder = StreamDecoder(lut)
                wrong = 0
                for b in bits:
                    state = decoder.push(b)
                    if state.vote not in (0, ident):
                        wrong += 1
                assert decoder.identifier == ident, (n, ident, kind, pos)
                assert wrong <= 2, (n, ident, kind, pos)


class TestLockOnTime:
    def test_seconds_per_cycle(self):
        assert lock_on_time(12, 30) == 0.4
        assert lock_on_time(18, 60) == 0.3

    @pytest.mark.parametrize(
        "n,fps,text",
        [
            (18, 60, "0.30"),
            (7, 30, "0.23"),
            (21, 240, "0.08"),
            (21, 30, "0.70"),
            (13, 60, "0.21"),
        ],
    )
    def test_display_truncates_to_reference_strings(self, n, fps, text):
        assert lock_on_display(n, fps) == text

    def test_truncation_not_rounding(self):
        # 7/30 = 0.2333.. -> 0.23; rounding would also give 0.23, but
        # 17/90 = 0.18888.. -> 0.18 where rounding gives 0.19
        assert lock_on_display(17, 90) == "0.18"

    @pytest.mark.parametrize("fn", [lock_on_time, lock_on_display])
    @pytest.mark.parametrize(
        "n, fps, message",
        [
            (18, math.nan, "fps"), (18, math.inf, "fps"), (18, 0, "fps"), (18, -30.0, "fps"),
            (0, 60, "word length"), (-5, 60, "word length"), (18.0, 60, "word length"),
        ],
    )
    def test_inputs_checked_once(self, fn, n, fps, message):
        with pytest.raises(ValueError, match=message):
            fn(n, fps)

    def test_table_shape(self):
        table = render_lockon_table(sizes={n: 0 for n in range(7, 22)})
        assert sorted(table) == list(range(7, 22))
        assert all(len(row["lockon_s"]) == 8 for row in table.values())


def dp_indel_distance(a, b) -> int:
    """Reference: len(a) + len(b) - 2 * LCS by the quadratic dynamic program."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return len(a) + len(b) - 2 * prev[-1]


bit_words = st.text(alphabet="01", min_size=1, max_size=24).map(BitWord.from_string)
short_words = bit_strings.map(BitWord.from_string)
w = BitWord.from_string


class TestIndelDistance:
    @given(bit_words, bit_words)
    @settings(max_examples=500)
    def test_matches_dynamic_program_on_bit_sequences(self, a, b):
        assert indel_distance(a, b) == dp_indel_distance(a.bits, b.bits)

    def test_identity(self):
        assert indel_distance(w("0110"), w("0110")) == 0

    def test_single_deletion_costs_one(self):
        assert indel_distance(w("0110"), w("010")) == 1

    def test_flip_costs_two(self):
        assert indel_distance(w("0110"), w("0100")) == 2

    def test_accepts_bitwords(self):
        a, b = BitWord.from_string("0111"), BitWord.from_string("0011")
        assert indel_distance(a, b) == 2

    @given(short_words, short_words)
    def test_symmetry(self, a, b):
        assert indel_distance(a, b) == indel_distance(b, a)

    @given(short_words, short_words)
    def test_bounds(self, a, b):
        d = indel_distance(a, b)
        assert 0 <= d <= a.n + b.n
        assert (d == 0) == (a == b)

    @given(short_words, short_words, short_words)
    @settings(max_examples=300)
    def test_triangle_inequality(self, a, b, c):
        assert indel_distance(a, c) <= indel_distance(a, b) + indel_distance(b, c)


class TestAssignIds:
    def test_lone_flasher_gets_first_identifier(self, robust_books):
        book, _ = robust_books[8]
        assert assign_ids([(0.0, 0.0, 0.0)], 10.0, book) == {0: 1}

    def test_neighbours_get_distant_codes(self, robust_books):
        book, _ = robust_books[8]
        ids = assign_ids([(0, 0, 0), (1, 0, 0)], 10.0, book)
        assert ids[0] == 1
        d = indel_distance(book.word(ids[0]), book.word(ids[1]))
        best = max(
            indel_distance(book.word(1), book.word(k))
            for k in range(2, len(book) + 1)
        )
        assert d == best

    def test_far_apart_flashers_reuse_early_ids(self, robust_books):
        book, _ = robust_books[8]
        assert assign_ids([(0, 0, 0), (100, 0, 0)], 1.0, book) == {0: 1, 1: 2}

    def test_more_flashers_than_codes_rejected(self, robust_books):
        book, _ = robust_books[4]
        with pytest.raises(ValueError):
            assign_ids([(0, 0, 0), (1, 1, 1)], 10.0, book)

    CUBE = [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]

    @pytest.mark.parametrize("radius", [math.inf, 1.2, 0.5])
    def test_candidates_never_leave_the_pool(self, robust_books, radius):
        """Explicit ids stay put and auto flashers draw only from the rest."""
        book, _ = robust_books[12]
        explicit = [None, 2, None, 5, None, None, 1, None]
        ids = assign_ids(self.CUBE, radius, book, explicit)
        assert [ids[i] for i in (1, 3, 6)] == [2, 5, 1]
        auto = [ids[i] for i, ident in enumerate(explicit) if ident is None]
        assert len(set(auto)) == len(auto)
        assert not set(auto) & {1, 2, 5}

    def test_explicit_ids_count_as_neighbours(self, robust_books):
        """An explicit id 1 keeps an auto neighbour 0.1 m away off the codes
        near it, as an auto flasher holding 1 does."""
        book, _ = robust_books[12]
        layout = [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0)]
        assert assign_ids(layout, 1.0, book) == {0: 1, 1: 8}
        assert assign_ids(layout, 1.0, book, [1, None]) == {0: 1, 1: 8}
        assert indel_distance(book.word(1), book.word(8)) == 16

    # flashers 0 and 3 of the cube hold explicit ids 5 and 2; the six others
    # are spread over the rest of the n = 13 robust book (12 words), keeping
    # their codes far from 5 and 2 too wherever those are within the radius
    @pytest.mark.parametrize(
        "radius,want",
        [(math.inf, [5, 12, 4, 2, 7, 1, 3, 6]), (1.2, [5, 12, 11, 2, 4, 1, 3, 9])],
    )
    def test_candidates_match_mixed_explicit_and_auto_cube(self, radius, want):
        book, _ = generate_robust_codebook(13)
        explicit = [5, None, None, 2, None, None, None, None]
        ids = assign_ids(self.CUBE, radius, book, explicit)
        assert [ids[i] for i in range(len(self.CUBE))] == want
        # each auto pick is the greedy rule's over everything held before it
        for i, ident in enumerate(explicit):
            if ident is None:
                held = [want[j] for j in range(len(want)) if explicit[j] or j < i]
                near = [want[j] for j in range(len(want)) if (explicit[j] or j < i)
                        and math.dist(self.CUBE[i], self.CUBE[j]) <= radius]
                free = set(range(1, len(book) + 1)) - set(held)
                assert want[i] == max(free, key=lambda c: (min(
                    (indel_distance(book.word(c), book.word(o)) for o in near), default=0), -c))

    def test_each_pair_distance_computed_once(self, initial_books, monkeypatch):
        """A seeded 24-point layout: same picks as the per-pair loop, one
        indel_distance call per distinct pair at most."""
        book, _ = initial_books[9]
        layout = np.random.default_rng(24).uniform(-2.0, 2.0, size=(24, 3))
        radius = 1.5
        original = codec.indel_distance

        # reference: every flasher recomputes every candidate-neighbour distance
        free, want, pairs = list(range(1, len(book) + 1)), {}, set()
        for i, p in enumerate(layout):
            near = [want[j] for j in want if np.linalg.norm(layout[j] - p) <= radius]
            best = free[0]
            if near:
                pairs.update(frozenset((c, o)) for c in free for o in near)
                best = max(
                    free,
                    key=lambda c: (min(original(book.word(c), book.word(o)) for o in near), -c),
                )
            want[i] = best
            free.remove(best)

        calls = []
        monkeypatch.setattr(codec, "indel_distance", lambda a, b: calls.append(1) or original(a, b))
        assert assign_ids(layout, radius, book) == want
        assert 0 < len(calls) <= len(pairs)

    def test_pool_smaller_than_flashers_rejected(self, robust_books):
        book, _ = robust_books[12]  # 8 words, 6 of them held explicitly
        with pytest.raises(ValueError, match="3 flashers but only 2 code-words"):
            assign_ids(self.CUBE + [(2, 0, 0)], 10.0, book, [1, 3, 4, 5, 6, 8, None, None, None])
