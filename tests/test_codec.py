"""Streaming decode, lock-on arithmetic, indel metric, id assignment."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtrack.codebook import BitWord, generate_robust_codebook
from flashtrack.codec import (
    LOCK_RUN,
    STATUS_LOCKED,
    STATUS_UNKNOWN,
    StreamDecoder,
    assign_ids,
    decode_window,
    encode,
    indel_distance,
    lock_on_display,
    lock_on_time,
    push_bit,
    render_lockon_table,
)
from flashtrack.codec import DecodeState

bit_strings = st.text(alphabet="01", min_size=1, max_size=12)


def drive(lut, bits):
    decoder = StreamDecoder(lut)
    return [decoder.push(int(b)) for b in bits]


class TestEncode:
    def test_word_for_identifier(self, initial_books):
        book, _ = initial_books[4]
        assert str(encode(book, 4)) == "0111"

    def test_unknown_identifier(self, initial_books):
        book, _ = initial_books[4]
        with pytest.raises(ValueError):
            encode(book, 5)


class TestDecodeWindow:
    def test_window_of_n_bits(self, initial_books):
        _, lut = initial_books[4]
        assert decode_window(lut, BitWord.from_string("1101")) == 4
        assert decode_window(lut, BitWord.from_string("0000")) == 0

    def test_robust_window_of_n_plus_one(self, robust_books):
        _, lut = robust_books[4]
        assert decode_window(lut, BitWord.from_string("11110")) == 1
        assert decode_window(lut, BitWord.from_string("00011")) == 1
        assert decode_window(lut, BitWord.from_string("10101")) == 0

    def test_bad_length_rejected(self, initial_books):
        _, lut = initial_books[4]
        with pytest.raises(ValueError):
            decode_window(lut, BitWord.from_string("11"))


class TestReferenceStream:
    def test_vote_stream_4444444(self, initial_books):
        """1101110111 votes identifier 4 from the 4th bit onward."""
        _, lut = initial_books[4]
        states = drive(lut, "1101110111")
        assert [s.vote for s in states] == [0, 0, 0] + [4] * 7

    def test_lock_is_immediate_in_initial_mode(self, initial_books):
        _, lut = initial_books[4]
        states = drive(lut, "1101110111")
        assert states[2].status == STATUS_UNKNOWN
        assert states[3].status == STATUS_LOCKED
        assert states[3].identifier == 4


class TestPushBit:
    def test_bits_consumed_counts(self, robust_books):
        _, lut = robust_books[4]
        state = DecodeState()
        for k, b in enumerate("0111", start=1):
            state = push_bit(state, lut, int(b))
            assert state.bits_consumed == k

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

    def test_reset_clears_lock(self, robust_books):
        _, lut = robust_books[4]
        decoder = StreamDecoder(lut)
        for b in "011101110111":
            decoder.push(int(b))
        decoder.reset()
        assert decoder.identifier == 0
        assert decoder.state.bits_consumed == 0

    def test_conflicting_tables_vote_zero(self, robust_books):
        """The two window lengths must agree or the step abstains."""
        _, lut = robust_books[4]
        # craft: last 4 bits say id 1, last 5 bits say unknown-nonzero is
        # impossible for n=4 single word, so check abstention on unknowns
        states = drive(lut, "00000")
        assert all(s.vote == 0 for s in states)

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
            for kind, pos in itertools.product(("flip", "dup", "del"), range(n)):
                bits = list(clean)
                if kind == "flip":
                    bits[n + pos] ^= 1
                elif kind == "dup":
                    bits.insert(n + pos, bits[n + pos])
                else:
                    del bits[n + pos]
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


bit_lists = st.lists(st.integers(0, 1), max_size=24)


class TestIndelDistance:
    @given(bit_lists, bit_lists)
    @settings(max_examples=500)
    def test_matches_dynamic_program_on_bit_sequences(self, a, b):
        assert indel_distance(a, b) == dp_indel_distance(a, b)

    @given(st.lists(st.integers(0, 3), max_size=16), st.lists(st.integers(0, 3), max_size=16))
    def test_matches_dynamic_program_on_wider_alphabet(self, a, b):
        assert indel_distance(a, b) == dp_indel_distance(a, b)

    @given(bit_strings, bit_strings)
    def test_matches_dynamic_program_on_bitwords_and_strings(self, a, b):
        want = dp_indel_distance([int(c) for c in a], [int(c) for c in b])
        wa, wb = BitWord.from_string(a), BitWord.from_string(b)
        assert indel_distance(wa, wb) == want
        assert indel_distance(a, wb) == want
        assert indel_distance(wa, b) == want

    def test_identity(self):
        assert indel_distance("0110", "0110") == 0

    def test_single_deletion_costs_one(self):
        assert indel_distance("0110", "010") == 1

    def test_flip_costs_two(self):
        assert indel_distance("0110", "0100") == 2

    def test_accepts_bitwords(self):
        a, b = BitWord.from_string("0111"), BitWord.from_string("0011")
        assert indel_distance(a, b) == 2

    @given(bit_strings, bit_strings)
    def test_symmetry(self, a, b):
        assert indel_distance(a, b) == indel_distance(b, a)

    @given(bit_strings, bit_strings)
    def test_bounds(self, a, b):
        d = indel_distance(a, b)
        assert 0 <= d <= len(a) + len(b)
        assert (d == 0) == (a == b)

    @given(bit_strings, bit_strings, bit_strings)
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
        book, _ = robust_books[12]
        pool = {3, 4, 6, 8}
        ids = assign_ids(self.CUBE[:4], radius, book, candidates=pool)
        assert set(ids.values()) == pool
        assert ids[0] == 3

    # flashers 0 and 3 of the cube hold explicit ids 5 and 2; the six others
    # are spread over the rest of the n = 13 robust book (12 words). The
    # expected ids are what the scenario's own pool assignment gave before
    # it was folded into assign_ids.
    @pytest.mark.parametrize(
        "radius,want", [(math.inf, [1, 12, 7, 3, 4, 6]), (1.2, [1, 3, 4, 11, 6, 8])]
    )
    def test_candidates_match_mixed_explicit_and_auto_cube(self, radius, want):
        book, _ = generate_robust_codebook(13)
        auto = [p for i, p in enumerate(self.CUBE) if i not in (0, 3)]
        pool = set(range(1, len(book) + 1)) - {5, 2}
        ids = assign_ids(auto, radius, book, candidates=pool)
        assert [ids[i] for i in range(len(auto))] == want

    def test_pool_smaller_than_flashers_rejected(self, robust_books):
        book, _ = robust_books[12]
        with pytest.raises(ValueError, match="2 code-words"):
            assign_ids(self.CUBE[:3], 10.0, book, candidates=[7, 2])
