"""Code-book construction: necklace counts, frozen reference tables, claims."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtrack import codebook
from flashtrack.codebook import (
    BitWord,
    brute_force_max_codebook,
    canonical_rotation,
    codebook_from_json,
    codebook_to_json,
    generate_codebook,
    generate_initial_codebook,
    generate_robust_codebook,
    necklace_count,
    noisify,
)

# A000031: number of binary necklaces of length n
A000031 = {
    1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 14, 7: 20, 8: 36,
    9: 60, 10: 108, 11: 188, 12: 352, 13: 632, 14: 1182,
}

# frozen reference: 4-bit lookup table, no error correction (16 entries)
INITIAL_TABLE_N4 = {
    0b0000: 0, 0b0100: 1, 0b1000: 1, 0b1100: 2,
    0b0001: 1, 0b0101: 3, 0b1001: 2, 0b1101: 4,
    0b0010: 1, 0b0110: 2, 0b1010: 3, 0b1110: 4,
    0b0011: 2, 0b0111: 4, 0b1011: 4, 0b1111: 0,
}

# frozen reference: 4-bit robust lookup table (32 entries, single word 0111)
ROBUST_TABLE_N4 = {
    0b00000: 0, 0b01000: 0, 0b10000: 0, 0b11000: 0,
    0b00001: 0, 0b01001: 1, 0b10001: 0, 0b11001: 1,
    0b00010: 0, 0b01010: 1, 0b10010: 0, 0b11010: 0,
    0b00011: 1, 0b01011: 1, 0b10011: 1, 0b11011: 1,
    0b00100: 0, 0b01100: 1, 0b10100: 0, 0b11100: 1,
    0b00101: 1, 0b01101: 1, 0b10101: 0, 0b11101: 1,
    0b00110: 1, 0b01110: 1, 0b10110: 0, 0b11110: 1,
    0b00111: 1, 0b01111: 1, 0b10111: 1, 0b11111: 0,
}


def brute_force_class_count(n: int) -> int:
    """Independent rotation enumeration, minus the two trivial classes."""
    seen = set()
    classes = 0
    for v in range(1 << n):
        if v in seen:
            continue
        word = BitWord(v, n)
        seen.update(r.value for r in word.rotations())
        classes += 1
    return classes - 2


def reference_generate(n: int, mode: str) -> tuple[list[int], np.ndarray]:
    """One-class-at-a-time greedy pass: (canonical values, table entries).

    Visits the classes in ascending canonical order, checks each claim
    set against the table alone and writes it on acceptance, then strikes
    the two trivial classes and renumbers. The neighbour-marking pass in
    flashtrack.codebook, which builds claim sets for kept classes only,
    must reproduce it exactly.
    """
    mask = (1 << n) - 1
    reps = [
        v for v in range(1 << n)
        if all(v <= (((v << k) & mask) | (v >> (n - k))) for k in range(1, n))
    ]
    table = np.zeros(1 << (n + 1), dtype=np.uint32)
    accepted: list[int] = []
    for rep in reps:
        rots = codebook._rotations_array(np.array([rep], dtype=np.int64), n)
        claim = rots.ravel()
        if mode == "robust":
            claim = np.concatenate([claim, codebook._variant_block(rots, n).ravel()])
        claim = np.unique(claim)
        if table[claim].any():
            continue
        accepted.append(rep)
        table[claim] = len(accepted)

    trivial = {0, mask}
    keep = [(i + 1, rep) for i, rep in enumerate(accepted) if rep not in trivial]
    remap = np.zeros(len(accepted) + 1, dtype=np.uint32)
    for new_id, (old_id, _) in enumerate(keep, start=1):
        remap[old_id] = new_id
    return [rep for _, rep in keep], remap[table]


def assert_matches_reference(n, mode, ref_words, ref_table):
    book, lut = generate_codebook(n, mode)
    assert [w.value for w in book.words] == ref_words
    assert lut.entries.dtype == ref_table.dtype
    assert np.array_equal(lut.entries, ref_table)


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_initial_equals_reference(self, n):
        assert_matches_reference(n, "initial", *reference_generate(n, "initial"))

    @pytest.mark.parametrize("n", range(4, 17))
    def test_robust_equals_reference(self, n):
        assert_matches_reference(n, "robust", *reference_generate(n, "robust"))

    @pytest.mark.parametrize("n", range(4, 11))
    def test_claimants_are_exactly_the_overlapping_classes(self, n):
        """The closed form blocks class d from c's slots exactly when the
        claim sets of c and d meet, for every class c."""
        reps, rank = codebook._canonical_reps(n)
        claims = [set(row.tolist()) for row in codebook._robust_claims(reps, n)]
        for c, mine in enumerate(claims, 1):
            slots = np.array(sorted(mine), dtype=np.int64)
            blocked = set(rank[codebook._claimants(slots, n)].tolist())
            overlapping = {d for d, other in enumerate(claims, 1) if not mine.isdisjoint(other)}
            assert blocked == overlapping, f"class {c} ({reps[c - 1]:0{n}b})"


class TestBitWord:
    def test_from_string_round_trip(self):
        w = BitWord.from_string("0111")
        assert w.value == 0b0111 and w.n == 4
        assert str(w) == "0111"
        assert w.bits == (0, 1, 1, 1)

    def test_rotate_left_msb_first(self):
        w = BitWord.from_string("0111")
        assert str(w.rotate_left()) == "1110"

    def test_rotations_cover_class(self):
        w = BitWord.from_string("0001")
        assert {str(r) for r in w.rotations()} == {"0001", "0010", "0100", "1000"}

    def test_trivial_words(self):
        assert BitWord.from_string("0000").is_trivial
        assert BitWord.from_string("1111").is_trivial
        assert not BitWord.from_string("0101").is_trivial

    @given(st.integers(2, 12), st.data())
    def test_canonical_rotation_is_rotation_invariant(self, n, data):
        v = data.draw(st.integers(0, (1 << n) - 1))
        w = BitWord(v, n)
        canon = canonical_rotation(w)
        for r in w.rotations():
            assert canonical_rotation(r) == canon
        assert canon.value == min(r.value for r in w.rotations())


class TestNecklaceCount:
    @pytest.mark.parametrize("n,expected", sorted(A000031.items()))
    def test_matches_a000031(self, n, expected):
        assert necklace_count(n) == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_brute_force_enumeration(self, n):
        assert necklace_count(n) - 2 == brute_force_class_count(n)


class TestNoisify:
    def test_example_insertion_of_1110(self):
        # 11110 is a duplication variant of 1110
        w = BitWord.from_string("1110")
        assert BitWord.from_string("11110").value in noisify(w)

    def test_example_flip_source_of_00011(self):
        # 00011 arises from flipping the leading bit of 10011
        target = BitWord.from_string("00011").value
        assert target in noisify(BitWord.from_string("10011"))

    def test_example_deletion_source_of_00011(self):
        # deleting the last bit of 0111 leaves 011, which shares the
        # integer slot of 00011 under leading-zero collapse
        w = BitWord.from_string("0111")
        assert BitWord.from_string("011").value in noisify(w)

    def test_all_flips_present(self):
        w = BitWord.from_string("0101")
        for j in range(4):
            assert (w.value ^ (1 << j)) in noisify(w)

    @given(st.integers(3, 10), st.data())
    def test_counts_and_range(self, n, data):
        v = data.draw(st.integers(1, (1 << n) - 2))
        w = BitWord(v, n)
        variants = noisify(w)
        assert len(variants) <= 3 * n
        assert all(0 <= x < (1 << (n + 1)) for x in variants)


class TestInitialCodebook:
    def test_n4_words_match_reference(self, initial_books):
        book, _ = initial_books[4]
        assert [str(w) for w in book.words] == ["0001", "0011", "0101", "0111"]

    def test_n4_table_matches_reference(self, initial_books):
        _, lut = initial_books[4]
        for code, ident in INITIAL_TABLE_N4.items():
            assert lut[code] == ident, f"{code:04b}"

    @pytest.mark.parametrize("n", range(2, 13))
    def test_size_is_necklace_count_minus_trivial(self, n, initial_books):
        book, _ = initial_books[n]
        assert len(book) == necklace_count(n) - 2

    def test_identifiers_dense_and_ascending(self, initial_books):
        book, _ = initial_books[8]
        values = [book.word(i).value for i in range(1, len(book) + 1)]
        assert values == sorted(values)
        assert book.identifier_of(book.word(3)) == 3

    def test_every_rotation_decodes_to_class(self, initial_books):
        book, lut = initial_books[6]
        for i in range(1, len(book) + 1):
            for r in book.word(i).rotations():
                assert lut[r.value] == i

    def test_trivial_words_decode_to_zero(self, initial_books):
        for n in (4, 8):
            _, lut = initial_books[n]
            assert lut[0] == 0
            assert lut[(1 << n) - 1] == 0


class TestRobustCodebook:
    def test_n4_book_is_exactly_0111(self, robust_books):
        book, _ = robust_books[4]
        assert [str(w) for w in book.words] == ["0111"]

    def test_n4_table_matches_reference_bit_exact(self, robust_books):
        _, lut = robust_books[4]
        for code, ident in ROBUST_TABLE_N4.items():
            assert lut[code] == ident, f"{code:05b}"

    @pytest.mark.parametrize(
        "n,size", [(7, 2), (8, 4), (9, 3), (10, 5), (11, 6), (12, 8)]
    )
    def test_small_sizes_match_reference(self, n, size, robust_books):
        book, _ = robust_books[n]
        assert len(book) == size

    def test_claims_are_exclusive(self, robust_books):
        """No variant of one word may be claimed by another word."""
        book, lut = robust_books[8]
        for i in range(1, len(book) + 1):
            for rot in book.word(i).rotations():
                assert lut[rot.value] == i
                for v in noisify(rot):
                    assert lut[v] in (0, i)

    def test_unclaimed_entries_are_zero_not_reused(self, robust_books):
        book, lut = robust_books[4]
        claimed = {
            entry
            for entry in range(32)
            if ROBUST_TABLE_N4.get(entry, 0) != 0
        }
        for entry in range(32):
            if entry not in claimed:
                assert lut[entry] == 0


class TestBruteForceOracle:
    # n = 9 and 10 were first found with networkx's maximum clique on the
    # complement graph; the branch and bound must agree at every n
    @pytest.mark.parametrize(
        "n,expected", [(4, 1), (5, 2), (6, 2), (7, 2), (8, 4), (9, 4), (10, 6)]
    )
    def test_exact_max_sizes(self, n, expected):
        assert brute_force_max_codebook(n) == expected

    @pytest.mark.parametrize("n", range(4, 9))
    def test_greedy_never_exceeds_exact_max(self, n, robust_books):
        book, _ = robust_books[n]
        assert len(book) <= brute_force_max_codebook(n)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("mode", ["initial", "robust"])
    def test_round_trip_preserves_book_and_table(self, mode, robust_books, initial_books):
        book, lut = (robust_books if mode == "robust" else initial_books)[8]
        data = codebook_to_json(book, lut)
        book2, lut2 = codebook_from_json(data)
        assert [str(w) for w in book2.words] == [str(w) for w in book.words]
        assert book2.mode == book.mode and book2.n == book.n
        assert np.array_equal(lut.entries, lut2.entries)

    def test_rle_payload_smaller_than_dense(self, robust_books):
        book, lut = robust_books[12]
        data = codebook_to_json(book, lut)
        assert data["table"]["encoding"] == "rle"
        assert len(data["table"]["runs"]) < int(np.count_nonzero(lut.entries))


class TestValidation:
    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            generate_initial_codebook(1)
        with pytest.raises(ValueError):
            generate_robust_codebook(3)
        with pytest.raises(ValueError):
            generate_robust_codebook(25)

    def test_generate_codebook_by_mode(self):
        generators = {"initial": generate_initial_codebook, "robust": generate_robust_codebook}
        for mode, gen in generators.items():
            book, lut = generate_codebook(8, mode)
            assert (book.n, book.mode, lut.mode) == (8, mode, mode)
            assert book.words == gen(8)[0].words
        with pytest.raises(ValueError):
            generate_codebook(8, "fast")

    def test_unknown_identifier_rejected(self, robust_books):
        book, _ = robust_books[4]
        with pytest.raises(ValueError):
            book.word(0)
        with pytest.raises(ValueError):
            book.word(2)


@settings(deadline=None, max_examples=25)
@given(st.integers(4, 10))
def test_generation_is_deterministic(n):
    a_book, a_lut = generate_robust_codebook(n)
    b_book, b_lut = generate_robust_codebook(n)
    assert [w.value for w in a_book.words] == [w.value for w in b_book.words]
    assert np.array_equal(a_lut.entries, b_lut.entries)
