import itertools
import math

import pytest

from latinpaths.words import (
    EMPTY_WORD,
    Alphabet,
    AlphabetError,
    DistinguishedWord,
    EnumerationCapError,
    WordKind,
    classify,
    distinguished_in_order,
    enumerate_distinguished,
    latin_compose,
    sigma_count,
    word_from_symbols,
)

AB = Alphabet(("a", "b"))
NUM4 = Alphabet(("1", "2", "3", "4"))


def w(text, alphabet=NUM4):
    return word_from_symbols(text, alphabet)


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(AlphabetError):
            Alphabet(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(AlphabetError):
            Alphabet(())

    def test_index(self):
        assert NUM4.index("3") == 2
        with pytest.raises(AlphabetError):
            NUM4.index("x")


class TestClassify:
    def test_simple_cyclic(self):
        assert classify("aba", AB) is WordKind.SIMPLE_CYCLIC

    def test_empty(self):
        assert classify("", AB) is WordKind.EMPTY

    def test_interior_repeat_is_not_distinguished(self):
        assert classify("abab", AB) is WordKind.NOT_DISTINGUISHED

    def test_simple(self):
        assert classify("ab", AB) is WordKind.SIMPLE

    def test_two_symbol_loop(self):
        assert classify("aa", AB) is WordKind.SIMPLE_CYCLIC

    def test_unknown_symbol(self):
        with pytest.raises(AlphabetError):
            classify("az", AB)

    def test_constructor_rejects_non_distinguished(self):
        with pytest.raises(ValueError):
            DistinguishedWord.from_indices((0, 1, 0, 1))


class TestLatinCompose:
    def test_cyclic_absorbs(self):
        assert latin_compose(w("22"), w("123")) == EMPTY_WORD
        assert latin_compose(w("123"), w("343")) == EMPTY_WORD

    def test_open_glue(self):
        assert latin_compose(w("123"), w("31")) == w("1231")
        assert latin_compose(w("31"), w("123")) == w("3123")
        assert latin_compose(w("1"), w("123")) == w("123")

    def test_empty_absorbs(self):
        assert latin_compose(EMPTY_WORD, w("12")) == EMPTY_WORD
        assert latin_compose(w("12"), EMPTY_WORD) == EMPTY_WORD

    def test_not_commutative(self):
        assert latin_compose(w("123"), w("31")) != latin_compose(w("31"), w("123"))

    def test_single_symbol_idempotent(self):
        # both glue cases apply here; the open case wins and yields "1"
        assert latin_compose(w("1"), w("1")) == w("1")

    def test_two_arc_closing(self):
        assert latin_compose(w("12"), w("21")) == w("121")

    def test_mismatched_boundary(self):
        assert latin_compose(w("12"), w("34")) == EMPTY_WORD

    def test_overlap_blocks(self):
        # 3 already occurs in the left word
        assert latin_compose(w("132"), w("23")) == EMPTY_WORD

    def test_not_associative_counterexample(self):
        # guards against reassociating power computation
        left = latin_compose(latin_compose(w("1"), w("12")), w("21"))
        right = latin_compose(w("1"), latin_compose(w("12"), w("21")))
        assert left == w("121")
        assert right == EMPTY_WORD
        assert left != right


class TestClosure:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_composition_closed_and_length_arithmetic(self, n):
        alphabet = Alphabet(tuple("abc"[:n]))
        words = enumerate_distinguished(alphabet)
        for x, y in itertools.product(words, words):
            z = latin_compose(x, y)
            assert z.kind in (WordKind.EMPTY, WordKind.SIMPLE, WordKind.SIMPLE_CYCLIC)
            if not z.is_empty:
                # only simple operands produce output, glued over one symbol
                assert x.kind is WordKind.SIMPLE and y.kind is WordKind.SIMPLE
                assert len(z.indices) == len(x.indices) + len(y.indices) - 1
                if z.kind is WordKind.SIMPLE_CYCLIC:
                    assert z.indices[0] == z.indices[-1]


class TestSigmaCount:
    def test_known_values(self):
        assert sigma_count(1) == 3
        assert sigma_count(2) == 9
        assert sigma_count(4) == 129
        for n in range(1, 301):
            assert sigma_count(n) == 1 + 2 * sum(math.perm(n, k) for k in range(1, n + 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sigma_count(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_enumeration(self, n):
        alphabet = Alphabet(tuple(str(i) for i in range(n)))
        assert len(enumerate_distinguished(alphabet)) == sigma_count(n)


class TestEnumerate:
    def test_two_symbols(self):
        words = enumerate_distinguished(AB)
        rendered = {word.render(AB) for word in words}
        assert rendered == {"^", "a", "b", "a-a", "b-b", "a-b", "b-a", "a-b-a", "b-a-b"}

    def test_one_symbol(self):
        alphabet = Alphabet(("a",))
        rendered = {word.render(alphabet) for word in enumerate_distinguished(alphabet)}
        assert rendered == {"^", "a", "a-a"}

    def test_four_symbols(self):
        assert len(enumerate_distinguished(NUM4)) == 129

    def test_cap(self):
        big = Alphabet(tuple(str(i) for i in range(9)))
        with pytest.raises(EnumerationCapError):
            enumerate_distinguished(big)
        # refused on the call, before any word is read
        with pytest.raises(EnumerationCapError):
            distinguished_in_order(big)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_in_order(self, n):
        # every word once, simple or simple cyclic, by length then indices
        words = list(distinguished_in_order(Alphabet(tuple(str(i) for i in range(n)))))
        assert words == sorted(set(words), key=lambda w: (len(w), w))
        assert len(words) == sigma_count(n)
        for w in words:
            assert len(set(w)) == len(w) or (w[0] == w[-1] and len(set(w)) == len(w) - 1)


class TestRendering:
    def test_word(self):
        assert w("124").render(NUM4) == "1-2-4"

    def test_empty(self):
        assert EMPTY_WORD.render(NUM4) == "^"
