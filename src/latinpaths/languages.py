"""Distinguished languages: finite sets of distinguished words.

The empty word is an implicit member of every language and is never stored;
the language whose stored set is empty is the semiring zero.  Union is the
semiring addition, latin composition the multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import EMPTY_RENDERING
from .words import (
    Alphabet,
    AlphabetError,
    DistinguishedWord,
    WordKind,
    latin_compose,
    word_from_symbols,
)


@dataclass(frozen=True, slots=True)
class DistinguishedLanguage:
    """Finite set of non-empty distinguished words over a fixed alphabet."""

    alphabet: Alphabet
    words: frozenset[DistinguishedWord]

    def __post_init__(self):
        for w in self.words:
            if w.kind is WordKind.EMPTY:
                raise ValueError("the empty word is implicit and never stored")

    @property
    def is_zero(self) -> bool:
        return not self.words

    def sorted_words(self) -> list[DistinguishedWord]:
        """Canonical order: lexicographic by symbol-index sequence."""
        return sorted(self.words, key=lambda w: w.indices)

    def render(self) -> str:
        if self.is_zero:
            return EMPTY_RENDERING
        items = ", ".join(w.render(self.alphabet) for w in self.sorted_words())
        return "{" + items + "}"


def language(alphabet: Alphabet, words=()) -> DistinguishedLanguage:
    return DistinguishedLanguage(alphabet, frozenset(words))


def language_of(alphabet: Alphabet, *symbol_seqs) -> DistinguishedLanguage:
    """Convenience constructor from symbol sequences (strings or tuples)."""
    return language(
        alphabet, (word_from_symbols(seq, alphabet) for seq in symbol_seqs)
    )


def _check_alphabets(l1: DistinguishedLanguage, l2: DistinguishedLanguage):
    if l1.alphabet != l2.alphabet:
        raise AlphabetError("languages are over different alphabets")


def lang_union(l1: DistinguishedLanguage, l2: DistinguishedLanguage) -> DistinguishedLanguage:
    _check_alphabets(l1, l2)
    return DistinguishedLanguage(l1.alphabet, l1.words | l2.words)


def lang_compose(l1: DistinguishedLanguage, l2: DistinguishedLanguage) -> DistinguishedLanguage:
    """Pairwise latin composition; empty-word results are absorbed."""
    _check_alphabets(l1, l2)
    out = set()
    for x in l1.words:
        for y in l2.words:
            z = latin_compose(x, y)
            if z.indices:
                out.add(z)
    return DistinguishedLanguage(l1.alphabet, frozenset(out))


def lang_zero(alphabet: Alphabet) -> DistinguishedLanguage:
    return DistinguishedLanguage(alphabet, frozenset())


def lang_one(alphabet: Alphabet) -> DistinguishedLanguage:
    """The language of all one-symbol words, the multiplicative identity
    on languages whose stored words are all simple."""
    singletons = (
        DistinguishedWord((i,), WordKind.SIMPLE, 1 << i) for i in range(alphabet.n)
    )
    return DistinguishedLanguage(alphabet, frozenset(singletons))
