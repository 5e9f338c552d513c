"""Distinguished words over a finite alphabet and their latin composition.

A distinguished word is either the empty word, a simple word (all symbols
pairwise distinct), or a simple cyclic word (a simple word with its first
symbol appended).  Latin composition glues two simple words over a shared
boundary symbol; anything that would leave the distinguished fragment
collapses to the empty word.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import permutations

ENUMERATION_CAP = 8

EMPTY_RENDERING = "^"


class AlphabetError(ValueError):
    """A symbol does not belong to the alphabet, or alphabets differ."""


class EnumerationCapError(ValueError):
    """Alphabet too large for exhaustive word enumeration."""


class WordKind(Enum):
    EMPTY = "empty"
    SIMPLE = "simple"
    SIMPLE_CYCLIC = "simple_cyclic"
    NOT_DISTINGUISHED = "not_distinguished"


@dataclass(frozen=True, slots=True)
class Alphabet:
    """Ordered alphabet; words refer to symbols by index."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise AlphabetError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise AlphabetError("alphabet symbols must be distinct")

    @property
    def n(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise AlphabetError(f"unknown symbol {symbol!r}") from None


@dataclass(frozen=True, slots=True)
class DistinguishedWord:
    """Immutable word as a tuple of symbol indices plus its classification.

    ``mask`` is the bitset of indices used; it is derived from ``indices``
    and kept out of equality.  Only empty / simple / simple-cyclic words are
    constructible.
    """

    indices: tuple[int, ...]
    kind: WordKind
    mask: int = field(compare=False, repr=False, default=0)

    def __post_init__(self):
        if self.kind not in (WordKind.EMPTY, WordKind.SIMPLE, WordKind.SIMPLE_CYCLIC):
            raise ValueError("only distinguished words are representable")

    @classmethod
    def from_indices(cls, indices: tuple[int, ...]) -> "DistinguishedWord":
        kind = _classify_indices(indices)
        if kind is WordKind.NOT_DISTINGUISHED:
            raise ValueError(f"index sequence {indices} is not a distinguished word")
        return cls(indices, kind, _bitmask(indices))

    @property
    def is_empty(self) -> bool:
        return self.kind is WordKind.EMPTY

    def render(self, alphabet: Alphabet) -> str:
        if not self.indices:
            return EMPTY_RENDERING
        return "-".join(alphabet.symbols[i] for i in self.indices)


EMPTY_WORD = DistinguishedWord((), WordKind.EMPTY, 0)


def _bitmask(indices: tuple[int, ...]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _classify_indices(indices: tuple[int, ...]) -> WordKind:
    if not indices:
        return WordKind.EMPTY
    if len(set(indices)) == len(indices):
        return WordKind.SIMPLE
    if (
        indices[0] == indices[-1]
        and len(set(indices[:-1])) == len(indices) - 1
    ):
        return WordKind.SIMPLE_CYCLIC
    return WordKind.NOT_DISTINGUISHED


def classify(symbols: tuple[str, ...] | list[str] | str, alphabet: Alphabet) -> WordKind:
    """Classify a symbol sequence; unknown symbols raise AlphabetError."""
    if isinstance(symbols, str):
        symbols = tuple(symbols)
    indices = tuple(alphabet.index(s) for s in symbols)
    return _classify_indices(indices)


def word_from_symbols(symbols, alphabet: Alphabet) -> DistinguishedWord:
    if isinstance(symbols, str):
        symbols = tuple(symbols)
    return DistinguishedWord.from_indices(tuple(alphabet.index(s) for s in symbols))


def latin_compose(x: DistinguishedWord, y: DistinguishedWord) -> DistinguishedWord:
    """Latin composition of two distinguished words.

    Any operand that is empty or simple-cyclic absorbs to the empty word.
    Two simple words glue over a shared boundary symbol; when both the
    open-path and the closing-cycle cases apply (only for two equal
    one-symbol words) the open case wins, so single symbols are idempotent.
    """
    if x.kind is not WordKind.SIMPLE or y.kind is not WordKind.SIMPLE:
        return EMPTY_WORD
    a = x.indices
    b = y.indices
    if a[-1] != b[0]:
        return EMPTY_WORD
    tail = b[1:]
    tail_mask = _bitmask(tail)
    if x.mask & tail_mask == 0:
        joined = a + tail
        return DistinguishedWord(joined, WordKind.SIMPLE, x.mask | tail_mask)
    if b[-1] == a[0]:
        interior = b[1:-1]
        interior_mask = _bitmask(interior)
        if x.mask & interior_mask == 0:
            joined = a + interior + (a[0],)
            return DistinguishedWord(
                joined, WordKind.SIMPLE_CYCLIC, x.mask | interior_mask
            )
    return EMPTY_WORD


def sigma_count(n: int) -> int:
    """Number of distinguished words (including the empty word) over n symbols."""
    if n < 1:
        raise ValueError("alphabet size must be positive")
    total, falling = 1, 1
    for k in range(1, n + 1):
        falling *= n - k + 1  # n! / (n-k)!: the simple words of length k
        total += 2 * falling  # and as many simple cyclic ones
    return total


def enumerate_distinguished(alphabet: Alphabet) -> frozenset[DistinguishedWord]:
    """All distinguished words over the alphabet, the empty word included."""
    return frozenset(map(DistinguishedWord.from_indices, distinguished_in_order(alphabet)))


def distinguished_in_order(alphabet: Alphabet) -> Iterator[tuple[int, ...]]:
    """The indices of every distinguished word over the alphabet, the empty
    word included, by length, then in index order, made one at a time as
    they are read.  The enumeration cap is checked on the call."""
    n = alphabet.n
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"alphabet size {n} exceeds the enumeration cap {ENUMERATION_CAP}"
        )

    def ordered():
        yield ()
        for k in range(1, n + 2):
            # the k-1 symbols before the last are distinct: the last one is
            # new (a simple word) or closes the word (a simple cyclic one)
            for p in permutations(range(n), k - 1):
                for x in range(n):
                    if x not in p or x == p[0]:
                        yield p + (x,)

    return ordered()
