"""Abstract semirings and the induced n-by-n matrix semiring.

Matrices are dense, immutable tuples of tuples.  Powers use the left
recurrence A^[k] = A (x) A^[k-1] and are never reassociated: latin
composition of words is not associative in general, so the evaluation
order is part of the contract.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable

from .languages import lang_compose, lang_one, lang_union, lang_zero
from .words import Alphabet


class DimensionError(ValueError):
    """Matrix dimensions do not match, or a dimension is not positive."""


@dataclass(frozen=True, slots=True)
class Semiring:
    """Element-level operations; laws are checked by property tests per
    instance, not assumed by the engine."""

    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any


NATURALS = Semiring(operator.add, operator.mul, 0, 1)


def language_semiring(alphabet: Alphabet) -> Semiring:
    return Semiring(lang_union, lang_compose, lang_zero(alphabet), lang_one(alphabet))


@dataclass(frozen=True, slots=True)
class SemiringMatrix:
    semiring: Semiring
    rows: tuple[tuple[Any, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise DimensionError("matrix dimension must be positive")
        if any(len(row) != n for row in self.rows):
            raise DimensionError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)


def matrix(semiring: Semiring, rows) -> SemiringMatrix:
    return SemiringMatrix(semiring, tuple(tuple(row) for row in rows))


def _check_compatible(a: SemiringMatrix, b: SemiringMatrix):
    if a.semiring != b.semiring:
        raise DimensionError("matrices are over different semirings")
    if a.n != b.n:
        raise DimensionError(f"dimension mismatch: {a.n} vs {b.n}")


def mat_add(a: SemiringMatrix, b: SemiringMatrix) -> SemiringMatrix:
    _check_compatible(a, b)
    add = a.semiring.add
    return SemiringMatrix(
        a.semiring,
        tuple(
            tuple(add(x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a.rows, b.rows)
        ),
    )


def mat_mul(a: SemiringMatrix, b: SemiringMatrix) -> SemiringMatrix:
    _check_compatible(a, b)
    sr = a.semiring
    add, mul, zero = sr.add, sr.mul, sr.zero
    n = a.n
    cols = tuple(zip(*b.rows))
    return SemiringMatrix(
        a.semiring,
        tuple(
            tuple(
                reduce(add, (mul(ra[k], col[k]) for k in range(n)), zero)
                for col in cols
            )
            for ra in a.rows
        ),
    )


def mat_zero(semiring: Semiring, n: int) -> SemiringMatrix:
    if n < 1:
        raise DimensionError("matrix dimension must be positive")
    z = semiring.zero
    return SemiringMatrix(semiring, tuple(tuple(z for _ in range(n)) for _ in range(n)))


def mat_identity(semiring: Semiring, n: int) -> SemiringMatrix:
    if n < 1:
        raise DimensionError("matrix dimension must be positive")
    z, e = semiring.zero, semiring.one
    return SemiringMatrix(
        semiring,
        tuple(
            tuple(e if i == j else z for j in range(n)) for i in range(n)
        ),
    )


def mat_power_left(a: SemiringMatrix, k: int) -> SemiringMatrix:
    """k-th left power: A^[1] = A, A^[k] = A (x) A^[k-1].

    A zeroth power is deliberately undefined.
    """
    if k < 1:
        raise ValueError("power exponent must be at least 1")
    result = a
    for _ in range(k - 1):
        result = mat_mul(a, result)
    return result
