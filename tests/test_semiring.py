import pytest

from latinpaths.languages import lang_one, lang_zero, language_of
from latinpaths.semiring import (
    NATURALS,
    DimensionError,
    SemiringMatrix,
    language_semiring,
    mat_add,
    mat_identity,
    mat_mul,
    mat_power_left,
    mat_zero,
    matrix,
)
from latinpaths.words import Alphabet

ABC = Alphabet(("a", "b", "c"))


def lang_mat(rows):
    sr = language_semiring(ABC)
    return matrix(sr, rows), sr


class TestMatAdd:
    def test_naturals(self):
        a = matrix(NATURALS, [[1, 0], [0, 1]])
        b = matrix(NATURALS, [[1, 1], [0, 0]])
        assert mat_add(a, b) == matrix(NATURALS, [[2, 1], [0, 1]])

    def test_zero_neutral(self):
        a = matrix(NATURALS, [[3, 5], [7, 11]])
        assert mat_add(a, mat_zero(NATURALS, 2)) == a

    def test_idempotent_over_languages(self):
        a, _ = lang_mat(
            [
                [language_of(ABC, "ab"), lang_zero(ABC)],
                [language_of(ABC, "bca"), language_of(ABC, "bc")],
            ]
        )
        assert mat_add(a, a) == a

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_add(matrix(NATURALS, [[1]]), mat_zero(NATURALS, 2))

    def test_semiring_mismatch(self):
        a, _ = lang_mat([[lang_zero(ABC)]])
        with pytest.raises(DimensionError):
            mat_add(a, matrix(NATURALS, [[0]]))


class TestMatMul:
    def test_language_product(self):
        # 2x2 product over the three-symbol alphabet
        a, sr = lang_mat(
            [
                [language_of(ABC, "ab"), lang_zero(ABC)],
                [language_of(ABC, "bca"), language_of(ABC, "bc")],
            ]
        )
        b = matrix(
            sr,
            [
                [language_of(ABC, "b"), language_of(ABC, "ab")],
                [language_of(ABC, "c"), lang_zero(ABC)],
            ],
        )
        expected = matrix(
            sr,
            [
                [language_of(ABC, "ab"), lang_zero(ABC)],
                [language_of(ABC, "bc"), language_of(ABC, "bcab")],
            ],
        )
        assert mat_mul(a, b) == expected

    def test_identity_on_simple_word_entries(self):
        a, sr = lang_mat(
            [
                [language_of(ABC, "ab"), lang_zero(ABC)],
                [language_of(ABC, "bca"), language_of(ABC, "bc")],
            ]
        )
        # bca is simple, so the restriction to simple stored words holds
        identity = mat_identity(sr, 2)
        assert mat_mul(a, identity) == a
        assert mat_mul(identity, a) == a

    def test_zero_absorbs(self):
        a = matrix(NATURALS, [[2, 3], [5, 7]])
        zero = mat_zero(NATURALS, 2)
        assert mat_mul(a, zero) == zero
        assert mat_mul(zero, a) == zero

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_mul(matrix(NATURALS, [[1]]), mat_zero(NATURALS, 3))


class TestSpecialMatrices:
    def test_zero_naturals(self):
        assert mat_zero(NATURALS, 2) == matrix(NATURALS, [[0, 0], [0, 0]])

    def test_identity_naturals(self):
        assert mat_identity(NATURALS, 2) == matrix(NATURALS, [[1, 0], [0, 1]])

    def test_identity_over_languages(self):
        ab = Alphabet(("a", "b"))
        sr = language_semiring(ab)
        identity = mat_identity(sr, 2)
        assert identity.rows[0][0] == lang_one(ab)
        assert identity.rows[0][1] == lang_zero(ab)
        assert identity.rows[1][0] == lang_zero(ab)
        assert identity.rows[1][1] == lang_one(ab)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            mat_zero(NATURALS, 0)
        with pytest.raises(DimensionError):
            mat_identity(NATURALS, 0)
        with pytest.raises(DimensionError):
            SemiringMatrix(NATURALS, ())


class TestPowerLeft:
    def test_first_power_is_the_matrix(self):
        a = matrix(NATURALS, [[1, 2], [3, 4]])
        assert mat_power_left(a, 1) == a

    def test_zeroth_power_rejected(self):
        with pytest.raises(ValueError):
            mat_power_left(matrix(NATURALS, [[1]]), 0)

    def test_matches_successive_left_multiplications(self):
        a = matrix(NATURALS, [[1, 1, 0], [0, 1, 1], [1, 0, 0]])
        direct = a
        for k in range(2, 6):
            direct = mat_mul(a, direct)
            assert mat_power_left(a, k) == direct

    def test_adjacency_cube_entry(self, four_vertex_graph):
        from latinpaths.enumeration import adjacency_matrix

        cube = mat_power_left(adjacency_matrix(four_vertex_graph), 3)
        assert cube.rows[0][3] == 5
        assert cube.rows[1][1] == 1
