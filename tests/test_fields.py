import random
from fractions import Fraction

import pytest

from srrham.fields import (
    FieldMatrix,
    format_rational,
    in_span,
    kernel_basis,
    parse_rational,
    rank,
    rref,
)

from conftest import CLASSIC_G_32, CLASSIC_H_32
from oracles import orthogonal


# Scalars are plain ints inside FieldMatrix; the field laws are checked
# through the matrix operations that use them.


def test_field_add_characteristic_two():
    # 1 + 1 = 0: every column below has two ones, so the rows sum to zero,
    # and (e1 + e2) + (e2 + e3) = e1 + e3.  Over GF(3) neither holds.
    cycle = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert rank(FieldMatrix.from_rows(cycle, 2)) == 2
    assert rank(FieldMatrix.from_rows(cycle, 3)) == 3
    pair = [[1, 0], [1, 1], [0, 1]]
    assert in_span(FieldMatrix.from_rows(pair, 2), [1, 0, 1]) == (1, 1)
    assert in_span(FieldMatrix.from_rows(pair, 3), [1, 0, 1]) is None


def test_field_mul_mod_three():
    # 2 * 2 = 1 mod 3: solving 2 x = 1 gives x = 2, and (2, 1) is a multiple
    # of (1, 2), so the pair has rank 1.
    assert in_span(FieldMatrix.from_rows([[2]], 3), [1]) == (2,)
    assert rank(FieldMatrix.from_rows([[1, 2], [2, 1]], 3)) == 1


def test_field_sub_additive_inverse():
    # The kernel of [1 1] over GF(5) is spanned by (-1, 1) = (4, 1).
    assert kernel_basis(FieldMatrix.from_rows([[1, 1]], 5)).entries == ((4, 1),)


def test_field_inverse_examples():
    # Solving a * x = 1 yields the inverse of a.
    for a, q, inv in ((1, 2, 1), (2, 3, 2), (3, 7, 5)):
        assert in_span(FieldMatrix.from_rows([[a]], q), [1]) == (inv,)


def test_field_inverse_of_zero_rejected():
    assert in_span(FieldMatrix.from_rows([[0]], 3), [1]) is None


def test_field_element_must_be_reduced_and_prime():
    with pytest.raises(ValueError):
        FieldMatrix(3, ((4,),))
    with pytest.raises(ValueError):
        FieldMatrix(4, ((1,),))


def test_rref_identity_fixed_point():
    m = FieldMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    reduced, pivots, rk = rref(m)
    assert reduced == m
    assert pivots == (0, 1, 2)
    assert rk == 3


def test_rref_equal_rows_lose_rank():
    m = FieldMatrix.from_rows([[1, 0, 1], [1, 0, 1]], 2)
    reduced, _, rk = rref(m)
    assert rk == 1
    assert reduced.entries[1] == (0, 0, 0)


def test_rref_classic_parity_check_rank():
    m = FieldMatrix.from_rows(CLASSIC_H_32, 2)
    assert rank(m) == 3


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(42)
    for q in (2, 3):
        for _ in range(50):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            m = FieldMatrix.from_rows(
                [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], q
            )
            reduced, pivots, rk = rref(m)
            again, pivots2, rk2 = rref(reduced)
            assert again == reduced
            assert (pivots, rk) == (pivots2, rk2)


def test_in_span_identity_column():
    cols = FieldMatrix.from_rows([[1], [0]], 2)
    assert in_span(cols, [1, 0]) == (1,)


def test_in_span_sum_of_unit_columns():
    cols = FieldMatrix.from_rows([[1, 0], [0, 1]], 2)
    assert in_span(cols, [1, 1]) == (1, 1)


def test_in_span_classic_recovery_columns():
    g = FieldMatrix.from_rows(CLASSIC_G_32, 2)
    cols = g.select_columns([0, 4, 6])  # columns 1, 5, 7
    assert in_span(cols, [1, 0, 0, 0]) is not None


def test_in_span_dimension_mismatch():
    cols = FieldMatrix.from_rows([[1], [0]], 2)
    with pytest.raises(ValueError):
        in_span(cols, [1, 0, 0])


def test_in_span_agrees_with_rank_criterion():
    rng = random.Random(7)
    for q in (2, 3):
        for _ in range(80):
            rows = rng.randrange(1, 5)
            cols_n = rng.randrange(1, 5)
            m = FieldMatrix.from_rows(
                [[rng.randrange(q) for _ in range(cols_n)] for _ in range(rows)], q
            )
            t = [rng.randrange(q) for _ in range(rows)]
            coeffs = in_span(m, t)
            aug = FieldMatrix.from_rows(
                [list(m.entries[i]) + [t[i]] for i in range(rows)], q
            )
            assert (coeffs is not None) == (rank(m) == rank(aug))
            if coeffs is not None:
                # The certificate really solves the system.
                for i in range(rows):
                    lhs = sum(m.entries[i][j] * coeffs[j] for j in range(cols_n)) % q
                    assert lhs == t[i] % q


def test_kernel_basis_is_orthogonal_and_full():
    rng = random.Random(3)
    for q in (2, 3):
        for _ in range(40):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(rows, 6)
            m = FieldMatrix.from_rows(
                [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], q
            )
            ker = kernel_basis(m)
            assert ker.rows == cols - rank(m)
            if ker.rows:
                assert orthogonal(m, ker)
                assert rank(ker) == ker.rows


def test_rational_arithmetic_lowest_terms():
    a = Fraction(2, 4)
    assert (a.numerator, a.denominator) == (1, 2)
    b = Fraction(1, 3) + Fraction(1, 6)
    assert (b.numerator, b.denominator) == (1, 2)
    assert Fraction(5, 7) + (-Fraction(5, 7)) == 0


def test_parse_and_format_rational():
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational(" 2 ") == Fraction(2)
    assert format_rational(Fraction(14, 6)) == "7/3"
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")
