from itertools import combinations

import pytest

from srrham import codes
from srrham.fields import FieldMatrix, in_span, rank

from conftest import CLASSIC_G_32, CLASSIC_H_32, GPRIME, NONSYS_G
from oracles import min_weight, orthogonal


def test_build_parity_check_r3_q2_counting_order():
    h = codes.build_parity_check(3, 2)
    assert h.to_lists() == CLASSIC_H_32


def test_build_parity_check_r2_q2_repetition_dual():
    h = codes.build_parity_check(2, 2)
    assert h.to_lists() == [[0, 1, 1], [1, 0, 1]]


def test_build_parity_check_r3_q3_pairwise_independent():
    h = codes.build_parity_check(3, 3)
    assert h.cols == 13
    cols = [h.column(j) for j in range(13)]
    for col in cols:
        first = next(v for v in col if v != 0)
        assert first == 1
    # Exhaustive pairwise independence: no column is a multiple of another.
    for a, b in combinations(cols, 2):
        for scale in range(1, 3):
            assert tuple((scale * v) % 3 for v in a) != b


def test_build_parity_check_rejects_small_r():
    with pytest.raises(ValueError):
        codes.build_parity_check(1, 2)
    with pytest.raises(ValueError):
        codes.build_parity_check(3, 4)


def test_classic_hamming_reproduces_worked_matrices():
    c = codes.classic_hamming(3, 2)
    assert c.parity_check.to_lists() == CLASSIC_H_32
    assert c.generator.to_lists() == CLASSIC_G_32
    assert c.systematic_positions == (3, 5, 6, 7)


@pytest.mark.parametrize(
    "r,q,parity_weight",
    [(3, 2, 3), (4, 2, 7), (3, 3, 8)],
)
def test_systematic_parity_column_weights(r, q, parity_weight):
    c = codes.systematic_hamming(r, q)
    assert (c.n, c.k) == (codes.hamming_length(r, q), codes.hamming_length(r, q) - r)
    assert c.systematic_positions == tuple(range(1, c.k + 1))
    for j in range(c.k, c.n):
        col = c.generator.column(j)
        assert sum(1 for v in col if v) == parity_weight
    # Left block is the identity.
    for i in range(c.k):
        col = c.generator.column(i)
        assert col == tuple(1 if t == i else 0 for t in range(c.k))


@pytest.mark.parametrize("r,q", [(3, 2), (4, 2), (5, 2), (3, 3), (2, 2)])
def test_orthogonality_and_ranks(r, q):
    for builder in (codes.systematic_hamming, codes.classic_hamming):
        c = builder(r, q)
        assert orthogonal(c.generator, c.parity_check)
        assert rank(c.generator) == c.k
        assert rank(c.parity_check) == c.r


@pytest.mark.parametrize("r,q", [(3, 2), (4, 2), (3, 3)])
def test_minimum_distances_by_brute_force(r, q):
    c = codes.systematic_hamming(r, q)
    assert c.d == min_weight(c.generator) == 3
    assert min_weight(c.parity_check) == q ** (r - 1)


def test_ham52_distances_assumed_from_closed_form():
    c = codes.systematic_hamming(5, 2)
    assert c.d == 3
    assert min_weight(c.parity_check) == 16
    # Spot-check d: pairwise independent parity-check columns rule out
    # weights 1 and 2.
    reps = {c.parity_check.column(j) for j in range(c.n)}
    assert len(reps) == c.n and all(any(col) for col in reps)


def test_import_nonsystematic_worked_generator():
    c = codes.import_generator(NONSYS_G, 2)
    assert c.systematic_positions is None
    # Symbols c and d do have systematic servers at columns 7 and 4.
    assert c.unit_columns == (None, None, 7, 4)
    assert c.d == 3
    assert min_weight(c.parity_check) == 4


def test_import_roundtrip_systematic():
    base = codes.systematic_hamming(3, 2)
    again = codes.import_generator(base.generator.to_lists(), 2)
    assert again.systematic_positions == (1, 2, 3, 4)
    assert again.generator == base.generator


def test_import_rejects_rank_deficit():
    rows = [list(r) for r in NONSYS_G]
    rows[3] = rows[0]
    with pytest.raises(ValueError, match="rank"):
        codes.import_generator(rows, 2)


def test_import_rejects_non_hamming():
    # A [6,3] self-dual-ish matrix: wrong length for redundancy 3.
    rows = [
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
    ]
    with pytest.raises(ValueError, match="Hamming property"):
        codes.import_generator(rows, 2)


def test_import_rejects_non_orthogonal_parity_check():
    data = codes.systematic_hamming(3, 2).to_json_dict()
    # Full rank, but row 1 of the parity check is not orthogonal to G.
    data["parity_check"][0][0] ^= 1
    assert rank(FieldMatrix.from_rows(data["parity_check"], 2)) == 3
    with pytest.raises(ValueError, match="does not match"):
        codes.code_from_json_dict(data)


def test_import_rejects_repeated_column_code():
    # Right length (7 = 2^3 - 1) but a repeated parity-check column.
    c = codes.classic_hamming(3, 2)
    rows = [list(r) for r in c.generator.entries]
    for row in rows:
        row[1] = row[0]  # duplicate a stored combination
    try:
        codes.import_generator(rows, 2)
    except ValueError:
        return
    pytest.fail("expected a Hamming-property rejection")


@pytest.mark.parametrize(
    "r,q,nonzero_weight",
    [(3, 2, 4), (4, 2, 8), (3, 3, 9)],
)
def test_dual_codewords_single_weight(r, q, nonzero_weight):
    c = codes.systematic_hamming(r, q)
    words = codes.dual_codewords(c)
    assert len(words) == q ** r
    zero_words = [w for w in words if not w.support]
    assert len(zero_words) == 1
    assert all(len(w.support) == nonzero_weight for w in words if w.support)


def test_odd_weight_column_count(nonsys, classic32, sys42):
    assert codes.odd_weight_column_count(nonsys) == 3
    assert codes.odd_weight_columns(nonsys.generator) == [3, 4, 7]
    assert codes.odd_weight_column_count(classic32) == 7
    assert codes.odd_weight_column_count(sys42) == 15


def test_odd_weight_count_rejects_ternary(sys33):
    with pytest.raises(ValueError):
        codes.odd_weight_column_count(sys33)


def test_odd_weight_columns_all_even_matrix():
    m = FieldMatrix.from_rows([[1, 0], [1, 0]], 2)
    assert codes.odd_weight_columns(m) == []


def test_gprime_has_coded_only_recovery_of_first_symbol():
    c = codes.import_generator(GPRIME, 2)
    assert c.systematic_positions == (4, 5, 6, 7)
    cols = c.generator.select_columns([0, 1, 2])
    assert in_span(cols, [1, 0, 0, 0]) is not None


def test_json_roundtrip_preserves_matrices():
    for builder, args in (
        (codes.systematic_hamming, (3, 2)),
        (codes.classic_hamming, (3, 2)),
        (codes.systematic_hamming, (3, 3)),
    ):
        c = builder(*args)
        data = c.to_json_dict()
        again = codes.code_from_json_dict(data)
        assert again.generator == c.generator
        assert again.parity_check == c.parity_check
        assert again.systematic_positions == c.systematic_positions
    bad = codes.systematic_hamming(3, 2).to_json_dict()
    bad["k"] = 5
    with pytest.raises(ValueError, match="mismatch"):
        codes.code_from_json_dict(bad)
