import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from srrham import lp
from srrham import hypergraph as hg
from srrham import recovery, codes

from conftest import NONSYS_G
from oracles import (
    EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, DenseTableau, GeneralLp,
    bland_packing, dense_solve, evaluate_constraints,
)


# ---------------------------------------------------------------------------
# Independent oracle: enumerate candidate vertices of a bounded LP by solving
# every n-subset of constraint boundaries (plus x_i = 0 planes) with a plain
# rational Gaussian elimination.  Deliberately shares no code with the solver.
# ---------------------------------------------------------------------------

def _solve_square(rows, rhs):
    n = len(rhs)
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def brute_lp_max(problem: GeneralLp):
    """Exact optimum by vertex enumeration; assumes a bounded region."""
    n = problem.num_vars
    planes = [(list(coeffs), rhs) for coeffs, _, rhs in problem.rows]
    for i in range(n):
        planes.append(([Fraction(1 if j == i else 0) for j in range(n)], Fraction(0)))
    best = None
    for subset in itertools.combinations(range(len(planes)), n):
        rows = [planes[i][0] for i in subset]
        rhs = [planes[i][1] for i in subset]
        point = _solve_square(rows, rhs)
        if point is None:
            continue
        if not evaluate_constraints(problem, point):
            continue
        value = sum(c * x for c, x in zip(problem.objective, point))
        if best is None or value > best:
            best = value
    return best


# ---------------------------------------------------------------------------
# Hand-checked instances.  Equality and >= rows, infeasibility and negative
# right-hand sides are outside the package's A x <= b, b >= 0 shape; they
# are checked on the two-phase reference that backs the membership oracle.
# ---------------------------------------------------------------------------

def test_single_bound():
    value, point = lp.solve(lp.LpProblem.maximize([1], [([1], 3)]))
    assert value == 3
    assert point == (Fraction(3),)


def test_box_with_diagonal_cut():
    value, _ = lp.solve(
        lp.LpProblem.maximize([1, 1], [([1, 1], 1), ([1, 0], 1), ([0, 1], 1)])
    )
    assert value == 1


def test_equality_constraint():
    problem = GeneralLp.of([1, 0], [([1, 1], EQ, 1)])
    status, value, point = dense_solve(problem)
    assert status == OPTIMAL
    assert value == 1
    assert evaluate_constraints(problem, point)


def test_infeasible_system():
    problem = GeneralLp.of([0], [([1], EQ, 1), ([1], LE, 0)])
    assert dense_solve(problem) == (INFEASIBLE, None, None)


def test_feasible_point_returned():
    problem = GeneralLp.of([0, 0], [([1, 1], EQ, 1)])
    tab = DenseTableau(problem)
    assert tab.phase1()
    point = tab.solution()
    assert sum(point) == 1 and all(x >= 0 for x in point)
    # Every package LP is feasible at x = 0.
    packing = lp.LpProblem.maximize([1, 1], [([1, 1], 1)])
    assert lp.check_feasible(packing) == (True, (0, 0))


def test_unbounded():
    # No packing LP is unbounded, so an unbounded finish is an internal error.
    with pytest.raises(lp.InvariantError, match="packing LP ended unbounded in column 1"):
        lp.solve(lp.LpProblem.maximize([1, 1], [([1, -1], 1)]))


def test_negative_rhs_normalization():
    # x >= 2 written as -x <= -2, maximize -x  =>  x = 2.
    status, _, point = dense_solve(GeneralLp.of([-1], [([-1], LE, -2)]))
    assert status == OPTIMAL
    assert point == (Fraction(2),)


def test_maximize_rejects_a_negative_rhs():
    with pytest.raises(ValueError, match="negative right-hand side -1/2"):
        lp.LpProblem.maximize([1], [([1], 1), ([-1], Fraction(-1, 2))])
    # Zero is the smallest right-hand side the slack basis admits.
    assert lp.solve(lp.LpProblem.maximize([1], [([1], 0)]))[0] == 0


def test_ge_constraint():
    _, value, _ = dense_solve(
        GeneralLp.of([-1, -1], [([1, 1], GE, 3), ([1, 0], LE, 2)])
    )
    assert value == -3


def test_classic_degenerate_cycling_instance_terminates(monkeypatch):
    # The textbook cycling example; Bland's rule must terminate on it.
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "10000")
    problem = lp.LpProblem.maximize(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], 0),
            ([0, 0, 1, 0], 1),
        ],
    )
    value, point = lp.solve(problem)
    general = GeneralLp.from_problem(problem)
    assert value == brute_lp_max(general)
    assert evaluate_constraints(general, point)


def test_pivot_limit_is_enforced(monkeypatch):
    # One pivot solves this LP: a ceiling of 1 allows it, and 0 does not.
    problem = lp.LpProblem.maximize([1, 1], [([1, 1], 1)])
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "1")
    assert lp.solve(problem)[0] == 1
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "0")
    with pytest.raises(lp.PivotLimitError):
        lp.solve(problem)


def test_pivot_limit_env_override(monkeypatch):
    problem = lp.LpProblem.maximize([1, 1], [([1, 1], 1)])
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "0")
    with pytest.raises(lp.PivotLimitError):
        lp.solve(problem)
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "junk")
    with pytest.raises(ValueError):
        lp.solve(problem)


def test_malformed_problem_rejected():
    with pytest.raises(ValueError):
        lp.LpProblem.maximize([1, 1], [([1], 1)])
    with pytest.raises(ValueError):
        lp.LpProblem(2, (Fraction(1),), ())


def test_worked_fractional_matching_value():
    # The partial recovery hypergraph of the coded-only symbol serves 7/3.
    code = codes.import_generator(NONSYS_G, 2)
    graph = hg.from_recovery_system(recovery.build_recovery_system(code))
    part = hg.partial_hypergraph(graph, [2])
    value, weights = hg.fractional_matching_number(part)
    assert value == Fraction(7, 3)
    assert sorted(w for w in weights.values()) == [Fraction(1, 3)] * 7


def _boxed_rows(rng, n):
    """A bounding box, which keeps the region bounded so the oracle is exact."""
    return [
        ([1 if j == i else 0 for j in range(n)], LE, rng.randrange(1, 5))
        for i in range(n)
    ]


def test_random_lps_match_vertex_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randrange(2, 4)
        rows = [(coeffs, rhs) for coeffs, _, rhs in _boxed_rows(rng, n)]
        for _ in range(rng.randrange(0, 3)):
            rows.append(([rng.randrange(-3, 4) for _ in range(n)], rng.randrange(0, 7)))
        objective = [rng.randrange(-4, 5) for _ in range(n)]
        problem = lp.LpProblem.maximize(objective, rows)
        general = GeneralLp.from_problem(problem)
        value, point = lp.solve(problem)
        assert value == brute_lp_max(general)
        assert evaluate_constraints(general, point)


def test_dense_reference_matches_vertex_enumeration_oracle():
    # The two-phase reference behind the membership oracle, on rows of every
    # relation and right-hand sides of either sign.
    rng = random.Random(2024)
    solved = 0
    for _ in range(120):
        n = rng.randrange(2, 4)
        rows = _boxed_rows(rng, n)
        for _ in range(rng.randrange(0, 3)):
            coeffs = [rng.randrange(-3, 4) for _ in range(n)]
            rel = rng.choice([LE, GE, EQ])
            rows.append((coeffs, rel, rng.randrange(-2, 7)))
        objective = [rng.randrange(-4, 5) for _ in range(n)]
        problem = GeneralLp.of(objective, rows)
        expected = brute_lp_max(problem)
        status, value, point = dense_solve(problem)
        if expected is None:
            assert status == INFEASIBLE
        else:
            assert status == OPTIMAL
            assert value == expected
            assert evaluate_constraints(problem, point)
            solved += 1
    assert solved > 40  # the mix must actually exercise the optimal path


def test_redundant_constraints_keep_known_optimum():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 5)
        bounds = [Fraction(rng.randrange(1, 6)) for _ in range(n)]
        weights = [Fraction(rng.randrange(0, 5)) for _ in range(n)]
        rows = [([1 if j == i else 0 for j in range(n)], bounds[i]) for i in range(n)]
        # Redundant aggregates cannot change the box optimum.
        for _ in range(rng.randrange(1, 4)):
            subset = [i for i in range(n) if rng.random() < 0.7]
            coeffs = [1 if i in subset else 0 for i in range(n)]
            slacked = sum(bounds[i] for i in subset) + rng.randrange(0, 3)
            rows.append((coeffs, slacked))
        problem = lp.LpProblem.maximize(weights, rows)
        value, _ = lp.solve(problem)
        assert value == sum(w * b for w, b in zip(weights, bounds))


def test_determinism_same_vertex():
    problem = lp.LpProblem.maximize(
        [1, 1, 0],
        [([1, 1, 1], 2), ([1, 0, 1], 1), ([0, 1, 0], 1)],
    )
    first = lp.solve(problem)
    second = lp.solve(problem)
    assert first == second


# ---------------------------------------------------------------------------
# Packing LPs with rational right-hand sides: the integer tableau must follow
# the plain rational Bland simplex pivot for pivot.
# ---------------------------------------------------------------------------

def _rationals(max_den: int):
    return st.builds(
        Fraction, st.integers(0, 10 ** 6), st.integers(1, max_den)
    )


@st.composite
def _packing_lps(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    rows = st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
    columns = [draw(rows) for _ in range(n)]
    # Rows that share one right-hand side (or 0) make ratio ties and
    # degenerate pivots, where Bland's tie-break decides the vertex.
    shared = draw(_rationals(10 ** 6))
    rhs = draw(st.lists(
        st.one_of(_rationals(10 ** 6), st.just(shared), st.just(Fraction(0))),
        min_size=m, max_size=m,
    ))
    # Repeated small weights give ties between optimal vertices, where the
    # pivot path decides which one is returned.
    weights = draw(st.lists(
        st.one_of(
            st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
            st.builds(Fraction, st.integers(-20, 100), st.integers(1, 1000)),
        ),
        min_size=n, max_size=n,
    ))
    return columns, rhs, weights


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_packing_lps())
@example(  # a ratio tie on the first pivot: the tie-break decides the vertex
    ([[0, 1], [0], [1]], [Fraction(1, 999983)] * 2,
     [Fraction(1), Fraction(2), Fraction(0)])
)
def test_max_packing_matches_rational_bland_vertex(lp_data):
    columns, rhs, weights = lp_data
    expected = bland_packing(columns, rhs, weights)
    assert lp.max_packing(columns, rhs, weights) == expected


def _final_tableau(columns, rhs, weights) -> lp._Tableau:
    dense = [[0] * len(weights) for _ in rhs]
    for j, rows in enumerate(columns):
        for r in rows:
            dense[r][j] = 1
    tab = lp._Tableau(lp.LpProblem.maximize(weights, zip(dense, rhs)))
    tab.optimize()
    return tab


def test_rational_rhs_leaves_the_coefficient_part_untouched():
    # The 11 x 20 packing LP of check on Ham(3,2): demand rows, then nodes.
    code = codes.classic_hamming(3, 2)
    system = recovery.build_recovery_system(code)
    columns = [
        [i - 1] + [4 + v - 1 for v in members]
        for i, sets in enumerate(system.per_symbol, start=1) for members in sets
    ]
    weights = [1] * len(columns)
    rhs = [Fraction(3, 2), Fraction(1, 3), 1, 2] + [Fraction(1)] * 7
    big = 10 ** 40 + 1
    whole = _final_tableau(columns, rhs, weights)
    scaled = _final_tableau(columns, [Fraction(b) / big for b in rhs], weights)
    assert whole.pivots == scaled.pivots > 0
    assert whole.basis == scaled.basis and whole.den == scaled.den
    # Every row, coefficient part and rhs numerators alike, is the same: the
    # factor 1/big lives in the common rhs denominator alone.
    assert whole.rows == scaled.rows
    assert scaled.rhs_den == whole.rhs_den * big
    assert scaled.solution() == tuple(x / big for x in whole.solution())


# ---------------------------------------------------------------------------
# The revised simplex pivots only the basis inverse; it must take the same
# pivots as the dense reference tableau and end in the same state.
# ---------------------------------------------------------------------------

@st.composite
def _general_lps(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    coeff = st.one_of(
        st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    )
    # Shared and zero right-hand sides make ratio ties and degenerate pivots.
    shared = draw(st.builds(Fraction, st.integers(0, 20), st.integers(1, 5)))
    value = st.one_of(
        st.builds(Fraction, st.integers(0, 20), st.integers(1, 5)),
        st.just(shared),
        st.just(Fraction(0)),
    )
    rows = [
        (draw(st.lists(coeff, min_size=n, max_size=n)), draw(value))
        for _ in range(m)
    ]
    objective = draw(st.lists(coeff, min_size=n, max_size=n))
    return lp.LpProblem.maximize(objective, rows)


def _tableau_state(tab):
    return tab.pivots, tab.basis, tab.den, tab.rhs_den, tab.rows, tab.solution()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_general_lps())
@example(  # two copies of one row at rhs 0: a degenerate ratio tie
    lp.LpProblem.maximize(
        [1, 2], [([1, 1], 0)] * 2 + [([Fraction(-1, 2), 3], Fraction(7, 3))]
    )
)
def test_revised_tableau_pivots_like_the_dense_reference(problem):
    revised, dense = lp._Tableau(problem), DenseTableau(GeneralLp.from_problem(problem))
    # The slack basis is feasible, so the reference's phase 1 does nothing.
    assert dense.phase1() and dense.pivots == 0
    assert _tableau_state(revised) == _tableau_state(dense)
    if dense.phase2(problem.objective) == UNBOUNDED:
        # Both stop at the same column, before pivoting on it.
        with pytest.raises(lp.InvariantError, match="packing LP ended unbounded"):
            revised.optimize()
    else:
        revised.optimize()
    assert _tableau_state(revised) == _tableau_state(dense)
