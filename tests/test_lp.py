import itertools
import random
from fractions import Fraction

import pytest

from srrham import lp
from srrham import hypergraph as hg
from srrham import recovery, codes

from conftest import NONSYS_G
from oracles import evaluate_constraints


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


def brute_lp_max(problem: lp.LpProblem):
    """Exact optimum by vertex enumeration; assumes a bounded region."""
    n = problem.num_vars
    planes = [(list(c.coeffs), c.rhs) for c in problem.constraints]
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
# Hand-checked instances.
# ---------------------------------------------------------------------------

def test_single_bound():
    out = lp.solve(lp.LpProblem.maximize([1], [([1], lp.LE, 3)]))
    assert out.status == lp.OPTIMAL
    assert out.value == 3
    assert out.solution == (Fraction(3),)


def test_box_with_diagonal_cut():
    out = lp.solve(
        lp.LpProblem.maximize(
            [1, 1],
            [([1, 1], lp.LE, 1), ([1, 0], lp.LE, 1), ([0, 1], lp.LE, 1)],
        )
    )
    assert out.value == 1


def test_equality_constraint():
    out = lp.solve(lp.LpProblem.maximize([1, 0], [([1, 1], lp.EQ, 1)]))
    assert out.status == lp.OPTIMAL
    assert out.value == 1
    assert evaluate_constraints(
        lp.LpProblem.maximize([1, 0], [([1, 1], lp.EQ, 1)]), out.solution
    )


def test_infeasible_system():
    feasible, point = lp.check_feasible(
        lp.LpProblem.maximize([0], [([1], lp.EQ, 1), ([1], lp.LE, 0)])
    )
    assert not feasible and point is None


def test_feasible_point_returned():
    problem = lp.LpProblem.maximize([0, 0], [([1, 1], lp.EQ, 1)])
    feasible, point = lp.check_feasible(problem)
    assert feasible
    assert sum(point) == 1 and all(x >= 0 for x in point)


def test_unbounded():
    out = lp.solve(lp.LpProblem.maximize([1, 1], [([1, -1], lp.LE, 1)]))
    assert out.status == lp.UNBOUNDED


def test_negative_rhs_normalization():
    # x >= 2 written as -x <= -2, maximize -x  =>  x = 2.
    out = lp.solve(lp.LpProblem.maximize([-1], [([-1], lp.LE, -2)]))
    assert out.status == lp.OPTIMAL
    assert out.solution == (Fraction(2),)


def test_ge_constraint():
    out = lp.solve(
        lp.LpProblem.maximize([-1, -1], [([1, 1], lp.GE, 3), ([1, 0], lp.LE, 2)])
    )
    assert out.value == -3


def test_classic_degenerate_cycling_instance_terminates():
    # The textbook cycling example; Bland's rule must terminate on it.
    problem = lp.LpProblem.maximize(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], lp.LE, 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], lp.LE, 0),
            ([0, 0, 1, 0], lp.LE, 1),
        ],
    )
    out = lp.solve(problem, pivot_limit=10_000)
    assert out.status == lp.OPTIMAL
    assert out.value == brute_lp_max(problem)
    assert evaluate_constraints(problem, out.solution)


def test_pivot_limit_is_enforced():
    problem = lp.LpProblem.maximize([1, 1], [([1, 1], lp.LE, 1)])
    with pytest.raises(lp.PivotLimitError):
        lp.solve(problem, pivot_limit=0)


def test_pivot_limit_env_override(monkeypatch):
    problem = lp.LpProblem.maximize([1, 1], [([1, 1], lp.LE, 1)])
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "0")
    with pytest.raises(lp.PivotLimitError):
        lp.solve(problem)
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "junk")
    with pytest.raises(ValueError):
        lp.solve(problem)


def test_malformed_problem_rejected():
    with pytest.raises(ValueError):
        lp.LpProblem.maximize([1, 1], [([1], lp.LE, 1)])
    with pytest.raises(ValueError):
        lp.Constraint((Fraction(1),), "<", Fraction(1))


def test_worked_fractional_matching_value():
    # The partial recovery hypergraph of the coded-only symbol serves 7/3.
    code = codes.import_generator(NONSYS_G, 2)
    graph = hg.from_recovery_system(recovery.build_recovery_system(code))
    part = hg.partial_hypergraph(graph, [2])
    value, weights = hg.fractional_matching_number(part)
    assert value == Fraction(7, 3)
    assert sorted(w for w in weights.values()) == [Fraction(1, 3)] * 7


def test_random_lps_match_vertex_enumeration_oracle():
    rng = random.Random(2024)
    solved = 0
    for _ in range(120):
        n = rng.randrange(2, 4)
        rows = []
        # Bounding box keeps the region bounded so the oracle is exact.
        for i in range(n):
            coeffs = [1 if j == i else 0 for j in range(n)]
            rows.append((coeffs, lp.LE, rng.randrange(1, 5)))
        for _ in range(rng.randrange(0, 3)):
            coeffs = [rng.randrange(-3, 4) for _ in range(n)]
            rel = rng.choice([lp.LE, lp.GE, lp.EQ])
            rows.append((coeffs, rel, rng.randrange(-2, 7)))
        objective = [rng.randrange(-4, 5) for _ in range(n)]
        problem = lp.LpProblem.maximize(objective, rows)
        expected = brute_lp_max(problem)
        out = lp.solve(problem)
        if expected is None:
            assert out.status == lp.INFEASIBLE
        else:
            assert out.status == lp.OPTIMAL
            assert out.value == expected
            assert evaluate_constraints(problem, out.solution)
            solved += 1
    assert solved > 40  # the mix must actually exercise the optimal path


def test_redundant_constraints_keep_known_optimum():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 5)
        bounds = [Fraction(rng.randrange(1, 6)) for _ in range(n)]
        weights = [Fraction(rng.randrange(0, 5)) for _ in range(n)]
        rows = [([1 if j == i else 0 for j in range(n)], lp.LE, bounds[i]) for i in range(n)]
        # Redundant aggregates cannot change the box optimum.
        for _ in range(rng.randrange(1, 4)):
            subset = [i for i in range(n) if rng.random() < 0.7]
            coeffs = [1 if i in subset else 0 for i in range(n)]
            slacked = sum(bounds[i] for i in subset) + rng.randrange(0, 3)
            rows.append((coeffs, lp.LE, slacked))
        problem = lp.LpProblem.maximize(weights, rows)
        out = lp.solve(problem)
        assert out.status == lp.OPTIMAL
        assert out.value == sum(w * b for w, b in zip(weights, bounds))


def test_determinism_same_vertex():
    problem = lp.LpProblem.maximize(
        [1, 1, 0],
        [([1, 1, 1], lp.LE, 2), ([1, 0, 1], lp.LE, 1), ([0, 1, 0], lp.LE, 1)],
    )
    first = lp.solve(problem)
    second = lp.solve(problem)
    assert first == second
