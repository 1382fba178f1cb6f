"""Reference computations that the package no longer carries.

The brute-force oracles enumerate their whole search space and share no code
with the algorithm they check, so agreement is evidence that both are right.
Their cost grows exponentially, so they are meant for short codes only.  The
phase-1 membership LP shares only the simplex core with the package.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from srrham import lp
from srrham.codes import LinearCode
from srrham.fields import FieldMatrix

ORACLE_MAX_LENGTH = 15


def _gf2_spans(columns: list[int], target: int) -> bool:
    """Binary span test on columns packed as bitmasks (bit i = row i)."""
    lead: dict[int, int] = {}
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top not in lead:
                lead[top] = v
                break
            v ^= lead[top]
    while target:
        top = target.bit_length() - 1
        if top not in lead:
            return False
        target ^= lead[top]
    return True


def _gfq_spans(columns: list[tuple[int, ...]], target: tuple[int, ...], q: int) -> bool:
    """Span test over GF(q) by plain elimination of [columns | target]."""
    k = len(target)
    rows = [[col[i] for col in columns] + [target[i]] for i in range(k)]
    ncols = len(columns)
    r = 0
    for c in range(ncols + 1):
        pivot = next((i for i in range(r, k) if rows[i][c] % q), None)
        if pivot is None:
            continue
        if c == ncols:
            return False
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [(v * inv) % q for v in rows[r]]
        for i in range(k):
            if i != r and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        r += 1
    return True


def exhaustive_recovery_sets(code: LinearCode, symbol: int) -> list[tuple[int, ...]]:
    """Every inclusion-minimal column set whose span contains e_symbol.

    Scans all subsets by increasing size and skips supersets of sets already
    found, so each emitted set is minimal and the list is complete.  Sets are
    1-based, in canonical (size, lexicographic) order.
    """
    n, k, q = code.n, code.k, code.q
    if n > ORACLE_MAX_LENGTH:
        raise ValueError(f"exhaustive search is for n <= {ORACLE_MAX_LENGTH}")
    columns = [code.generator.column(j) for j in range(n)]
    if q == 2:
        packed = [sum(v << i for i, v in enumerate(col)) for col in columns]
        target = 1 << (symbol - 1)

        def spans(combo):
            return _gf2_spans([packed[j] for j in combo], target)

    else:
        unit = tuple(1 if t == symbol - 1 else 0 for t in range(k))

        def spans(combo):
            return _gfq_spans([columns[j] for j in combo], unit, q)

    found: list[tuple[int, ...]] = []
    found_masks: list[int] = []
    # A minimal recovery set has independent columns, so at most k of them.
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << j for j in combo)
            if any(f & mask == f for f in found_masks):
                continue
            if spans(combo):
                found.append(tuple(j + 1 for j in combo))
                found_masks.append(mask)
    return found


def orthogonal(a: FieldMatrix, b: FieldMatrix) -> bool:
    """Is every row of ``a`` orthogonal to every row of ``b`` over GF(q)?"""
    if a.q != b.q or a.cols != b.cols:
        raise ValueError("matrices of different fields or widths")
    return all(
        sum(x * y for x, y in zip(ra, rb)) % a.q == 0
        for ra in a.entries
        for rb in b.entries
    )


def node_loads(weights: dict, n: int) -> list[Fraction]:
    """Total weight on each node 1..n of a (symbol, set) -> weight map."""
    loads = [Fraction(0)] * n
    for (_, members), w in weights.items():
        for v in members:
            loads[v - 1] += w
    return loads


def min_weight(matrix: FieldMatrix) -> int:
    """Minimum Hamming weight over all nonzero vectors in the row space."""
    q = matrix.q
    words = [(0,) * matrix.cols]
    for row in matrix.entries:
        multiples = [tuple((a * v) % q for v in row) for a in range(q)]
        words = [
            tuple((x + y) % q for x, y in zip(word, m))
            for word in words
            for m in multiples
        ]
    return min(sum(1 for v in w if v) for w in words if any(w))


def equivalent_generator(generator: FieldMatrix, rng: random.Random) -> FieldMatrix:
    """A random generator of an equivalent code.

    Applies a random invertible row transform (a row-shuffled product of unit
    lower- and nonsingular upper-triangular matrices), then a column
    permutation, then nonzero column scalings.
    """
    q, k, n = generator.q, generator.rows, generator.cols
    lower = [
        [1 if i == j else rng.randrange(q) if j < i else 0 for j in range(k)]
        for i in range(k)
    ]
    upper = [
        [rng.randrange(1, q) if i == j else rng.randrange(q) if j > i else 0
         for j in range(k)]
        for i in range(k)
    ]
    transform = [
        [sum(lower[i][t] * upper[t][j] for t in range(k)) % q for j in range(k)]
        for i in range(k)
    ]
    rng.shuffle(transform)
    mixed = [
        [sum(a * row[j] for a, row in zip(t_row, generator.entries)) % q
         for j in range(n)]
        for t_row in transform
    ]
    order = list(range(n))
    rng.shuffle(order)
    scales = [rng.randrange(1, q) for _ in range(n)]
    return FieldMatrix.from_rows(
        [[(scales[j] * row[order[j]]) % q for j in range(n)] for row in mixed], q
    )


def evaluate_constraints(problem: lp.LpProblem, solution: Sequence[Fraction]) -> bool:
    """Exact check that a point satisfies every constraint and x >= 0."""
    if any(x < 0 for x in solution):
        return False
    for c in problem.constraints:
        lhs = sum((a * x for a, x in zip(c.coeffs, solution)), Fraction(0))
        if c.relation == lp.LE and lhs > c.rhs:
            return False
        if c.relation == lp.GE and lhs < c.rhs:
            return False
        if c.relation == lp.EQ and lhs != c.rhs:
            return False
    return True


def bland_packing(
    columns: Sequence[Sequence[int]], rhs: Sequence, weights: Sequence
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Reference for ``lp.max_packing``: the textbook ``Fraction`` tableau.

    Maximizes weights . x subject to A x <= rhs, x >= 0, where column j of the
    0/1 matrix A has its ones in the rows ``columns[j]`` and rhs >= 0.  Starts
    from the slack basis and follows Bland's rule: the lowest-indexed column
    with a negative reduced cost enters, the lowest ratio leaves, and ratio
    ties go to the lowest basic index.  Every row is normalized by plain
    rational division, so no integer pivoting or scaling is shared with the
    package.  Returns the optimum and the structural part of the vertex.
    """
    m, n = len(rhs), len(weights)
    rows = [[Fraction(0)] * (n + m) + [Fraction(b)] for b in rhs]
    for j, members in enumerate(columns):
        for i in members:
            rows[i][j] = Fraction(1)
    for i in range(m):
        rows[i][n + i] = Fraction(1)
    z = [-Fraction(w) for w in weights] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            break
        eligible = [i for i in range(m) if rows[i][enter] > 0]
        if not eligible:
            raise ValueError("packing LP is unbounded")
        leave = min(eligible, key=lambda i: (rows[i][-1] / rows[i][enter], basis[i]))
        pivot_row = [v / rows[leave][enter] for v in rows[leave]]
        rows[leave] = pivot_row
        for row in rows + [z]:
            f = row[enter]
            if row is not pivot_row and f:
                row[:] = [a - f * b for a, b in zip(row, pivot_row)]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rows[i][-1]
    return z[-1], tuple(x)


def phase1_membership(instance, demand) -> tuple[bool, dict | None]:
    """Membership as plain feasibility: k equality rows (service = demand),
    then n capacity rows, solved by phase 1 of the simplex alone.

    This is the formulation the package used before every region query
    became one packing LP; it shares only the simplex core with it.
    Returns the verdict and, for members, the feasible point as
    {(symbol, set): weight}.
    """
    code = instance.code
    variables = instance.variables()
    rows = []
    for i in range(1, code.k + 1):
        coeffs = [1 if vi == i else 0 for vi, _ in variables]
        rows.append((coeffs, lp.EQ, Fraction(demand[i - 1])))
    for v in range(1, code.n + 1):
        coeffs = [1 if v in members else 0 for _, members in variables]
        rows.append((coeffs, lp.LE, instance.capacity))
    problem = lp.LpProblem.maximize([0] * len(variables), rows)
    feasible, point = lp.check_feasible(problem)
    if not feasible:
        return False, None
    assert evaluate_constraints(problem, point)
    return True, {var: w for var, w in zip(variables, point) if w}
