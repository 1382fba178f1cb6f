"""Reference computations that the package no longer carries.

The brute-force oracles enumerate their whole search space and share no code
with the algorithm they check, so agreement is evidence that both are right.
Their cost grows exponentially, so they are meant for short codes only.

``DenseTableau`` is the general two-phase, full-tableau integer simplex that
the package's one-phase revised simplex replaced: it takes ``GeneralLp``
problems, whose rows may be equalities or >= rows with a right-hand side of
either sign.  On the package's A x <= b, b >= 0 shape the two must pivot
identically.  The phase-1 membership oracle runs on it, so it shares no
simplex with the package.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from srrham import lp
from srrham.lp import InvariantError, PivotLimitError, _resolve_pivot_limit
from srrham.codes import LinearCode
from srrham.fields import FieldMatrix

ORACLE_MAX_LENGTH = 15

LE = "<="
EQ = "=="
GE = ">="
# DenseTableau's statuses; the package's solver returns the optimum or raises.
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)


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


@dataclass(frozen=True)
class GeneralLp:
    """Maximize objective . x subject to (coeffs, relation, rhs) rows and
    x >= 0, where a relation is LE, EQ or GE and rhs has either sign."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    @classmethod
    def of(cls, objective: Sequence, rows: Iterable[tuple]) -> "GeneralLp":
        return cls(
            tuple(Fraction(v) for v in objective),
            tuple(
                (tuple(Fraction(v) for v in coeffs), rel, Fraction(rhs))
                for coeffs, rel, rhs in rows
            ),
        )

    @classmethod
    def from_problem(cls, problem: lp.LpProblem) -> "GeneralLp":
        """The package's A x <= b problem, every row an LE row."""
        return cls(
            problem.objective,
            tuple((c.coeffs, LE, c.rhs) for c in problem.constraints),
        )

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def evaluate_constraints(problem: GeneralLp, solution: Sequence[Fraction]) -> bool:
    """Exact check that a point satisfies every constraint and x >= 0."""
    if any(x < 0 for x in solution):
        return False
    for coeffs, rel, rhs in problem.rows:
        lhs = sum((a * x for a, x in zip(coeffs, solution)), Fraction(0))
        if rel == LE and lhs > rhs:
            return False
        if rel == GE and lhs < rhs:
            return False
        if rel == EQ and lhs != rhs:
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
    then n capacity rows, with a zero objective: phase 1 of ``DenseTableau``
    decides it.

    This is the formulation the package used before every region query
    became one packing LP; it shares no simplex with the package.
    Returns the verdict and, for members, the feasible point as
    {(symbol, set): weight}.
    """
    code = instance.code
    variables = instance.variables()
    rows = []
    for i in range(1, code.k + 1):
        coeffs = [1 if vi == i else 0 for vi, _ in variables]
        rows.append((coeffs, EQ, Fraction(demand[i - 1])))
    for v in range(1, code.n + 1):
        coeffs = [1 if v in members else 0 for _, members in variables]
        rows.append((coeffs, LE, instance.capacity))
    problem = GeneralLp.of([0] * len(variables), rows)
    status, _, point = dense_solve(problem)
    if status == INFEASIBLE:
        return False, None
    assert evaluate_constraints(problem, point)
    return True, {var: w for var, w in zip(variables, point) if w}


def dense_solve(
    problem: GeneralLp,
) -> tuple[str, Optional[Fraction], Optional[tuple[Fraction, ...]]]:
    """Two-phase solve on ``DenseTableau``: (status, optimum, vertex)."""
    tab = DenseTableau(problem)
    if not tab.phase1():
        return INFEASIBLE, None, None
    if tab.phase2(problem.objective) == UNBOUNDED:
        return UNBOUNDED, None, None
    x = tab.solution()
    return OPTIMAL, sum((c * v for c, v in zip(problem.objective, x)), _ZERO), x


class DenseTableau:
    """Integer-pivoting simplex dictionary with Bland's rule.

    The dense reference for ``lp._Tableau``: every pivot rewrites the whole
    tableau, where ``lp._Tableau`` pivots only the basis inverse.  On an
    all-LE problem with rhs >= 0, phase 1 does nothing, and both must take
    the same pivots and reach the same state.  A row with a negative rhs is
    negated first, which swaps LE and GE; each GE or EQ row gets an
    artificial column, which phase 1 drives out.

    True tableau entries are rows[i][j] / den with den > 0; the last column
    is the right-hand side, whose entries are further over rhs_den.  The
    auxiliary z-row rides along through the same pivot updates, so
    reduced-cost signs can be read off the numerators.
    """

    def __init__(self, problem: GeneralLp):
        self.pivot_limit = _resolve_pivot_limit()
        n = problem.num_vars
        normalized = []
        for coeffs, rel, rhs in problem.rows:
            coeffs = list(coeffs)
            if rhs < 0:
                coeffs = [-v for v in coeffs]
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            normalized.append((coeffs, rel, rhs))

        n_slack = sum(1 for _, rel, _ in normalized if rel in (LE, GE))
        n_art = sum(1 for _, rel, _ in normalized if rel in (EQ, GE))
        total = n + n_slack + n_art
        self.n = n
        self.total = total
        self.artificial_start = n + n_slack
        self.rows: list[list[int]] = []
        self.den = 1
        self.basis: list[int] = []
        self.pivots = 0
        slack_at = n
        art_at = n + n_slack
        scaled = []
        for coeffs, _, rhs in normalized:
            # Each row over the lcm of its coefficient denominators.
            mult = math.lcm(*(v.denominator for v in coeffs))
            scaled.append(([int(v * mult) for v in coeffs], rhs * mult))
        self.rhs_den = math.lcm(*(rhs.denominator for _, rhs in scaled))
        for (ints, rhs), (_, rel, _) in zip(scaled, normalized):
            row = ints + [0] * (total - n) + [int(rhs * self.rhs_den)]
            if rel == LE:
                row[slack_at] = 1
                self.basis.append(slack_at)
                slack_at += 1
            elif rel == GE:
                row[slack_at] = -1
                slack_at += 1
                row[art_at] = 1
                self.basis.append(art_at)
                art_at += 1
            else:
                row[art_at] = 1
                self.basis.append(art_at)
                art_at += 1
            self.rows.append(row)

    def _pivot(self, r: int, c: int, z: list[int]) -> None:
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        d = self.den
        for row in rows:
            if row is prow:
                continue
            self._update(row, prow, row[c], p, d)
        self._update(z, prow, z[c], p, d)
        self.basis[r] = c
        self.den = p
        if p < 0:
            # Keep the shared denominator positive (true values unchanged).
            self.den = -p
            for row in rows:
                row[:] = [-v for v in row]
            z[:] = [-v for v in z]

    @staticmethod
    def _update(row: list[int], prow: list[int], f: int, p: int, d: int) -> None:
        if f:
            if d == 1:
                row[:] = [a * p - f * b for a, b in zip(row, prow)]
            else:
                new = []
                for a, b in zip(row, prow):
                    q, rem = divmod(a * p - f * b, d)
                    if rem:
                        raise InvariantError("integer pivot lost exactness")
                    new.append(q)
                row[:] = new
        elif p != d:
            if d == 1:
                row[:] = [a * p for a in row]
            else:
                new = []
                for a in row:
                    q, rem = divmod(a * p, d)
                    if rem:
                        raise InvariantError("integer pivot lost exactness")
                    new.append(q)
                row[:] = new

    def _run(self, z: list[int], banned_from: int) -> str:
        rows = self.rows
        basis = self.basis
        while True:
            enter = -1
            for j in range(banned_from):
                if z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_rhs = best_a = 0
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    rhs = row[-1]
                    if leave < 0:
                        leave, best_rhs, best_a = i, rhs, a
                        continue
                    lhs = rhs * best_a
                    rhs_cmp = best_rhs * a
                    if lhs < rhs_cmp or (
                        lhs == rhs_cmp and basis[i] < basis[leave]
                    ):
                        leave, best_rhs, best_a = i, rhs, a
            if leave < 0:
                return UNBOUNDED
            if self.pivots >= self.pivot_limit:
                raise PivotLimitError(
                    f"simplex exceeded the pivot ceiling of {self.pivot_limit} "
                    f"after {self.pivots} pivots on a tableau of "
                    f"{len(rows)} rows x {self.total} columns; its largest "
                    f"entry has {self.entry_bits()} bits"
                )
            self.pivots += 1
            self._pivot(leave, enter, z)

    def entry_bits(self) -> int:
        """Bit length of the largest integer numerator held in the rows."""
        return max((abs(v).bit_length() for row in self.rows for v in row), default=0)

    def phase1(self) -> bool:
        """Minimize the artificial sum; True iff a feasible basis was found."""
        if self.artificial_start == self.total:
            return True
        z = [0] * (self.total + 1)
        for i, row in enumerate(self.rows):
            if self.basis[i] >= self.artificial_start:
                for j, v in enumerate(row):
                    if v:
                        z[j] -= v
        for j in range(self.artificial_start, self.total):
            z[j] += self.den
        status = self._run(z, self.total)
        if status != OPTIMAL or z[-1] != 0:
            return False
        # Drive leftover artificials out of the (degenerate) basis.
        for i in reversed(range(len(self.rows))):
            if self.basis[i] >= self.artificial_start:
                row = self.rows[i]
                col = next(
                    (j for j in range(self.artificial_start) if row[j]), None
                )
                if col is None:
                    del self.rows[i]
                    del self.basis[i]
                else:
                    self._pivot(i, col, [0] * (self.total + 1))
        return True

    def phase2(self, objective: Sequence[Fraction]) -> str:
        scale = math.lcm(*(v.denominator for v in objective)) if objective else 1
        cost = [int(v * scale) for v in objective] + [0] * (self.total - self.n)
        z = [0] * (self.total + 1)
        for i, row in enumerate(self.rows):
            cb = cost[self.basis[i]]
            if cb:
                for j, v in enumerate(row):
                    if v:
                        z[j] += cb * v
        for j in range(self.artificial_start):
            if cost[j]:
                z[j] -= cost[j] * self.den
        return self._run(z, self.artificial_start)

    def solution(self) -> tuple[Fraction, ...]:
        x = [_ZERO] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                x[b] = Fraction(self.rows[i][-1], self.den * self.rhs_den)
        return tuple(x)
