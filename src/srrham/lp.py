"""Exact rational linear programming via a one-phase simplex method.

Every LP here has one shape: maximize c . x subject to A x <= b, x >= 0,
with b >= 0 (a packing LP, and the only shape any region query builds).  So
the slack basis is feasible from the start: there is no phase 1, no
artificial column and no equality or >= row, and a negative right-hand side
is rejected when the problem is built.  ``solve`` returns the optimum and
its vertex; an unbounded LP raises InvariantError (exit 4), as no region LP
is one.  Coefficients and objective may be any rationals.  Everything is
computed exactly: no tolerances anywhere, an optimal solution satisfies
every constraint exactly.  Pivoting follows Bland's rule (lowest eligible
index, ratio ties broken by lowest basis variable index), which guarantees
termination and makes returned vertices reproducible; a pivot ceiling turns
pathological inputs into a diagnosable error instead of a hang.  The
ceiling is read here and nowhere else: each tableau takes it from
``SRRHAM_PIVOT_LIMIT`` when that is set, and uses ``DEFAULT_PIVOT_LIMIT``
otherwise.

Internally the simplex is revised (Dantzig and Orchard-Hays, 1954) and
fraction-free (Bareiss, 1968).  The scaled integer constraint matrix M, with
its slack columns, never changes and is held as sparse columns.  A pivot
rewrites only the basis inverse K = den * B^-1, the basic right-hand side and
the price row y = c_B K, all integers over one shared denominator den (the
previous pivot element): an integer multiply/subtract and an exact division
per entry, whose remainder is checked so that any representation bug
surfaces at once.  A reduced cost y . M_j - den * c_j is formed only when
Bland's rule reaches column j, and only the entering column K M_j is built.
These are the very integers that pivoting the whole tableau K [M | b] would
hold, so every sign and ratio comparison, hence the pivot sequence and the
vertex, are the same as with a full tableau.  A row is scaled only by the
lcm of its coefficient denominators (1 for every 0/1 packing row), and the
right-hand side carries one common denominator.  Every entry is a minor of
the starting integer matrix, so a rational right-hand side never inflates
the coefficient part, and neither scaling changes a sign or a ratio
comparison.

The solver is a pure function of its input; concurrent calls share nothing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantError, PivotLimitError

DEFAULT_PIVOT_LIMIT = 10 ** 6
PIVOT_LIMIT_ENV = "SRRHAM_PIVOT_LIMIT"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Constraint:
    """The row coeffs . x <= rhs, whose rhs is never negative."""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.rhs < 0:
            raise ValueError(f"negative right-hand side {self.rhs}")


@dataclass(frozen=True)
class LpProblem:
    """Maximize objective . x subject to constraints, x >= 0."""

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length != num_vars")
        for c in self.constraints:
            if len(c.coeffs) != self.num_vars:
                raise ValueError("constraint coefficient length != num_vars")

    @classmethod
    def maximize(
        cls,
        objective: Sequence,
        constraints: Iterable[tuple[Sequence, object]],
    ) -> "LpProblem":
        """The problem with these (coeffs, rhs) rows; ValueError if rhs < 0."""
        obj = tuple(Fraction(v) for v in objective)
        rows = tuple(
            Constraint(tuple(Fraction(v) for v in coeffs), Fraction(rhs))
            for coeffs, rhs in constraints
        )
        return cls(len(obj), obj, rows)


def _resolve_pivot_limit() -> int:
    env = os.environ.get(PIVOT_LIMIT_ENV)
    if not env:
        return DEFAULT_PIVOT_LIMIT
    try:
        limit = int(env)
    except ValueError:
        limit = -1  # rejected below, like a negative ceiling
    if limit < 0:
        raise ValueError(f"bad {PIVOT_LIMIT_ENV} value {env!r}")
    return limit


def _integer_row(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[list[int], Fraction]:
    """Scale one constraint's coefficients to integers; returns the integer
    coefficients and the right-hand side scaled by the same factor."""
    mult = math.lcm(*(v.denominator for v in coeffs))
    return [int(v * mult) for v in coeffs], rhs * mult


def _dot(row: list[int], column: list[tuple[int, int]]) -> int:
    """row . column, for a column held as (row index, coefficient) pairs."""
    return sum([row[r] * v for r, v in column])


class _Tableau:
    """Revised integer-pivoting simplex with Bland's rule.

    ``columns`` holds M as (row, coefficient) pairs: the structural columns,
    then one slack per row.  Row i of ``inverse`` is [K_i | beta_i], where
    beta = K b is the basic right-hand side, further over rhs_den.  A price
    row y = c_B K carries y . b as its last entry.
    """

    def __init__(self, problem: LpProblem):
        self.pivot_limit = _resolve_pivot_limit()
        n, m = problem.num_vars, len(problem.constraints)
        self.n = n
        self.total = n + m
        self.columns: list[list[tuple[int, int]]] = [[] for _ in range(self.total)]
        # Entries in each row of the inverse and in a price row: m, then rhs.
        self.width = m + 1
        self.den = 1
        # The starting basis is the slacks, feasible because rhs >= 0.
        self.basis = list(range(n, n + m))
        self.pivots = 0
        scale = math.lcm(*(v.denominator for v in problem.objective))
        self.cost = [int(v * scale) for v in problem.objective] + [0] * m
        scaled = [_integer_row(c.coeffs, c.rhs) for c in problem.constraints]
        self.rhs_den = math.lcm(*(rhs.denominator for _, rhs in scaled))
        # The slack basis is I, so K = I.
        self.inverse = [[0] * m + [int(rhs * self.rhs_den)] for _, rhs in scaled]
        for i, (ints, _) in enumerate(scaled):
            self.inverse[i][i] = 1
            for j, v in enumerate(ints):
                if v:
                    self.columns[j].append((i, v))
            self.columns[n + i].append((i, 1))

    @property
    def rows(self) -> list[list[int]]:
        """The full tableau K [M | b], formed on demand from the inverse."""
        return [[_dot(k, col) for col in self.columns] + [k[-1]] for k in self.inverse]

    def _column(self, j: int) -> list[int]:
        """Tableau column j, K M_j."""
        col = self.columns[j]
        return [_dot(k, col) for k in self.inverse]

    def _pivot(self, r: int, c: int, column: list[int], y: list[int], zc: int) -> None:
        """Bring column c, whose tableau column is ``column`` and reduced cost
        ``zc``, into the basis at row r; the price row y is updated in place."""
        inverse = self.inverse
        prow = inverse[r]
        p = column[r]
        d = self.den
        for row, f in zip(inverse, column):
            if row is not prow:
                self._update(row, prow, f, p, d)
        self._update(y, prow, zc, p, d)
        self.basis[r] = c
        self.den = p

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

    def optimize(self) -> None:
        """Pivot by Bland's rule from the slack basis, whose prices y are 0,
        until no column has a negative reduced cost y . M_j - den * cost[j].
        The pivot element is positive, so den stays positive."""
        columns = self.columns
        inverse = self.inverse
        basis = self.basis
        cost = self.cost
        y = [0] * self.width
        while True:
            den = self.den
            enter = -1
            for j in range(self.total):
                # _dot inlined: pricing is the hottest loop after the update.
                zj = -den * cost[j]
                for r, v in columns[j]:
                    zj += y[r] * v
                if zj < 0:
                    enter = j
                    break
            if enter < 0:
                return
            column = self._column(enter)
            leave = -1
            best_rhs = best_a = 0
            for i, a in enumerate(column):
                if a > 0:
                    rhs = inverse[i][-1]
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
                raise InvariantError(f"packing LP ended unbounded in column {enter}")
            if self.pivots >= self.pivot_limit:
                raise PivotLimitError(
                    f"simplex exceeded the pivot ceiling of {self.pivot_limit} "
                    f"after {self.pivots} pivots on a tableau of "
                    f"{len(inverse)} rows x {self.total} columns; its largest "
                    f"entry has {self.entry_bits()} bits"
                )
            self.pivots += 1
            self._pivot(leave, enter, column, y, zj)

    def entry_bits(self) -> int:
        """Bit length of the largest integer numerator held in the rows."""
        return max((abs(v).bit_length() for row in self.rows for v in row), default=0)

    def solution(self) -> tuple[Fraction, ...]:
        x = [_ZERO] * self.n
        for b, row in zip(self.basis, self.inverse):
            if b < self.n:
                x[b] = Fraction(row[-1], self.den * self.rhs_den)
        return tuple(x)


def solve(problem: LpProblem) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize the objective: the exact optimum and its vertex."""
    tab = _Tableau(problem)
    tab.optimize()
    x = tab.solution()
    return sum((c * v for c, v in zip(problem.objective, x)), _ZERO), x


def max_packing(
    columns: Iterable[Iterable[int]],
    rhs: Sequence,
    weights: Sequence,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact optimum and vertex of: maximize weights . x, A.x <= rhs, x >= 0.

    Item j of ``columns`` lists the rows where column j of the 0/1 matrix A
    has a 1 (a generator keeps one alive at a time).  Every region LP has this
    shape.
    """
    dense = [[0] * len(weights) for _ in rhs]
    for j, rows in enumerate(columns):
        for r in rows:
            dense[r][j] = 1
    problem = LpProblem.maximize(weights, zip(dense, rhs))
    del dense  # the problem holds its own rows; free these before solving
    return solve(problem)


def check_feasible(problem: LpProblem) -> tuple[bool, tuple[Fraction, ...]]:
    """Every LpProblem is feasible: x = 0 meets A x <= b, b >= 0.

    This stub goes once the benchmark tracer stops wrapping it by name
    (ROADMAP item 1)."""
    return True, (_ZERO,) * problem.num_vars
