"""Exact rational linear programming via the two-phase simplex method.

Everything is computed exactly: no tolerances anywhere, an optimal solution
satisfies every constraint exactly.  Variables are implicitly bounded below
by zero.  Pivoting follows Bland's rule (lowest eligible index, ratio ties
broken by lowest basis variable index), which guarantees termination and
makes returned vertices reproducible; a pivot ceiling turns pathological
inputs into a diagnosable error instead of a hang.  The ceiling is read here
and nowhere else: each tableau takes it from ``SRRHAM_PIVOT_LIMIT`` when that
is set, and uses ``DEFAULT_PIVOT_LIMIT`` otherwise.

Internally the tableau uses integer pivoting: the whole dictionary is kept
as integer numerators over one shared denominator (the previous pivot
element).  Each pivot then needs only integer multiply/subtract and an exact
division, which is far cheaper than per-entry rational arithmetic; the
division remainder is checked so any representation bug would surface
immediately rather than corrupt results.  A row is scaled only by the lcm of
its coefficient denominators (1 for every 0/1 packing row), and the whole
right-hand side column carries one common denominator instead.  Every entry
is a minor of the starting integer matrix, so the rational right-hand side
never inflates the coefficient part, and neither scaling changes a sign or a
ratio comparison: the pivot sequence and the vertex are the same either way.

The solver is a pure function of its input; concurrent calls share nothing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

LE = "<="
EQ = "=="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_PIVOT_LIMIT = 10 ** 6
PIVOT_LIMIT_ENV = "SRRHAM_PIVOT_LIMIT"

_ZERO = Fraction(0)


class PivotLimitError(RuntimeError):
    """Raised when the simplex exceeds its pivot ceiling."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, never bad input."""


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {self.relation!r}")


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
        constraints: Iterable[tuple[Sequence, str, object]],
    ) -> "LpProblem":
        obj = tuple(Fraction(v) for v in objective)
        rows = tuple(
            Constraint(tuple(Fraction(v) for v in coeffs), rel, Fraction(rhs))
            for coeffs, rel, rhs in constraints
        )
        return cls(len(obj), obj, rows)


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None


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


class _Tableau:
    """Integer-pivoting simplex dictionary with Bland's rule.

    True tableau entries are rows[i][j] / den with den > 0; the last column
    is the right-hand side, whose entries are further over rhs_den.  The
    auxiliary z-row rides along through the same pivot updates, so
    reduced-cost signs can be read off the numerators.
    """

    def __init__(self, problem: LpProblem):
        self.pivot_limit = _resolve_pivot_limit()
        n = problem.num_vars
        normalized = []
        for c in problem.constraints:
            coeffs, rel, rhs = list(c.coeffs), c.relation, c.rhs
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
        scaled = [_integer_row(coeffs, rhs) for coeffs, _, rhs in normalized]
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


def solve(problem: LpProblem) -> LpOutcome:
    """Maximize the objective; exact optimum, or infeasible/unbounded status."""
    tab = _Tableau(problem)
    if not tab.phase1():
        return LpOutcome(INFEASIBLE)
    status = tab.phase2(problem.objective)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    x = tab.solution()
    value = sum((c * v for c, v in zip(problem.objective, x)), _ZERO)
    return LpOutcome(OPTIMAL, value, x)


def max_packing(
    columns: Iterable[Iterable[int]],
    rhs: Sequence,
    weights: Sequence,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact optimum and vertex of: maximize weights . x, A.x <= rhs, x >= 0.

    Item j of ``columns`` lists the rows where column j of the 0/1 matrix A
    has a 1 (a generator keeps one alive at a time).  Every region LP has this
    shape; rhs >= 0 makes the slack basis feasible, so phase 1 is skipped.
    """
    dense = [[0] * len(weights) for _ in rhs]
    for j, rows in enumerate(columns):
        for r in rows:
            dense[r][j] = 1
    problem = LpProblem.maximize(weights, zip(dense, [LE] * len(rhs), rhs))
    del dense  # the problem holds its own rows; free these before solving
    outcome = solve(problem)
    if outcome.status != OPTIMAL:
        raise InvariantError(f"packing LP ended {outcome.status}")
    return outcome.value, outcome.solution


def check_feasible(problem: LpProblem) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Phase-1 feasibility test; returns a feasible point when one exists."""
    tab = _Tableau(problem)
    if not tab.phase1():
        return False, None
    return True, tab.solution()
