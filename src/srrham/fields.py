"""Exact arithmetic foundations: prime-field matrices and rationals.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.  Matrices store
plain ints (fully reduced mod q).  Rationals are ``fractions.Fraction``:
arbitrary precision, always in lowest terms, never floats.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational written as ``p`` or ``p/q`` (no decimals)."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"expected an exact rational like 7/3, got {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def exact_rational(x) -> Fraction:
    """``x`` as a Fraction; only exact rationals (ints, Fractions) are accepted."""
    if not isinstance(x, numbers.Rational):
        raise ValueError(f"expected an exact rational, got {x!r}")
    return Fraction(x)


def format_rational(x: Fraction) -> str:
    """Canonical string form: ``p`` for integers, ``p/q`` otherwise."""
    return str(Fraction(x))


@dataclass(frozen=True)
class FieldMatrix:
    """Dense matrix over GF(q); entries are ints in [0, q) sharing one modulus."""

    q: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        for row in self.entries:
            for v in row:
                if not 0 <= v < self.q:
                    raise ValueError(f"entry {v} not reduced mod {self.q}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], q: int) -> "FieldMatrix":
        return cls(q, tuple(tuple(v % q for v in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def select_columns(self, indices: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(self.q, tuple(tuple(row[j] for j in indices) for row in self.entries))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...], int]:
    """Reduced row echelon form over GF(q).

    Returns (reduced matrix, ascending pivot columns, rank).  Pivot selection
    is deterministic: first usable row per column, scanning columns left to
    right.
    """
    q = m.q
    work = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][c], -1, q)
        if inv != 1:
            work[r] = [(v * inv) % q for v in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [(a - f * b) % q for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return FieldMatrix(q, tuple(tuple(row) for row in work)), tuple(pivots), r


def rank(m: FieldMatrix) -> int:
    return rref(m)[2]


def in_span(columns: FieldMatrix, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Solve ``columns @ x = target`` over GF(q).

    Returns the coefficient vector (ints mod q) when the target lies in the
    column span, None otherwise.
    """
    if len(target) != columns.rows:
        raise ValueError(
            f"target length {len(target)} != {columns.rows} rows"
        )
    q = columns.q
    aug = FieldMatrix(
        q,
        tuple(
            row + (target[i] % q,) for i, row in enumerate(columns.entries)
        ),
    )
    reduced, pivots, _ = rref(aug)
    if columns.cols in pivots:
        return None
    coeffs = [0] * columns.cols
    for i, p in enumerate(pivots):
        coeffs[p] = reduced.entries[i][columns.cols]
    return tuple(coeffs)


def kernel_basis(m: FieldMatrix) -> FieldMatrix:
    """Basis (as rows) of the right kernel {x : m @ x = 0} over GF(q)."""
    q = m.q
    reduced, pivots, rk = rref(m)
    ncols = m.cols
    free = [j for j in range(ncols) if j not in set(pivots)]
    rows = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = (-reduced.entries[i][f]) % q
        rows.append(tuple(vec))
    return FieldMatrix(q, tuple(rows))
