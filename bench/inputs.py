"""Seeded inputs for the benchmark workloads.

Everything here is plain data (lists of ints, Fractions, symbol indices)
derived from a ``random.Random``; the program under test receives only these
values.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction


def pass_rng(seed: int, workload: str, pass_index: int) -> random.Random:
    """Independent stream per (seed, workload, pass); stable across runs."""
    return random.Random(f"{seed}:{workload}:{pass_index}")


def _invertible_mod_q(matrix: list[list[int]], q: int) -> bool:
    rows = [list(r) for r in matrix]
    size = len(rows)
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col] % q), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, q)
        for i in range(col + 1, size):
            f = rows[i][col] * inv % q
            if f:
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[col])]
    return True


def _has_scaled_unit_for_every_row(generator: list[list[int]]) -> bool:
    k = len(generator)
    found = set()
    for j in range(len(generator[0])):
        nonzero = [i for i in range(k) if generator[i][j]]
        if len(nonzero) == 1:
            found.add(nonzero[0])
    return len(found) == k


def scramble(generator: list[list[int]], q: int, rng: random.Random) -> list[list[int]]:
    """A random equivalent non-systematic generator of the same code family.

    Applies a random invertible row transform, then a column permutation, then
    nonzero column scalings; redraws until no full set of scaled unit columns
    exists, so the program must take its general (non-systematic) path.
    """
    k, n = len(generator), len(generator[0])
    while True:
        while True:
            a = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
            if _invertible_mod_q(a, q):
                break
        mixed = [
            [sum(a[i][t] * generator[t][j] for t in range(k)) % q for j in range(n)]
            for i in range(k)
        ]
        order = list(range(n))
        rng.shuffle(order)
        scales = [rng.randrange(1, q) for _ in range(n)]
        out = [[row[order[j]] * scales[j] % q for j in range(n)] for row in mixed]
        if not _has_scaled_unit_for_every_row(out):
            return out


def straddling_demand(k: int, total: Fraction, rng: random.Random) -> tuple[Fraction, ...]:
    """A random positive direction in R^k scaled to the given total rate.

    Coordinates are drawn from 4..8 before scaling: directions this mild keep
    a non-member just past the boundary under about a second on Ham(5,2),
    whereas skewed ones (1..8) reach 5-12 s per membership LP.
    """
    raw = [rng.randrange(4, 9) for _ in range(k)]
    s = sum(raw)
    return tuple(Fraction(x) * total / s for x in raw)
