"""Answer checks that do not trust the program's own validation.

Every routine here recomputes a fact from plain data (generator entries,
recovery sets, allocation weights) with its own arithmetic; none of them calls
into ``srrham``.  Each returns a list of problems, empty when the answer holds.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def recovers(generator: list[list[int]], q: int, members, symbol: int) -> bool:
    """True iff e_symbol lies in the GF(q) span of the 1-based columns."""
    k = len(generator)
    cols = [[generator[i][j - 1] % q for i in range(k)] for j in members]
    target = [1 if i == symbol - 1 else 0 for i in range(k)]
    rows = [[c[i] for c in cols] + [target[i]] for i in range(k)]
    width = len(cols)
    rank = 0
    for c in range(width + 1):
        pivot = next((i for i in range(rank, k) if rows[i][c] % q), None)
        if pivot is None:
            continue
        if c == width:
            return False
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        rows[rank] = [v * inv % q for v in rows[rank]]
        for i in range(k):
            if i != rank and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return True


class WitnessChecker:
    """Re-checks allocations against one code and its recovery system.

    Caches which (symbol, set) pairs were proven to recover their symbol, so
    repeated witnesses over the same code stay cheap.
    """

    def __init__(self, generator: list[list[int]], q: int, per_symbol, capacity=Fraction(1)):
        self.generator = generator
        self.q = q
        self.k = len(generator)
        self.n = len(generator[0])
        self.capacity = Fraction(capacity)
        self.sets = [set(s) for s in per_symbol]
        self._proven: set = set()

    def allocation(self, weights: dict, demand=None, upper=None) -> list[str]:
        """Loads within capacity, every set a recovery set, served = demand
        (or served <= upper componentwise)."""
        problems = []
        served = [Fraction(0)] * self.k
        loads = [Fraction(0)] * (self.n + 1)
        for (i, members), w in weights.items():
            if w < 0:
                problems.append(f"negative weight on ({i}, {members})")
            if not 1 <= i <= self.k or tuple(members) not in self.sets[i - 1]:
                problems.append(f"{members} is not a recovery set of symbol {i}")
                continue
            if (i, members) not in self._proven:
                if not recovers(self.generator, self.q, members, i):
                    problems.append(f"{members} does not recover symbol {i}")
                self._proven.add((i, members))
            served[i - 1] += w
            for v in members:
                loads[v] += w
        over = [v for v in range(1, self.n + 1) if loads[v] > self.capacity]
        if over:
            problems.append(f"nodes {over} over capacity")
        if demand is not None and tuple(served) != tuple(Fraction(x) for x in demand):
            problems.append("served rates differ from the demand")
        if upper is not None and any(s > u for s, u in zip(served, upper)):
            problems.append("served rates exceed the demand cap")
        return problems


def expect(condition: bool, message: str) -> list[str]:
    return [] if condition else [message]


def canonical(value):
    """JSON-ready form: Fractions as exact strings, tuples as lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(values) -> str:
    text = json.dumps(canonical(values), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
