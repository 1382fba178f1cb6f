"""Solver-free certificate checks: one per side of a packing LP.

``check_packing`` certifies a primal witness (weights on (symbol, set)
pairs): the matching behind nu, the fractional matching behind mu_f, and
every region allocation.  ``check_cover`` certifies a dual witness (node
prices): the transversal behind tau, and the closed-form optima of ``srr``.
A primal and a dual witness of equal value prove that value optimal.

Both checks bring their rationals over the lcm of the distinct denominators
and then add and compare plain integers, never ``Fraction``s; both reject a
float.  This module imports no other part of the package, so a caller that
only checks certificates loads neither the solver nor the hypergraph.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Container, Iterable, Mapping, Optional, Sequence

# A (symbol, recovery set) pair: a packing weight's key, a set to price.
Pair = tuple[int, tuple[int, ...]]


def _over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Exact rationals as integers over the lcm of their denominators: that
    lcm, and each value times it.  Raises ValueError on a float."""
    dens = set()
    for x in values:
        # Exact type tests first: an isinstance test on an ABC costs far more.
        if type(x) is not int:
            if type(x) is not Fraction and not isinstance(x, numbers.Rational):
                raise ValueError("expected exact rationals (ints or Fractions)")
            dens.add(x.denominator)
    scale = math.lcm(*dens)
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def check_packing(
    weights: Mapping[Pair, Fraction],
    pool: Container[Pair],
    n: int,
    capacity: Fraction = 1,
    value: Optional[Fraction] = None,
    symbol_weights: Optional[Sequence[Fraction]] = None,
) -> dict[int, Fraction]:
    """Exact check of a primal packing witness; raises ValueError unless
    every (symbol, set) key is in ``pool``, every weight is nonnegative, no
    node 1..n carries more than ``capacity``, and (when ``value`` is given)
    sum of symbol_weights_i * w over the keys (default all 1) equals it.
    Returns the total weight served per symbol that has a key."""
    scale, (room, *ints) = _over_lcm([capacity, *weights.values()])
    loads = [0] * (n + 1)
    totals: dict[int, int] = {}
    for pair, w in zip(weights, ints):
        i, members = pair
        if w < 0:
            raise ValueError(f"negative weight on ({i}, {members})")
        if pair not in pool:
            raise ValueError(f"{members} is not a recovery set of symbol {i}")
        for v in members:
            loads[v] += w
        totals[i] = totals.get(i, 0) + w
    if max(loads) > room:
        for v in range(1, n + 1):
            if loads[v] > room:
                load = Fraction(loads[v], scale)
                raise ValueError(f"node {v} overloaded: {load} > {capacity}")
    if value is not None:
        if symbol_weights is None:
            worth = sum(totals.values())
        else:
            worth = sum(symbol_weights[i - 1] * t for i, t in totals.items())
        if worth != value * scale:
            worth = Fraction(worth, scale)
            raise ValueError(f"witness is worth {worth}, not the value {value}")
    return {i: Fraction(t, scale) for i, t in totals.items()}


def check_cover(
    prices: Sequence[Fraction],
    pairs: Iterable[Pair],
    capacity: Fraction,
    value: Fraction,
    symbol_weights: Optional[Sequence[Fraction]] = None,
) -> None:
    """Exact check of a dual witness, node prices y_1..y_n; raises ValueError
    unless every price is nonnegative, every listed (symbol i, set R) has
    sum_{v in R} y_v >= symbol_weights_i (default 1), and capacity * sum_v y_v
    equals ``value``.  By weak duality no packing of ``pairs`` under
    ``capacity`` is then worth more than ``value``.  Prices are compared as
    integers over the lcm of their denominators; a pair whose symbol weight
    is at most 0 is covered by y >= 0 alone."""
    scale, ints = _over_lcm(prices)
    if ints and min(ints) < 0:
        v = next(v for v, y in enumerate(ints, start=1) if y < 0)
        raise ValueError(f"negative price {prices[v - 1]} on node {v}")
    price = [0, *ints].__getitem__
    need: dict[int, int] = {}
    for i, members in pairs:
        want = need.get(i)
        if want is None:
            w = 1 if symbol_weights is None else symbol_weights[i - 1]
            want = need[i] = math.ceil(scale * w)
        if want > 0 and sum(map(price, members)) < want:
            raise ValueError(f"prices on {members} do not cover symbol {i}'s weight")
    if capacity * sum(ints) != value * scale:
        raise ValueError(
            f"prices cost {capacity * Fraction(sum(ints), scale)}, not the value {value}"
        )
