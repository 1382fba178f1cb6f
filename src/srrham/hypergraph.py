"""Recovery hypergraphs: labeled hyperedges, exact matching/transversal
numbers, and the fractional matching number.

Vertices are the storage nodes 1..n; every recovery set R of data symbol i
becomes the hyperedge (i, R), the same (symbol, set) pair that keys an
``srr.Allocation``.  nu and tau are found by exact branch and bound (the
claims we verify are equalities, so heuristics are useless); mu_f is the
exact LP optimum.  A hypergraph keeps its edges in canonical (size, members,
symbol) order, so values and witnesses are deterministic.  One packing check,
``check_packing``, certifies every primal witness: the matching behind nu,
the fractional matching behind mu_f, and every region allocation.  Its dual,
``check_cover``, certifies node prices, the transversal behind tau among them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Mapping, Optional, Sequence

from . import lp
from .fields import format_rational
from .recovery import RecoverySet, RecoverySystem

Edge = tuple[int, RecoverySet]


def canonical_order(edges: Iterable[Edge]) -> list[Edge]:
    """The edges sorted by (size, members, symbol): the one column order of
    every packing LP in the package, since Bland's rule enters the first
    improving column and small sets first reach the optimum in far fewer
    pivots than a symbol-major order."""
    return sorted(edges, key=lambda e: (len(e[1]), e[1], e[0]))


def _mask(members: Iterable[int]) -> int:
    m = 0
    for v in members:
        m |= 1 << (v - 1)
    return m


@dataclass(frozen=True)
class Hypergraph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen = set()
        for edge in self.edges:
            i, members = edge
            if (
                i < 1
                or not members
                or list(members) != sorted(set(members))
                or members[0] < 1
                or members[-1] > self.vertex_count
            ):
                raise ValueError(f"bad edge {edge} on {self.vertex_count} vertices")
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
        object.__setattr__(self, "edges", tuple(canonical_order(self.edges)))


def from_recovery_system(system: RecoverySystem) -> Hypergraph:
    return Hypergraph(system.code.n, tuple(system))


def partial_hypergraph(h: Hypergraph, labels: Iterable[int]) -> Hypergraph:
    """Keep only the edges recovering the given data symbols."""
    keep = set(labels)
    return Hypergraph(h.vertex_count, tuple(e for e in h.edges if e[0] in keep))


def _over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Exact rationals as integers over the lcm of their denominators: that
    lcm, and each value times it.  Raises ValueError on a float."""
    if not all(isinstance(x, numbers.Rational) for x in values):
        raise ValueError("expected exact rationals (ints or Fractions)")
    scale = math.lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def check_packing(
    weights: Mapping[Edge, Fraction],
    pool: Container[Edge],
    n: int,
    capacity: Fraction = 1,
    value: Optional[Fraction] = None,
    symbol_weights: Optional[Sequence[Fraction]] = None,
) -> None:
    """Exact check of a primal packing witness; raises ValueError unless
    every (symbol, set) key is in ``pool``, every weight is nonnegative, no
    node 1..n carries more than ``capacity``, and (when ``value`` is given)
    sum of symbol_weights_i * w over the keys (default all 1) equals it."""
    scale, (room, *ints) = _over_lcm([capacity, *weights.values()])
    loads = [0] * n
    worth = 0
    for (i, members), w in zip(weights, ints):
        if w < 0:
            raise ValueError(f"negative weight on ({i}, {members})")
        if (i, members) not in pool:
            raise ValueError(f"{members} is not a recovery set of symbol {i}")
        for v in members:
            loads[v - 1] += w
        if value is not None:
            worth += w if symbol_weights is None else symbol_weights[i - 1] * w
    for v, load in enumerate(loads, start=1):
        if load > room:
            raise ValueError(f"node {v} overloaded: {Fraction(load, scale)} > {capacity}")
    if value is not None and worth != value * scale:
        worth = Fraction(worth, scale)
        raise ValueError(f"witness is worth {worth}, not the value {value}")


def check_cover(
    prices: Sequence[Fraction],
    pairs: Iterable[Edge],
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
    for v, y in enumerate(ints, start=1):
        if y < 0:
            raise ValueError(f"negative price {prices[v - 1]} on node {v}")
    need: dict[int, int] = {}
    for i, members in pairs:
        if i not in need:
            w = 1 if symbol_weights is None else symbol_weights[i - 1]
            need[i] = math.ceil(scale * w)
        if need[i] > 0 and sum(ints[v - 1] for v in members) < need[i]:
            raise ValueError(f"prices on {members} do not cover symbol {i}'s weight")
    if capacity * sum(ints) != value * scale:
        raise ValueError(
            f"prices cost {capacity * Fraction(sum(ints), scale)}, not the value {value}"
        )


def _greedy_cover(edge_masks: list[int], members: list[tuple[int, ...]]) -> list[int]:
    """A greedy transversal: forced singleton vertices, then max degree.

    Any transversal bounds any matching from above, so its size bounds
    packings; it is also the incumbent for the exact transversal search.
    """
    cover = sorted({m[0] for m in members if len(m) == 1})
    forced = _mask(cover)
    remaining = [i for i in range(len(edge_masks)) if not edge_masks[i] & forced]
    while remaining:
        degree: dict[int, int] = {}
        for i in remaining:
            for v in members[i]:
                degree[v] = degree.get(v, 0) + 1
        v = min(degree, key=lambda x: (-degree[x], x))
        cover.append(v)
        vb = 1 << (v - 1)
        remaining = [i for i in remaining if not edge_masks[i] & vb]
    return cover


def _greedy_matching(masks: list[int], order: Iterable[int]) -> list[int]:
    """Indices of a greedy matching: each edge in ``order`` that meets none
    taken before it.  Any matching bounds any transversal from below."""
    taken = []
    used = 0
    for i in order:
        if not masks[i] & used:
            taken.append(i)
            used |= masks[i]
    return taken


def matching_number(h: Hypergraph) -> tuple[int, tuple[Edge, ...]]:
    """Exact maximum number of pairwise-disjoint edges, with a witness."""
    edges = h.edges
    members = [m for _, m in edges]
    masks = [_mask(m) for m in members]
    n_edges = len(edges)

    best_idx = _greedy_matching(masks, range(n_edges))
    best = len(best_idx)

    def dfs(cands: list[int], chosen: list[int]) -> None:
        nonlocal best, best_idx
        if not cands:
            if len(chosen) > best:
                best = len(chosen)
                best_idx = list(chosen)
            return
        bound = len(chosen) + len(
            _greedy_cover([masks[i] for i in cands], [members[i] for i in cands])
        )
        if bound <= best:
            return
        first = cands[0]
        m = masks[first]
        chosen.append(first)
        dfs([i for i in cands[1:] if not masks[i] & m], chosen)
        chosen.pop()
        dfs(cands[1:], chosen)

    dfs(list(range(n_edges)), [])
    return best, tuple(edges[i] for i in best_idx)


def transversal_number(h: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex set meeting every edge, with a witness."""
    if not h.edges:
        return 0, ()
    members = [m for _, m in h.edges]
    masks = [_mask(m) for m in members]

    cover = _greedy_cover(masks, members)
    best = len(cover)
    best_cover = sorted(cover)

    def dfs(uncovered: list[int], chosen: list[int]) -> None:
        nonlocal best, best_cover
        if not uncovered:
            if len(chosen) < best:
                best = len(chosen)
                best_cover = sorted(chosen)
            return
        if len(chosen) + len(_greedy_matching(masks, uncovered)) >= best:
            return
        branch = min(uncovered, key=lambda i: (len(members[i]), members[i]))
        for v in members[branch]:
            vb = 1 << (v - 1)
            chosen.append(v)
            dfs([i for i in uncovered if not masks[i] & vb], chosen)
            chosen.pop()

    dfs(list(range(len(members))), [])
    return best, tuple(best_cover)


def fractional_matching_number(h: Hypergraph) -> tuple[Fraction, dict[Edge, Fraction]]:
    """Exact LP optimum of max sum of edge weights, per-vertex load <= 1."""
    value, solution = lp.max_packing(
        ([v - 1 for v in m] for _, m in h.edges),
        [Fraction(1)] * h.vertex_count,
        [Fraction(1)] * len(h.edges),
    )
    return value, dict(zip(h.edges, solution))


@dataclass(frozen=True)
class HypergraphStats:
    nu: int
    tau: int
    mu_f: Fraction
    witness_matching: tuple[Edge, ...]
    witness_transversal: tuple[int, ...]
    witness_fractional: dict[Edge, Fraction]

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu,
            "tau": self.tau,
            "mu_f": format_rational(self.mu_f),
            "witness_matching": [
                {"symbol": i, "set": list(m)} for i, m in self.witness_matching
            ],
            "witness_transversal": list(self.witness_transversal),
            "witness_fractional": [
                {"symbol": i, "set": list(m), "weight": format_rational(w)}
                for (i, m), w in self.witness_fractional.items()
                if w
            ],
        }


def compute_stats(h: Hypergraph) -> HypergraphStats:
    """nu, tau, mu_f with witnesses; re-validates each witness and the
    sandwich nu <= mu_f <= tau before returning: the matching as a packing of
    weight 1 per edge worth nu, the fractional matching as a packing worth
    mu_f, and the transversal as node prices, 1 per chosen node, worth tau."""
    nu, matching = matching_number(h)
    tau, transversal = transversal_number(h)
    mu_f, weights = fractional_matching_number(h)
    pool, n = set(h.edges), h.vertex_count
    prices = [transversal.count(v) for v in range(1, n + 1)]
    for name, check, args in (
        ("matching", check_packing, (dict.fromkeys(matching, 1), pool, n, 1, nu)),
        ("fractional", check_packing, (weights, pool, n, 1, mu_f)),
        ("transversal", check_cover, (prices, h.edges, 1, tau)),
    ):
        try:
            check(*args)
        except ValueError as exc:
            raise lp.InvariantError(f"{name} witness failed validation: {exc}") from exc
    if not nu <= mu_f <= tau:
        raise lp.InvariantError(f"sandwich violated: {nu} <= {mu_f} <= {tau}")
    return HypergraphStats(nu, tau, mu_f, matching, transversal, weights)
