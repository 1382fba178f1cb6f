"""Recovery hypergraphs: labeled hyperedges, exact matching/transversal
numbers, and the fractional matching number.

Vertices are the storage nodes 1..n; every recovery set of data symbol i
becomes a hyperedge labeled i.  nu and tau are found by exact branch and
bound (the claims we verify are equalities, so heuristics are useless); mu_f
is the exact LP optimum.  Edges are processed in canonical (size, members,
label) order everywhere, so values and witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import lp
from .fields import format_rational
from .recovery import RecoverySystem


@dataclass(frozen=True)
class Edge:
    members: tuple[int, ...]
    label: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("empty hyperedge")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError(f"edge members {self.members} not strictly ascending")
        if self.label < 1:
            raise ValueError(f"bad label {self.label}")


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
        for e in self.edges:
            if e.members[-1] > self.vertex_count:
                raise ValueError(f"edge {e.members} exceeds vertex count")
            key = (e.members, e.label)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    def canonical_edges(self) -> list[Edge]:
        return sorted(self.edges, key=lambda e: (len(e.members), e.members, e.label))


def from_recovery_system(system: RecoverySystem) -> Hypergraph:
    edges = []
    for i, sets in enumerate(system.per_symbol, start=1):
        for members in sets:
            edges.append(Edge(members, i))
    return Hypergraph(system.code.n, tuple(edges))


def partial_hypergraph(h: Hypergraph, labels: Iterable[int]) -> Hypergraph:
    """Keep only the edges recovering the given data symbols."""
    keep = set(labels)
    return Hypergraph(h.vertex_count, tuple(e for e in h.edges if e.label in keep))


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


def matching_number(h: Hypergraph) -> tuple[int, tuple[Edge, ...]]:
    """Exact maximum number of pairwise-disjoint edges, with a witness."""
    edges = h.canonical_edges()
    masks = [_mask(e.members) for e in edges]
    members = [e.members for e in edges]
    n_edges = len(edges)

    best_idx: list[int] = []
    used = 0
    for i in range(n_edges):
        if not masks[i] & used:
            best_idx.append(i)
            used |= masks[i]
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
    edges = h.canonical_edges()
    if not edges:
        return 0, ()
    masks = [_mask(e.members) for e in edges]
    members = [e.members for e in edges]

    cover = _greedy_cover(masks, members)
    best = len(cover)
    best_cover = sorted(cover)

    def packing_lb(cands: list[int]) -> int:
        used = 0
        count = 0
        for i in cands:
            if not masks[i] & used:
                used |= masks[i]
                count += 1
        return count

    def dfs(uncovered: list[int], chosen: list[int]) -> None:
        nonlocal best, best_cover
        if not uncovered:
            if len(chosen) < best:
                best = len(chosen)
                best_cover = sorted(chosen)
            return
        if len(chosen) + packing_lb(uncovered) >= best:
            return
        branch = min(uncovered, key=lambda i: (len(members[i]), members[i]))
        for v in members[branch]:
            vb = 1 << (v - 1)
            chosen.append(v)
            dfs([i for i in uncovered if not masks[i] & vb], chosen)
            chosen.pop()

    dfs(list(range(len(edges))), [])
    return best, tuple(best_cover)


def fractional_matching_number(
    h: Hypergraph, pivot_limit: Optional[int] = None
) -> tuple[Fraction, dict[Edge, Fraction]]:
    """Exact LP optimum of max sum of edge weights, per-vertex load <= 1."""
    edges = h.canonical_edges()
    value, solution = lp.max_packing(
        ([v - 1 for v in e.members] for e in edges),
        [Fraction(1)] * h.vertex_count,
        [Fraction(1)] * len(edges),
        pivot_limit,
    )
    return value, dict(zip(edges, solution))


def validate_matching(h: Hypergraph, chosen: Iterable[Edge]) -> bool:
    used = 0
    pool = set(h.edges)
    for e in chosen:
        if e not in pool:
            return False
        m = _mask(e.members)
        if m & used:
            return False
        used |= m
    return True


def validate_transversal(h: Hypergraph, vertices: Iterable[int]) -> bool:
    vb = _mask(vertices)
    return all(_mask(e.members) & vb for e in h.edges)


def validate_fractional(h: Hypergraph, weights: dict[Edge, Fraction]) -> bool:
    pool = set(h.edges)
    if any(e not in pool for e in weights):
        return False
    if any(w < 0 or w > 1 for w in weights.values()):
        return False
    for v in range(1, h.vertex_count + 1):
        load = sum(
            (w for e, w in weights.items() if v in e.members), Fraction(0)
        )
        if load > 1:
            return False
    return True


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
                {"symbol": e.label, "set": list(e.members)}
                for e in self.witness_matching
            ],
            "witness_transversal": list(self.witness_transversal),
            "witness_fractional": [
                {"symbol": e.label, "set": list(e.members), "weight": format_rational(w)}
                for e, w in self.witness_fractional.items()
                if w
            ],
        }


def compute_stats(h: Hypergraph, pivot_limit: Optional[int] = None) -> HypergraphStats:
    """nu, tau, mu_f with witnesses; re-validates each witness and the
    sandwich nu <= mu_f <= tau before returning."""
    nu, matching = matching_number(h)
    tau, transversal = transversal_number(h)
    mu_f, weights = fractional_matching_number(h, pivot_limit)
    if not validate_matching(h, matching) or len(matching) != nu:
        raise RuntimeError("matching witness failed validation")
    if h.edges and (not validate_transversal(h, transversal) or len(transversal) != tau):
        raise RuntimeError("transversal witness failed validation")
    if not validate_fractional(h, weights):
        raise RuntimeError("fractional witness failed validation")
    if sum(weights.values(), Fraction(0)) != mu_f:
        raise RuntimeError("fractional witness does not sum to mu_f")
    if not nu <= mu_f <= tau:
        raise RuntimeError(f"sandwich violated: {nu} <= {mu_f} <= {tau}")
    return HypergraphStats(nu, tau, mu_f, matching, transversal, weights)
