"""Minimum recovery sets per data symbol.

A node set R recovers symbol i exactly when some y with supp(y) inside R
solves G.y = e_i.  Those solutions form the coset y0 + C^perp of the dual
(simplex) code, q^r vectors in all, so the minimum recovery sets of symbol i
are the inclusion-minimal supports in that coset: the circuits through e_i of
the vector matroid of [G | e_i] (Oxley, *Matroid Theory*).  One algorithm
serves every generator matrix; the dual-codeword shortcut for a systematic
column s_i is the special case y0 = e_{s_i}.  Sets are emitted in canonical
(size, lexicographic) order, 1-based, so results are deterministic.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Optional

from .codes import Codeword, LinearCode, dual_codewords
from .fields import FieldMatrix, Frozen, in_span, rref

RecoverySet = tuple[int, ...]


def canonical_order(
    pairs: Iterable[tuple[int, RecoverySet]]
) -> list[tuple[int, RecoverySet]]:
    """The (symbol, set) pairs sorted by (size, members, symbol): the one
    column order of every packing LP in the package, since Bland's rule
    enters the first improving column and small sets first reach the optimum
    in far fewer pivots than a symbol-major order."""
    return sorted(pairs, key=lambda e: (len(e[1]), e[1], e[0]))


class RecoverySystem(Frozen):
    """Per-symbol lists of minimum recovery sets for one code."""

    __slots__ = ("code", "per_symbol")

    def __init__(
        self, code: LinearCode, per_symbol: tuple[tuple[RecoverySet, ...], ...]
    ) -> None:
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "per_symbol", per_symbol)

    def total_sets(self) -> int:
        return sum(len(sets) for sets in self.per_symbol)

    def __iter__(self) -> Iterator[tuple[int, RecoverySet]]:
        """Every (symbol, set) pair, by symbol and then in canonical set order."""
        for i, sets in enumerate(self.per_symbol, start=1):
            for members in sets:
                yield i, members

    def __contains__(self, pair: tuple[int, RecoverySet]) -> bool:
        i, members = pair
        return 1 <= i <= len(self.per_symbol) and members in self.per_symbol[i - 1]

    def to_json_dict(self) -> dict:
        return {
            "symbols": [
                {"index": i + 1, "sets": [list(s) for s in sets]}
                for i, sets in enumerate(self.per_symbol)
            ]
        }


def build_recovery_system(code: LinearCode) -> RecoverySystem:
    """Minimum recovery system for every data symbol.

    One ``rref`` of [G | I_k], with G's columns taken lightest first, yields
    for every symbol i a solution y0 of G.y = e_i supported on the pivot
    columns.  Each coset element y0 + c (c a dual codeword) is edited from
    c's cached support at the positions in supp(y0); candidates are scanned
    by increasing size and kept unless they contain a kept support of
    strictly smaller size.
    """
    q, n, k = code.q, code.n, code.k
    rows = code.generator.entries
    # Lightest columns first: unit columns become pivots, so y0 is supported
    # on s alone whenever symbol i has a systematic column s.
    order = sorted(range(n), key=lambda j: sum(1 for row in rows if row[j]))
    augmented = FieldMatrix(
        q,
        tuple(
            tuple(row[j] for j in order) + tuple(1 if t == i else 0 for t in range(k))
            for i, row in enumerate(rows)
        ),
    )
    reduced, pivots, _ = rref(augmented)
    words = dual_codewords(code)
    word_masks = [sum(1 << (v - 1) for v in c.support) for c in words]
    per = []
    for i in range(k):
        y0 = [
            (order[p], reduced.entries[t][n + i])
            for t, p in enumerate(pivots)
            if reduced.entries[t][n + i]
        ]
        # Coset supports by size, one entry per distinct support.
        by_size: dict[int, dict[int, Codeword]] = {}
        for c, mask in zip(words, word_masks):
            size = len(c.support)
            for p, v in y0:
                if not c.entries[p]:
                    size += 1
                    mask |= 1 << p
                elif (c.entries[p] + v) % q == 0:
                    size -= 1
                    mask ^= 1 << p
            by_size.setdefault(size, {})[mask] = c
        kept_masks: list[int] = []
        sets: list[RecoverySet] = []
        for size in sorted(by_size):
            level, level_masks = [], []
            # Masks of one size are distinct, so none contains another: only
            # the kept masks of smaller sizes can make a candidate non-minimal.
            for mask, c in by_size[size].items():
                for m in kept_masks:
                    if m & mask == m:
                        break
                else:
                    level_masks.append(mask)
                    members = list(c.support)
                    for p, v in y0:
                        if not c.entries[p]:
                            bisect.insort(members, p + 1)
                        elif (c.entries[p] + v) % q == 0:
                            members.remove(p + 1)
                    level.append(tuple(members))
            level.sort()
            sets.extend(level)
            kept_masks.extend(level_masks)
        per.append(tuple(sets))
    return RecoverySystem(code, tuple(per))


def validate_recovery_system(system: RecoverySystem) -> None:
    """Independent soundness/minimality re-check of every emitted set.

    Soundness solves the span membership through the generic matrix path
    (not the coset enumeration).  Minimality needs no subset scan: ``in_span``
    gives every non-pivot column coefficient 0, so all coefficients are
    nonzero exactly when the set's columns are independent and each one is
    needed; a set with dependent columns is never minimal, because a
    dependency lets one column drop out of the solution.  This also rules out
    nested sets a < b: b's unique solution would be supported on a.
    """
    code = system.code
    gen = code.generator
    for i, sets in enumerate(system.per_symbol, start=1):
        target = [1 if t == i - 1 else 0 for t in range(code.k)]
        seen = set()
        for members in sets:
            if members in seen:
                raise ValueError(f"duplicate recovery set {members} for symbol {i}")
            seen.add(members)
            if list(members) != sorted(set(members)):
                raise ValueError(f"set {members} not strictly ascending")
            if members[0] < 1 or members[-1] > code.n:
                raise ValueError(f"set {members} out of range 1..{code.n}")
            coeffs = in_span(gen.select_columns([m - 1 for m in members]), target)
            if coeffs is None:
                raise ValueError(f"set {members} does not recover symbol {i}")
            if not all(coeffs):
                raise ValueError(f"set {members} is not minimal for symbol {i}")


class StructureReport(Frozen):
    """Counts describing the recovery system of a systematic Hamming code."""

    __slots__ = (
        "cardinality_histogram", "nonsingleton_per_symbol", "incidence_range", "t_counts"
    )

    def __init__(
        self,
        cardinality_histogram: dict[int, int],
        nonsingleton_per_symbol: tuple[int, ...],
        incidence_range: tuple[int, int],
        t_counts: Optional[dict[int, int]],
    ) -> None:
        object.__setattr__(self, "cardinality_histogram", cardinality_histogram)
        object.__setattr__(self, "nonsingleton_per_symbol", nonsingleton_per_symbol)
        object.__setattr__(self, "incidence_range", incidence_range)
        object.__setattr__(self, "t_counts", t_counts)


def structure_report(system: RecoverySystem) -> StructureReport:
    """Count what the structural laws of a systematic Ham(r, q) recovery
    system speak about: the set sizes, the non-singleton sets per symbol, and
    the range of how many of a symbol's sets meet each of its other nodes.
    ``verify_report`` holds the laws themselves.

    For binary codes ``t_counts[t]`` counts the non-singleton sets (over all
    symbols) with exactly t non-systematic nodes, t = 0..r; for 1 <= t <= r
    it equals C(r, t) * (2^(r-1) - t), and t = 0 yields 0 because no
    recovery set avoids the parity columns entirely.  It is None for q > 2.
    """
    code = system.code
    if code.systematic_positions is None:
        raise ValueError("structure report requires a systematic code")
    q, r = code.q, code.r
    systematic = set(code.systematic_positions)
    histogram: dict[int, int] = {}
    t_counts = {t: 0 for t in range(r + 1)} if q == 2 else None
    nonsingleton = []
    incidences = []
    for i, sets in enumerate(system.per_symbol, start=1):
        s = code.systematic_positions[i - 1]
        nonsingleton.append(sum(1 for m in sets if len(m) > 1))
        per_node: dict[int, int] = {j: 0 for j in range(1, code.n + 1) if j != s}
        for members in sets:
            histogram[len(members)] = histogram.get(len(members), 0) + 1
            for v in members:
                if v != s:
                    per_node[v] += 1
            if t_counts is not None and len(members) > 1:
                t_counts[sum(1 for v in members if v not in systematic)] += 1
        incidences.extend(per_node.values())

    return StructureReport(
        cardinality_histogram=dict(sorted(histogram.items())),
        nonsingleton_per_symbol=tuple(nonsingleton),
        incidence_range=(min(incidences), max(incidences)),
        t_counts=t_counts,
    )

