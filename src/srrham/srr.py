"""The service-rate-region engine.

A demand vector (lambda_1..lambda_k) is servable when the per-symbol rates can
be split across that symbol's recovery sets without loading any storage node
beyond its capacity.  Every LP query here is one fractional packing,
``_region_lp``: linear maximization, per-symbol maxima and subset bounds use
the n capacity rows; ``max_served`` adds k demand ceilings; and a demand is a
member iff ``max_served`` serves all of it.  Waterfilling is exact event
simulation.  Restricting to minimum recovery sets loses nothing because any
larger recovery set can only load more nodes for the same service.

Every allocation produced here is validated once by direct arithmetic,
independently of the solver that produced it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import hypergraph as hg
from . import lp
from .codes import LinearCode, odd_weight_column_count
from .fields import format_rational, parse_rational
from .recovery import (
    RecoverySet,
    RecoverySystem,
    build_recovery_system,
    count_by_nonsystematic_nodes,
    structure_report,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

DemandVector = tuple[Fraction, ...]


class EventLimitError(RuntimeError):
    """Raised when the waterfilling simulation exceeds its event ceiling."""


def parse_demand(text: str, k: int) -> DemandVector:
    """Parse "1,1,1/3,2" into k exact nonnegative rationals."""
    parts = text.split(",")
    if len(parts) != k:
        raise ValueError(f"expected {k} comma-separated rates, got {len(parts)}")
    rates = tuple(parse_rational(p) for p in parts)
    if any(x < 0 for x in rates):
        raise ValueError("demand rates must be nonnegative")
    return rates


@dataclass(frozen=True)
class SrrInstance:
    """A code, its minimum recovery system, and the uniform node capacity."""

    code: LinearCode
    system: RecoverySystem
    capacity: Fraction = _ONE

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")

    @classmethod
    def for_code(cls, code: LinearCode, capacity=_ONE) -> "SrrInstance":
        return cls(code, build_recovery_system(code), Fraction(capacity))

    def variables(self) -> list[tuple[int, RecoverySet]]:
        """Canonical (symbol, recovery set) order shared by all LPs here."""
        out = []
        for i, sets in enumerate(self.system.per_symbol, start=1):
            for members in sets:
                out.append((i, members))
        return out


@dataclass
class Allocation:
    """Weights lambda_{iR}: the share of demand i routed to recovery set R."""

    weights: dict[tuple[int, RecoverySet], Fraction]

    def served(self, k: int) -> DemandVector:
        totals = [_ZERO] * k
        for (i, _), w in self.weights.items():
            totals[i - 1] += w
        return tuple(totals)

    def node_loads(self, n: int) -> tuple[Fraction, ...]:
        loads = [_ZERO] * n
        for (_, members), w in self.weights.items():
            for v in members:
                loads[v - 1] += w
        return tuple(loads)

    def validate(
        self,
        instance: SrrInstance,
        demand: Optional[Sequence[Fraction]] = None,
        *,
        ceiling: Optional[Sequence[Fraction]] = None,
        weights: Optional[Sequence[Fraction]] = None,
        value: Optional[Fraction] = None,
    ) -> None:
        """Exact re-check of an allocation; raises on violation.

        Besides the capacities: service must equal ``demand``, stay within
        ``ceiling``, and be worth ``value`` under ``weights`` (default all 1).
        """
        code = instance.code
        for (i, members), w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight on ({i}, {members})")
            if not 1 <= i <= code.k:
                raise ValueError(f"bad symbol {i}")
            if members not in instance.system.per_symbol[i - 1]:
                raise ValueError(f"{members} is not a recovery set of symbol {i}")
        for v, load in enumerate(self.node_loads(code.n), start=1):
            if load > instance.capacity:
                raise ValueError(
                    f"node {v} overloaded: {load} > {instance.capacity}"
                )
        got = self.served(code.k)
        if demand is not None and got != tuple(demand):
            raise ValueError(f"served {got} != demand {tuple(demand)}")
        if ceiling is not None and any(s > c for s, c in zip(got, ceiling)):
            raise ValueError(f"served {got} exceeds demand {tuple(ceiling)}")
        if value is not None:
            worth = sum((w * s for w, s in zip(weights or [_ONE] * code.k, got)), _ZERO)
            if worth != value:
                raise ValueError(f"witness is worth {worth}, not the value {value}")

    def to_json_list(self) -> list[dict]:
        items = sorted(self.weights.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        return [
            {"symbol": i, "set": list(members), "weight": format_rational(w)}
            for (i, members), w in items
            if w != 0
        ]


def _region_lp(
    instance: SrrInstance,
    weights: Sequence[Fraction],
    demand: Optional[Sequence[Fraction]] = None,
    pivot_limit: Optional[int] = None,
) -> tuple[Fraction, Allocation]:
    """Maximize sum_i weights_i * served_i.  Rows: the k demand ceilings (if a
    demand is given), then the n node capacities; columns: ``variables()``."""
    variables = instance.variables()
    ceilings = [] if demand is None else list(demand)
    m = len(ceilings)
    columns = (
        ([i - 1] if m else []) + [m + v - 1 for v in members]
        for i, members in variables
    )
    rhs = ceilings + [instance.capacity] * instance.code.n
    objective = [weights[i - 1] for i, _ in variables]
    value, solution = lp.max_packing(columns, rhs, objective, pivot_limit)
    return value, Allocation({var: w for var, w in zip(variables, solution) if w})


def membership(
    instance: SrrInstance,
    demand: Sequence[Fraction],
    pivot_limit: Optional[int] = None,
) -> tuple[bool, Optional[Allocation]]:
    """Is the demand vector servable?  Yes iff ``max_served`` serves sum(demand).

    Service never exceeds demand in any symbol, so the total reaches
    sum(demand) only when every symbol is served in full; the witness that
    ``max_served`` validated is then an exact allocation of the demand.
    """
    value, allocation = max_served(instance, demand, pivot_limit)
    if value != sum(demand, _ZERO):
        return False, None
    return True, allocation


def max_objective(
    instance: SrrInstance,
    weights: Sequence[Fraction],
    pivot_limit: Optional[int] = None,
) -> tuple[Fraction, DemandVector, Allocation]:
    """Maximize sum w_i * lambda_i over the service rate region."""
    code = instance.code
    if len(weights) != code.k:
        raise ValueError(f"weights length {len(weights)} != k = {code.k}")
    if all(w == 0 for w in weights):
        raise ValueError("weights must not be all zero")
    value, allocation = _region_lp(instance, weights, pivot_limit=pivot_limit)
    allocation.validate(instance, weights=weights, value=value)
    return value, allocation.served(code.k), allocation


def lambda_star(
    instance: SrrInstance, i: int, pivot_limit: Optional[int] = None
) -> Fraction:
    """Largest servable rate for symbol i alone."""
    k = instance.code.k
    if not 1 <= i <= k:
        raise ValueError(f"symbol {i} out of range 1..{k}")
    weights = [_ONE if j == i else _ZERO for j in range(1, k + 1)]
    value, _, _ = max_objective(instance, weights, pivot_limit)
    return value


def lambda_star_vector(
    instance: SrrInstance, pivot_limit: Optional[int] = None
) -> DemandVector:
    return tuple(
        lambda_star(instance, i, pivot_limit)
        for i in range(1, instance.code.k + 1)
    )


def delta_simplex(
    instance: SrrInstance, pivot_limit: Optional[int] = None
) -> Fraction:
    """Size of the largest uniform simplex inside the region: min_i lambda_i*."""
    return min(lambda_star_vector(instance, pivot_limit))


def max_served(
    instance: SrrInstance,
    demand: Sequence[Fraction],
    pivot_limit: Optional[int] = None,
) -> tuple[Fraction, Allocation]:
    """Largest total rate servable without exceeding the given per-symbol demand."""
    code = instance.code
    if len(demand) != code.k:
        raise ValueError(f"demand length {len(demand)} != k = {code.k}")
    if any(x < 0 for x in demand):
        raise ValueError("demand rates must be nonnegative")
    value, allocation = _region_lp(instance, [_ONE] * code.k, demand, pivot_limit)
    allocation.validate(instance, ceiling=demand, value=value)
    return value, allocation


@dataclass(frozen=True)
class SubsetBound:
    """Predicted vs computed ceiling on a subset's total service rate."""

    subset: tuple[int, ...]
    column_sum: tuple[int, ...]
    predicted: int
    computed: Fraction

    @property
    def tight(self) -> bool:
        return self.computed == self.predicted

    def to_json_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "column_sum": list(self.column_sum),
            "predicted": self.predicted,
            "computed": format_rational(self.computed),
            "tight": self.tight,
        }


def subset_bound(
    instance: SrrInstance,
    symbols: Iterable[int],
    pivot_limit: Optional[int] = None,
) -> SubsetBound:
    """Ceiling on sum of lambda_i over a subset of data symbols.

    Binary systematic codes only.  The prediction is |I| when the parity-check
    columns at the subset's systematic positions sum to zero, else |I| + 1;
    the full set I = [k] is the separately-stated case where the ceiling is k
    for r > 3.  The computed value is the exact LP maximum.
    """
    code = instance.code
    if code.q != 2:
        raise ValueError("subset bounds are defined for q = 2 only")
    if code.systematic_positions is None:
        raise ValueError("subset bounds require a systematic code")
    subset = tuple(sorted(set(symbols)))
    if len(subset) < 2:
        raise ValueError("subset must contain at least two symbols")
    if not all(1 <= i <= code.k for i in subset):
        raise ValueError(f"subset {subset} out of range 1..{code.k}")
    col_sum = [0] * code.r
    for i in subset:
        col = code.parity_check.column(code.systematic_positions[i - 1] - 1)
        col_sum = [(a + b) % 2 for a, b in zip(col_sum, col)]
    if len(subset) == code.k and code.r > 3:
        predicted = code.k
    elif all(v == 0 for v in col_sum):
        predicted = len(subset)
    else:
        predicted = len(subset) + 1
    weights = [_ONE if i in subset else _ZERO for i in range(1, code.k + 1)]
    computed, _, _ = max_objective(instance, weights, pivot_limit)
    return SubsetBound(subset, tuple(col_sum), predicted, computed)


def waterfill(
    instance: SrrInstance,
    demand: Sequence[Fraction],
    max_events: int = 10000,
) -> tuple[Allocation, DemandVector, DemandVector]:
    """Greedy request splitting: systematic server first, then least load.

    Phase 1 absorbs each symbol's demand on its own systematic node up to
    capacity.  Phase 2 pours every remaining residual (all symbols advancing
    at equal unit rates) uniformly across that symbol's least-loaded unsaturated
    non-singleton sets; the exact pour length of each step is the first moment
    a node saturates, a set's load catches the next-higher load tier, or a
    residual runs out.  A set's load is the maximum load among its nodes, and
    sets containing a saturated node take no further traffic.  Returns the
    allocation, the served part, and the unserved residual.
    """
    code = instance.code
    if code.systematic_positions is None:
        raise ValueError("waterfilling requires a systematic code")
    if len(demand) != code.k:
        raise ValueError(f"demand length {len(demand)} != k = {code.k}")
    demand = tuple(Fraction(x) for x in demand)
    if any(x < 0 for x in demand):
        raise ValueError("demand rates must be nonnegative")
    mu = instance.capacity
    k, n = code.k, code.n
    loads = [_ZERO] * (n + 1)
    residual = list(demand)
    weights: dict[tuple[int, RecoverySet], Fraction] = {}

    for i in range(1, k + 1):
        s = code.systematic_positions[i - 1]
        take = min(residual[i - 1], mu - loads[s])
        if take > 0:
            weights[(i, (s,))] = take
            loads[s] += take
            residual[i - 1] -= take

    big_sets = {
        i: [m for m in instance.system.per_symbol[i - 1] if len(m) > 1]
        for i in range(1, k + 1)
    }

    for _ in range(max_events):
        active = []
        for i in range(1, k + 1):
            if residual[i - 1] <= 0:
                continue
            usable = [
                m for m in big_sets[i] if all(loads[v] < mu for v in m)
            ]
            if not usable:
                continue
            set_loads = {m: max(loads[v] for v in m) for m in usable}
            gamma = min(set_loads.values())
            tier = [m for m in usable if set_loads[m] == gamma]
            higher = [l for l in set_loads.values() if l > gamma]
            next_gamma = min(higher) if higher else None
            active.append((i, tier, next_gamma))
        if not active:
            break

        rate: dict[int, Fraction] = {}
        for i, tier, _ in active:
            rho = Fraction(1, len(tier))
            for m in tier:
                for v in m:
                    rate[v] = rate.get(v, _ZERO) + rho

        deltas = []
        for i, tier, next_gamma in active:
            deltas.append(residual[i - 1])
            if next_gamma is not None:
                for m in tier:
                    deltas.append(
                        min(
                            (next_gamma - loads[v]) / rate[v]
                            for v in m
                            if rate.get(v)
                        )
                    )
        for v, rv in rate.items():
            deltas.append((mu - loads[v]) / rv)
        delta = min(deltas)

        for i, tier, _ in active:
            amount = Fraction(1, len(tier)) * delta
            for m in tier:
                weights[(i, m)] = weights.get((i, m), _ZERO) + amount
            residual[i - 1] -= delta
        for v, rv in rate.items():
            loads[v] += rv * delta
    else:
        raise EventLimitError(
            f"waterfilling exceeded the event ceiling of {max_events}"
        )

    allocation = Allocation(weights)
    served = tuple(d - r for d, r in zip(demand, residual))
    allocation.validate(instance, served)
    return allocation, served, tuple(residual)


def m3_closed_form(r: int) -> int:
    """Number of data-symbol triples whose pairwise-sum bound closes at 3."""
    if r < 3:
        raise ValueError(f"r must be >= 3, got {r}")
    k = 2 ** r - 1 - r
    numerator = math.comb(k, 2) - r * 2 ** (r - 1) + r * r
    if numerator % 3:
        raise ArithmeticError(f"non-integer triple count at r={r}")
    return numerator // 3


def m3_brute(r: int) -> int:
    """Independent oracle for m3_closed_form: enumerate vector pairs.

    Counts unordered pairs of distinct weight->=2 vectors in GF(2)^r whose sum
    also has weight >= 2; each qualifying triple is seen three times.
    """
    if r < 3:
        raise ValueError(f"r must be >= 3, got {r}")
    heavy = [v for v in range(1, 2 ** r) if v.bit_count() >= 2]
    count = 0
    for a_idx in range(len(heavy)):
        for b_idx in range(a_idx + 1, len(heavy)):
            if (heavy[a_idx] ^ heavy[b_idx]).bit_count() >= 2:
                count += 1
    if count % 3:
        raise ArithmeticError(f"pair count {count} not divisible by 3")
    return count // 3


@dataclass
class CheckResult:
    claim: str
    predicted: object
    computed: object
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "predicted": self.predicted,
            "computed": self.computed,
            "pass": self.passed,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class VerificationReport:
    code_summary: dict
    checks: list[CheckResult] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, claim, predicted, computed, passed, detail="") -> None:
        self.checks.append(CheckResult(claim, predicted, computed, passed, detail))

    def to_json_dict(self) -> dict:
        return {
            "code": self.code_summary,
            "checks": [c.to_json_dict() for c in self.checks],
            "skipped": list(self.skipped),
            "all_pass": self.all_pass,
        }


def _rat(x) -> str:
    return format_rational(Fraction(x))


def verify_report(
    code: LinearCode,
    seed: int = 0,
    subset_samples: int = 40,
    uniform_samples: int = 30,
    mixed_demands: int = 4,
    pivot_limit: Optional[int] = None,
) -> VerificationReport:
    """Machine-check every structural and service-rate law on one code.

    Laws that do not apply (binary-only bounds on a ternary code, systematic
    structure on a non-systematic matrix) are recorded as skipped rather than
    failed.  Sampling sizes only affect how many subset instances are checked,
    never the exactness of each individual check.
    """
    rng = random.Random(seed)
    q, r, k = code.q, code.r, code.k
    systematic = code.systematic_positions is not None
    instance = SrrInstance.for_code(code)
    report = VerificationReport(
        {
            "q": q,
            "r": r,
            "n": code.n,
            "k": k,
            "systematic_positions": (
                list(code.systematic_positions) if systematic else None
            ),
        }
    )

    # Recovery structure.
    if systematic:
        sr = structure_report(instance.system)
        expected_sizes = {1, q ** (r - 1) - 1}
        report.add(
            "recovery set cardinalities",
            sorted(expected_sizes),
            sorted(sr.cardinality_histogram),
            sr.cardinality_law_ok,
        )
        report.add(
            "non-singleton sets per symbol",
            q ** (r - 1),
            sorted(set(sr.nonsingleton_per_symbol)),
            sr.count_law_ok,
        )
        report.add(
            "per-node incidence in a symbol's sets",
            (q - 1) * q ** (r - 2),
            list(sr.incidence_range),
            sr.incidence_law_ok,
        )
        if q == 2:
            for t in range(1, r + 1):
                expected = math.comb(r, t) * (2 ** (r - 1) - t)
                got = count_by_nonsystematic_nodes(instance.system, t)
                report.add(
                    f"sets with {t} non-systematic nodes",
                    expected,
                    got,
                    got == expected,
                )
    else:
        report.skipped.append("recovery structure laws (systematic codes only)")

    # Hypergraph numbers.
    graph = hg.from_recovery_system(instance.system)
    stats = hg.compute_stats(graph, pivot_limit)
    report.add(
        "matching <= fractional matching <= transversal",
        True,
        [stats.nu, _rat(stats.mu_f), stats.tau],
        stats.nu <= stats.mu_f <= stats.tau,
    )
    n_sys_cols = len(
        {
            j
            for j in (code.systematic_column(i) for i in range(1, k + 1))
            if j is not None
        }
    )
    report.add(
        "matching number >= systematic column count",
        f">= {n_sys_cols}",
        stats.nu,
        stats.nu >= n_sys_cols,
    )
    if q == 2:
        o_w = odd_weight_column_count(code)
        total, _, _ = max_objective(instance, [_ONE] * k, pivot_limit)
        report.add(
            "total service rate <= odd-weight column count",
            f"<= {o_w}",
            _rat(total),
            total <= o_w,
        )
        report.add(
            "total service rate equals fractional matching number",
            _rat(stats.mu_f),
            _rat(total),
            total == stats.mu_f,
        )
        if systematic:
            predicted_total = 5 if r == 3 else k
            report.add(
                "maximal total service rate",
                predicted_total,
                _rat(total),
                total == predicted_total,
            )
        elif r == 3:
            report.add(
                "maximal total service rate equals odd-weight count",
                o_w,
                _rat(total),
                total == o_w,
            )
    else:
        report.skipped.append("odd-weight column bound (binary codes only)")

    # Single-object maxima and the simplex sandwich.
    stars = lambda_star_vector(instance, pivot_limit)
    delta = min(stars)
    if systematic:
        predicted_star = 1 + Fraction(q, q - 1)
        report.add(
            "single-object maximum per symbol",
            _rat(predicted_star),
            sorted({_rat(s) for s in stars}),
            all(s == predicted_star for s in stars),
        )
    else:
        predictions = {}
        for i in range(1, k + 1):
            if code.systematic_column(i) is not None:
                predictions[i] = Fraction(2 * q - 1, q - 1)
        report.add(
            "single-object maxima (systematic-server symbols)",
            {i: _rat(v) for i, v in predictions.items()},
            [_rat(s) for s in stars],
            all(stars[i - 1] == v for i, v in predictions.items()),
        )
    report.add(
        "ceil(delta) <= minimum distance",
        f"<= {code.d}",
        _rat(delta),
        math.ceil(delta) <= code.d,
    )
    if systematic:
        report.add(
            "floor(delta) >= 2",
            ">= 2",
            _rat(delta),
            math.floor(delta) >= 2,
        )
        # Constructive two-unit witness: singleton plus one disjoint set.
        witness_ok = True
        for i in range(1, k + 1):
            s = code.systematic_positions[i - 1]
            big = next(
                m for m in instance.system.per_symbol[i - 1] if len(m) > 1
            )
            alloc = Allocation({(i, (s,)): _ONE, (i, big): _ONE})
            try:
                demand = tuple(
                    Fraction(2) if j == i else _ZERO for j in range(1, k + 1)
                )
                alloc.validate(instance, demand)
            except ValueError:
                witness_ok = False
                break
        report.add(
            "two disjoint recovery routes per symbol",
            True,
            witness_ok,
            witness_ok,
        )

    # Subset bounds and the uniformized fractional ceiling (binary systematic).
    if q == 2 and systematic:
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        if len(pairs) > subset_samples:
            pairs = rng.sample(pairs, subset_samples)
        pair_ok = True
        for i, j in pairs:
            sb = subset_bound(instance, (i, j), pivot_limit)
            if sb.predicted != 3 or sb.computed != 3:
                pair_ok = False
                break
        detail = "empirical at r=3 (stated for r>3)" if r == 3 else ""
        report.add(
            f"pairwise ceilings on {len(pairs)} pairs",
            3,
            3 if pair_ok else "mismatch",
            pair_ok,
            detail,
        )
        triples = [
            (i, j, l)
            for i in range(1, k + 1)
            for j in range(i + 1, k + 1)
            for l in range(j + 1, k + 1)
        ]
        if len(triples) > subset_samples:
            triples = rng.sample(triples, subset_samples)
        triple_ok = True
        for tri in triples:
            sb = subset_bound(instance, tri, pivot_limit)
            if sb.computed != sb.predicted:
                triple_ok = False
                break
        report.add(
            f"triple ceilings on {len(triples)} subsets",
            "|I| if columns cancel else |I|+1",
            "all tight" if triple_ok else "mismatch",
            triple_ok,
            detail,
        )
        bound_ok = True
        checked = 0
        sizes = [s for s in range(1, k) for _ in range(2)][: uniform_samples]
        for size in sizes:
            subset = tuple(sorted(rng.sample(range(1, k + 1), size)))
            part = hg.partial_hypergraph(graph, subset)
            mu_f, _ = hg.fractional_matching_number(part, pivot_limit)
            ceiling = (
                len(subset)
                + 2
                - Fraction(len(subset) - 1, 2 ** (r - 1) - 1)
            )
            checked += 1
            if mu_f > ceiling:
                bound_ok = False
                break
        report.add(
            f"uniformized fractional ceiling on {checked} random subsets",
            "mu_f <= |I| + 2 - (|I|-1)/(2^(r-1)-1)",
            "holds" if bound_ok else "violated",
            bound_ok,
        )
        m3c = m3_closed_form(r)
        m3b = m3_brute(r)
        report.add("closed-in-3 triple count", m3b, m3c, m3b == m3c)
    elif q != 2:
        report.skipped.append("subset and triple-count checks (binary codes only)")
    else:
        report.skipped.append("subset ceilings (systematic codes only)")

    # Waterfilling.
    if systematic:
        star = stars[0]
        demand = tuple(star if i == 0 else _ZERO for i in range(k))
        _, served, residual = waterfill(instance, demand)
        report.add(
            "waterfilling serves the single-object maximum",
            _rat(star),
            _rat(served[0]),
            served[0] == star and all(x == 0 for x in residual),
        )
        gaps = []
        policy_optimal = True
        for _ in range(mixed_demands):
            d = tuple(Fraction(rng.randrange(0, 5), 2) for _ in range(k))
            _, served, residual = waterfill(instance, d)
            best, _ = max_served(instance, d, pivot_limit)
            got = sum(served, _ZERO)
            if got > best:
                policy_optimal = False  # impossible if the LP is right
            gaps.append(_rat(best - got))
        report.add(
            "waterfilling never exceeds the LP optimum",
            True,
            policy_optimal,
            policy_optimal,
            f"policy-vs-LP gaps: {gaps}",
        )
    else:
        report.skipped.append("waterfilling checks (systematic codes only)")

    return report
