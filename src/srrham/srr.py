"""The service-rate-region engine.

A demand vector (lambda_1..lambda_k) is servable when the per-symbol rates can
be split across that symbol's recovery sets without loading any storage node
beyond its capacity.  Every LP query here is one fractional packing,
``_region_lp``: linear maximization, per-symbol maxima and subset bounds use
the n capacity rows; ``max_served`` adds k demand ceilings; and a demand is a
member iff ``max_served`` serves all of it.  Waterfilling is exact event
simulation.  Restricting to minimum recovery sets loses nothing because any
larger recovery set can only load more nodes for the same service.

Every LP here lists its columns in one order, the hypergraph's canonical
(size, members, symbol) order (``SrrInstance.variables``).  The simplex
enters the first improving column (Bland's rule), so the order picks the
pivot path: size-first columns fill each node with its cheapest sets and
solve the sum-rate LP of systematic Ham(5,2) in 26 pivots, where a
symbol-major order took 106.  One order also makes the sum-rate LP and mu_f
the same LP, with the same optimal vertex.

Per-symbol maxima and subset bounds go one step further and keep only the
sets of the symbols their objective rewards: a set of any other symbol has
weight 0, adds nothing to the objective and only takes node capacity, so
dropping it keeps the optimum.  ``max_objective`` keeps every set, because
its whole optimal point is reported.

A per-symbol maximum lambda_i* needs no LP at all when symbol i has a unit
column s (a generator column equal to a scaled e_i): the paper's value
mu (2q - 1)/(q - 1) comes with a primal allocation and dual node prices of
that value, built in closed form and accepted by the solver-free checks
``hg.check_packing`` and ``hg.check_cover``; equal values prove optimality.
Symbols without a unit column keep the restricted LP.  The sum-rate needs
no LP either when every weight is one w > 0, every symbol has a unit column
and q^(r-1) - 1 > r: ``_unit_column_sum_rate`` certifies k mu w by the same
two checks, with the singleton packing and prices w on the unit columns,
which is the LP's own optimal vertex.  Ham(3,2), Ham(2,3), unequal weights
and codes without a unit column per symbol keep the LP.  A subset maximum
of a binary code needs no LP when the subset I has two or more symbols,
each with a unit column: ``_unit_column_subset_max`` certifies mu |I|, or
mu (|I| + 1) when some set of I's symbols avoids all of I's unit columns,
by the singleton packing plus one such set and prices 1 on the unit columns
plus one node that every such set holds.

Every allocation produced here is validated once by direct arithmetic,
independently of the solver that produced it; a witness that fails its check
raises ``errors.InvariantError``, since that is a bug and not bad input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Optional, Sequence

from . import hypergraph as hg
from . import lp
from .codes import LinearCode, odd_weight_column_count
from .errors import SHOWN_BITS, EventLimitError, InvariantError, WorkLimitError
from .fields import exact_rational, format_rational
from .recovery import RecoverySystem, build_recovery_system, structure_report

_ZERO = Fraction(0)
_ONE = Fraction(1)

DemandVector = tuple[Fraction, ...]


# m3_brute checks a pair in about 150 ns (Python 3.11 on a 2-core Xeon VM),
# so this limit stops it before it would run past about 8 s.
M3_PAIR_LIMIT = 5 * 10 ** 7

# A membership LP takes about 1 ms on Ham(3,2) and 12 ms on Ham(4,2) (on that
# machine), so a slice grid of this many points runs for 2 to 20 minutes.
SLICE_POINT_LIMIT = 10 ** 5

# verify costs about 1.6 us per entry that ``check_verify_budget`` counts on
# systematic Ham(7, 2) and 2.2 us on Ham(8, 2) (same machine; 22 s and 200 s),
# so this limit stops it before it would run past about 7 minutes.
VERIFY_ENTRY_LIMIT = 2 * 10 ** 8

# Default ceiling on waterfilling events (pour steps) before EventLimitError.
WATERFILL_EVENT_LIMIT = 10_000


@dataclass(frozen=True)
class SrrInstance:
    """A code's minimum recovery system and the uniform node capacity."""

    system: RecoverySystem
    capacity: Fraction = _ONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "capacity", exact_rational(self.capacity))
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")

    @property
    def code(self) -> LinearCode:
        return self.system.code

    @classmethod
    def for_code(cls, code: LinearCode, capacity=_ONE) -> "SrrInstance":
        return cls(build_recovery_system(code), capacity)

    def variables(
        self, symbols: Optional[Collection[int]] = None
    ) -> list[hg.Edge]:
        """The (symbol, recovery set) columns of every LP here, keeping only
        the sets of ``symbols`` when it is given, in the hypergraph's one
        canonical (size, members, symbol) order, ``hg.canonical_order``:
        size-first columns take a fraction of the pivots of a symbol-major
        order, and mu_f and the sum-rate become one LP with one vertex."""
        return hg.canonical_order(
            e for e in self.system if symbols is None or e[0] in symbols
        )


@dataclass
class Allocation:
    """Weights lambda_{iR}: the share of demand i routed to recovery set R."""

    weights: dict[hg.Edge, Fraction]

    def served(self, k: int) -> DemandVector:
        totals = [_ZERO] * k
        for (i, _), w in self.weights.items():
            totals[i - 1] += w
        return tuple(totals)

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

        ``hg.check_packing`` checks the sets, the capacities and the ``value``
        under ``weights`` (default all 1); service must also equal ``demand``
        and stay within ``ceiling``.
        """
        code = instance.code
        hg.check_packing(
            self.weights, instance.system, code.n, instance.capacity, value, weights
        )
        got = self.served(code.k)
        if demand is not None and got != tuple(demand):
            raise ValueError(f"served {got} != demand {tuple(demand)}")
        if ceiling is not None and any(s > c for s, c in zip(got, ceiling)):
            raise ValueError(f"served {got} exceeds demand {tuple(ceiling)}")

    def to_json_list(self) -> list[dict]:
        items = sorted(self.weights.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        return [
            {"symbol": i, "set": list(members), "weight": format_rational(w)}
            for (i, members), w in items
            if w != 0
        ]


def _certify(allocation: Allocation, instance: SrrInstance, *args, **kwargs) -> None:
    """``Allocation.validate`` for a witness computed here, where failing is a bug."""
    try:
        allocation.validate(instance, *args, **kwargs)
    except ValueError as exc:
        raise InvariantError(f"witness failed validation: {exc}") from exc


def _certify_prices(
    prices: Sequence[Fraction],
    pairs: Iterable[hg.Edge],
    capacity: Fraction,
    value: Fraction,
    weights: Sequence[Fraction],
) -> None:
    """``hg.check_cover`` for node prices computed here, where failing is a bug."""
    try:
        hg.check_cover(prices, pairs, capacity, value, weights)
    except ValueError as exc:
        raise InvariantError(f"node prices failed validation: {exc}") from exc


def _region_lp(
    instance: SrrInstance,
    weights: Sequence[Fraction],
    demand: Optional[Sequence[Fraction]] = None,
    symbols: Optional[Collection[int]] = None,
) -> tuple[Fraction, Allocation]:
    """Maximize sum_i weights_i * served_i.  Rows: the k demand ceilings (if a
    demand is given), then the n node capacities; columns:
    ``variables(symbols)``."""
    variables = instance.variables(symbols)
    ceilings = [] if demand is None else list(demand)
    m = len(ceilings)
    columns = (
        ([i - 1] if m else []) + [m + v - 1 for v in members]
        for i, members in variables
    )
    rhs = ceilings + [instance.capacity] * instance.code.n
    objective = [weights[i - 1] for i, _ in variables]
    value, solution = lp.max_packing(columns, rhs, objective)
    return value, Allocation({var: w for var, w in zip(variables, solution) if w})


def _demand(instance: SrrInstance, demand: Sequence[Fraction]) -> DemandVector:
    """The demand as k exact nonnegative Fractions; raises ValueError if not."""
    k = instance.code.k
    if len(demand) != k:
        raise ValueError(f"demand length {len(demand)} != k = {k}")
    rates = tuple(exact_rational(x) for x in demand)
    if any(x < 0 for x in rates):
        raise ValueError("demand rates must be nonnegative")
    return rates


def membership(
    instance: SrrInstance, demand: Sequence[Fraction]
) -> tuple[bool, Optional[Allocation]]:
    """Is the demand vector servable?  Yes iff ``max_served`` serves sum(demand).

    Service never exceeds demand in any symbol, so the total reaches
    sum(demand) only when every symbol is served in full; the witness that
    ``max_served`` validated is then an exact allocation of the demand.
    """
    value, allocation = max_served(instance, demand)
    if value != sum(demand, _ZERO):
        return False, None
    return True, allocation


def _unit_column_sum_rate(
    instance: SrrInstance, w: Fraction, units: Sequence[int]
) -> tuple[Fraction, Allocation]:
    """The sum-rate k mu w under equal weights w > 0, for a code whose every
    symbol i has a unit column s_i and with q^(r-1) - 1 > r, proven by a
    primal/dual pair of equal value.

    The primal puts mu on each singleton (i, (s_i,)); the s_i are distinct,
    so no node carries more than mu.  The prices are w on each s_i and 0 on
    the r other nodes, and cost mu k w.  They cover every set: a singleton
    (s_i,) costs w, and if column s_i is a e_i, the solutions of G.y = e_i
    are a^(-1) e_{s_i} + c over the dual (simplex) words c, each nonzero one
    of weight q^(r-1).  A support holding s_i contains (s_i,), so every other
    minimal set of symbol i is supp(c) minus s_i for a word c with
    c_{s_i} = -a^(-1): it has q^(r-1) - 1 nodes and avoids s_i.  With more
    than r nodes, it holds some other symbol's unit column, of price w.
    Ham(3,2) (sum-rate 5) and Ham(2,3) have q^(r-1) - 1 = r and keep the LP.

    Under the size-first column order, Bland's rule enters the k singletons
    first and then stops at these prices, so this is the LP's own optimal
    vertex.  Failing either check is a bug.
    """
    code = instance.code
    mu = instance.capacity
    value = code.k * mu * w
    primal = Allocation({(i, (s,)): mu for i, s in enumerate(units, start=1)})
    weights = [w] * code.k
    _certify(primal, instance, weights=weights, value=value)
    priced = set(units)
    prices = [w if v in priced else _ZERO for v in range(1, code.n + 1)]
    _certify_prices(prices, instance.system, mu, value, weights)
    return value, primal


def max_objective(
    instance: SrrInstance, weights: Sequence[Fraction]
) -> tuple[Fraction, DemandVector, Allocation]:
    """Maximize sum w_i * lambda_i over the service rate region.

    Equal positive weights on a code with a unit column per symbol and
    q^(r-1) - 1 > r take the certified closed form of
    ``_unit_column_sum_rate``; any other weights or code solve the LP.
    """
    code = instance.code
    if len(weights) != code.k:
        raise ValueError(f"weights length {len(weights)} != k = {code.k}")
    weights = tuple(exact_rational(w) for w in weights)
    if all(w == 0 for w in weights):
        raise ValueError("weights must not be all zero")
    w, units = weights[0], code.systematic_positions
    if (
        w > 0
        and units is not None
        and all(x == w for x in weights)
        and code.q ** (code.r - 1) - 1 > code.r
    ):
        value, allocation = _unit_column_sum_rate(instance, w, units)
    else:
        value, allocation = _region_lp(instance, weights)
        _certify(allocation, instance, weights=weights, value=value)
    return value, allocation.served(code.k), allocation


def _rewarded_max(instance: SrrInstance, symbols: Collection[int]) -> Fraction:
    """Max of sum_{i in symbols} served_i, over the sets of ``symbols`` only.

    The other symbols' sets would carry weight 0: setting them to 0 keeps
    any point feasible and its value, so the optimum is the full LP's.  A
    binary code with two or more symbols, each with a unit column, takes the
    certified closed form of ``_unit_column_subset_max``; any other case,
    lambda* among them, solves the LP.
    """
    code = instance.code
    weights = [_ONE if i in symbols else _ZERO for i in range(1, code.k + 1)]
    units = [code.unit_columns[i - 1] for i in symbols]
    if code.q == 2 and len(units) >= 2 and None not in units:
        return _unit_column_subset_max(instance, symbols, units, weights)
    value, allocation = _region_lp(instance, weights, symbols=symbols)
    _certify(allocation, instance, weights=weights, value=value)
    return value


def _unit_column_subset_max(
    instance: SrrInstance,
    symbols: Collection[int],
    units: Sequence[int],
    weights: Sequence[Fraction],
) -> Fraction:
    """The subset maximum mu (|I| + [a free set exists]) of a binary code,
    for a subset I of at least two symbols, each with a unit column s_i,
    proven by a primal/dual pair of equal value.

    Let S = {s_i : i in I}; a set is free if it is a recovery set of a
    symbol in I that holds no node of S.  The primal puts mu on each
    singleton (i, (s_i,)) and mu on the first free pair, if there is one;
    the prices are 1 on each node of S and 1 on the lowest node that every
    free set holds.  Every set of I's symbols then costs at least 1.

    Such a node exists.  Write h_v for column v of H.  A non-singleton set
    of symbol i is {v != s_i : a.h_v = 1} for some a with a.h_{s_i} = 1.  If
    it is free, a.h_{s_j} = 0 for every other j in I, so a.u = 1 for
    u = sum_{j in I} h_{s_j}, and the set holds the node of column u unless
    u = h_{s_i}.  In that case the other h_{s_j} of I sum to 0, so no other
    symbol j of I has a free set (its a would give a.0 = a.h_{s_j} = 1), and
    every free set of i holds the node h_{s_i} + h_{s_j} for any other j in
    I.  A binary Hamming H has every nonzero vector as a column, so the node
    is there.  So symbol i has a free set exactly when h_{s_i} lies outside
    the span of the other h_{s_j} of I.  Failing either check is a bug.
    """
    mu = instance.capacity
    per_symbol = instance.system.per_symbol
    pairs = [(i, m) for i in symbols for m in per_symbol[i - 1]]
    held = set(units)
    free = [(i, m) for i, m in pairs if held.isdisjoint(m)]
    primal = {(i, (s,)): mu for i, s in zip(symbols, units)}
    shared = None
    if free:
        primal[free[0]] = mu
        shared = min(set(free[0][1]).intersection(*(m for _, m in free)), default=None)
    value = mu * len(primal)
    _certify(Allocation(primal), instance, weights=weights, value=value)
    prices = [
        _ONE if v in held or v == shared else _ZERO
        for v in range(1, instance.code.n + 1)
    ]
    _certify_prices(prices, pairs, mu, value, weights)
    return value


def _unit_column_star(instance: SrrInstance, i: int, s: int) -> Fraction:
    """lambda_i* = mu (2q - 1)/(q - 1) for a symbol whose generator column s
    is a scaled e_i, proven by a primal/dual pair of equal value.

    Besides (s,), symbol i has q^(r-1) sets of size q^(r-1) - 1, and each
    node other than s lies in (q-1) q^(r-2) of them.  The primal puts mu on
    (s,) and mu/((q-1) q^(r-2)) on every other set; the prices are 1 at s and
    1/(q^(r-1) - 1) elsewhere.  Failing either check is a bug.
    """
    code = instance.code
    q, r, k, mu = code.q, code.r, code.k, instance.capacity
    value = mu * Fraction(2 * q - 1, q - 1)
    sets = instance.system.per_symbol[i - 1]
    share = mu / ((q - 1) * q ** (r - 2))
    primal = Allocation({(i, m): mu if m == (s,) else share for m in sets})
    weights = [_ONE if j == i else _ZERO for j in range(1, k + 1)]
    _certify(primal, instance, weights=weights, value=value)
    other = Fraction(1, q ** (r - 1) - 1)
    prices = [_ONE if v == s else other for v in range(1, code.n + 1)]
    _certify_prices(prices, ((i, m) for m in sets), mu, value, weights)
    return value


def lambda_star(instance: SrrInstance, i: int) -> Fraction:
    """Largest servable rate for symbol i alone.

    A symbol with a unit column gets the paper's closed form, certified by
    ``_unit_column_star``; any other is solved over its own recovery sets
    only.  Either way the value equals ``max_objective`` with weight 1 on i
    and 0 elsewhere.
    """
    k = instance.code.k
    if not 1 <= i <= k:
        raise ValueError(f"symbol {i} out of range 1..{k}")
    s = instance.code.unit_columns[i - 1]
    if s is None:
        return _rewarded_max(instance, {i})
    return _unit_column_star(instance, i, s)


def lambda_star_vector(instance: SrrInstance) -> DemandVector:
    return tuple(lambda_star(instance, i) for i in range(1, instance.code.k + 1))


def delta_simplex(instance: SrrInstance) -> Fraction:
    """Size of the largest uniform simplex inside the region: min_i lambda_i*."""
    return min(lambda_star_vector(instance))


def max_served(
    instance: SrrInstance, demand: Sequence[Fraction]
) -> tuple[Fraction, Allocation]:
    """Largest total rate servable without exceeding the given per-symbol demand."""
    demand = _demand(instance, demand)
    value, allocation = _region_lp(instance, [_ONE] * len(demand), demand)
    _certify(allocation, instance, ceiling=demand, value=value)
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


def subset_bound(instance: SrrInstance, symbols: Iterable[int]) -> SubsetBound:
    """Ceiling on sum of lambda_i over a subset of data symbols.

    Binary systematic codes only.  The prediction is |I| when the parity-check
    columns at the subset's systematic positions sum to zero, else |I| + 1;
    the full set I = [k] is the separately-stated case where the ceiling is k
    for r > 3.  The computed value is the exact maximum, certified in closed
    form by ``_unit_column_subset_max`` without an LP; it equals
    ``max_objective`` with weight 1 on the subset and 0 elsewhere.
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
    computed = _rewarded_max(instance, subset)
    return SubsetBound(subset, tuple(col_sum), predicted, computed)


def waterfill(
    instance: SrrInstance,
    demand: Sequence[Fraction],
    max_events: Optional[int] = None,
) -> tuple[Allocation, DemandVector, DemandVector]:
    """Greedy request splitting: systematic server first, then least load.

    Phase 1 absorbs each symbol's demand on its own systematic node up to
    capacity.  Phase 2 pours every remaining residual (all symbols advancing
    at equal unit rates) uniformly across that symbol's least-loaded unsaturated
    non-singleton sets; the exact pour length of each step is the first moment
    a node saturates, a set's load catches the next-higher load tier, or a
    residual runs out.  A set's load is the maximum load among its nodes, and
    sets containing a saturated node take no further traffic.  Returns the
    allocation, the served part, and the unserved residual.  More than
    ``max_events`` steps (``WATERFILL_EVENT_LIMIT`` when None) raise
    EventLimitError.
    """
    demand = _demand(instance, demand)
    if max_events is None:
        max_events = WATERFILL_EVENT_LIMIT
    code = instance.code
    if code.systematic_positions is None:
        raise ValueError("waterfilling requires a systematic code")
    if max_events < 0:
        raise ValueError(f"max_events must be nonnegative, got {max_events}")
    mu = instance.capacity
    k, n = code.k, code.n
    loads = [_ZERO] * (n + 1)
    residual = list(demand)
    weights: dict[hg.Edge, Fraction] = {}

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

    events = 0
    while True:
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
        if events >= max_events:
            raise EventLimitError(
                f"waterfilling exceeded the event ceiling of {max_events}: "
                f"{events} events done, "
                f"{sum(1 for x in residual if x > 0)} symbols still have a residual"
            )
        events += 1

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

    allocation = Allocation(weights)
    served = tuple(d - r for d, r in zip(demand, residual))
    _certify(allocation, instance, served)
    return allocation, served, tuple(residual)


def m3_closed_form(r: int) -> int:
    """Number of data-symbol triples whose pairwise-sum bound closes at 3."""
    if r < 3:
        raise ValueError(f"r must be >= 3, got {r}")
    k = 2 ** r - 1 - r
    numerator = math.comb(k, 2) - r * 2 ** (r - 1) + r * r
    if numerator % 3:
        raise InvariantError(f"non-integer triple count at r={r}")
    return numerator // 3


def check_m3_budget(r: int) -> None:
    """Raise ValueError for r < 3, and WorkLimitError if ``m3_brute`` would
    check more than M3_PAIR_LIMIT pairs.  There are at least 2^(r-1) of them,
    which settles a huge r before 2^r is formed."""
    if r < 3:
        raise ValueError(f"r must be >= 3, got {r}")
    subject = f"m3 at r={r} needs"
    if r - 1 > SHOWN_BITS:
        raise WorkLimitError(subject, "pair checks", M3_PAIR_LIMIT, log2=r - 1)
    heavy_count = 2 ** r - 1 - r
    pairs = heavy_count * (heavy_count - 1) // 2
    if pairs > M3_PAIR_LIMIT:
        raise WorkLimitError(subject, "pair checks", M3_PAIR_LIMIT, pairs)


def m3_brute(r: int) -> int:
    """Independent oracle for m3_closed_form: enumerate vector pairs.

    Counts unordered pairs of distinct weight->=2 vectors in GF(2)^r whose sum
    also has weight >= 2; each qualifying triple is seen three times.
    """
    check_m3_budget(r)
    heavy = [v for v in range(1, 2 ** r) if v.bit_count() >= 2]
    count = 0
    for a_idx in range(len(heavy)):
        for b_idx in range(a_idx + 1, len(heavy)):
            if (heavy[a_idx] ^ heavy[b_idx]).bit_count() >= 2:
                count += 1
    if count % 3:
        raise InvariantError(f"pair count {count} not divisible by 3")
    return count // 3


def _combination(k: int, size: int, rank: int) -> tuple[int, ...]:
    """Subset number ``rank`` (from 0) of the ``size``-subsets of 1..k, in
    lexicographic (``itertools.combinations``) order."""
    subset, v = [], 1
    for left in range(size, 0, -1):
        # C(k - v, left - 1) subsets take v next.
        while rank >= (block := math.comb(k - v, left - 1)):
            rank, v = rank - block, v + 1
        subset.append(v)
        v += 1
    return tuple(subset)


def _tight_on_sample(
    instance: SrrInstance, size: int, samples: int, rng: random.Random
) -> tuple[int, bool]:
    """Check the subset bound of at most ``samples`` random ``size``-subsets,
    drawn by rank; returns how many were checked and whether every one was
    tight."""
    k = instance.code.k
    total = math.comb(k, size)
    ranks = range(total) if total <= samples else rng.sample(range(total), samples)
    subsets = [_combination(k, size, i) for i in ranks]
    return len(subsets), all(subset_bound(instance, s).tight for s in subsets)


def _uniformized_sizes(k: int, samples: int) -> list[int]:
    """Subset sizes of verify's uniformized-ceiling check: 1, 1, 2, 2, ..."""
    return [s for s in range(1, k) for _ in range(2)][:samples]


def check_verify_budget(code: LinearCode, samples: int) -> None:
    """Raise WorkLimitError if ``verify_report`` on a binary systematic code
    would read more than VERIFY_ENTRY_LIMIT matrix entries in all.  Every
    symbol has 2^(r-1) + 1 recovery sets, N = k (2^(r-1) + 1) in all, so
    mu_f is an n x N LP and each of the four ``max_served`` LPs is
    (n + k) x N; each symbol of a sampled subset adds n x (2^(r-1) + 1),
    the sets that its cover check (or, alone, its LP) reads.  Other codes
    sample no subsets and are not counted."""
    if code.q != 2 or code.systematic_positions is None:
        return
    n, k, sets = code.n, code.k, 2 ** (code.r - 1) + 1
    symbols = (
        2 * min(samples, math.comb(k, 2))
        + 3 * min(samples, math.comb(k, 3))
        + sum(_uniformized_sizes(k, samples))
    )
    entries = (n + 4 * (n + k)) * k * sets + symbols * sets * n
    if entries > VERIFY_ENTRY_LIMIT:
        raise WorkLimitError(
            f"verify on {n} nodes needs", "matrix entries", VERIFY_ENTRY_LIMIT, entries
        )


def verify_report(
    code: LinearCode, seed: int = 0, samples: int = 40
) -> dict:
    """Machine-check every structural and service-rate law on one code; the
    result is the JSON report: the code summary, the checks, the skipped laws
    and whether every check passed.

    Laws that do not apply (binary-only bounds on a ternary code, systematic
    structure on a non-systematic matrix) are recorded as skipped rather than
    failed.  ``samples`` (at least 1) caps how many pairs, triples and random
    subsets are checked; it never affects the exactness of any one check.
    A binary code needs r >= 3 (the laws speak of q^(r-2) and of triples),
    so a binary r = 2 code raises ValueError before any work, and
    ``check_verify_budget`` raises WorkLimitError before any work when the
    sampled subset LPs are too large.
    The total service rate is the fractional matching number mu_f of the
    recovery hypergraph: at capacity 1 both are the same packing LP.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    q, r, k = code.q, code.r, code.k
    if q == 2 and r < 3:
        raise ValueError(f"verify needs r >= 3 for a binary code, got r = {r}")
    check_verify_budget(code, samples)
    rng = random.Random(seed)
    systematic = code.systematic_positions is not None
    instance = SrrInstance.for_code(code)
    summary = code.to_json_dict()
    del summary["generator"], summary["parity_check"]
    checks: list[dict] = []
    skipped: list[str] = []

    def add(claim, predicted, computed, passed, detail="") -> None:
        check = {
            "claim": claim, "predicted": predicted, "computed": computed, "pass": passed
        }
        if detail:
            check["detail"] = detail
        checks.append(check)

    # Recovery structure.
    if systematic:
        sr = structure_report(instance.system)
        sizes = {1, q ** (r - 1) - 1}
        add(
            "recovery set cardinalities",
            sorted(sizes),
            sorted(sr.cardinality_histogram),
            set(sr.cardinality_histogram) <= sizes,
        )
        count = q ** (r - 1)
        add(
            "non-singleton sets per symbol",
            count,
            sorted(set(sr.nonsingleton_per_symbol)),
            all(c == count for c in sr.nonsingleton_per_symbol),
        )
        incidence = (q - 1) * q ** (r - 2)
        add(
            "per-node incidence in a symbol's sets",
            incidence,
            list(sr.incidence_range),
            sr.incidence_range == (incidence, incidence),
        )
        if q == 2:
            for t in range(1, r + 1):
                expected = math.comb(r, t) * (2 ** (r - 1) - t)
                got = sr.t_counts[t]
                add(
                    f"sets with {t} non-systematic nodes",
                    expected,
                    got,
                    got == expected,
                )
    else:
        skipped.append("recovery structure laws (systematic codes only)")

    # Hypergraph numbers.
    graph = hg.from_recovery_system(instance.system)
    stats = hg.compute_stats(graph)
    add(
        "matching <= fractional matching <= transversal",
        True,
        [stats.nu, format_rational(stats.mu_f), stats.tau],
        stats.nu <= stats.mu_f <= stats.tau,
    )
    n_sys_cols = k - code.unit_columns.count(None)
    add(
        "matching number >= systematic column count",
        f">= {n_sys_cols}",
        stats.nu,
        stats.nu >= n_sys_cols,
    )
    if q == 2:
        o_w = odd_weight_column_count(code)
        total = stats.mu_f
        add(
            "total service rate <= odd-weight column count",
            f"<= {o_w}",
            format_rational(total),
            total <= o_w,
        )
        if systematic:
            predicted_total = 5 if r == 3 else k
            add(
                "maximal total service rate",
                predicted_total,
                format_rational(total),
                total == predicted_total,
            )
        elif r == 3:
            add(
                "maximal total service rate equals odd-weight count",
                o_w,
                format_rational(total),
                total == o_w,
            )
    else:
        skipped.append("odd-weight column bound (binary codes only)")

    # Single-object maxima and the simplex sandwich.
    stars = lambda_star_vector(instance)
    delta = min(stars)
    if systematic:
        predicted_star = 1 + Fraction(q, q - 1)
        add(
            "single-object maximum per symbol",
            format_rational(predicted_star),
            sorted({format_rational(s) for s in stars}),
            all(s == predicted_star for s in stars),
        )
    else:
        closed = Fraction(2 * q - 1, q - 1)
        predictions = {i: closed for i, s in enumerate(code.unit_columns, 1) if s}
        add(
            "single-object maxima (systematic-server symbols)",
            {i: format_rational(v) for i, v in predictions.items()},
            [format_rational(s) for s in stars],
            all(stars[i - 1] == v for i, v in predictions.items()),
        )
    add(
        "ceil(delta) <= minimum distance",
        f"<= {code.d}",
        format_rational(delta),
        math.ceil(delta) <= code.d,
    )
    if systematic:
        add(
            "floor(delta) >= 2",
            ">= 2",
            format_rational(delta),
            math.floor(delta) >= 2,
        )
        # Constructive two-unit witness: singleton plus one disjoint set.
        witness_ok = True
        for i, s in enumerate(code.systematic_positions, start=1):
            big = next(m for m in instance.system.per_symbol[i - 1] if len(m) > 1)
            demand = tuple(Fraction(2) if j == i else _ZERO for j in range(1, k + 1))
            try:
                Allocation({(i, (s,)): _ONE, (i, big): _ONE}).validate(instance, demand)
            except ValueError:
                witness_ok = False
                break
        add(
            "two disjoint recovery routes per symbol",
            True,
            witness_ok,
            witness_ok,
        )

    # Subset bounds and the uniformized fractional ceiling (binary systematic).
    if q == 2 and systematic:
        # Two distinct nonzero parity columns never cancel, so a pair's
        # predicted ceiling is always 3.
        detail = "empirical at r=3 (stated for r>3)" if r == 3 else ""
        checked, pair_ok = _tight_on_sample(instance, 2, samples, rng)
        add(
            f"pairwise ceilings on {checked} pairs",
            3,
            3 if pair_ok else "mismatch",
            pair_ok,
            detail,
        )
        checked, triple_ok = _tight_on_sample(instance, 3, samples, rng)
        add(
            f"triple ceilings on {checked} subsets",
            "|I| if columns cancel else |I|+1",
            "all tight" if triple_ok else "mismatch",
            triple_ok,
            detail,
        )
        bound_ok, checked = True, 0
        for size in _uniformized_sizes(k, samples):
            subset = tuple(sorted(rng.sample(range(1, k + 1), size)))
            ceiling = size + 2 - Fraction(size - 1, 2 ** (r - 1) - 1)
            checked += 1
            if _rewarded_max(instance, subset) > ceiling:
                bound_ok = False
                break
        add(
            f"uniformized fractional ceiling on {checked} random subsets",
            "mu_f <= |I| + 2 - (|I|-1)/(2^(r-1)-1)",
            "holds" if bound_ok else "violated",
            bound_ok,
        )
        m3c = m3_closed_form(r)
        m3b = m3_brute(r)
        add("closed-in-3 triple count", m3b, m3c, m3b == m3c)
    elif q != 2:
        skipped.append("subset and triple-count checks (binary codes only)")
    else:
        skipped.append("subset ceilings (systematic codes only)")

    # Waterfilling.
    if systematic:
        star = stars[0]
        demand = tuple(star if i == 0 else _ZERO for i in range(k))
        _, served, residual = waterfill(instance, demand)
        add(
            "waterfilling serves the single-object maximum",
            format_rational(star),
            format_rational(served[0]),
            served[0] == star and all(x == 0 for x in residual),
        )
        gaps = []
        policy_optimal = True
        for _ in range(4):  # random half-integer demands
            d = tuple(Fraction(rng.randrange(0, 5), 2) for _ in range(k))
            _, served, residual = waterfill(instance, d)
            best, _ = max_served(instance, d)
            got = sum(served, _ZERO)
            if got > best:
                policy_optimal = False  # impossible if the LP is right
            gaps.append(format_rational(best - got))
        add(
            "waterfilling never exceeds the LP optimum",
            True,
            policy_optimal,
            policy_optimal,
            f"policy-vs-LP gaps: {gaps}",
        )
    else:
        skipped.append("waterfilling checks (systematic codes only)")

    return {
        "code": summary,
        "checks": checks,
        "skipped": skipped,
        "all_pass": all(c["pass"] for c in checks),
    }
