import collections
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from srrham import codes, lp, srr
from srrham import hypergraph as hg
from srrham.fields import FieldMatrix

from oracles import (
    LE, OPTIMAL, GeneralLp, dense_solve, equivalent_generator, node_loads,
    phase1_membership,
)

F = Fraction


def unit_demand(k, i, scale=1):
    return tuple(F(scale) if j == i else F(0) for j in range(1, k + 1))


def test_membership_all_ones(classic32_instance, sys42_instance, sys33_instance):
    for instance in (classic32_instance, sys42_instance, sys33_instance):
        member, allocation = srr.membership(instance, [F(1)] * instance.code.k)
        assert member
        allocation.validate(instance, [F(1)] * instance.code.k)


def test_membership_triple_unit(classic32_instance):
    member, allocation = srr.membership(classic32_instance, unit_demand(4, 1, 3))
    assert member
    allocation.validate(classic32_instance, unit_demand(4, 1, 3))


def test_membership_zero_demand(classic32_instance):
    member, allocation = srr.membership(classic32_instance, [F(0)] * 4)
    assert member
    assert allocation.weights == {}


def test_membership_rejects_pair_above_three(sys42_instance):
    demand = [F(8, 5), F(8, 5)] + [F(0)] * 9
    member, allocation = srr.membership(sys42_instance, demand)
    assert not member and allocation is None


def test_membership_validates_input(classic32_instance):
    with pytest.raises(ValueError):
        srr.membership(classic32_instance, [F(1)] * 3)
    with pytest.raises(ValueError):
        srr.membership(classic32_instance, [F(-1), 0, 0, 0])


def test_floats_rejected_at_every_library_entry(classic32, classic32_instance):
    # A float such as 0.1 is not the rational 1/10; it must never reach a result.
    with pytest.raises(ValueError, match="exact rational"):
        srr.max_served(classic32_instance, (0.1, 1, 1, 1))
    with pytest.raises(ValueError, match="exact rational"):
        srr.membership(classic32_instance, (0.1, 1, 1, 1))
    with pytest.raises(ValueError, match="exact rational"):
        srr.waterfill(classic32_instance, (0.1, 1, 1, 1))
    with pytest.raises(ValueError, match="exact rational"):
        srr.max_objective(classic32_instance, (0.1, 1, 1, 1))
    with pytest.raises(ValueError, match="exact rational"):
        srr.SrrInstance.for_code(classic32, 0.1)
    with pytest.raises(ValueError, match="exact rational"):
        srr.SrrInstance(classic32_instance.system, 0.1)


def test_work_limit_message_shows_a_huge_estimate_by_its_size():
    shown = srr.WorkLimitError("x needs", "steps", 10, 2 ** 996 - 1)
    assert str(shown) == f"x needs {2 ** 996 - 1} steps, over the limit of 10"
    sized = srr.WorkLimitError("x needs", "steps", 10, 2 ** 996 + 5)
    assert str(sized) == "x needs at least 2^996 steps, over the limit of 10"
    assert (sized.estimate, sized.limit) == (2 ** 996 + 5, 10)
    bound = srr.WorkLimitError("x needs", "steps", 10, log2=10 ** 9)
    assert str(bound) == "x needs at least 2^1000000000 steps, over the limit of 10"


def test_ints_and_fractions_pass_every_library_entry(classic32, classic32_instance):
    mixed = (1, F(1, 2), 0, 2)
    value, _ = srr.max_served(classic32_instance, mixed)
    assert value == F(7, 2)
    assert srr.membership(classic32_instance, mixed)[0]
    _, served, residual = srr.waterfill(classic32_instance, mixed)
    assert served == mixed and residual == (0, 0, 0, 0)
    assert all(type(x) is F for x in served + residual)
    assert srr.max_objective(classic32_instance, (1, F(1), 1, 1))[0] == 5
    for capacity in (2, F(2)):
        instance = srr.SrrInstance.for_code(classic32, capacity)
        assert type(instance.capacity) is F and instance.capacity == 2
        assert srr.SrrInstance(instance.system, capacity) == instance


def test_max_served_validates_demand(classic32_instance):
    with pytest.raises(ValueError, match="length 5"):
        srr.max_served(classic32_instance, [F(1)] * 5)
    with pytest.raises(ValueError, match="length 3"):
        srr.max_served(classic32_instance, [F(1)] * 3)
    with pytest.raises(ValueError, match="nonnegative"):
        srr.max_served(classic32_instance, [F(-1), 0, 0, 0])


def test_each_answer_is_validated_once(classic32_instance, monkeypatch):
    calls = []
    validate = srr.Allocation.validate

    def counted(self, *args, **kwargs):
        calls.append(kwargs)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(srr.Allocation, "validate", counted)
    assert srr.membership(classic32_instance, (1, 1, 1, 2))[0]
    assert not srr.membership(classic32_instance, (4, 0, 0, 0))[0]
    srr.max_served(classic32_instance, (4, 0, 0, 0))
    srr.max_objective(classic32_instance, (1, 1, 1, 1))
    assert len(calls) == 4
    assert all("value" in kwargs for kwargs in calls)


@pytest.fixture(scope="module")
def boundary_instances(classic32, nonsys, sys33):
    """(instance, sum-rate at capacity 1) for the membership property test."""
    generator = equivalent_generator(
        codes.systematic_hamming(3, 2).generator, random.Random(3)
    )
    scrambled = codes.import_generator(generator.to_lists(), 2)
    assert scrambled.systematic_positions is None
    out = []
    for code in (classic32, nonsys, scrambled, sys33):
        instance = srr.SrrInstance.for_code(code)
        out.append((instance, srr.max_objective(instance, [1] * code.k)[0]))
    return out


@settings(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_membership_matches_phase1_oracle(boundary_instances, data):
    base, sum_rate = data.draw(st.sampled_from(boundary_instances))
    k = base.code.k
    capacity = data.draw(
        st.fractions(F(1, 3), 3, max_denominator=4).filter(lambda c: c != 1)
    )
    instance = srr.SrrInstance(base.system, capacity)
    direction = data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    if not any(direction):
        direction[0] = 1
    # Totals from 40% to 140% of the sum-rate straddle the boundary.
    share = F(data.draw(st.integers(40, 140)), 100)
    scale = share * sum_rate * capacity / sum(direction)
    demand = tuple(scale * x for x in direction)
    member, witness = srr.membership(instance, demand)
    expected, _ = phase1_membership(instance, demand)
    event(f"k={k} member={expected}")
    assert member == expected
    if member:
        witness.validate(instance, demand)
    else:
        assert witness is None


def test_worked_demand_is_servable(classic32_instance):
    member, allocation = srr.membership(classic32_instance, (1, 1, 1, F(2)))
    assert member
    allocation.validate(classic32_instance, (1, 1, 1, 2))


def test_gprime_demand_is_servable(gprime):
    instance = srr.SrrInstance.for_code(gprime)
    member, allocation = srr.membership(instance, (2, 1, 1, 1))
    assert member
    value, _, _ = srr.max_objective(instance, (1, 1, 1, 0))
    assert value == 4


def test_max_objective_worked_values(
    classic32_instance, sys42_instance, nonsys_instance
):
    assert srr.max_objective(classic32_instance, [1] * 4)[0] == 5
    assert srr.max_objective(sys42_instance, [1] * 11)[0] == 11
    assert srr.max_objective(nonsys_instance, [1] * 4)[0] == 3


def test_max_objective_rejects_zero_weights(classic32_instance):
    with pytest.raises(ValueError):
        srr.max_objective(classic32_instance, [0, 0, 0, 0])


def test_lambda_star_values(
    classic32_instance, sys42_instance, sys33_instance, nonsys_instance
):
    assert srr.lambda_star(classic32_instance, 1) == 3
    assert srr.lambda_star(sys42_instance, 5) == 3
    assert srr.lambda_star(sys33_instance, 2) == F(5, 2)
    assert srr.lambda_star_vector(nonsys_instance) == (3, F(7, 3), 3, 3)
    with pytest.raises(ValueError):
        srr.lambda_star(classic32_instance, 5)


def _route_code(r, q, layout):
    """(code, capacity): systematic at 1, classic at 3/2, or a seeded
    scramble of the systematic generator at 1."""
    if layout == "systematic":
        return codes.systematic_hamming(r, q), 1
    if layout == "classic":
        return codes.classic_hamming(r, q), F(3, 2)
    generator = equivalent_generator(
        codes.systematic_hamming(r, q).generator, random.Random(100 * r + q)
    )
    return codes.import_generator(generator.to_lists(), q), 1


@pytest.mark.parametrize("layout", ["systematic", "classic", "scrambled"])
@pytest.mark.parametrize(
    "r,q", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (3, 5)]
)
def test_lambda_star_closed_form_matches_the_lp(monkeypatch, r, q, layout):
    """Unit-column symbols take the certified closed form and never reach the
    LP, whose value they must still equal; every other symbol runs the LP."""
    code, capacity = _route_code(r, q, layout)
    instance = srr.SrrInstance.for_code(code, capacity)
    units = {i for i, s in enumerate(code.unit_columns, start=1) if s is not None}
    region_lp = srr._region_lp
    reached = {}

    def recorded(inst, weights, symbols):
        (i,) = symbols
        reached[i], allocation = region_lp(inst, weights, symbols=symbols)
        return reached[i], allocation

    monkeypatch.setattr(srr, "_region_lp", recorded)
    for i in range(1, code.k + 1):
        star = srr.lambda_star(instance, i)
        if i in units:
            assert i not in reached
            weights = [F(j == i) for j in range(1, code.k + 1)]
            assert star == region_lp(instance, weights, symbols={i})[0]
            assert star == capacity * F(2 * q - 1, q - 1)
        else:
            assert star == reached[i]
    assert set(reached) == set(range(1, code.k + 1)) - set(units)


def _permuted_and_scaled(r, q):
    """Systematic Ham(r,q) with its columns permuted and scaled by nonzero
    field elements (seeded): every symbol keeps a scaled unit column."""
    rng = random.Random(10 * r + q)
    generator = codes.systematic_hamming(r, q).generator
    order = list(range(generator.cols))
    rng.shuffle(order)
    scales = [rng.randrange(1, q) for _ in order]
    rows = [
        [row[j] * a % q for j, a in zip(order, scales)] for row in generator.entries
    ]
    return codes.import_generator(rows, q)


@pytest.mark.parametrize("layout", ["systematic", "classic", "permuted"])
@pytest.mark.parametrize(
    "r,q", [(4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (2, 5), (3, 5)]
)
def test_certified_sum_rate_is_the_lp_vertex(monkeypatch, r, q, layout):
    """Equal weights on a code with a unit column per symbol never reach the
    LP, and the certified answer is the LP's own value, service and witness."""
    build = {
        "systematic": codes.systematic_hamming,
        "classic": codes.classic_hamming,
        "permuted": _permuted_and_scaled,
    }[layout]
    code = build(r, q)
    assert code.systematic_positions is not None
    system, k = srr.SrrInstance.for_code(code).system, code.k
    region_lp = srr._region_lp
    reached = []
    monkeypatch.setattr(
        srr, "_region_lp", lambda *args: reached.append(args) or region_lp(*args)
    )
    for capacity, w in ((1, 1), (F(2, 3), F(3, 2))):
        instance = srr.SrrInstance(system, capacity)
        value, served, allocation = srr.max_objective(instance, [w] * k)
        assert not reached
        lp_value, lp_allocation = region_lp(instance, [F(w)] * k)
        assert value == lp_value == k * capacity * w
        assert served == lp_allocation.served(k) == (capacity,) * k
        assert allocation.weights == lp_allocation.weights
        assert allocation.to_json_list() == lp_allocation.to_json_list()


@pytest.mark.parametrize(
    "r,q,layout,weights",
    [
        (3, 2, "systematic", None),
        (3, 2, "classic", None),
        (2, 3, "systematic", None),
        (4, 2, "systematic", [1] * 10 + [2]),
        (4, 2, "systematic", [-1] * 11),
        (4, 2, "scrambled", None),
    ],
    ids=["ham32", "classic32", "ham23", "unequal", "negative", "scrambled42"],
)
def test_sum_rate_keeps_the_lp_without_its_certificate(
    monkeypatch, r, q, layout, weights
):
    code, _ = _route_code(r, q, layout)
    if layout == "scrambled":
        assert code.systematic_positions is None
    instance = srr.SrrInstance.for_code(code)
    weights = weights or [1] * code.k
    region_lp = srr._region_lp
    reached = []
    monkeypatch.setattr(
        srr, "_region_lp", lambda *args: reached.append(args) or region_lp(*args)
    )
    value, _, _ = srr.max_objective(instance, weights)
    assert len(reached) == 1
    assert value == region_lp(instance, [F(w) for w in weights])[0]
    if (r, q) == (3, 2):
        assert value == 5


def _drawn_code(kind, seed, nonsys):
    """NONSYS_G, a scrambled Ham(3,2) or Ham(3,3), or a column-permuted
    (so still systematic) Ham(3,2)."""
    if kind == "nonsys":
        return nonsys
    rng = random.Random(seed)
    q = 3 if kind == "scrambled33" else 2
    generator = codes.systematic_hamming(3, q).generator
    if kind == "permuted32":
        order = list(range(generator.cols))
        rng.shuffle(order)
        rows = [[row[j] for j in order] for row in generator.entries]
        generator = FieldMatrix.from_rows(rows, q)
    else:
        generator = equivalent_generator(generator, rng)
    return codes.import_generator(generator.to_lists(), q)


@settings(
    deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_restricted_lps_match_full_lp(nonsys, data):
    kind = data.draw(
        st.sampled_from(["nonsys", "scrambled32", "scrambled33", "permuted32"])
    )
    code = _drawn_code(kind, data.draw(st.integers(0, 2 ** 16)), nonsys)
    capacity = data.draw(
        st.fractions(F(1, 3), 3, max_denominator=4).filter(lambda c: c != 1)
    )
    instance = srr.SrrInstance.for_code(code, capacity)
    k = code.k
    i = data.draw(st.integers(1, k))
    unit = [1 if j == i else 0 for j in range(1, k + 1)]
    assert srr.lambda_star(instance, i) == srr.max_objective(instance, unit)[0]

    subset = data.draw(st.sets(st.integers(1, k), min_size=2, max_size=k))
    full, _, _ = srr.max_objective(
        instance, [1 if j in subset else 0 for j in range(1, k + 1)]
    )
    subset_bound_applies = code.q == 2 and code.systematic_positions is not None
    event(f"{kind} subset_bound={subset_bound_applies}")
    if subset_bound_applies:
        assert srr.subset_bound(instance, subset).computed == full
    else:
        assert srr._rewarded_max(instance, subset) == full


def test_delta_values(classic32_instance, sys42_instance, nonsys_instance):
    assert srr.delta_simplex(classic32_instance) == 3
    assert srr.delta_simplex(nonsys_instance) == F(7, 3)
    delta = srr.delta_simplex(sys42_instance)
    assert delta == 3
    assert math.ceil(delta) <= sys42_instance.code.d


@pytest.mark.parametrize(
    "code", ["classic32", "sys42", "sys33", "nonsys", "gprime", "sys32", "sys52"]
)
def test_max_equals_fractional_matching(request, code):
    # verify_report reads the sum-rate from mu_f alone; this is the check
    # that the two routes to it agree.  Both list their columns in the one
    # canonical order, so at capacity 1 they are the same LP and must reach
    # the same vertex, not only the same value.
    instance = srr.SrrInstance.for_code(request.getfixturevalue(code))
    total, _, allocation = srr.max_objective(instance, [1] * instance.code.k)
    mu_f, witness = hg.fractional_matching_number(
        hg.from_recovery_system(instance.system)
    )
    assert total == mu_f
    assert allocation.weights == {e: w for e, w in witness.items() if w}


def test_sum_rate_pivots_in_the_size_first_order(sys52_instance, monkeypatch):
    # Systematic Ham(5,2) sum-rate took 106 pivots with symbol-major columns.
    pivots = []
    optimize = lp._Tableau.optimize

    def counted(self):
        optimize(self)
        pivots.append(self.pivots)

    monkeypatch.setattr(lp._Tableau, "optimize", counted)
    # The LP itself: max_objective answers this sum-rate by its certificate.
    value, _ = srr._region_lp(sys52_instance, [1] * 26)
    assert (value, pivots) == (26, [26])


def _dense_region_value(instance, weights, demand=None):
    """The optimum of ``srr._region_lp``'s LP, built here from the instance's
    columns and solved by the two-phase dense reference simplex."""
    columns = instance.variables()
    rows = [
        ([1 if j == i else 0 for j, _ in columns], LE, d)
        for i, d in enumerate(demand or (), start=1)
    ]
    rows += [
        ([1 if v in members else 0 for _, members in columns], LE, instance.capacity)
        for v in range(1, instance.code.n + 1)
    ]
    status, value, _ = dense_solve(
        GeneralLp.of([weights[i - 1] for i, _ in columns], rows)
    )
    assert status == OPTIMAL
    return value


@pytest.fixture(scope="module")
def order_instances(classic32_instance, sys32_instance, sys42_instance,
                    sys52_instance, sys33_instance):
    rng = random.Random(5)
    scrambled = [
        srr.SrrInstance.for_code(
            codes.import_generator(
                equivalent_generator(codes.systematic_hamming(3, 2).generator, rng)
                .to_lists(),
                2,
            )
        )
        for _ in range(2)
    ]
    return [classic32_instance, sys32_instance, sys42_instance, sys52_instance,
            sys33_instance, *scrambled]


@settings(
    deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_size_first_lps_match_the_dense_reference(order_instances, data):
    instance = data.draw(st.sampled_from(order_instances))
    k = instance.code.k
    weights = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    if not any(weights):
        weights[0] = 1
    demand = data.draw(
        st.lists(st.fractions(0, 3, max_denominator=4), min_size=k, max_size=k)
    )
    event(f"k={k}")
    value, _, _ = srr.max_objective(instance, weights)
    assert value == _dense_region_value(instance, weights)
    served, _ = srr.max_served(instance, demand)
    assert served == _dense_region_value(instance, [1] * k, demand)


def test_subset_bound_classic_examples(classic32_instance):
    bound = srr.subset_bound(classic32_instance, (1, 2, 3))
    assert bound.column_sum == (0, 0, 0)
    assert bound.predicted == 3 and bound.computed == 3 and bound.tight
    for pair in ((1, 2), (1, 3), (2, 3)):
        bound = srr.subset_bound(classic32_instance, pair + (4,))
        assert any(bound.column_sum)
        assert bound.predicted == 4 and bound.computed == 4
    for pair in ((1, 2), (2, 4), (3, 4)):
        bound = srr.subset_bound(classic32_instance, pair)
        assert bound.predicted == 3 and bound.computed == 3


def test_subset_bound_pairs_r4(sys42_instance):
    rng = random.Random(1)
    for _ in range(8):
        pair = tuple(rng.sample(range(1, 12), 2))
        bound = srr.subset_bound(sys42_instance, pair)
        assert bound.predicted == 3 and bound.computed == 3


def test_subset_bound_full_set_r4(sys42_instance):
    bound = srr.subset_bound(sys42_instance, range(1, 12))
    assert bound.predicted == 11 and bound.computed == 11


@pytest.mark.parametrize("subset", [(0, 1), (1, 12)], ids=["zero", "past-k"])
def test_subset_bound_rejects_a_symbol_out_of_range(sys42_instance, subset):
    with pytest.raises(ValueError, match=re.escape(f"subset {subset} out of range 1..11")):
        srr.subset_bound(sys42_instance, subset)


def test_subset_bound_input_validation(sys33_instance, nonsys_instance, classic32_instance):
    with pytest.raises(ValueError):
        srr.subset_bound(sys33_instance, (1, 2))
    with pytest.raises(ValueError):
        srr.subset_bound(nonsys_instance, (1, 2))
    with pytest.raises(ValueError):
        srr.subset_bound(classic32_instance, (1,))


def _column_bits(code, i):
    """Column s_i of H, as the bits of an int."""
    column = code.parity_check.column(code.unit_columns[i - 1] - 1)
    return int("".join(map(str, column)), 2)


def _spans(vectors, target):
    """Is ``target`` in the GF(2) span of ``vectors`` (ints as bit vectors)?"""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    for b in basis:
        target = min(target, target ^ b)
    return target == 0


def _lp_subset_max(instance, subset):
    k = instance.code.k
    weights = [F(1) if i in subset else F(0) for i in range(1, k + 1)]
    return srr._region_lp(instance, weights, symbols=subset)[0]


def _cross_check(instance, subsets):
    """The certified subset maximum equals the LP's, and it is mu (|I| + 1)
    exactly when some h_{s_i} lies outside the span of the other h_{s_j}."""
    code, mu = instance.code, instance.capacity
    for subset in subsets:
        columns = {i: _column_bits(code, i) for i in subset}
        free = any(
            not _spans([c for j, c in columns.items() if j != i], columns[i])
            for i in subset
        )
        value = srr._rewarded_max(instance, subset)
        assert value == mu * (len(subset) + free), subset
        assert value == _lp_subset_max(instance, subset), subset


@pytest.mark.parametrize("build", [codes.classic_hamming, codes.systematic_hamming])
def test_subset_max_certificate_on_every_ham32_subset(build):
    for capacity in (1, F(2, 3)):
        instance = srr.SrrInstance.for_code(build(3, 2), capacity)
        _cross_check(instance, [
            s for size in range(2, 5) for s in itertools.combinations(range(1, 5), size)
        ])


def test_subset_max_certificate_and_strict_tally_on_every_ham42_subset(sys42_instance):
    # The prediction |I| + 1 overshoots the exact ceiling |I| this many
    # times per subset size; the full set is tight (k for r > 3).
    subsets = [
        s for size in range(2, 12) for s in itertools.combinations(range(1, 12), size)
    ]
    _cross_check(sys42_instance, subsets)
    strict = collections.Counter()
    for subset in subsets:
        bound = srr.subset_bound(sys42_instance, subset)
        assert bound.computed <= bound.predicted
        if not bound.tight:
            assert (bound.predicted, bound.computed) == (len(subset) + 1, len(subset))
            strict[len(subset)] += 1
    assert strict == {5: 51, 6: 195, 7: 259, 8: 151, 9: 52, 10: 10}


@pytest.mark.parametrize(
    "build,r,capacity,count",
    [
        (codes.classic_hamming, 4, 1, 120),
        (codes.systematic_hamming, 5, F(2, 3), 60),
        (codes.classic_hamming, 5, 1, 30),
        (codes.systematic_hamming, 6, 1, 10),
    ],
    ids=["classic42", "sys52-mu-2/3", "classic52", "sys62"],
)
def test_subset_max_certificate_on_random_subsets(build, r, capacity, count):
    instance = srr.SrrInstance.for_code(build(r, 2), capacity)
    k = instance.code.k
    rng = random.Random(100 * r + count)
    _cross_check(instance, [
        tuple(sorted(rng.sample(range(1, k + 1), rng.randint(2, k - 1))))
        for _ in range(count)
    ])


def test_subset_max_takes_the_lp_only_without_its_certificate(
    monkeypatch, sys42_instance, nonsys_instance, sys33_instance
):
    """Two or more binary unit-column symbols never reach the LP; lambda* of
    a symbol without a unit column and a ternary subset do."""
    region_lp = srr._region_lp
    reached = []
    monkeypatch.setattr(
        srr, "_region_lp", lambda *a, **kw: reached.append(a) or region_lp(*a, **kw)
    )
    for subset in ((1, 2), (1, 2, 3), tuple(range(1, 12))):
        srr.subset_bound(sys42_instance, subset)
        srr._rewarded_max(sys42_instance, subset)
    assert srr._rewarded_max(nonsys_instance, (3, 4)) == region_lp(
        nonsys_instance, [F(0), F(0), F(1), F(1)], symbols=(3, 4)
    )[0]
    assert not reached
    assert nonsys_instance.code.unit_columns[0] is None
    srr.lambda_star(nonsys_instance, 1)
    assert len(reached) == 1
    srr._rewarded_max(sys33_instance, (1, 2))
    assert len(reached) == 2


@pytest.mark.parametrize("r", [3, 4, 5])
def test_waterfill_triple_unit_binary(r):
    code = codes.systematic_hamming(r, 2)
    instance = srr.SrrInstance.for_code(code)
    demand = unit_demand(code.k, 1, 3)
    allocation, served, residual = srr.waterfill(instance, demand)
    assert served == demand
    assert all(x == 0 for x in residual)
    share = F(1, 2 ** (r - 2))
    big = {m: w for (i, m), w in allocation.weights.items() if len(m) > 1}
    assert set(big.values()) == {share}
    loads = node_loads(allocation.weights, code.n)
    assert all(l == 1 for l in loads)


def test_waterfill_ternary_max(sys33_instance):
    demand = unit_demand(10, 1, F(5, 2))
    allocation, served, residual = srr.waterfill(sys33_instance, demand)
    assert served == demand and all(x == 0 for x in residual)
    assert all(l == 1 for l in node_loads(allocation.weights, 13))


def test_waterfill_all_ones_uses_singletons_only(classic32_instance):
    demand = (F(1),) * 4
    allocation, served, residual = srr.waterfill(classic32_instance, demand)
    assert served == demand
    assert all(len(m) == 1 for (_, m) in allocation.weights)
    loads = node_loads(allocation.weights, 7)
    parity_nodes = {1, 2, 4}  # counting-layout parity columns stay idle
    assert all(loads[v - 1] == 0 for v in parity_nodes)


def test_waterfill_overdemand_leaves_residual(classic32_instance):
    allocation, served, residual = srr.waterfill(classic32_instance, (4, 0, 0, 0))
    assert served == (3, 0, 0, 0)
    assert residual == (1, 0, 0, 0)
    member, _ = srr.membership(classic32_instance, (4, 0, 0, 0))
    assert not member  # the LP confirms 4 is unreachable


def test_waterfill_matches_lp_on_worked_demand(classic32_instance):
    demand = (1, 1, 1, F(2))
    _, served, residual = srr.waterfill(classic32_instance, demand)
    assert sum(residual) == 0
    best, _ = srr.max_served(classic32_instance, demand)
    assert sum(served) == best


def test_waterfill_rejects_nonsystematic(nonsys_instance):
    with pytest.raises(ValueError):
        srr.waterfill(nonsys_instance, (1, 1, 1, 1))


def test_waterfill_never_beats_lp(sys42_instance):
    rng = random.Random(23)
    for _ in range(6):
        demand = tuple(F(rng.randrange(0, 5), 2) for _ in range(11))
        _, served, _ = srr.waterfill(sys42_instance, demand)
        best, _ = srr.max_served(sys42_instance, demand)
        assert sum(served) <= best


def test_m3_counts():
    for r in range(3, 9):
        assert srr.m3_brute(r) == srr.m3_closed_form(r)
    assert [srr.m3_closed_form(r) for r in (3, 4, 5)] == [1, 13, 90]
    with pytest.raises(ValueError):
        srr.m3_closed_form(2)
    with pytest.raises(ValueError):
        srr.m3_brute(2)


def test_allocation_validation_catches_violations(classic32_instance):
    bad = srr.Allocation({(1, (3,)): F(-1)})
    with pytest.raises(ValueError, match="negative"):
        bad.validate(classic32_instance)
    overload = srr.Allocation({(1, (3,)): F(2)})
    with pytest.raises(ValueError, match="overloaded"):
        overload.validate(classic32_instance)
    foreign = srr.Allocation({(1, (1, 2, 3)): F(1)})
    with pytest.raises(ValueError, match="not a recovery set"):
        foreign.validate(classic32_instance)
    short = srr.Allocation({(1, (3,)): F(1)})
    with pytest.raises(ValueError, match="demand"):
        short.validate(classic32_instance, (2, 0, 0, 0))
    for symbol in (0, 5):
        stray = srr.Allocation({(symbol, (3,)): F(1)})
        with pytest.raises(ValueError, match=f"not a recovery set of symbol {symbol}"):
            stray.validate(classic32_instance)


def test_allocation_validation_checks_ceiling_and_value(classic32_instance):
    witness = srr.Allocation({(1, (3,)): F(1), (2, (5,)): F(1, 2)})
    witness.validate(classic32_instance, ceiling=(1, 1, 0, 0), value=F(3, 2))
    witness.validate(classic32_instance, weights=(0, 2, 0, 0), value=1)
    with pytest.raises(ValueError, match="exceeds demand"):
        witness.validate(classic32_instance, ceiling=(F(1, 2), 1, 0, 0))
    with pytest.raises(ValueError, match="worth 3/2"):
        witness.validate(classic32_instance, ceiling=(1, 1, 0, 0), value=2)
    with pytest.raises(ValueError, match="worth 1/2"):
        witness.validate(classic32_instance, weights=(0, 1, 0, 0), value=F(3, 2))


def test_max_served_witness_within_demand_and_value(sys42_instance):
    demand = (F(5, 2), F(3, 2)) + (F(1, 2),) * 9
    value, witness = srr.max_served(sys42_instance, demand)
    served = witness.served(11)
    assert all(s <= d for s, d in zip(served, demand))
    assert sum(served) == value < sum(demand)


def test_capacity_scaling_law(classic32):
    rng = random.Random(9)
    base = srr.SrrInstance.for_code(classic32)
    for _ in range(10):
        mu = F(rng.randrange(1, 8), rng.randrange(1, 4))
        scaled = srr.SrrInstance.for_code(classic32, capacity=mu)
        demand = tuple(F(rng.randrange(0, 7), 2) for _ in range(4))
        member_base, witness = srr.membership(base, demand)
        scaled_demand = tuple(mu * x for x in demand)
        member_scaled, scaled_witness = srr.membership(scaled, scaled_demand)
        assert member_base == member_scaled
        if member_base:
            lifted = srr.Allocation(
                {key: mu * w for key, w in witness.weights.items()}
            )
            lifted.validate(scaled, scaled_demand)


def test_convexity_and_monotonicity(classic32_instance):
    rng = random.Random(31)
    members = []
    for _ in range(12):
        demand = tuple(F(rng.randrange(0, 7), 2) for _ in range(4))
        ok, witness = srr.membership(classic32_instance, demand)
        if not ok:
            continue
        members.append((demand, witness))
        shrunk = tuple(x * F(rng.randrange(0, 3), 2) / 2 for x in demand)
        ok_small, _ = srr.membership(classic32_instance, shrunk)
        assert ok_small
    assert len(members) >= 2
    for (d1, w1), (d2, w2) in zip(members, members[1:]):
        mid = tuple((a + b) / 2 for a, b in zip(d1, d2))
        ok, witness = srr.membership(classic32_instance, mid)
        assert ok
        witness.validate(classic32_instance, mid)


def test_verify_report_classic_and_r4(classic32, sys42):
    report = srr.verify_report(classic32)
    assert report["all_pass"] is True
    assert not report["skipped"]
    report4 = srr.verify_report(sys42, samples=12)
    assert report4["all_pass"] is True
    assert list(report4) == ["code", "checks", "skipped", "all_pass"]
    for check in report4["checks"]:
        assert list(check)[:4] == ["claim", "predicted", "computed", "pass"]
        assert set(check) - {"claim", "predicted", "computed", "pass"} <= {"detail"}


def test_verify_report_nonsystematic(nonsys):
    report = srr.verify_report(nonsys)
    assert report["all_pass"] is True
    computed = {c["claim"]: c["computed"] for c in report["checks"]}
    assert computed["single-object maxima (systematic-server symbols)"] == [
        "3",
        "7/3",
        "3",
        "3",
    ]
    assert report["skipped"]


def test_verify_report_ternary_skips_binary_laws(sys33):
    report = srr.verify_report(sys33)
    assert report["all_pass"] is True
    assert any("binary" in s for s in report["skipped"])


@pytest.mark.parametrize("k", range(12))
def test_combination_rank_follows_itertools_order(k):
    for size in range(k + 1):
        expected = list(itertools.combinations(range(1, k + 1), size))
        assert [srr._combination(k, size, i) for i in range(len(expected))] == expected


@pytest.mark.parametrize("size", [2, 3])
def test_tight_on_sample_draws_ranks_not_the_subset_list(sys42_instance, monkeypatch, size):
    # Sampling the full list picks the same subsets and leaves the same rng.
    listed = random.Random(7)
    expected = listed.sample(list(itertools.combinations(range(1, 12), size)), 5)
    seen = []
    bound = srr.subset_bound
    monkeypatch.setattr(srr, "subset_bound", lambda inst, s: seen.append(s) or bound(inst, s))

    def no_list(*args):
        raise AssertionError("the subset list was built")

    monkeypatch.setattr(itertools, "combinations", no_list)
    ranked = random.Random(7)
    assert srr._tight_on_sample(sys42_instance, size, 5, ranked) == (5, True)
    assert seen == expected
    assert ranked.getstate() == listed.getstate()


@pytest.mark.parametrize("r", range(3, 9))
def test_default_verify_samples_fit_the_subset_lp_budget(r):
    for build in (codes.systematic_hamming, codes.classic_hamming):
        srr.check_verify_budget(build(r, 2), 40)


def test_verify_subset_lp_budget_stops_r9_and_skips_the_unsampled_codes(nonsys):
    # mu_f and four max_served LPs over 502 x 257 sets (588690882 entries),
    # and the 620 sampled subset symbols' 257 sets of 511 nodes (81422740).
    with pytest.raises(srr.WorkLimitError, match="511 nodes needs 670113622 matrix"):
        srr.check_verify_budget(codes.systematic_hamming(9, 2), 40)
    with pytest.raises(srr.WorkLimitError, match="over the limit of 200000000"):
        srr.check_verify_budget(codes.classic_hamming(9, 2), 40)
    # Ternary and non-systematic codes sample no subset LPs.
    srr.check_verify_budget(codes.systematic_hamming(4, 3), 10 ** 9)
    srr.check_verify_budget(nonsys, 10 ** 9)
