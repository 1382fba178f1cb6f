import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from srrham import codes, srr
from srrham import hypergraph as hg

from oracles import equivalent_generator, phase1_membership

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
    instance = srr.SrrInstance(base.code, base.system, capacity)
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


def test_delta_values(classic32_instance, sys42_instance, nonsys_instance):
    assert srr.delta_simplex(classic32_instance) == 3
    assert srr.delta_simplex(nonsys_instance) == F(7, 3)
    delta = srr.delta_simplex(sys42_instance)
    assert delta == 3
    assert math.ceil(delta) <= sys42_instance.code.d


def test_max_equals_fractional_matching(nonsys_instance, nonsys_graph):
    total, _, _ = srr.max_objective(nonsys_instance, [1] * 4)
    mu_f, _ = hg.fractional_matching_number(nonsys_graph)
    assert total == mu_f


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


def test_subset_bound_input_validation(sys33_instance, nonsys_instance, classic32_instance):
    with pytest.raises(ValueError):
        srr.subset_bound(sys33_instance, (1, 2))
    with pytest.raises(ValueError):
        srr.subset_bound(nonsys_instance, (1, 2))
    with pytest.raises(ValueError):
        srr.subset_bound(classic32_instance, (1,))


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
    loads = allocation.node_loads(code.n)
    assert all(l == 1 for l in loads)


def test_waterfill_ternary_max(sys33_instance):
    demand = unit_demand(10, 1, F(5, 2))
    allocation, served, residual = srr.waterfill(sys33_instance, demand)
    assert served == demand and all(x == 0 for x in residual)
    assert all(l == 1 for l in allocation.node_loads(13))


def test_waterfill_all_ones_uses_singletons_only(classic32_instance):
    demand = (F(1),) * 4
    allocation, served, residual = srr.waterfill(classic32_instance, demand)
    assert served == demand
    assert all(len(m) == 1 for (_, m) in allocation.weights)
    loads = allocation.node_loads(7)
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
    assert report.all_pass
    assert not report.skipped
    report4 = srr.verify_report(sys42, subset_samples=12, uniform_samples=8)
    assert report4.all_pass
    data = report4.to_json_dict()
    assert data["all_pass"] is True
    assert all("claim" in c and "pass" in c for c in data["checks"])


def test_verify_report_nonsystematic(nonsys):
    report = srr.verify_report(nonsys)
    assert report.all_pass
    computed = {
        c.claim: c.computed for c in report.checks
    }
    assert computed["single-object maxima (systematic-server symbols)"] == [
        "3",
        "7/3",
        "3",
        "3",
    ]
    assert any("skipped" for _ in report.skipped)


def test_verify_report_ternary_skips_binary_laws(sys33):
    report = srr.verify_report(sys33, mixed_demands=2)
    assert report.all_pass
    assert any("binary" in s for s in report.skipped)


def test_parse_demand():
    assert srr.parse_demand("1,1,1/3,2", 4) == (1, 1, F(1, 3), 2)
    with pytest.raises(ValueError):
        srr.parse_demand("1,2", 4)
    with pytest.raises(ValueError):
        srr.parse_demand("1,1,1,-2", 4)
    with pytest.raises(ValueError):
        srr.parse_demand("1,1,1,0.5", 4)
