"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integers and rationals); there are no tolerances
anywhere.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from srrham import codes, recovery, srr
from srrham import hypergraph as hg

from conftest import CLASSIC_G_32, CLASSIC_H_32, CLASSIC_RECOVERY, NONSYS_RECOVERY
from oracles import node_loads

F = Fraction


@contextmanager
def criterion(num: int, name: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def stars52(sys52_instance):
    return srr.lambda_star_vector(sys52_instance)


def test_criterion_01_golden_recovery_system(classic32):
    with criterion(1, "golden recovery system"):
        assert classic32.parity_check.to_lists() == CLASSIC_H_32
        assert classic32.generator.to_lists() == CLASSIC_G_32
        system = recovery.build_recovery_system(classic32)
        assert system.total_sets() == 20
        for i in range(1, 5):
            assert set(system.per_symbol[i - 1]) == CLASSIC_RECOVERY[i]


def test_criterion_02_recovery_structure_laws():
    with criterion(2, "recovery structure laws"):
        for r, q in ((3, 2), (4, 2), (5, 2), (3, 3)):
            code = codes.systematic_hamming(r, q)
            system = recovery.build_recovery_system(code)
            report = recovery.structure_report(system)
            assert set(report.cardinality_histogram) <= {1, q ** (r - 1) - 1}
            assert set(report.nonsingleton_per_symbol) == {q ** (r - 1)}
            assert report.incidence_range == ((q - 1) * q ** (r - 2),) * 2


def test_criterion_03_single_object_maximum(
    sys32_instance, sys42_instance, sys52_instance, sys33_instance, stars52
):
    with criterion(3, "maximal single-object demand"):
        for instance in (sys32_instance, sys42_instance):
            assert srr.lambda_star_vector(instance) == (F(3),) * instance.code.k
        assert stars52 == (F(3),) * 26
        assert srr.lambda_star_vector(sys33_instance) == (F(5, 2),) * 10
        for instance, peak in (
            (sys32_instance, F(3)),
            (sys42_instance, F(3)),
            (sys52_instance, F(3)),
            (sys33_instance, F(5, 2)),
        ):
            k, n = instance.code.k, instance.code.n
            for i in range(1, k + 1):
                demand = tuple(peak if j == i else F(0) for j in range(1, k + 1))
                allocation, served, residual = srr.waterfill(instance, demand)
                assert served == demand
                assert all(x == 0 for x in residual)
                assert all(l == 1 for l in node_loads(allocation.weights, n))


def test_criterion_04_cumulative_bounds(
    sys32_instance, sys42_instance, sys52_instance
):
    with criterion(4, "cumulative service bounds"):
        for instance, expected in (
            (sys32_instance, 5),
            (sys42_instance, 11),
            (sys52_instance, 26),
        ):
            k = instance.code.k
            total, _, allocation = srr.max_objective(instance, [F(1)] * k)
            assert total == expected
            allocation.validate(instance)
            graph = hg.from_recovery_system(instance.system)
            stats = hg.compute_stats(graph)
            assert stats.nu == stats.tau == expected
            assert stats.mu_f == expected == total


def test_criterion_05_nonsystematic_example(nonsys, nonsys_instance, nonsys_graph):
    with criterion(5, "non-systematic worked example"):
        assert codes.odd_weight_column_count(nonsys) == 3
        system = nonsys_instance.system
        for i in range(1, 5):
            assert set(system.per_symbol[i - 1]) == NONSYS_RECOVERY[i]
        stats = hg.compute_stats(nonsys_graph)
        assert (stats.nu, stats.tau) == (3, 3)
        total, _, _ = srr.max_objective(nonsys_instance, [F(1)] * 4)
        assert total == 3
        assert srr.lambda_star_vector(nonsys_instance) == (3, F(7, 3), 3, 3)
        assert srr.delta_simplex(nonsys_instance) == F(7, 3)


def test_criterion_06_subset_ceilings(sys42_instance, classic32_instance):
    with criterion(6, "subset ceilings"):
        code = sys42_instance.code
        for pair in combinations(range(1, 12), 2):
            bound = srr.subset_bound(sys42_instance, pair)
            assert bound.predicted == 3 and bound.computed == 3
        zero_triples = []
        other_triples = []
        for tri in combinations(range(1, 12), 3):
            col_sum = [0] * 4
            for i in tri:
                col = code.parity_check.column(code.systematic_positions[i - 1] - 1)
                col_sum = [(a + b) % 2 for a, b in zip(col_sum, col)]
            (zero_triples if not any(col_sum) else other_triples).append(tri)
        assert len(zero_triples) == srr.m3_closed_form(4) == 13
        for tri in zero_triples:
            bound = srr.subset_bound(sys42_instance, tri)
            assert bound.predicted == 3 and bound.computed == 3
        rng = random.Random(6)
        for tri in rng.sample(other_triples, 50):
            bound = srr.subset_bound(sys42_instance, tri)
            assert bound.predicted == 4 and bound.computed == 4
        # The counting-layout [7,4,3] instance: hand-checked constraint list.
        bound = srr.subset_bound(classic32_instance, (1, 2, 3))
        assert bound.computed == 3
        for pair in combinations((1, 2, 3), 2):
            bound = srr.subset_bound(classic32_instance, pair + (4,))
            assert bound.computed == 4


def test_criterion_07_uniformized_fractional_bound(sys42_graph, sys52_graph):
    with criterion(7, "uniformized fractional ceiling"):
        for size in (0, 1, 2, 3):
            for subset in combinations(range(1, 12), size):
                value, _ = hg.fractional_matching_number(
                    hg.partial_hypergraph(sys42_graph, subset)
                )
                assert value <= size + 2 - F(size - 1, 2 ** 3 - 1)
        rng = random.Random(7)
        for _ in range(100):
            size = rng.randrange(1, 27)
            subset = rng.sample(range(1, 27), size)
            value, _ = hg.fractional_matching_number(
                hg.partial_hypergraph(sys52_graph, subset)
            )
            assert value <= size + 2 - F(size - 1, 2 ** 4 - 1)


def test_criterion_08_composition_counts():
    with criterion(8, "non-systematic-node composition counts"):
        for r in (3, 4, 5):
            code = codes.systematic_hamming(r, 2)
            system = recovery.build_recovery_system(code)
            counts = recovery.structure_report(system).t_counts
            assert counts[0] == 0
            total = 0
            for t in range(1, r + 1):
                count = counts[t]
                assert count == math.comb(r, t) * (2 ** (r - 1) - t)
                total += count
            assert total == (2 ** r - 1 - r) * 2 ** (r - 1)


def test_criterion_09_m3_oracle_agreement():
    with criterion(9, "pairwise-closure triple counts"):
        for r in range(3, 9):
            assert srr.m3_brute(r) == srr.m3_closed_form(r)
        assert srr.m3_brute(3) == 1
        assert srr.m3_brute(4) == 13
        assert srr.m3_brute(5) == 90


def _random_demand(rng, k, lo_scale):
    # Alternate small and large draws so both members and non-members appear.
    top = 2 if lo_scale else 6
    return tuple(F(rng.randrange(0, top + 1), 2) for _ in range(k))


def _polytope_probe(code, samples=200, seed=10):
    instance = srr.SrrInstance.for_code(code)
    k = code.k
    rng = random.Random(seed)
    previous_member = None
    members = non_members = 0
    for trial in range(samples):
        demand = _random_demand(rng, k, trial % 2 == 0)
        member, witness = srr.membership(instance, demand)
        if member:
            members += 1
            witness.validate(instance, demand)  # independent re-validation
            if previous_member is not None:
                mid = tuple((a + b) / 2 for a, b in zip(previous_member, demand))
                ok, mid_witness = srr.membership(instance, mid)
                assert ok, f"midpoint {mid} escaped the region"
                mid_witness.validate(instance, mid)
            previous_member = demand
            # Coordinatewise monotonicity, witnessed by exact down-scaling.
            factors = [F(rng.randrange(0, 3), 2) for _ in range(k)]
            shrunk = tuple(x * f for x, f in zip(demand, factors))
            scaled_weights = {
                (i, members_): w * factors[i - 1]
                for (i, members_), w in witness.weights.items()
            }
            srr.Allocation(scaled_weights).validate(instance, shrunk)
            # Capacity scaling, witnessed by exact lifting.
            mu = F(rng.randrange(1, 7), rng.randrange(1, 4))
            lifted = srr.SrrInstance(instance.system, mu)
            lifted_demand = tuple(mu * x for x in demand)
            srr.Allocation(
                {key: mu * w for key, w in witness.weights.items()}
            ).validate(lifted, lifted_demand)
        else:
            non_members += 1
            mu = F(rng.randrange(1, 7), rng.randrange(1, 4))
            lifted = srr.SrrInstance(instance.system, mu)
            scaled = tuple(mu * x for x in demand)
            still_member, _ = srr.membership(lifted, scaled)
            assert not still_member, f"scaling law broken at {demand} * {mu}"
            growth = 1 + F(rng.randrange(0, 5), 4)
            grown = tuple(x * growth for x in demand)
            grown_member, _ = srr.membership(instance, grown)
            assert not grown_member, f"monotonicity broken at {demand} -> {grown}"
    return members, non_members


def test_criterion_10_polytope_properties(
    classic32, sys32, nonsys, sys33, sys42
):
    with criterion(10, "polytope properties on random demands"):
        for code in (classic32, sys32, nonsys, sys33, sys42):
            members, non_members = _polytope_probe(code)
            # The draw mix must exercise both sides of the boundary.
            assert members >= 20 and non_members >= 20, (
                code.n,
                members,
                non_members,
            )


def test_criterion_11_distance_availability_sandwich(
    classic32_instance,
    sys32_instance,
    sys42_instance,
    sys33_instance,
    sys52_instance,
    stars52,
):
    with criterion(11, "distance and availability sandwich"):
        named = (
            (classic32_instance, None),
            (sys32_instance, None),
            (sys42_instance, None),
            (sys33_instance, None),
            (sys52_instance, min(stars52)),
        )
        for instance, delta in named:
            if delta is None:
                delta = srr.delta_simplex(instance)
            assert math.ceil(delta) <= 3
            assert math.floor(delta) >= 2
