import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrham import codes, recovery
from srrham import hypergraph as hg

from oracles import node_loads


def test_edge_and_graph_validation():
    for bad in ((1, ()), (1, (2, 1)), (1, (1, 1)), (0, (1, 2)), (1, (0, 2)), (1, (1, 4))):
        with pytest.raises(ValueError):
            hg.Hypergraph(3, (bad,))
    e = (1, (1, 2))
    with pytest.raises(ValueError):
        hg.Hypergraph(1, (e,))
    with pytest.raises(ValueError):
        hg.Hypergraph(3, (e, e))


def test_edges_are_sorted_once_into_canonical_order():
    graph = hg.Hypergraph(4, ((2, (3, 4)), (1, (1, 2, 3)), (3, (2,)), (1, (3, 4))))
    assert graph.edges == ((3, (2,)), (1, (3, 4)), (2, (3, 4)), (1, (1, 2, 3)))


def test_edges_are_the_allocation_pairs(classic32_instance, classic32_graph):
    # One column order: the region LPs list the pairs as the graph does.
    assert list(classic32_graph.edges) == classic32_instance.variables()
    assert all(e in classic32_instance.system for e in classic32_graph.edges)


def test_from_recovery_system_edge_counts(classic32_graph, nonsys_graph):
    assert classic32_graph.vertex_count == 7
    assert len(classic32_graph.edges) == 20
    assert nonsys_graph.vertex_count == 7
    assert len(nonsys_graph.edges) == 24


def test_empty_system_gives_edgeless_graph(classic32):
    empty = recovery.RecoverySystem(classic32, ((), (), (), ()))
    graph = hg.from_recovery_system(empty)
    assert graph.vertex_count == 7
    assert graph.edges == ()


def test_partial_hypergraph_filtering(classic32_graph):
    assert partial_edges(classic32_graph, [1, 2, 3, 4]) == 20
    assert partial_edges(classic32_graph, []) == 0
    assert partial_edges(classic32_graph, [1, 2]) == 10


def partial_edges(graph, labels):
    return len(hg.partial_hypergraph(graph, labels).edges)


def test_matching_number_worked_values(classic32_graph, nonsys_graph):
    for graph, expected in ((classic32_graph, 5), (nonsys_graph, 3)):
        nu, witness = hg.matching_number(graph)
        assert nu == expected
        hg.check_packing(dict.fromkeys(witness, 1), set(graph.edges), 7, value=nu)


def test_matching_single_edge():
    graph = hg.Hypergraph(3, ((1, (1, 2)),))
    assert hg.matching_number(graph)[0] == 1


def test_search_improves_on_the_greedy_matching():
    # The greedy scan takes (1, 2) first and then no other edge fits; only
    # the branch and bound finds the two disjoint edges.
    graph = hg.Hypergraph(4, ((1, (1, 2)), (2, (1, 3)), (3, (2, 4))))
    masks = [hg._mask(m) for _, m in graph.edges]
    assert hg._greedy_matching(masks, range(3)) == [0]
    assert hg.matching_number(graph) == (2, ((2, (1, 3)), (3, (2, 4))))
    assert hg.transversal_number(graph) == (2, (1, 2))
    stats = hg.compute_stats(graph)
    assert (stats.nu, stats.tau, stats.mu_f) == (2, 2, 2)


def test_transversal_worked_values(classic32_graph, nonsys_graph, sys42_graph):
    def check_transversal(graph, vertices, tau):
        prices = [vertices.count(v) for v in range(1, graph.vertex_count + 1)]
        hg.check_cover(prices, graph.edges, 1, tau)

    tau, witness = hg.transversal_number(nonsys_graph)
    assert tau == 3
    check_transversal(nonsys_graph, witness, tau)
    check_transversal(nonsys_graph, (3, 4, 7), tau)
    tau, witness = hg.transversal_number(classic32_graph)
    assert tau == 5
    check_transversal(classic32_graph, witness, tau)
    with pytest.raises(ValueError, match="do not cover"):
        check_transversal(classic32_graph, witness[1:], tau - 1)
    tau, witness = hg.transversal_number(sys42_graph)
    assert tau == 11
    check_transversal(sys42_graph, witness, tau)


def test_fractional_matching_worked_values(classic32_graph, nonsys_graph):
    value, weights = hg.fractional_matching_number(classic32_graph)
    assert value == 5
    hg.check_packing(weights, set(classic32_graph.edges), 7, value=value)
    part = hg.partial_hypergraph(nonsys_graph, [2])
    value, weights = hg.fractional_matching_number(part)
    assert value == Fraction(7, 3)
    nonzero = {e: w for e, w in weights.items() if w}
    assert len(nonzero) == 7
    assert set(nonzero.values()) == {Fraction(1, 3)}


def test_fractional_matching_edgeless():
    graph = hg.Hypergraph(4, ())
    value, weights = hg.fractional_matching_number(graph)
    assert value == 0 and weights == {}


def test_full_graph_equalities(classic32_graph, sys42_graph, sys52_graph):
    for graph, expected in (
        (classic32_graph, 5),
        (sys42_graph, 11),
        (sys52_graph, 26),
    ):
        stats = hg.compute_stats(graph)
        assert (stats.nu, stats.tau) == (expected, expected)
        assert stats.mu_f == expected


def test_strict_sandwich_on_partial_graph(sys42_graph):
    # One symbol's edges: singleton + eight 7-sets that pairwise intersect.
    part = hg.partial_hypergraph(sys42_graph, [1])
    stats = hg.compute_stats(part)
    assert stats.nu == 2
    assert stats.mu_f == 3
    assert stats.tau >= 3
    assert stats.nu <= stats.mu_f <= stats.tau


def test_matching_at_least_systematic_columns(classic32_graph, nonsys_graph):
    # Both worked codes: 4 and 2 systematic columns respectively.
    assert hg.matching_number(classic32_graph)[0] >= 4
    assert hg.matching_number(nonsys_graph)[0] >= 2


def test_sandwich_on_random_partials(classic32_graph, sys42_graph):
    rng = random.Random(11)
    for graph, k in ((classic32_graph, 4), (sys42_graph, 11)):
        for _ in range(12):
            size = rng.randrange(0, k + 1)
            labels = rng.sample(range(1, k + 1), size)
            stats = hg.compute_stats(hg.partial_hypergraph(graph, labels))
            assert stats.nu <= stats.mu_f <= stats.tau


def test_uniformized_bound_small_subsets_r4(sys42_graph):
    from itertools import combinations

    for size in (0, 1, 2, 3):
        for subset in combinations(range(1, 12), size):
            part = hg.partial_hypergraph(sys42_graph, subset)
            value, _ = hg.fractional_matching_number(part)
            bound = size + 2 - Fraction(size - 1, 2 ** 3 - 1)
            assert value <= bound


def test_stats_deterministic_and_json(nonsys_graph):
    first = hg.compute_stats(nonsys_graph)
    second = hg.compute_stats(nonsys_graph)
    assert first.to_json_dict() == second.to_json_dict()
    data = first.to_json_dict()
    assert data["nu"] == 3 and data["tau"] == 3 and data["mu_f"] == "3"
    assert all(isinstance(v, int) for v in data["witness_transversal"])


def test_check_packing_rejects_each_wrong_witness(classic32_graph):
    stats = hg.compute_stats(classic32_graph)
    pool, n = set(classic32_graph.edges), classic32_graph.vertex_count
    matching = dict.fromkeys(stats.witness_matching, 1)
    # A maximum matching meets every other edge.
    extra = next(e for e in classic32_graph.edges if e not in matching)
    fractional = dict(stats.witness_fractional)
    heaviest = max(fractional, key=fractional.get)
    cases = [
        ({**matching, extra: 1}, stats.nu + 1, "overloaded"),
        (matching, stats.nu + 1, f"not the value {stats.nu + 1}"),
        ({(1, (5,)): 1}, None, r"\(5,\) is not a recovery set of symbol 1"),
        ({**fractional, heaviest: Fraction(-1)}, None, "negative weight"),
        ({**fractional, heaviest: fractional[heaviest] + 1}, None, "overloaded"),
    ]
    for weights, value, message in cases:
        with pytest.raises(ValueError, match=message):
            hg.check_packing(weights, pool, n, value=value)
    hg.check_packing(matching, pool, n, value=stats.nu)
    hg.check_packing(fractional, pool, n, value=stats.mu_f)


_NODES = 5
_SETS = st.lists(st.integers(1, _NODES), min_size=1, max_size=_NODES, unique=True)
_RATES = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_check_packing_agrees_with_fraction_loads(data):
    """The integer loads accept exactly the packings whose Fraction loads
    (summed by the test oracle) stay within capacity, with capacities drawn
    at, 1/den under and 1/den over the heaviest load, and at random."""
    keys = data.draw(
        st.lists(
            st.tuples(st.integers(1, 3), _SETS.map(lambda m: tuple(sorted(m)))),
            min_size=1, max_size=8, unique=True,
        )
    )
    weights = {key: data.draw(_RATES) for key in keys}
    loads = node_loads(weights, _NODES)
    nudge = Fraction(1, data.draw(st.integers(1, 30)))
    peak = max(loads)
    capacity = data.draw(st.sampled_from([peak, peak - nudge, peak + nudge]) | _RATES)
    symbol_weights = data.draw(st.lists(_RATES, min_size=3, max_size=3))
    worth = sum(symbol_weights[i - 1] * w for (i, _), w in weights.items())

    def accepts(**kwargs):
        try:
            hg.check_packing(weights, set(keys), _NODES, capacity, **kwargs)
        except ValueError:
            return False
        return True

    fits = all(load <= capacity for load in loads)
    assert accepts() == fits
    assert accepts(value=worth, symbol_weights=symbol_weights) == fits
    assert not accepts(value=worth + nudge, symbol_weights=symbol_weights)


def test_witness_checks_reject_floats():
    with pytest.raises(ValueError, match="exact rational"):
        hg.check_packing({(1, (1,)): 0.5}, {(1, (1,))}, 1)
    with pytest.raises(ValueError, match="exact rational"):
        hg.check_cover([0.5], [(1, (1,))], 1, Fraction(1, 2))


def test_check_cover_accepts_the_unit_column_prices(classic32_instance):
    # Classic Ham(3,2): symbol 1 sits alone on node 3, lambda_1* = 3.
    pairs = list(classic32_instance.system)
    prices = [Fraction(1, 3)] * 7
    prices[2] = Fraction(1)
    weights = [1, 0, 0, 0]
    hg.check_cover(prices, pairs, 1, 3, weights)
    # Capacity scales the value; integer prices need no Fraction.
    hg.check_cover(prices, pairs, Fraction(3, 2), Fraction(9, 2), weights)
    hg.check_cover([1] * 7, pairs, 1, 7)


def test_check_cover_rejects_each_corruption(classic32_instance):
    pairs = list(classic32_instance.system)
    prices = [Fraction(1, 3)] * 7
    prices[2] = Fraction(1)
    weights = [Fraction(1), 0, 0, 0]
    lowered = list(prices)
    lowered[0] = Fraction(1, 3) - Fraction(1, 1000)
    negative = list(prices)
    negative[2] = Fraction(-1)
    raised = list(weights)
    raised[0] = 1 + Fraction(1, 1000)
    cases = [
        (lowered, 3 - Fraction(1, 1000), weights, r"\(1, 4, 6\) do not cover symbol 1"),
        (negative, 1, weights, "negative price -1 on node 3"),
        (prices, 3 + Fraction(1, 3), weights, "cost 3, not the value 10/3"),
        (prices, 3 - Fraction(1, 3), weights, "cost 3, not the value 8/3"),
        (prices, 3, raised, "do not cover symbol 1"),
        # Symbol 2's weight raised from 0: its singleton (5,) costs 1/3.
        (prices, 3, [1, 1, 0, 0], r"\(5,\) do not cover symbol 2"),
        (prices, 3, None, "do not cover symbol 2"),
    ]
    for bad_prices, value, symbol_weights, message in cases:
        with pytest.raises(ValueError, match=message):
            hg.check_cover(bad_prices, pairs, 1, value, symbol_weights)
