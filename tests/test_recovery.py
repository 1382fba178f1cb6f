import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srrham import codes, recovery

from conftest import CLASSIC_RECOVERY, NONSYS_RECOVERY
from oracles import equivalent_generator, exhaustive_recovery_sets


def test_systematic_path_classic_symbol_lists(classic32):
    system = recovery.build_recovery_system(classic32)
    assert set(system.sets_for(1)) == CLASSIC_RECOVERY[1]
    assert set(system.sets_for(4)) == CLASSIC_RECOVERY[4]


def test_systematic_path_counts_r4(sys42):
    system = recovery.build_recovery_system(sys42)
    for i in (1, 6, 11):
        sets = system.sets_for(i)
        assert len(sets) == 9
        assert sorted(len(s) for s in sets) == [1] + [7] * 8


def test_general_path_nonsystematic_lists(nonsys):
    assert set(exhaustive_recovery_sets(nonsys, 1)) == NONSYS_RECOVERY[1]
    assert set(exhaustive_recovery_sets(nonsys, 3)) == NONSYS_RECOVERY[3]


def test_fast_equals_general_all_symbols_r3_r4(classic32, sys42):
    for code in (classic32, sys42):
        system = recovery.build_recovery_system(code)
        for i in range(1, code.k + 1):
            assert list(system.sets_for(i)) == exhaustive_recovery_sets(code, i)


def test_fast_equals_general_one_symbol_ternary(sys33):
    system = recovery.build_recovery_system(sys33)
    assert list(system.sets_for(1)) == exhaustive_recovery_sets(sys33, 1)


def test_build_recovery_system_golden(classic32):
    system = recovery.build_recovery_system(classic32)
    assert system.total_sets() == 20
    for i in range(1, 5):
        assert set(system.sets_for(i)) == CLASSIC_RECOVERY[i]


def test_build_recovery_system_nonsystematic_sizes(nonsys):
    system = recovery.build_recovery_system(nonsys)
    assert [len(s) for s in system.per_symbol] == [7, 7, 5, 5]
    for i in range(1, 5):
        assert set(system.sets_for(i)) == NONSYS_RECOVERY[i]


def test_build_recovery_system_ternary_counts(sys33):
    system = recovery.build_recovery_system(sys33)
    for sets in system.per_symbol:
        assert len(sets) == 10
        assert sorted(len(s) for s in sets) == [1] + [8] * 9


def test_size_law_nonsingletons(classic32, sys42, sys52, sys33):
    for code in (classic32, sys42, sys52, sys33):
        system = recovery.build_recovery_system(code)
        want = code.q ** (code.r - 1) - 1
        for sets in system.per_symbol:
            for members in sets:
                assert len(members) in (1, want)


def test_soundness_and_minimality(classic32, sys42, nonsys, sys33):
    for code in (classic32, sys42, nonsys, sys33):
        system = recovery.build_recovery_system(code)
        recovery.validate_recovery_system(system)


def test_validate_rejects_unsound_and_non_minimal_sets(classic32):
    def check(sets_for_a):
        system = recovery.RecoverySystem(classic32, (sets_for_a, (), (), ()))
        recovery.validate_recovery_system(system)

    check(((3,), (1, 5, 7)))
    with pytest.raises(ValueError, match="does not recover"):
        check(((1, 5),))
    # Recovers symbol a, but (3,) alone already does; listed together or not,
    # the minimality certificate rejects the superset.
    with pytest.raises(ValueError, match="not minimal"):
        check(((1, 3),))
    with pytest.raises(ValueError, match="not minimal"):
        check(((3,), (1, 3)))
    # Five columns of a rank-4 generator are dependent, so never minimal.
    with pytest.raises(ValueError, match="not minimal"):
        check(((1, 2, 4, 6, 7),))


def test_canonical_ordering_and_json(classic32):
    system = recovery.build_recovery_system(classic32)
    for sets in system.per_symbol:
        assert list(sets) == sorted(sets, key=lambda s: (len(s), s))
    data = system.to_json_dict()
    assert [entry["index"] for entry in data["symbols"]] == [1, 2, 3, 4]
    assert data["symbols"][0]["sets"][0] == [3]


@pytest.mark.parametrize(
    "r,q",
    [(3, 2), (4, 2), (5, 2), (3, 3)],
)
def test_structure_report_laws(r, q):
    code = codes.systematic_hamming(r, q)
    report = recovery.structure_report(recovery.build_recovery_system(code))
    assert report.all_ok
    assert set(report.cardinality_histogram) == {1, q ** (r - 1) - 1}
    assert set(report.nonsingleton_per_symbol) == {q ** (r - 1)}
    assert report.incidence_range == ((q - 1) * q ** (r - 2),) * 2


def test_structure_report_rejects_nonsystematic(nonsys):
    with pytest.raises(ValueError):
        recovery.structure_report(recovery.build_recovery_system(nonsys))


def test_composition_count_examples(classic32, sys42):
    sys3 = recovery.build_recovery_system(classic32)
    assert recovery.count_by_nonsystematic_nodes(sys3, 3) == 1
    # The single all-parity set is (1,2,4), recovering the last symbol.
    assert (1, 2, 4) in sys3.sets_for(4)
    sys4 = recovery.build_recovery_system(sys42)
    assert recovery.count_by_nonsystematic_nodes(sys4, 1) == 28
    total = sum(recovery.count_by_nonsystematic_nodes(sys4, t) for t in range(5))
    assert total == 11 * 8


@pytest.mark.parametrize("r", [3, 4, 5])
def test_composition_count_formula(r):
    code = codes.systematic_hamming(r, 2)
    system = recovery.build_recovery_system(code)
    for t in range(1, r + 1):
        want = math.comb(r, t) * (2 ** (r - 1) - t)
        assert recovery.count_by_nonsystematic_nodes(system, t) == want
    # No set consists of systematic nodes alone.
    assert recovery.count_by_nonsystematic_nodes(system, 0) == 0


def test_composition_count_errors(sys33, nonsys):
    with pytest.raises(ValueError):
        recovery.count_by_nonsystematic_nodes(
            recovery.build_recovery_system(sys33), 1
        )
    with pytest.raises(ValueError):
        recovery.count_by_nonsystematic_nodes(
            recovery.build_recovery_system(nonsys), 1
        )


def test_repetition_code_smoke():
    code = codes.systematic_hamming(2, 2)
    system = recovery.build_recovery_system(code)
    assert system.per_symbol == (((1,), (2,), (3,)),)


def _scrambled(r, q, rng):
    """A random equivalent generator with no full systematic column set."""
    base = codes.systematic_hamming(r, q)
    generator = equivalent_generator(base.generator, rng)
    code = codes.import_generator(generator.to_lists(), q)
    assume(code.systematic_positions is None)
    return code


_property = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(_property, max_examples=25)
@given(rng=st.randoms(use_true_random=False))
def test_coset_system_equals_oracle_ham32(rng):
    code = _scrambled(3, 2, rng)
    system = recovery.build_recovery_system(code)
    for i in range(1, code.k + 1):
        assert list(system.sets_for(i)) == exhaustive_recovery_sets(code, i)


@pytest.mark.parametrize("r,q", [(4, 2), (3, 3)])
@settings(_property, max_examples=2)
@given(rng=st.randoms(use_true_random=False))
def test_coset_system_equals_oracle_sampled(r, q, rng):
    code = _scrambled(r, q, rng)
    system = recovery.build_recovery_system(code)
    i = rng.randrange(1, code.k + 1)
    assert list(system.sets_for(i)) == exhaustive_recovery_sets(code, i)


@pytest.mark.parametrize("r,q", [(5, 2), (4, 3)])
@settings(_property, max_examples=1)
@given(rng=st.randoms(use_true_random=False))
def test_coset_system_is_valid_on_long_codes(r, q, rng):
    code = _scrambled(r, q, rng)
    system = recovery.build_recovery_system(code)
    # Validating every symbol of Ham(4,3) takes seconds; a sample bounds it.
    keep = set(rng.sample(range(1, code.k + 1), 6))
    sampled = tuple(
        sets if i in keep else () for i, sets in enumerate(system.per_symbol, 1)
    )
    recovery.validate_recovery_system(recovery.RecoverySystem(code, sampled))
