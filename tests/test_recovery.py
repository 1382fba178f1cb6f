import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from srrham import codes, recovery

from conftest import CLASSIC_RECOVERY, NONSYS_RECOVERY
from oracles import equivalent_generator, exhaustive_recovery_sets


def test_systematic_path_classic_symbol_lists(classic32):
    system = recovery.build_recovery_system(classic32)
    assert set(system.per_symbol[0]) == CLASSIC_RECOVERY[1]
    assert set(system.per_symbol[3]) == CLASSIC_RECOVERY[4]


def test_systematic_path_counts_r4(sys42):
    system = recovery.build_recovery_system(sys42)
    for i in (1, 6, 11):
        sets = system.per_symbol[i - 1]
        assert len(sets) == 9
        assert sorted(len(s) for s in sets) == [1] + [7] * 8


def test_general_path_nonsystematic_lists(nonsys):
    assert set(exhaustive_recovery_sets(nonsys, 1)) == NONSYS_RECOVERY[1]
    assert set(exhaustive_recovery_sets(nonsys, 3)) == NONSYS_RECOVERY[3]


def test_fast_equals_general_all_symbols_r3_r4(classic32, sys42):
    for code in (classic32, sys42):
        system = recovery.build_recovery_system(code)
        for i in range(1, code.k + 1):
            assert list(system.per_symbol[i - 1]) == exhaustive_recovery_sets(code, i)


def test_fast_equals_general_one_symbol_ternary(sys33):
    system = recovery.build_recovery_system(sys33)
    assert list(system.per_symbol[0]) == exhaustive_recovery_sets(sys33, 1)


def test_build_recovery_system_golden(classic32):
    system = recovery.build_recovery_system(classic32)
    assert system.total_sets() == 20
    for i in range(1, 5):
        assert set(system.per_symbol[i - 1]) == CLASSIC_RECOVERY[i]


# sha256 of json.dumps(to_json_dict()) of systematic codes, recorded while
# every candidate set was still compared with the kept sets of its own size.
_SYSTEM_SHA256 = {
    (4, 2): "761dcd62304a7ed719539186f41c1537b32031b769aa909e1161dc7fe06d48b1",
    (5, 2): "0f8ce8904ba8c88d3e1e681a943039db75c4041aa33b3d91834189174aeacd57",
    (6, 2): "7b0ec862216c794a1a9dad15e74d3c4f0e8e8aba23b61693c8683b20e1027e57",
    (7, 2): "f2b02fecc0e67f2438abc5279c1a73f90a305a0b1da46a4a918f02f3b304710c",
    (4, 3): "47f3607f2c91c8948380422af2ad962adc83f975dfca4eb37a267507e4881032",
}


@pytest.mark.parametrize("r,q", sorted(_SYSTEM_SHA256))
def test_build_recovery_system_systematic_digest(r, q):
    system = recovery.build_recovery_system(codes.systematic_hamming(r, q))
    text = json.dumps(system.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == _SYSTEM_SHA256[r, q]


def test_build_recovery_system_nonsystematic_sizes(nonsys):
    system = recovery.build_recovery_system(nonsys)
    assert [len(s) for s in system.per_symbol] == [7, 7, 5, 5]
    for i in range(1, 5):
        assert set(system.per_symbol[i - 1]) == NONSYS_RECOVERY[i]


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
    assert set(report.cardinality_histogram) == {1, q ** (r - 1) - 1}
    assert set(report.nonsingleton_per_symbol) == {q ** (r - 1)}
    assert report.incidence_range == ((q - 1) * q ** (r - 2),) * 2


def test_structure_report_rejects_nonsystematic(nonsys):
    with pytest.raises(ValueError):
        recovery.structure_report(recovery.build_recovery_system(nonsys))


def test_composition_count_examples(classic32, sys42):
    sys3 = recovery.build_recovery_system(classic32)
    assert recovery.structure_report(sys3).t_counts[3] == 1
    # The single all-parity set is (1,2,4), recovering the last symbol.
    assert (1, 2, 4) in sys3.per_symbol[3]
    counts = recovery.structure_report(recovery.build_recovery_system(sys42)).t_counts
    assert counts[1] == 28
    assert sorted(counts) == list(range(5))
    assert sum(counts.values()) == 11 * 8


@pytest.mark.parametrize("r", [3, 4, 5])
def test_composition_count_formula(r):
    code = codes.systematic_hamming(r, 2)
    counts = recovery.structure_report(recovery.build_recovery_system(code)).t_counts
    for t in range(1, r + 1):
        assert counts[t] == math.comb(r, t) * (2 ** (r - 1) - t)
    # No set consists of systematic nodes alone.
    assert counts[0] == 0


def test_composition_count_errors(sys33, nonsys):
    report = recovery.structure_report(recovery.build_recovery_system(sys33))
    assert report.t_counts is None
    with pytest.raises(ValueError):
        recovery.structure_report(recovery.build_recovery_system(nonsys))


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
        assert list(system.per_symbol[i - 1]) == exhaustive_recovery_sets(code, i)


@pytest.mark.parametrize("r,q", [(4, 2), (3, 3)])
@settings(_property, max_examples=2)
@given(rng=st.randoms(use_true_random=False))
def test_coset_system_equals_oracle_sampled(r, q, rng):
    code = _scrambled(r, q, rng)
    system = recovery.build_recovery_system(code)
    i = rng.randrange(1, code.k + 1)
    assert list(system.per_symbol[i - 1]) == exhaustive_recovery_sets(code, i)


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
