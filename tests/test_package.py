"""The package's import surface: lazy exports and per-command imports.

``import srrham`` resolves its exports on first use, and each CLI command
imports only the modules it runs.  Losing that laziness fails here, not as a
slower start-up.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srrham
from srrham import cli, codes, errors, lp, srr

SRC = str(Path(srrham.__file__).resolve().parent.parent)
SUBMODULES = ("cli", "codes", "errors", "fields", "hypergraph", "lp", "recovery", "srr")
SOLVER = {"srrham.lp", "srrham.hypergraph", "srrham.srr"}

EXPORTS = {
    "Allocation", "Codeword", "Edge", "FieldMatrix", "Hypergraph",
    "HypergraphStats", "LinearCode", "PivotLimitError", "RecoverySystem",
    "SrrInstance", "StructureReport", "SubsetBound", "build_parity_check",
    "build_recovery_system", "check_cover", "check_packing", "classic_hamming",
    "compute_stats", "delta_simplex", "dual_codewords", "fractional_matching_number",
    "from_recovery_system", "import_generator", "in_span", "lambda_star",
    "lambda_star_vector", "m3_brute", "m3_closed_form", "matching_number",
    "max_objective", "max_served", "membership", "odd_weight_column_count",
    "partial_hypergraph", "rref", "structure_report", "subset_bound",
    "systematic_hamming", "transversal_number", "verify_report", "waterfill",
}


def _fresh(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter that imports srrham from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


_LOADED_BY_CLI = """
import json, runpy, sys
report, argv = sys.argv[1], json.loads(sys.argv[2])
sys.argv = ["srrham", *argv]
try:
    runpy.run_module("srrham", run_name="__main__")
except SystemExit as exc:
    status = exc.code
with open(report, "w") as fh:
    json.dump([status, sorted(m for m in sys.modules if m.startswith("srrham"))], fh)
"""


def _loaded_by_cli(tmp_path, *argv: str) -> set:
    report = tmp_path / "loaded.json"
    _fresh(_LOADED_BY_CLI, str(report), json.dumps(argv))
    status, loaded = json.loads(report.read_text())
    assert status == 0
    return set(loaded)


@pytest.fixture(scope="module")
def code_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("code") / "h32.json"
    assert cli.main(["gen", "-r", "3", "-q", "2", "--out", str(path)]) == 0
    return str(path)


def test_help_loads_no_computation_module(tmp_path):
    assert _loaded_by_cli(tmp_path, "--help") <= {
        "srrham", "srrham.__main__", "srrham.cli", "srrham.errors"
    }


@pytest.mark.parametrize(
    "argv",
    [["gen", "-r", "3", "-q", "2"], ["import", None], ["recovery", None]],
    ids=["gen", "import", "recovery"],
)
def test_code_commands_never_load_the_solver(tmp_path, code_file, argv):
    argv = [code_file if a is None else a for a in argv]
    loaded = _loaded_by_cli(tmp_path, *argv, "--out", str(tmp_path / "out.json"))
    assert "srrham.codes" in loaded
    assert not loaded & SOLVER


def test_check_loads_the_region_engine(tmp_path, code_file):
    loaded = _loaded_by_cli(tmp_path, "check", code_file, "--demand", "1,1,1,1")
    assert SOLVER <= loaded


def test_import_srrham_loads_nothing_until_used():
    out = _fresh(
        "import sys, srrham\n"
        "print(sorted(m for m in sys.modules if m.startswith('srrham')))\n"
        f"print(*(getattr(srrham, m).__name__ for m in {SUBMODULES!r}))\n"
        "print(srrham.srr.membership.__name__, srrham.waterfill.__module__)\n"
    )
    assert out.splitlines() == [
        "['srrham']",
        " ".join(f"srrham.{m}" for m in SUBMODULES),
        "membership srrham.srr",
    ]


def test_exports_are_todays_names_and_their_submodule_objects():
    assert set(srrham.__all__) == EXPORTS
    modules = [importlib.import_module(f"srrham.{m}") for m in SUBMODULES]
    for name in srrham.__all__:
        value = getattr(srrham, name)
        assert any(getattr(m, name, None) is value for m in modules), name
    from srrham import classic_hamming, membership

    assert (classic_hamming, membership) == (codes.classic_hamming, srr.membership)
    assert srrham.__version__ == "0.1.0"


def test_dir_lists_every_export_and_submodule():
    listed = set(dir(srrham))
    assert EXPORTS <= listed
    assert set(SUBMODULES) <= listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        srrham.no_such_name
    with pytest.raises(ImportError):
        from srrham import no_such_name  # noqa: F401


def test_exit_code_errors_keep_their_old_homes():
    assert errors.PivotLimitError is lp.PivotLimitError is srrham.PivotLimitError
    assert errors.InvariantError is lp.InvariantError
    assert errors.EventLimitError is srr.EventLimitError
    assert errors.WorkLimitError is srr.WorkLimitError is codes.WorkLimitError
    assert srr.check_code_entries is codes.check_code_entries
    assert srr.CODE_ENTRY_LIMIT == codes.CODE_ENTRY_LIMIT
