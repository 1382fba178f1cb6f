"""The package's import surface: one home per name, per-command imports.

``import srrham`` loads no submodule, each name is imported from the module
that defines it, each CLI command imports only the modules it runs (so only
``stats`` and ``verify`` load the hypergraph's branch and bound), and none
loads ``dataclasses``.  Losing that fails here, not as a slower start-up.
The plain value classes that stand in for dataclasses keep their equality,
hashing, immutability and defaults.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srrham
from srrham import cli, codes, errors, lp, recovery, srr
from srrham import hypergraph as hg

SRC = str(Path(srrham.__file__).resolve().parent.parent)
SOLVER = {"srrham.lp", "srrham.hypergraph", "srrham.srr"}
REGION = {"srrham.certify", "srrham.lp", "srrham.srr"}


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
    json.dump([status, sorted(
        m for m in sys.modules if m.startswith("srrham") or m == "dataclasses"
    )], fh)
"""


def _loaded_by_cli(tmp_path, *argv: str) -> set:
    """The srrham modules a command loads, and "dataclasses" if it loads that."""
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
    assert not loaded & (SOLVER | {"dataclasses"})


def test_check_loads_the_region_engine(tmp_path, code_file):
    loaded = _loaded_by_cli(tmp_path, "check", code_file, "--demand", "1,1,1,1")
    assert REGION <= loaded
    assert not loaded & {"srrham.hypergraph", "dataclasses"}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--demand", "1,1,1,1"],
        ["max", "--weights", "1,2,1,1"],
        ["lambda-star"],
        ["delta"],
        ["subset", "--symbols", "a,b"],
        ["waterfill", "--demand", "3,0,0,0"],
        ["slice", "--axes", "a,b", "--max", "1", "--step", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_region_commands_never_load_the_branch_and_bound(tmp_path, code_file, argv):
    """Region answers are certified by ``certify``; only ``stats`` and
    ``verify`` report nu and tau, so only they load ``hypergraph``."""
    loaded = _loaded_by_cli(tmp_path, argv[0], code_file, *argv[1:])
    assert REGION <= loaded
    assert "srrham.hypergraph" not in loaded


@pytest.mark.parametrize(
    "argv", [["stats", None], ["verify", "-r", "3", "-q", "2"]], ids=["stats", "verify"]
)
def test_stats_and_verify_load_the_hypergraph(tmp_path, code_file, argv):
    argv = [code_file if a is None else a for a in argv]
    assert "srrham.hypergraph" in _loaded_by_cli(tmp_path, *argv)


def test_certify_loads_neither_the_solver_nor_the_recovery_system():
    out = _fresh(
        "import json, sys, srrham.certify\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('srrham')]))\n"
    )
    assert set(json.loads(out)) <= {"srrham", "srrham.certify", "srrham.fields"}


def test_import_srrham_loads_nothing_until_used():
    out = _fresh(
        "import sys, srrham\n"
        "print(sorted(m for m in sys.modules if m.startswith('srrham')), srrham.__version__)\n"
        "from srrham.srr import membership\n"
        "print(membership.__module__, 'srrham.srr' in sys.modules, 'dataclasses' in sys.modules)\n"
        "try:\n"
        "    from srrham import membership\n"
        "except ImportError:\n"
        "    print('ImportError')\n"
    )
    assert out.splitlines() == ["['srrham'] 0.1.0", "srrham.srr True False", "ImportError"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        srrham.no_such_name
    with pytest.raises(ImportError):
        from srrham import no_such_name  # noqa: F401


def test_exit_code_errors_keep_their_old_homes():
    assert errors.PivotLimitError is lp.PivotLimitError
    assert errors.InvariantError is lp.InvariantError is srr.InvariantError is hg.InvariantError
    assert errors.EventLimitError is srr.EventLimitError
    assert errors.WorkLimitError is srr.WorkLimitError is codes.WorkLimitError


def _h32() -> codes.LinearCode:
    """Systematic Ham(3,2), built anew by each call (no cache)."""
    return codes.import_generator(codes.systematic_hamming(3, 2).generator.to_lists(), 2)


_BUILD = {
    "LinearCode": _h32,
    "FieldMatrix": lambda: _h32().generator,
    "RecoverySystem": lambda: recovery.build_recovery_system(_h32()),
    "SrrInstance": lambda: srr.SrrInstance(recovery.build_recovery_system(_h32())),
    "SubsetBound": lambda: srr.subset_bound(srr.SrrInstance.for_code(_h32()), (1, 2)),
}


@pytest.mark.parametrize("name", list(_BUILD))
def test_values_compare_and_hash_by_fields_and_refuse_assignment(name):
    """Two separate builds are equal and hash alike, so a code hits the
    ``dual_codewords`` cache; no field can be assigned; an instance's
    capacity defaults to 1 and must be positive."""
    first, second = _BUILD[name](), _BUILD[name]()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    for field in type(first).__slots__:
        with pytest.raises(AttributeError, match=repr(field)):
            setattr(first, field, getattr(second, field))
    if name == "LinearCode":
        assert codes.dual_codewords(first) is codes.dual_codewords(second)
    if name == "SrrInstance":
        assert first.capacity == 1
        with pytest.raises(ValueError, match="capacity must be positive"):
            srr.SrrInstance(first.system, capacity=0)
