import hashlib
import json

import pytest

from srrham import cli, lp

from conftest import NONSYS_G


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, *argv):
    path = tmp_path / "code.json"
    rc = cli.main(list(argv) + ["--out", str(path)])
    assert rc == 0
    return str(path)


def test_gen_systematic_golden(capsys):
    rc, out, _ = run_cli(capsys, "gen", "-r", "3", "-q", "2", "--systematic")
    assert rc == 0
    data = json.loads(out)
    assert (data["q"], data["r"], data["n"], data["k"]) == (2, 3, 7, 4)
    assert data["systematic_positions"] == [1, 2, 3, 4]
    assert data["generator"][0][:4] == [1, 0, 0, 0]
    assert len(data["parity_check"]) == 3


def test_gen_classic_matches_worked_matrices(capsys):
    rc, out, _ = run_cli(capsys, "gen", "-r", "3", "-q", "2")
    data = json.loads(out)
    assert data["parity_check"] == [
        [0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
    ]
    assert data["systematic_positions"] == [3, 5, 6, 7]


def test_gen_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "gen", "-r", "4", "-q", "2", "--systematic")
    _, second, _ = run_cli(capsys, "gen", "-r", "4", "-q", "2", "--systematic")
    assert first == second


def test_import_roundtrip(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2", "--systematic")
    rc, out, _ = run_cli(capsys, "import", path)
    assert rc == 0
    data = json.loads(out)
    original = json.loads(open(path).read())
    assert data["generator"] == original["generator"]
    assert data["systematic_positions"] == original["systematic_positions"]


def test_import_external_generator(tmp_path, capsys):
    src = tmp_path / "gen_only.json"
    src.write_text(json.dumps({"q": 2, "generator": NONSYS_G}))
    rc, out, _ = run_cli(capsys, "import", str(src))
    assert rc == 0
    data = json.loads(out)
    assert data["systematic_positions"] is None
    assert data["n"] == 7 and data["k"] == 4


def test_recovery_command(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(capsys, "recovery", path)
    assert rc == 0
    data = json.loads(out)
    assert data["symbols"][0]["sets"][0] == [3]
    assert len(data["symbols"]) == 4
    assert sum(len(s["sets"]) for s in data["symbols"]) == 20


def test_stats_command(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(capsys, "stats", path)
    data = json.loads(out)
    assert (data["nu"], data["tau"], data["mu_f"]) == (5, 5, "5")


def test_stats_partial_by_letter(tmp_path, capsys):
    src = tmp_path / "gen_only.json"
    src.write_text(json.dumps({"q": 2, "generator": NONSYS_G}))
    rc, out, _ = run_cli(capsys, "stats", str(src), "--symbols", "b")
    data = json.loads(out)
    assert data["mu_f"] == "7/3"


def test_check_worked_demand(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(capsys, "check", path, "--demand", "1,1,1,2")
    assert rc == 0
    data = json.loads(out)
    assert data["member"] is True
    assert data["allocation"]


def test_check_non_member_is_data_not_error(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(capsys, "check", path, "--demand", "4,0,0,0")
    assert rc == 0
    data = json.loads(out)
    assert data["member"] is False
    assert data["allocation"] is None


def test_check_capacity_flag(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(
        capsys, "check", path, "--demand", "2,2,2,2", "--capacity", "2"
    )
    assert json.loads(out)["member"] is True


def test_lambda_star_and_delta(tmp_path, capsys):
    src = tmp_path / "gen_only.json"
    src.write_text(json.dumps({"q": 2, "generator": NONSYS_G}))
    rc, out, _ = run_cli(capsys, "lambda-star", str(src), "--symbol", "b")
    assert json.loads(out) == {"symbol": 2, "value": "7/3"}
    rc, out, _ = run_cli(capsys, "delta", str(src))
    assert json.loads(out) == {"delta": "7/3"}


def test_subset_command(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(capsys, "subset", path, "--symbols", "a,b,c")
    data = json.loads(out)
    assert data["predicted"] == 3 and data["computed"] == "3" and data["tight"]


def test_waterfill_command(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(capsys, "waterfill", path, "--demand", "3,0,0,0")
    data = json.loads(out)
    assert data["served"] == ["3", "0", "0", "0"]
    assert data["residual"] == ["0", "0", "0", "0"]
    weights = {w["weight"] for w in data["allocation"]}
    assert weights == {"1", "1/2"}


def test_m3_command(capsys):
    rc, out, _ = run_cli(capsys, "m3", "-r", "5")
    data = json.loads(out)
    assert data == {"r": 5, "closed_form": 90, "brute": 90, "match": True}


def test_verify_command(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "verify", "-r", "3", "-q", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["code"]["systematic_positions"] == [3, 5, 6, 7]


def test_slice_command(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(
        capsys,
        "slice",
        path,
        "--axes",
        "a",
        "--fix",
        "d=1",
        "--max",
        "4",
        "--step",
        "2",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_1,lambda_2,lambda_3,lambda_4,member"
    assert lines[1:] == [
        "0,0,0,1,1",
        "2,0,0,1,1",
        "4,0,0,1,0",
    ]


def test_empty_capacity_exits_2(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, err = run_cli(
        capsys, "check", path, "--demand", "1,1,1,1", "--capacity", ""
    )
    assert rc == 2
    assert out == ""
    assert "malformed rational" in err


@pytest.fixture(scope="module")
def pinned_codes(tmp_path_factory):
    work = tmp_path_factory.mktemp("pinned")
    files = {"h32": work / "h32.json", "h33": work / "h33.json"}
    assert cli.main(["gen", "-r", "3", "-q", "2", "--out", str(files["h32"])]) == 0
    assert cli.main(["gen", "-r", "3", "-q", "3", "--out", str(files["h33"])]) == 0
    raw = work / "nonsys_in.json"
    raw.write_text(json.dumps({"q": 2, "generator": NONSYS_G}))
    files["nonsys"] = work / "nonsys.json"
    assert cli.main(["import", str(raw), "--out", str(files["nonsys"])]) == 0
    return {name: str(path) for name, path in files.items()}


PINNED_DEMANDS = {
    "h32": "1,1,1,2",
    "h33": "1,1/2,1,1/2,1,1/2,1,1/2,1,1/2",
    "nonsys": "1/2,1/2,1/2,1",
}
EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


# Exit code and sha256 of stdout for classic Ham(3,2), classic Ham(3,3) and
# NONSYS_G, recorded before membership moved onto the packing LP.  subset is
# defined for binary systematic codes only, so two of its runs exit 2.
@pytest.mark.parametrize(
    "command,name,rc,sha",
    [
        ("check", "h32", 0, "fdf6d64c83fe23829d36b2bd7b147aad002c6fc600cd24664f15a71eca060bdd"),
        ("max", "h32", 0, "ee72b987fc1d09762a61c3d23598896d13a613ee959ae7ce456c0ee01d6564d9"),
        ("lambda-star", "h32", 0, "563742ace460cce4d36cd0ef7ea064233231604ef0b93165b15061cbfc5b2be2"),
        ("subset", "h32", 0, "252347e937b2229b782f98974dd17b8416d1f6188d89dbba43b23ca85890965e"),
        ("stats", "h32", 0, "56f990d5db6ef9f7ff54d0baa9772995729e5d4e06e27bd6ac5691eda42fb520"),
        ("verify", "h32", 0, "e1f399c52ea341b6d36c4e9d4b658575f46c3a481bf8e64302f360b595005bce"),
        ("check", "h33", 0, "31b5298f6074fac16bb2313711027299ebbf729b4ed15a33f8dbce3b8baa7493"),
        ("max", "h33", 0, "78890816e05fe19609660ff8187602c4c5088a35f2db6ebfe2e76655d26d4b27"),
        ("lambda-star", "h33", 0, "cfa7895cece4efab79cd6b5d3d89d9767a56ad6d02a5a65bc40d59dce8c10241"),
        ("subset", "h33", 2, EMPTY_SHA),
        ("stats", "h33", 0, "f3a1c3f107b3fc53454c5ebaa2266e131f29d0f2a8e47d9c1ecf0d280bae7f8c"),
        ("verify", "h33", 0, "6baf7cd97d1b55d6b06da40f0a2d135ad34b8982de74571b42d30f88e006ba23"),
        ("check", "nonsys", 0, "98887c518f98022e3462d8e32e9039e3ad5ee45f741ec4480c4fc1de45bb9e6c"),
        ("max", "nonsys", 0, "87f99cfa120800b81f96b578c29b6f00f0320c84868a9dd3311b0c3f38b4d050"),
        ("lambda-star", "nonsys", 0, "ca3d4efd4190a7c25063908b3628b4f3451cedf487dba14cadb8340a0e7e4e87"),
        ("subset", "nonsys", 2, EMPTY_SHA),
        ("stats", "nonsys", 0, "d0d082fe1b2abdcbb663678dd00472b81a0fede26dcd78a96ca0442a15438827"),
        ("verify", "nonsys", 0, "06cb642c382b9042d2a0ec0c29ef95123f52962267617f970e9b869e28d0924b"),
    ],
)
def test_pinned_stdout(pinned_codes, capsys, command, name, rc, sha):
    path = pinned_codes[name]
    k = {"h32": 4, "h33": 10, "nonsys": 4}[name]
    argv = {
        "check": ["check", path, "--demand", PINNED_DEMANDS[name]],
        "max": ["max", path, "--weights", ",".join(["1"] * k)],
        "lambda-star": ["lambda-star", path],
        "subset": ["subset", path, "--symbols", "a,b,c"],
        "stats": ["stats", path],
        "verify": {
            "h32": ["verify", "-r", "3", "-q", "2"],
            "h33": ["verify", "-r", "3", "-q", "3"],
            "nonsys": ["verify", "--code", path],
        }[name],
    }[command]
    got_rc, out, _ = run_cli(capsys, *argv)
    assert (got_rc, hashlib.sha256(out.encode()).hexdigest()) == (rc, sha)


def test_malformed_demand_exits_2(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, err = run_cli(capsys, "check", path, "--demand", "1,0.5,1,1")
    assert rc == 2
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    rc, _, err = run_cli(capsys, "stats", "/nonexistent/code.json")
    assert rc == 2
    assert "error:" in err


def test_non_orthogonal_parity_check_exits_2(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2", "--systematic")
    data = json.loads(open(path).read())
    data["parity_check"][0][0] ^= 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "recovery", str(bad))
    assert rc == 2
    assert out == ""
    assert "does not match" in err


def test_bad_subcommand_exits_2(capsys):
    rc = cli.main(["frobnicate"])
    capsys.readouterr()
    assert rc == 2


def test_pivot_ceiling_exits_3(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, _, err = run_cli(
        capsys, "check", path, "--demand", "1,1,1,2", "--pivot-limit", "1"
    )
    assert rc == 3
    assert "pivot" in err


def test_pivot_env_ceiling_exits_3(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "1")
    rc, _, err = run_cli(capsys, "check", path, "--demand", "1,1,1,2")
    assert rc == 3


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(["stats", path, "--out", str(out_a)]) == 0
    assert cli.main(["stats", path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
