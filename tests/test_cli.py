import json

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
