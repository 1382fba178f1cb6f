import argparse
import hashlib
import itertools
import json
import time
import types
from fractions import Fraction

import pytest

from srrham import certify, cli, codes, lp, srr
from srrham import hypergraph as hg

from conftest import NONSYS_G, ZERO_COLUMN_G


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, *argv):
    path = tmp_path / "code.json"
    rc = cli.main(list(argv) + ["--out", str(path)])
    assert rc == 0
    return str(path)


def nonsys_file(tmp_path):
    """A NONSYS_G code file: its symbols 1 and 2 have no unit column, so
    their lambda* (and so delta) still run the LP."""
    path = tmp_path / "nonsys.json"
    path.write_text(json.dumps({"q": 2, "generator": NONSYS_G}))
    return str(path)


def test_gen_systematic_golden(capsys):
    rc, out, _ = run_cli(capsys, "gen", "-r", "3", "-q", "2", "--systematic")
    assert rc == 0
    data = json.loads(out)
    assert (data["q"], data["r"], data["n"], data["k"]) == (2, 3, 7, 4)
    assert data["systematic_positions"] == [1, 2, 3, 4]
    assert data["generator"][0][:4] == [1, 0, 0, 0]
    assert len(data["parity_check"]) == 3


# sha256 of `gen -r R -q Q --systematic` stdout, recorded while the standard
# form still had its own G/H construction; it is now the classic code with
# its columns reordered, and must keep these bytes.
@pytest.mark.parametrize(
    "r,q,sha",
    [
        (2, 2, "0b47a8763c170ec41c8c68ff0688f8521c6c64069425b965703d70d9d011c7b1"),
        (3, 2, "d7691b70bf6c72df858c37195714e2c4191a2100c8bc75a08a875a2f8fcaf586"),
        (4, 2, "9dfb374c2b9e50ad4e80e229b8b46405a0ec13f5751516e857d4e9bc3d78d8f9"),
        (5, 2, "447e0afffae0cb55872a2a74e2c644b8cb108f74febec8190523203ee64fb9e8"),
        (6, 2, "9eecbf552247a5b49a387912e900d77d0b2458b4ca3f7daea7c67c1972c3a0d8"),
        (2, 3, "a89141cf137ca3f77016e3d8af1c9a94beecc32de3cd00a0afb4206a7db38335"),
        (3, 3, "da67c78677b85bc39b2437c86f6620ce7614bf6cb3811d5d9c08f12c710661ee"),
        (4, 3, "cd8b1f055c8f9cbfbd94389e64e81a39fa2d3edc88a33be264f3b8fec07abdc1"),
        (2, 5, "34bc31c8fb2bd64774d4debd8e4101016f74811825f6d8f6225e3c874fece879"),
        (3, 5, "c20371f818a7325b71da935215a24d449f5fa963396a8fee1e1a93ea0bf40b2e"),
        (2, 7, "b7001566f6d90af7c027bbb2c81b684365058eee3132f525674b9e63846fc45e"),
    ],
)
def test_gen_systematic_pinned_stdout(capsys, r, q, sha):
    rc, out, _ = run_cli(capsys, "gen", "-r", str(r), "-q", str(q), "--systematic")
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, sha)


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


# sha256 of `import` stdout for a NONSYS_G file without a parity check,
# recorded before `import` read its input through the full code check.
def test_import_without_parity_check_pinned_stdout(tmp_path, capsys):
    src = tmp_path / "gen_only.json"
    src.write_text(json.dumps({"q": 2, "generator": NONSYS_G}))
    rc, out, _ = run_cli(capsys, "import", str(src))
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (
        0,
        "58f4c60be7e2f98c202e2bf35d75e96d3de01e69e192077fe7b9d008c7397875",
    )


@pytest.mark.parametrize("layout", [[], ["--systematic"]], ids=["classic", "systematic"])
@pytest.mark.parametrize(
    "r,q",
    [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3), (2, 5), (3, 5),
     (2, 7)],
)
def test_import_reproduces_every_gen_output(tmp_path, capsys, r, q, layout):
    # import keeps the file's valid parity check, and gen and every reader
    # agree on the systematic positions (Ham(2,2) too).
    path = gen_file(tmp_path, "gen", "-r", str(r), "-q", str(q), *layout)
    rc, out, _ = run_cli(capsys, "import", path)
    assert (rc, out) == (0, open(path).read())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda h: [row + [0] for row in h],
        lambda h: [row[:-1] for row in h],
        lambda h: [[v ^ 1 if j == 0 else v for j, v in enumerate(row)] for row in h],
    ],
    ids=["wide", "narrow", "contradicts-g"],
)
def test_import_rejects_a_parity_check_that_does_not_match(tmp_path, capsys, corrupt):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    data = json.loads(open(path).read())
    data["parity_check"] = corrupt(data["parity_check"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "import", str(bad))
    _assert_one_error_line(rc, out, err)
    assert "does not match the generator" in err


_HUGE_PRIME = "1000000000000000003"
_FLOAT_ENTRY = [[1.0] + NONSYS_G[0][1:]] + NONSYS_G[1:]
_STRING_ENTRY = [["1"] + NONSYS_G[0][1:]] + NONSYS_G[1:]
_RAGGED = [[1, 0, 1], [0, 1]]


@pytest.mark.parametrize("command", ["import", "check"])
@pytest.mark.parametrize(
    "document",
    [
        {"q": 2.5, "generator": NONSYS_G},
        {"q": "2", "generator": NONSYS_G},
        {"q": 2, "generator": _FLOAT_ENTRY},
        {"q": 2, "generator": _STRING_ENTRY},
        7,
        None,
        {"q": int(_HUGE_PRIME), "generator": [[1, 0, 1], [0, 1, 1]]},
        {"q": 0, "generator": NONSYS_G},
        {"q": 2, "generator": _RAGGED},
    ],
    ids=["float-q", "string-q", "float-entry", "string-entry", "number", "null",
         "huge-q", "zero-q", "ragged"],
)
def test_malformed_code_document_exits_2(tmp_path, capsys, command, document):
    # A code document is read as written: no float or string is coerced.  A
    # huge q is rejected by the length bound n >= q + 1 before any primality
    # test, whose trial division would not finish.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    extra = ["--demand", "1"] if command == "check" else []
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, command, str(bad), *extra)
    assert time.perf_counter() - start < 1
    _assert_one_error_line(rc, out, err)


@pytest.mark.parametrize("key", ["generator", "parity_check"])
@pytest.mark.parametrize(
    "r,q,old,new",
    [(3, 2, 1, 3), (3, 2, 1, -1), (3, 3, 0, 3)],
    ids=["q2-entry-3", "q2-entry-minus-1", "q3-entry-3"],
)
def test_unreduced_matrix_entry_exits_2(tmp_path, capsys, key, r, q, old, new):
    # The new entry is congruent to the one it replaces, so reducing mod q
    # would accept the document with a different matrix than it states.
    path = gen_file(tmp_path, "gen", "-r", str(r), "-q", str(q))
    good = json.loads(open(path).read())
    data = json.loads(open(path).read())
    row = data[key][0]
    row[row.index(old)] = new
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "import", str(bad))
    _assert_one_error_line(rc, out, err)
    assert f"{key!r} entry {new} is outside [0, {q})" in err
    # The library call still reduces its entries mod q.
    assert codes.import_generator(data["generator"], q) == codes.import_generator(
        good["generator"], q
    )


@pytest.mark.parametrize("q", ["1", "0", "4", "9", "25"])
def test_gen_rejects_a_q_that_is_not_prime(capsys, q):
    rc, out, err = run_cli(capsys, "gen", "-r", "3", "-q", q)
    _assert_one_error_line(rc, out, err)
    assert f"q must be prime, got {q}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "{path}", "--demand", "1,1,1,1", "--capacity", "0"],
         "capacity must be positive"),
        (["max", "{path}", "--weights", "1,1"], "weights length 2 != k = 4"),
        (["lambda-star", "{path}", "--symbol", "9"], "symbol '9' out of range 1..4"),
        (["lambda-star", "{path}", "--symbol", ""], "bad symbol token ''"),
        (["stats", "{path}", "--symbols", ""], "bad symbol token ''"),
        (["verify"], "verify needs either --code FILE or -r and -q"),
        (["verify", "--code", "", "-r", "3", "-q", "2"],
         "No such file or directory: ''"),
        (["gen", "-r", "3", "-q", "2", "--out", ""], "No such file or directory: ''"),
        (["slice", "{path}", "--axes", "a,a", "--max", "1", "--step", "1"],
         "axes must be distinct"),
        (["slice", "{path}", "--axes", "a,b", "--fix", "c1", "--max", "1", "--step", "1"],
         "bad --fix assignment 'c1'"),
        (["slice", "{path}", "--axes", "a,b", "--fix", "", "--max", "1", "--step", "1"],
         "bad --fix assignment ''"),
        (["slice", "{path}", "--axes", "a,b", "--fix", "a=1", "--max", "1", "--step", "1"],
         "symbols [1] both axis and fixed"),
        (["slice", "{path}", "--axes", "a", "--fix", "b=1,2=0", "--max", "1", "--step", "1"],
         "symbol 2 fixed more than once"),
        (["slice", "{path}", "--axes", "a,b", "--max", "1", "--step", "0"],
         "--step must be positive and --max nonnegative"),
        (["import", "{ragged}"], "ragged matrix"),
        (["import", "{repeated}"], "dual dimension mismatch"),
        (["import", "{zero}"], "parity check violates Hamming property: zero column"),
    ],
    ids=["capacity-0", "weights-length", "symbol-range", "symbol-empty", "symbols-empty",
         "verify-no-code", "verify-empty-code", "gen-empty-out", "slice-same-axes",
         "slice-bad-fix", "slice-empty-fix", "slice-axis-fixed", "slice-fixed-twice",
         "slice-step-0", "import-ragged", "import-repeated-h-row", "import-zero-column"],
)
def test_input_error_exits_2_with_its_message(tmp_path, capsys, argv, message):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"q": 2, "generator": _RAGGED}))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"q": 2, "generator": ZERO_COLUMN_G}))
    # H with a row repeated keeps rank r, so only its row count is wrong.
    data = json.loads(open(path).read())
    data["parity_check"].append(data["parity_check"][0])
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps(data))
    files = dict(path=path, ragged=ragged, repeated=repeated, zero=zero)
    rc, out, err = run_cli(capsys, *[a.format(**files) for a in argv])
    _assert_one_error_line(rc, out, err)
    assert message in err


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


def test_m3_over_work_limit_exits_3_before_enumerating(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "m3", "-r", "30")
    assert time.perf_counter() - start < 0.5
    assert (rc, out) == (3, "")
    pairs = (2 ** 30 - 31) * (2 ** 30 - 32) // 2
    assert f"needs {pairs} pair checks, over the limit of {srr.M3_PAIR_LIMIT}" in err


def test_verify_command(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "verify", "-r", "3", "-q", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert data["code"]["systematic_positions"] == [3, 5, 6, 7]


def test_verify_rejects_zero_samples(capsys):
    rc, out, err = run_cli(capsys, "verify", "-r", "3", "-q", "2", "--samples", "0")
    assert (rc, out) == (2, "")
    assert "samples must be at least 1" in err


def test_verify_over_the_subset_lp_budget_exits_3_before_building(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(
        capsys, "verify", "-r", "7", "-q", "2", "--systematic", "--samples", "100000"
    )
    assert time.perf_counter() - start < 1
    assert (rc, out) == (3, "")
    # mu_f (127 rows) and four max_served LPs (127 + 120 rows) over all
    # 120 x 65 sets; then all C(120,2) pairs, 100000 of the C(120,3) triples
    # and sizes 1, 1, ..., 119, 119 of the uniformized check, 65 sets of 127
    # nodes per symbol.
    symbols = 2 * 7140 + 3 * 100000 + 2 * sum(range(1, 120))
    entries = (127 + 4 * 247) * 120 * 65 + symbols * 65 * 127
    assert (
        f"verify on 127 nodes needs {entries} matrix entries, over the limit of "
        f"{srr.VERIFY_ENTRY_LIMIT}" in err
    )


@pytest.mark.parametrize("token", ["é", "٣", "1_0", "+3", "1.0", "ab", "-1"])
def test_symbol_token_is_one_ascii_letter_or_ascii_digits(tmp_path, capsys, token):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, err = run_cli(capsys, "lambda-star", path, f"--symbol={token}")
    _assert_one_error_line(rc, out, err)
    assert "bad symbol token" in err


def test_non_ascii_letter_is_no_symbol_on_a_long_code():
    # ord("é") - ord("a") + 1 == 137: Ham(8,2) has k = 247, so the old
    # letter rule silently picked symbol 137.
    with pytest.raises(ValueError, match="bad symbol token"):
        cli._symbol_token("é", 247)


@pytest.mark.parametrize("token,symbol", [("a", 1), ("B", 2), (" 2 ", 2), ("04", 4)])
def test_ascii_symbol_tokens_still_work(tmp_path, capsys, token, symbol):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, _ = run_cli(capsys, "lambda-star", path, "--symbol", token)
    assert (rc, json.loads(out)["symbol"]) == (0, symbol)


def _assert_one_error_line(rc, out, err):
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [[], ["--systematic"]])
def test_verify_binary_r2_exits_2(capsys, extra):
    rc, out, err = run_cli(capsys, "verify", "-r", "2", "-q", "2", *extra)
    _assert_one_error_line(rc, out, err)
    assert "r >= 3" in err


def test_verify_imported_binary_r2_code_exits_2(tmp_path, capsys):
    src = tmp_path / "rep3.json"
    src.write_text(json.dumps({"q": 2, "generator": [[1, 1, 1]]}))
    rc, out, err = run_cli(capsys, "verify", "--code", str(src))
    _assert_one_error_line(rc, out, err)
    assert "r >= 3" in err


# sha256 of `verify -r 2 -q 3` stdout, recorded before binary r = 2 codes were
# rejected; the ternary r = 2 code must keep these bytes.
def test_verify_ternary_r2_pinned_stdout(capsys):
    rc, out, _ = run_cli(capsys, "verify", "-r", "2", "-q", "3")
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (
        0,
        "5e1073a47bcf46a599fa7691ec1aa8f95da7771a9088c77f1e167f180c3721dd",
    )


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


def test_slice_fixing_a_symbol_twice_exits_2(tmp_path, capsys):
    """A repeated --fix symbol used to keep its last value silently."""
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, err = run_cli(
        capsys, "slice", path, "--axes", "a", "--fix", "b=1,b=0", "--max", "1", "--step", "1"
    )
    assert (rc, out) == (2, "")
    assert err == "error: symbol 2 fixed more than once\n"


def _slice_by_point(path, axes, fixed, maximum, step):
    """The slice CSV from one ``srr.membership`` call per grid point."""
    instance = srr.SrrInstance.for_code(cli._load_code(path))
    k = instance.code.k
    ticks = [step * t for t in range(maximum // step + 1)]
    lines = [",".join([f"lambda_{i}" for i in range(1, k + 1)] + ["member"])]
    for point in itertools.product(ticks, repeat=len(axes)):
        demand = [fixed.get(i, Fraction(0)) for i in range(1, k + 1)]
        for axis, t in zip(axes, point):
            demand[axis - 1] = t
        member, _ = srr.membership(instance, demand)
        lines.append(",".join([str(x) for x in demand] + [str(int(member))]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "gen,axes,fixed,maximum,step",
    [
        (["-r", "3", "-q", "2"], [1, 2, 3], {4: Fraction(1, 2)}, 2, Fraction(1, 2)),
        (["-r", "3", "-q", "2"], [3], {1: 1, 2: Fraction(1, 2)}, 4, Fraction(1, 4)),
        (["-r", "4", "-q", "2", "--systematic"], [2, 1], {3: 1}, 3, Fraction(1, 2)),
        (["-r", "4", "-q", "2", "--systematic"], [1, 2], {}, 3, Fraction(1, 2)),
        (["-r", "3", "-q", "3"], [1, 4], {2: Fraction(1, 2), 5: 1}, 2, Fraction(1, 3)),
    ],
    ids=["h32-3axes", "h32-1axis", "sys42-2axes-fix", "sys42-2axes", "h33-2axes-fix"],
)
def test_slice_staircase_matches_membership_per_point(
    tmp_path, capsys, gen, axes, fixed, maximum, step
):
    """The staircase walk prints the bytes of a membership LP per point."""
    path = gen_file(tmp_path, "gen", *gen)
    argv = ["slice", path, "--axes", ",".join(map(str, axes)),
            "--max", str(maximum), "--step", str(step)]
    if fixed:
        argv += ["--fix", ",".join(f"{i}={v}" for i, v in fixed.items())]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out == _slice_by_point(path, axes, fixed, maximum, step)


@pytest.mark.parametrize("fix", [None, "3=2", "3=4"])
def test_slice_section_takes_at_most_2c_minus_1_memberships(
    tmp_path, capsys, monkeypatch, fix
):
    path = gen_file(tmp_path, "gen", "-r", "4", "-q", "2", "--systematic")
    membership, calls = srr.membership, []

    def counted(instance, demand):
        calls.append(demand)
        return membership(instance, demand)

    monkeypatch.setattr(srr, "membership", counted)
    argv = ["slice", path, "--axes", "1,2", "--max", "3", "--step", "1/2"]
    rc, out, _ = run_cli(capsys, *argv, *(["--fix", fix] if fix else []))
    c = 7
    assert rc == 0 and len(out.splitlines()) == 1 + c * c
    assert 0 < len(calls) <= 2 * c - 1


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
PINNED_ZERO_WEIGHTS = {
    "h32": "1,0,2,0",
    "h33": "0,1,0,0,2,0,1,0,0,3",
    "nonsys": "0,1,0,2",
}
EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


# Exit code and sha256 of stdout for classic Ham(3,2), classic Ham(3,3) and
# NONSYS_G, recorded before membership moved onto the packing LP; the delta,
# lambda-star-2, max-zeros and subset-ab rows were recorded before lambda*
# and subset bounds kept only the rewarded symbols' sets; the verify rows of
# h32 and nonsys were re-recorded when verify stopped comparing the sum-rate
# LP with mu_f (one check object fewer); the max-nonsys and max-zeros-h33
# rows were re-recorded when every region LP took the hypergraph's size-first
# column order: the simplex reaches another optimal vertex of the same value
# (3 and 9), so only the printed demand and allocation changed.  subset is
# defined for binary systematic codes only, so two of its runs exit 2.
@pytest.mark.parametrize(
    "command,name,rc,sha",
    [
        ("check", "h32", 0, "fdf6d64c83fe23829d36b2bd7b147aad002c6fc600cd24664f15a71eca060bdd"),
        ("max", "h32", 0, "ee72b987fc1d09762a61c3d23598896d13a613ee959ae7ce456c0ee01d6564d9"),
        ("lambda-star", "h32", 0, "563742ace460cce4d36cd0ef7ea064233231604ef0b93165b15061cbfc5b2be2"),
        ("subset", "h32", 0, "252347e937b2229b782f98974dd17b8416d1f6188d89dbba43b23ca85890965e"),
        ("stats", "h32", 0, "56f990d5db6ef9f7ff54d0baa9772995729e5d4e06e27bd6ac5691eda42fb520"),
        ("verify", "h32", 0, "34101afda2f48260c02815edeced4bf39443d30225ef452239385c0442c8244c"),
        ("check", "h33", 0, "31b5298f6074fac16bb2313711027299ebbf729b4ed15a33f8dbce3b8baa7493"),
        ("max", "h33", 0, "78890816e05fe19609660ff8187602c4c5088a35f2db6ebfe2e76655d26d4b27"),
        ("lambda-star", "h33", 0, "cfa7895cece4efab79cd6b5d3d89d9767a56ad6d02a5a65bc40d59dce8c10241"),
        ("subset", "h33", 2, EMPTY_SHA),
        ("stats", "h33", 0, "f3a1c3f107b3fc53454c5ebaa2266e131f29d0f2a8e47d9c1ecf0d280bae7f8c"),
        ("verify", "h33", 0, "6baf7cd97d1b55d6b06da40f0a2d135ad34b8982de74571b42d30f88e006ba23"),
        ("check", "nonsys", 0, "98887c518f98022e3462d8e32e9039e3ad5ee45f741ec4480c4fc1de45bb9e6c"),
        ("max", "nonsys", 0, "b404d9fd925d4ae4c2df7561f8b8ffa5c7726bda488594ac62166c14468a15bd"),
        ("lambda-star", "nonsys", 0, "ca3d4efd4190a7c25063908b3628b4f3451cedf487dba14cadb8340a0e7e4e87"),
        ("subset", "nonsys", 2, EMPTY_SHA),
        ("stats", "nonsys", 0, "d0d082fe1b2abdcbb663678dd00472b81a0fede26dcd78a96ca0442a15438827"),
        ("verify", "nonsys", 0, "be9e0e3c5b28f08ebfb3e84c46f3ebd09b7d8fbb033f604011f5f7b04fc5b682"),
        ("delta", "h32", 0, "fc7d5b7badeb797320ed95788d4100b7976b0e34e23d16fd522f38affd8c9095"),
        ("lambda-star-2", "h32", 0, "75651460907a15541ddce817582affe6c3d75165570514d12ebbe185e2935aed"),
        ("max-zeros", "h32", 0, "41e8b6fd0f0e83050fe7003f1fa07090fab4b73551766731afd3f4a14f508584"),
        ("subset-ab", "h32", 0, "2e5a5ba0eaa02f26eb4946ccce2e5473338d6ee5be666fec5c7917488fe6c908"),
        ("delta", "h33", 0, "a44e2ca18115bfe57bdba7aee80b47896f2d29279ac0c26dbf0c15948cb281d0"),
        ("lambda-star-2", "h33", 0, "e0bc8c659c7ca3fb295cd7e298a51b6dc31c3ebb2c07d9db6539700bfeadaa72"),
        ("max-zeros", "h33", 0, "051a9c3e2eb8766500c8a9a328e0ad23dd088a05effc4df64fb54531131f5ef5"),
        ("delta", "nonsys", 0, "07b557421a1bf7fd467dea8e2d1781ef038454b2c0758f0db41864ee0c163d2e"),
        ("lambda-star-2", "nonsys", 0, "bb219fb436fa1434c7740125eb93032f02d3625314a52cbf2065b0da519a3dea"),
        ("max-zeros", "nonsys", 0, "fa34f4035ed4957bb9e4bc338103e2200346a99b790147e233852a7299f4780e"),
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
        "delta": ["delta", path],
        "lambda-star-2": ["lambda-star", path, "--symbol", "2"],
        "max-zeros": ["max", path, "--weights", PINNED_ZERO_WEIGHTS[name]],
        "subset-ab": ["subset", path, "--symbols", "a,b"],
        "verify": {
            "h32": ["verify", "-r", "3", "-q", "2"],
            "h33": ["verify", "-r", "3", "-q", "3"],
            "nonsys": ["verify", "--code", path],
        }[name],
    }[command]
    got_rc, out, _ = run_cli(capsys, *argv)
    assert (got_rc, hashlib.sha256(out.encode()).hexdigest()) == (rc, sha)


# Exit code and sha256 of stdout, recorded before hypergraph edges became
# (symbol, set) pairs, verify sampled subsets by rank and slice built its
# grid with itertools.product.  Both verify runs sample pairs and triples.
@pytest.mark.parametrize(
    "argv,sha",
    [
        (["stats", "{h32}", "--symbols", "a,b"],
         "50331e0aba1f270c8a55bff5e96373edfbc6916b7a809865416b4ae945ce8c3d"),
        (["stats", "{nonsys}", "--symbols", "a,b"],
         "b41fbb6987d0bbb2ae8332458af58c7197f4cfc820b76814b318abcb6ef41140"),
        (["slice", "{h32}", "--axes", "a,b", "--fix", "c=1/2", "--max", "2", "--step", "1/2"],
         "9305f996462fdabff06202ecbbaa24984c52a0f5148b807fd487d3c330930187"),
        (["verify", "-r", "4", "-q", "2", "--systematic"],
         "78b03640a46ca76807d34cd4887f84b4f840f009eae9a76171fe2007e89db43e"),
        (["verify", "-r", "4", "-q", "2", "--systematic", "--samples", "5", "--seed", "3"],
         "e1c3de6b5317eb2a3a2d899059574a5a576bfc7f79ff403d3920a15a7df983a1"),
    ],
    ids=["stats-ab-h32", "stats-ab-nonsys", "slice-h32", "verify-42s", "verify-42s-samples5"],
)
def test_pinned_argv_stdout(pinned_codes, capsys, argv, sha):
    rc, out, _ = run_cli(capsys, *[a.format(**pinned_codes) for a in argv])
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (0, sha)


def test_malformed_demand_exits_2(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, err = run_cli(capsys, "check", path, "--demand", "1,0.5,1,1")
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["check", "waterfill"])
@pytest.mark.parametrize(
    "demand,message",
    [
        ("1,2,1", "demand length 3 != k = 4"),
        ("1,1,1,-2", "demand rates must be nonnegative"),
        ("1,1,1,0.5", "expected an exact rational"),
    ],
    ids=["wrong-length", "negative", "decimal"],
)
def test_bad_demand_exits_2(tmp_path, capsys, command, demand, message):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, err = run_cli(capsys, command, path, "--demand", demand)
    _assert_one_error_line(rc, out, err)
    assert message in err


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


# H with an extra zero column keeps rank 3, and a row-by-row dot product
# would silently truncate it to n columns: only the width check stops it.
@pytest.mark.parametrize("reshape", [lambda row: row + [0], lambda row: row[:-1]])
def test_parity_check_of_wrong_width_exits_2(tmp_path, capsys, reshape):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    data = json.loads(open(path).read())
    data["parity_check"] = [reshape(row) for row in data["parity_check"]]
    bad = tmp_path / "reshaped.json"
    bad.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "recovery", str(bad))
    _assert_one_error_line(rc, out, err)
    assert "does not match the generator" in err


def test_bad_subcommand_exits_2(capsys):
    rc = cli.main(["frobnicate"])
    capsys.readouterr()
    assert rc == 2


def test_pivot_ceiling_exits_3(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "1")
    rc, out, err = run_cli(capsys, "check", path, "--demand", "1,1,1,2")
    assert rc == 3
    assert out == ""
    assert "pivot ceiling of 1" in err
    # 4 demand rows + 7 capacity rows; 20 set columns + 11 slack columns.
    assert (
        "after 1 pivots on a tableau of 11 rows x 31 columns; "
        "its largest entry has 2 bits" in err
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{path}", "--demand", "1,1,1,2"],
        ["max", "{path}", "--weights", "1,1,1,1"],
        ["lambda-star", "{nonsys}"],
        ["delta", "{nonsys}"],
        ["slice", "{path}", "--axes", "a", "--max", "1", "--step", "1"],
        ["stats", "{path}"],
        ["verify", "-r", "3", "-q", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_lp_command_obeys_the_env_pivot_ceiling(
    tmp_path, capsys, monkeypatch, argv
):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    nonsys = nonsys_file(tmp_path)
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "0")
    rc, out, err = run_cli(
        capsys, *[a.format(path=path, nonsys=nonsys) for a in argv]
    )
    assert (rc, out) == (3, "")
    assert "pivot ceiling of 0" in err


def test_subset_answers_without_a_pivot_under_the_env_ceiling(
    tmp_path, capsys, monkeypatch
):
    # A binary subset ceiling is proven by a closed-form certificate, so it
    # runs no simplex and prints what the LP printed.
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "0")
    rc, out, err = run_cli(capsys, "subset", path, "--symbols", "a,b")
    assert (rc, err) == (0, "")
    expected = {
        "subset": [1, 2], "column_sum": [1, 1, 0], "predicted": 3, "computed": "3",
        "tight": True,
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_pivot_limit_flag_is_gone(tmp_path, capsys):
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in subparsers.choices.items():
        assert "--pivot-limit" not in sub.format_help(), name
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    rc, out, err = run_cli(
        capsys, "check", path, "--demand", "1,1,1,2", "--pivot-limit", "1"
    )
    assert (rc, out) == (2, "")
    assert "--pivot-limit" in err


def test_slice_over_work_limit_exits_3_before_building_ticks(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    start = time.perf_counter()
    rc, out, err = run_cli(
        capsys, "slice", path, "--axes", "a", "--max", "1", "--step", "1/1000000000"
    )
    assert time.perf_counter() - start < 0.5
    assert (rc, out) == (3, "")
    points = 10 ** 9 + 1
    assert (
        f"slice needs {points} grid points, over the limit of "
        f"{srr.SLICE_POINT_LIMIT}" in err
    )


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_code_over_entry_limit_exits_3_before_building(capsys, command):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, command, "-r", "40", "-q", "2")
    assert time.perf_counter() - start < 0.5
    assert (rc, out) == (3, "")
    n = 2 ** 40 - 1
    assert (
        f"Ham(40,2) has {(n - 40) * n} generator entries, over the limit of "
        f"{codes.CODE_ENTRY_LIMIT}" in err
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gen", "-r", "8000", "-q", "2"], "Ham(8000,2) has at least 2^7999 generator"),
        (["gen", "-r", "30000000", "-q", "2"], "has at least 2^29999999 generator"),
        (["verify", "-r", "8000", "-q", "2"], "Ham(8000,2) has at least 2^7999"),
        # The size check runs before the primality test of q, which would
        # not finish: so a huge q exits 3 whether it is prime or not.
        (["gen", "-r", "2", "-q", _HUGE_PRIME],
         f"Ham(2,{_HUGE_PRIME}) has {(int(_HUGE_PRIME) + 1) * (int(_HUGE_PRIME) - 1)} generator"),
        (["verify", "-r", "3", "-q", _HUGE_PRIME], f"Ham(3,{_HUGE_PRIME}) has "),
        (["gen", "-r", "2", "-q", "1000000000000000004"], "Ham(2,1000000000000000004) has "),
        (["m3", "-r", "20000"], "m3 at r=20000 needs at least 2^19999 pair checks"),
        (["m3", "-r", "10000000"], "m3 at r=10000000 needs at least 2^9999999 pair"),
        (["slice", "{path}", "--axes", "a", "--max", "1", "--step", "1/1" + "0" * 2200],
         f"slice needs at least 2^{(10 ** 2200 + 1).bit_length() - 1} grid points"),
    ],
    ids=["gen", "gen-huge-r", "verify", "gen-huge-q", "verify-huge-q",
         "gen-huge-composite-q", "m3", "m3-huge-r", "slice"],
)
def test_work_limit_exits_3_however_large_the_estimate(tmp_path, capsys, argv, message):
    """The estimate of a huge run is shown by its size, so its message never
    needs a decimal conversion past Python's digit limit."""
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/code.json", "."])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    rc, out, err = run_cli(
        capsys, "gen", "-r", "3", "-q", "2", "--out", str(tmp_path / target)
    )
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_delta_finds_unit_columns_once_per_code(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, "gen", "-r", "4", "-q", "2")
    scans = []
    scan = codes.scaled_unit_columns

    def counted(generator):
        scans.append(generator)
        return scan(generator)

    # A copy of the scan imported into srr would be counted too.
    for module in (codes, srr):
        monkeypatch.setattr(module, "scaled_unit_columns", counted, raising=False)
    rc, out, _ = run_cli(capsys, "delta", path)
    assert (rc, json.loads(out)) == (0, {"delta": "3"})
    assert len(scans) == 1


def test_event_ceiling_exits_3_with_counters(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2", "--systematic")
    rc, out, err = run_cli(
        capsys, "waterfill", path, "--demand", "1/2,1/2,3,2", "--max-events", "2"
    )
    assert (rc, out) == (3, "")
    assert "2 events done, 2 symbols still have a residual" in err


def test_negative_event_ceiling_exits_2(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2", "--systematic")
    rc, out, err = run_cli(
        capsys, "waterfill", path, "--demand", "1,1,1,1", "--max-events", "-1"
    )
    assert (rc, out) == (2, "")
    assert "max_events must be nonnegative" in err


def test_bad_json_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 2,')
    rc, out, err = run_cli(capsys, "check", str(bad), "--demand", "1")
    assert (rc, out) == (2, "")
    assert err.startswith("error: bad JSON input:")


def _corrupt_den_after_pivot(monkeypatch):
    pivot = lp._Tableau._pivot

    def corrupting(self, *args):
        pivot(self, *args)
        self.den *= 7  # true values change, so the next division is inexact

    monkeypatch.setattr(lp._Tableau, "_pivot", corrupting)


def _unbounded_solve(monkeypatch):
    # An entering column with no positive entry: the ratio test finds no row.
    column = lp._Tableau._column
    monkeypatch.setattr(
        lp._Tableau, "_column", lambda self, j: [-abs(v) for v in column(self, j)]
    )


def _overstated_packing(monkeypatch):
    packing = lp.max_packing

    def overstated(*args, **kwargs):
        value, solution = packing(*args, **kwargs)
        return value + 1, solution

    monkeypatch.setattr(lp, "max_packing", overstated)


def _overstated_matching(monkeypatch):
    matching = hg.matching_number

    def overstated(h):
        nu, witness = matching(h)
        return nu + 1, witness

    monkeypatch.setattr(hg, "matching_number", overstated)


def _overstated_cover(monkeypatch):
    cover = certify.check_cover

    def overstated(prices, pairs, capacity, value, symbol_weights=None):
        return cover(prices, pairs, capacity, value + 1, symbol_weights)

    monkeypatch.setattr(certify, "check_cover", overstated)


def _zeroed_price(monkeypatch):
    """The first positive node price drops to 0 before the cover check."""
    cover = certify.check_cover

    def zeroed(prices, *args):
        prices = list(prices)
        prices[next(v for v, y in enumerate(prices) if y)] = 0
        return cover(prices, *args)

    monkeypatch.setattr(certify, "check_cover", zeroed)


def _zeroed_shared_price(monkeypatch):
    """The last positive node price drops to 0 before the cover check: for
    symbols a and b of Ham(3,2), the price on node 6, which every free set
    holds."""
    cover = certify.check_cover

    def zeroed(prices, *args):
        prices = list(prices)
        prices[max(v for v, y in enumerate(prices) if y)] = 0
        return cover(prices, *args)

    monkeypatch.setattr(certify, "check_cover", zeroed)


def _dropped_transversal_vertex(monkeypatch):
    transversal = hg.transversal_number

    def dropped(h):
        tau, witness = transversal(h)
        return tau, witness[1:]

    monkeypatch.setattr(hg, "transversal_number", dropped)


def _shifted_unit_columns(monkeypatch):
    """Each unit column moves one node on where the code is built, so the
    code's recovery sets stay right while its unit columns go wrong."""
    units = codes.scaled_unit_columns

    def shifted(generator):
        return tuple(s and s % generator.cols + 1 for s in units(generator))

    monkeypatch.setattr(codes, "scaled_unit_columns", shifted)


def _wrong_binomial(monkeypatch):
    monkeypatch.setattr(srr, "math", types.SimpleNamespace(comb=lambda n, k: 0))


@pytest.mark.parametrize(
    "sabotage,argv,message",
    [
        (_corrupt_den_after_pivot, ["max", "{path}", "--weights", "1,1,1,1"],
         "integer pivot lost exactness"),
        (_unbounded_solve, ["lambda-star", "{nonsys}"], "packing LP ended unbounded"),
        (_overstated_packing, ["lambda-star", "{nonsys}", "--symbol", "2"],
         "witness failed validation"),
        (_overstated_packing, ["check", "{path}", "--demand", "1,1,1,2"],
         "witness failed validation"),
        (_overstated_matching, ["stats", "{path}"],
         "matching witness failed validation"),
        (_dropped_transversal_vertex, ["stats", "{path}"],
         "transversal witness failed validation"),
        (_wrong_binomial, ["m3", "-r", "4"], "non-integer triple count"),
        (_overstated_cover, ["lambda-star", "{path}", "--symbol", "1"],
         "node prices failed validation: prices cost 3, not the value 4"),
        (_shifted_unit_columns, ["delta", "{path}"],
         "witness failed validation: witness is worth 5/2, not the value 3"),
        (_zeroed_price, ["max", "{ham42}", "--weights", ",".join(["1"] * 11)],
         "node prices failed validation: prices on (3,) do not cover symbol 1's weight"),
        (_zeroed_shared_price, ["subset", "{path}", "--symbols", "a,b"],
         "node prices failed validation: prices on (1, 4, 6) do not cover symbol 1's weight"),
    ],
    ids=["pivot-exactness", "non-optimal-lp", "lambda-witness", "member-witness",
         "stats-witness", "stats-transversal", "m3-count", "lambda-prices",
         "lambda-unit-column", "sum-rate-prices", "subset-prices"],
)
def test_internal_invariant_failure_exits_4(
    tmp_path, capsys, monkeypatch, sabotage, argv, message
):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    ham42 = tmp_path / "ham42.json"
    assert cli.main(["gen", "-r", "4", "-q", "2", "--out", str(ham42)]) == 0
    nonsys = nonsys_file(tmp_path)
    sabotage(monkeypatch)
    rc, out, err = run_cli(
        capsys, *[a.format(path=path, ham42=ham42, nonsys=nonsys) for a in argv]
    )
    assert (rc, out) == (4, "")
    assert err.startswith("internal error: ") and message in err
    assert err.count("\n") == 1


def test_pivot_env_ceiling_exits_3(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "1")
    rc, _, err = run_cli(capsys, "check", path, "--demand", "1,1,1,2")
    assert rc == 3


def test_negative_env_pivot_ceiling_exits_2(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    monkeypatch.setenv(lp.PIVOT_LIMIT_ENV, "-5")
    rc, out, err = run_cli(capsys, "check", path, "--demand", "1,1,1,2")
    assert (rc, out) == (2, "")
    assert f"bad {lp.PIVOT_LIMIT_ENV} value '-5'" in err


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "-r", "3", "-q", "2")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(["stats", path, "--out", str(out_a)]) == 0
    assert cli.main(["stats", path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
