"""srrham benchmark: entry point.

    python3 bench/run.py --workload probe --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, seed 0

Each run of a workload starts ``bench/worker.py`` in a fresh interpreter
(cold ``lru_cache``s, its own peak memory), one run at a time, with
``SRRHAM_PIVOT_LIMIT`` and ``PYTHONHASHSEED`` removed from its environment.
A wall-clock guard kills an overrunning worker and counts the run as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
passes untraced and then the same passes traced, checks that both give the
same value digest, and reports the per-layer metrics plus
``bench.trace_overhead``.  See ``bench/README.md`` for the workloads.

Human-readable lines start with ``#``; the last stdout line is the JSON
result.  The exit code is 0 only if every answer passed its checks and, for
the default seed, every digest matched ``bench/golden.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("probe", "extremes", "scrambled", "cli")
DEFAULT_SEED = 0
DEADLINE_S = 170.0  # one invocation of one workload must end within 180 s


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu}"


def run_worker(workload, seed, seconds, budget, passes=None, spans=None) -> dict:
    """One worker process; returns its summary, or a failure summary."""
    env = dict(os.environ)
    env.pop("SRRHAM_PIVOT_LIMIT", None)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--out-dir", str(OUT)]
    if passes is not None:
        argv += ["--passes", str(passes)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"worker overran its {budget:.0f} s guard and was killed"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {err.decode()[-2000:]}"}
    summary = json.loads(lines[-1])
    if Path(summary["srrham"]) != (ROOT / "src" / "srrham").resolve():
        return {"error": f"imported srrham from {summary['srrham']}, not from this checkout"}
    return summary


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(s: dict) -> list[tuple]:
    """(name, value, unit, samples, note) for each end-to-end metric."""
    lat = s["latencies"]
    tail_value, tail_pct = tail(lat)
    return [
        ("setup_s", statistics.median(s["setup_s"]), "s", len(s["setup_s"]), "median"),
        ("pass_s", statistics.median(s["pass_run_s"]), "s", s["passes"], "median pass"),
        ("queries_per_s", statistics.median(s["pass_qps"]), "1/s", len(lat), "median pass"),
        ("query_p50_s", statistics.median(lat), "s", len(lat), ""),
        ("query_tail_s", tail_value, "s", len(lat), f"p{tail_pct:.1f}"),
        ("peak_rss_mb", s["peak_rss_mb"], "MB", 1, ""),
    ]


LAYER_SPANS = {
    "codes.import_s": "codes.import",
    "codes.construct_s": "codes.construct",
    "codes.dual_s": "codes.dual",
    "recovery.build_s": "recovery.build",
    "lp.build_s": "lp.build",
    "lp.feasible_s": "lp.feasible",
    "lp.solve_s": "lp.solve",
    "srr.membership_s": "srr.membership",
    "srr.max_objective_s": "srr.max_objective",
    "srr.max_served_s": "srr.max_served",
    "srr.waterfill_s": "srr.waterfill",
    "srr.validate_s": "srr.validate",
    "hypergraph.matching_s": "hypergraph.matching",
    "hypergraph.transversal_s": "hypergraph.transversal",
    "hypergraph.fractional_s": "hypergraph.fractional",
    "cli.main_s": "cli.main",
}
LAYER_CALLS = {
    "codes.import_calls": "codes.import",
    "recovery.build_calls": "recovery.build",
    "lp.build_calls": "lp.build",
    "lp.feasible_calls": "lp.feasible",
    "lp.solve_calls": "lp.solve",
    "srr.membership_calls": "srr.membership",
    "srr.max_objective_calls": "srr.max_objective",
    "srr.max_served_calls": "srr.max_served",
    "srr.waterfill_calls": "srr.waterfill",
    "srr.validate_calls": "srr.validate",
}
LAYERS = ("codes", "recovery", "lp", "srr", "hypergraph", "cli")


def per_layer(spans_path: Path, traced: dict, plain: dict) -> list[tuple]:
    """Per-pass layer times and counts from the traced run's spans."""
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child_s[sp["parent"]] += sp["end"] - sp["start"]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    attrs: dict[str, float] = {"sets": 0, "nonzeros": 0, "members": 0, "edges": 0}
    rows_max = cols_max = 0
    for sp in spans:
        name, dur = sp["name"], sp["end"] - sp["start"]
        busy[name] = busy.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_s[name.split(".")[0]] += dur - child_s[sp["id"]]
        a = sp["attrs"] or {}
        attrs["sets"] += a.get("sets", 0)
        attrs["nonzeros"] += a.get("nonzeros", 0)
        attrs["members"] += a.get("member", False)
        attrs["edges"] += a.get("edges", 0)
        rows_max = max(rows_max, a.get("rows", 0))
        cols_max = max(cols_max, a.get("cols", 0))
    passes = traced["passes"]
    extra = traced["extra"]
    main_s = busy.get("cli.main", 0.0)
    subprocess_s = sum(e.get("cli.subprocess_s", 0.0) for e in extra)
    out = [(name, busy.get(span, 0.0) / passes, "s") for name, span in LAYER_SPANS.items()]
    out += [(name, calls.get(span, 0) / passes, "count") for name, span in LAYER_CALLS.items()]
    out += [(f"{layer}.self_s", self_s[layer] / passes, "s") for layer in LAYERS]
    out += [
        ("recovery.sets", attrs["sets"] / passes, "count"),
        ("lp.cols_max", cols_max, "count"),
        ("lp.rows_max", rows_max, "count"),
        ("lp.nonzeros", attrs["nonzeros"] / passes, "count"),
        ("srr.members", attrs["members"] / passes, "count"),
        ("hypergraph.edges", attrs["edges"] / passes, "count"),
        ("cli.startup_s", (subprocess_s - main_s) / passes if main_s else 0.0, "s"),
        ("cli.out_bytes", sum(e.get("cli.out_bytes", 0.0) for e in extra) / passes, "bytes"),
        ("bench.trace_overhead", sum(traced["pass_run_s"]) / sum(plain["pass_run_s"]), "ratio"),
    ]
    return out


def golden() -> dict:
    return json.loads((BENCH / "golden.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run one workload; returns attempted/failed/metrics/problems/rows."""
    problems: list[str] = []
    if trace:
        plain = run_worker(workload, seed, seconds / 2, deadline - monotonic())
        summaries = [plain]
        if "error" not in plain:
            spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
            traced = run_worker(workload, seed, seconds, deadline - monotonic(),
                                passes=plain["passes"], spans=spans)
            summaries.append(traced)
    else:
        summaries = [run_worker(workload, seed, seconds, deadline - monotonic())]
    for s in summaries:
        if "error" in s:
            problems.append(s["error"])
        else:
            problems += s["failures"]
    attempted = sum(s.get("attempted", 0) for s in summaries) or 1
    failed = sum(s.get("failed", 0) for s in summaries)
    if problems and failed == 0:
        failed = 1
    result = {"attempted": attempted, "failed": failed, "rows": [], "digest": None}
    if any("error" in s for s in summaries):
        result["problems"] = problems
        return result
    result["digest"] = summaries[0]["digest"]
    if any(s["digest"] != result["digest"] for s in summaries):
        problems.append("traced and untraced value digests differ")
        result["failed"] += 1
    if any(s["raw_sha"] != summaries[0]["raw_sha"] for s in summaries):
        problems.append("raw program output differs between the two runs")
        result["failed"] += 1
    if seed == DEFAULT_SEED and result["digest"] != golden().get(workload):
        problems.append(f"digest {result['digest']} != golden {golden().get(workload)}")
        result["failed"] += 1
    if trace:
        result["rows"] = [(n, v, u, summaries[1]["passes"], "per pass")
                          for n, v, u in per_layer(spans, summaries[1], summaries[0])]
    else:
        result["rows"] = end_to_end(summaries[0])
    result["problems"] = problems
    result["passes"] = summaries[-1]["passes"]
    result["once_setup_s"] = summaries[0]["extra"][0].get("once_setup_s")
    return result


def report(workload: str, seed: int, result: dict) -> None:
    print(f"# workload {workload} seed {seed} passes {result.get('passes', 0)} {machine()}")
    for name, value, unit, samples, note in result["rows"]:
        print(f"#   {workload:9s} {name:26s} {value:14.6f} {unit:6s} n={samples:<5d} {note}")
    print(f"#   {workload:9s} {'failed_frac':26s} {result['failed'] / result['attempted']:14.6f} "
          f"{'ratio':6s} n={result['attempted']}")
    if result.get("once_setup_s") is not None:
        print(f"#   {workload:9s} {'setup_once_s':26s} {result['once_setup_s']:14.6f} {'s':6s} n=1     "
              "pass 0 only, not a metric")
    print(f"#   {workload:9s} digest {result['digest']}")
    for problem in result["problems"][:10]:
        print(f"#   FAILED {workload}: {problem.strip()}".replace("\n", "\n#     "))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "srrham" / "__init__.py").is_file():
        print(f"error: no srrham sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        # An 'all' run has no overall deadline; each workload gets a fresh one.
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                              monotonic() + DEADLINE_S)
        report(workload, args.seed, result)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value, unit, _, _ in result["rows"]:
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
