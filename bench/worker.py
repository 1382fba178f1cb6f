"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` (never imported by it).  The run repeats *passes* of
the workload: each pass draws its inputs from (seed, workload, pass index),
sets up cold, runs its queries one at a time (a closed loop with a single
client) and checks every answer.  Passes go on for about ``--seconds``
unless ``--passes`` fixes their number.  The last stdout line is a JSON
summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
from inputs import pass_rng, scramble, straddling_demand
from tracer import Tracer

from srrham import cli, codes, recovery, srr
from srrham import hypergraph as hg

# Held before any tracing rebinds the module attributes.
_COLD_CACHES = (codes.systematic_hamming, codes.classic_hamming, codes.dual_codewords)
SETUP_ROUNDS = 5
ONE = Fraction(1)


def clear_caches() -> None:
    for cached in _COLD_CACHES:
        cached.cache_clear()


class Pass:
    """Timings, failures and digest values of one pass."""

    def __init__(self, ctx: "Context", index: int) -> None:
        self.ctx = ctx
        self.index = index
        self.setup: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed: set = set()  # query indices, or failure messages not tied to one
        self.values: list = []
        self.check_s = 0.0
        self.run_s = 0.0
        self.wall_s = 0.0
        self.extra: dict[str, float] = {}
        self.raw = hashlib.sha256()  # raw program output, where a workload keeps it

    def query(self, label: str, call, check=None):
        """Time one query; run its check untimed.  Returns the answer or None."""
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.query = f"{self.index}:{len(self.latencies)}"
        start = perf_counter()
        try:
            answer = call()
        except Exception:
            self.latencies.append(perf_counter() - start)
            self.fail(label, [traceback.format_exc(limit=3)])
            return None
        finally:
            if tracer is not None:
                tracer.query = None
        self.latencies.append(perf_counter() - start)
        if check is not None:
            problems = self.untimed(check, answer)
            if problems:
                self.fail(label, problems)
                return None
        return answer

    def untimed(self, fn, *args):
        """Run benchmark-side work excluded from the pass time and the trace."""
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.paused = True
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.check_s += perf_counter() - start
            if tracer is not None:
                tracer.paused = False

    def fail(self, label: str, problems: list[str], query: bool = True) -> None:
        """Record problems against the latest query (or against none)."""
        if problems:
            message = f"{label}: {'; '.join(problems)}"
            self.failures.append(message)
            self.failed.add(len(self.latencies) - 1 if query and self.latencies else message)


class Context:
    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.after_run: list = []  # untimed checks run once all passes end
        self.state: dict = {}


def setup_instances(p: Pass, docs: list[dict]) -> list:
    """SETUP_ROUNDS cold set-ups of every code; each round is one sample."""
    instances = []
    for _ in range(SETUP_ROUNDS):
        clear_caches()
        start = perf_counter()
        instances = [
            srr.SrrInstance.for_code(codes.code_from_json_dict(doc)) for doc in docs
        ]
        p.setup.append(perf_counter() - start)
    return instances


def witness(code, instance) -> checks.WitnessChecker:
    return checks.WitnessChecker(
        code.generator.to_lists(), code.q, instance.system.per_symbol, instance.capacity
    )


# --- probe -----------------------------------------------------------------

# Demand totals as shares of the sum-rate: four inside the region, two outside.
# The boundary of these directions lies at 75-85%.  Waterfill runs away
# (10,000 events, about 70 s, then EventLimitError) on roughly 1 in 200
# demands within that band, so draws keep clear of 70-95%.
PROBE_SLOTS = ((Fraction(40, 100), Fraction(70, 100)),) * 4 + (
    (Fraction(95, 100), Fraction(125, 100)),) * 2


def _uniform_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randrange(0, 1001), 1000)


def probe_pass(p: Pass) -> None:
    """Membership plus waterfill on random demands straddling the region
    boundary of systematic Ham(4,2) (99 set variables).

    Ham(5,2) was the first choice, but its non-member phase-1 LPs take
    0.3-12 s each depending on the draw, so a 20 s run held 12-24 queries and
    its figures moved by 40-100% between seeds.  Members are two thirds of the
    draws, so the median sits among members and the tail among non-members.
    """
    rng = pass_rng(p.ctx.seed, "probe", p.index)
    clear_caches()
    doc = codes.systematic_hamming(4, 2).to_json_dict()
    (instance,) = setup_instances(p, [doc])
    code = instance.code
    check = p.untimed(witness, code, instance)
    slots = list(PROBE_SLOTS)
    rng.shuffle(slots)
    for lo, hi in slots:
        demand = straddling_demand(code.k, code.k * _uniform_fraction(rng, lo, hi), rng)

        def run(demand=demand):
            return srr.membership(instance, demand), srr.waterfill(instance, demand)

        def verify(answer, demand=demand):
            (member, allocation), (fill, served, residual) = answer
            problems = []
            if member:
                problems += check.allocation(allocation.weights, demand=demand)
            problems += check.allocation(fill.weights, demand=served)
            problems += checks.expect(
                all(s + r == d for s, r, d in zip(served, residual, demand)),
                "waterfill served + residual != demand",
            )
            problems += checks.expect(
                member or any(residual), "waterfill served a non-member in full"
            )
            return problems

        answer = p.query("probe", run, verify)
        if answer is not None:
            (member, _), (_, served, residual) = answer
            p.values.append([member, served, residual])


# --- extremes --------------------------------------------------------------

# Ham(6,2) lambda* costs 1.6 s for symbol 1, 2.2 s for symbol 2, and grows
# with the symbol index (3.0 s at 4, 14.5 s at 41).  A run makes one such
# query, in pass 0, for a seeded one of symbols 1-2.
HAM62_SYMBOLS = (1, 2)
# Ham(4,3) lambda* costs 0.31-0.42 s for symbols 1-10 and 0.45-1.0 s for the
# rest, scattered by symbol; passes draw two of symbols 1-10 so that every
# pass does about the same work and the medians and tail sit in one cluster.
HAM43_SYMBOLS = tuple(range(1, 11))
# Demands inside the region and subsets of 2-3 symbols: outside demands and
# larger subsets take 0.2-3.7 s with erratic pivot counts, which moved a 20 s
# run's figures by 40% between seeds.
SERVED_TOTAL = (Fraction(35, 100), Fraction(65, 100))
SUBSET_SIZES = (2, 3)


def extremes_pass(p: Pass) -> None:
    """Optimisation LPs (<= rows only, no phase 1) on the widest tableaux:
    sum-rate, max_served and subset_bound on Ham(5,2), lambda* on Ham(4,3)
    and, once per run, on Ham(6,2)."""
    rng = pass_rng(p.ctx.seed, "extremes", p.index)
    if "extremes" not in p.ctx.state:
        run_rng = pass_rng(p.ctx.seed, "extremes", "run")
        sym43 = list(HAM43_SYMBOLS)
        run_rng.shuffle(sym43)
        p.ctx.state["extremes"] = (sym43, run_rng.choice(HAM62_SYMBOLS))
    sym43, sym62 = p.ctx.state["extremes"]
    clear_caches()
    docs = [codes.systematic_hamming(r, q).to_json_dict() for r, q in ((5, 2), (4, 3), (6, 2))]
    i52, i43, i62 = setup_instances(p, docs)
    c52 = p.untimed(witness, i52.code, i52)
    k = i52.code.k

    def total_ok(answer):
        value, allocation = answer[0], answer[-1]
        return c52.allocation(allocation.weights) + checks.expect(
            sum(allocation.weights.values()) == value, "witness total != value")

    answer = p.query("sum_rate", lambda: srr.max_objective(i52, [ONE] * k),
                     lambda a: total_ok(a) + checks.expect(a[0] == k, f"sum-rate {a[0]} != k = {k}"))
    p.values.append(["sum_rate", answer[0] if answer else None])

    for _ in range(2):
        demand = straddling_demand(k, k * _uniform_fraction(rng, *SERVED_TOTAL), rng)
        answer = p.query("max_served", lambda d=demand: srr.max_served(i52, d),
                         lambda a, d=demand: total_ok(a) + c52.allocation(a[1].weights, upper=d))
        best = answer[0] if answer else None
        if best is not None:
            _, served, _ = p.untimed(srr.waterfill, i52, demand)
            p.fail("max_served", checks.expect(best >= sum(served), "max_served below the waterfill total"))
        p.values.append(["max_served", best])

    for _ in range(2):
        subset = tuple(sorted(rng.sample(range(1, k + 1), rng.choice(SUBSET_SIZES))))
        answer = p.query("subset_bound", lambda s=subset: srr.subset_bound(i52, s),
                         lambda a: checks.expect(a.tight, f"subset {a.subset} not tight"))
        p.values.append(["subset", subset, answer.computed if answer else None])

    picks = [(i43, sym43[(2 * p.index + j) % len(sym43)]) for j in range(2)]
    if p.index == 0:
        picks.append((i62, sym62))
    for inst, symbol in picks:
        q = inst.code.q
        expected = 1 + Fraction(q, q - 1)
        answer = p.query("lambda_star", lambda i=inst, s=symbol: srr.lambda_star(i, s),
                         lambda a, e=expected: checks.expect(a == e, f"lambda* {a} != {e}"))
        p.values.append(["lambda_star", inst.code.r, q, symbol, answer])


# --- scrambled -------------------------------------------------------------

# (r, q, memberships) per generator.  Every pass scrambles four Ham(3,2)
# generators and one Ham(4,2), so the median query sits among the Ham(3,2)
# LPs and each pass does about the same work.  Pass 0 also scrambles one
# Ham(3,3), whose set-up alone takes 6-8 s: with one in every pass a 28 s run
# held two passes, and its medians moved by 30% with the machine's speed.
# Its twenty memberships (33-51 ms each) give the tail a dense cluster.
# Non-member phase-1 LPs on some scrambles take 45-450 ms, so demands stay
# inside the region.
SCRAMBLED_CODES = ((3, 2, 2),) * 4 + ((4, 2, 2),)
SCRAMBLED_ONCE = ((3, 3, 20),)
SCRAMBLED_TOTAL = (Fraction(3, 10), Fraction(6, 10))


def scrambled_pass(p: Pass) -> None:
    """Random equivalent non-systematic generators: exhaustive recovery search
    and brute-force distance dominate; the LPs are tiny."""
    rng = pass_rng(p.ctx.seed, "scrambled", p.index)
    plan = SCRAMBLED_CODES + (SCRAMBLED_ONCE if p.index == 0 else ())

    def scrambled_inputs():
        return [(scramble(codes.systematic_hamming(r, q).generator.to_lists(), q, rng), q)
                for r, q, _ in plan]

    def set_up(inputs):
        return [srr.SrrInstance.for_code(codes.import_generator(g, q)) for g, q in inputs]

    inputs = p.untimed(scrambled_inputs)
    clear_caches()
    start = perf_counter()
    instances = set_up(inputs[:len(SCRAMBLED_CODES)])
    p.setup.append(perf_counter() - start)
    if len(plan) > len(SCRAMBLED_CODES):
        start = perf_counter()
        instances += set_up(inputs[len(SCRAMBLED_CODES):])
        p.extra["once_setup_s"] = perf_counter() - start
    for (g, q), instance, (_, _, memberships) in zip(inputs, instances, plan):
        code = instance.code
        p.fail("import", checks.expect(code.systematic_positions is None, "scrambled code is systematic"),
               query=False)
        check = p.untimed(witness, code, instance)
        p.ctx.after_run.append(instance.system)
        stats = p.query("stats", lambda i=instance: hg.compute_stats(hg.from_recovery_system(i.system)),
                        lambda a: checks.expect(a.nu <= a.mu_f <= a.tau, "nu <= mu_f <= tau fails"))
        total = p.query("sum_rate", lambda i=instance: srr.max_objective(i, [ONE] * code.k),
                        lambda a: check.allocation(a[2].weights)
                        + checks.expect(sum(a[2].weights.values()) == a[0], "witness total != value"))
        if stats is not None and total is not None:
            p.fail("sum_rate", checks.expect(total[0] == stats.mu_f, "sum-rate != mu_f"))
        stars = [
            p.query("lambda_star", lambda i=instance, s=s: srr.lambda_star(i, s),
                    lambda a: checks.expect(a >= 1, f"lambda* {a} < 1"))
            for s in range(1, code.k + 1)
        ]
        verdicts = []
        for _ in range(memberships):
            scale = _uniform_fraction(rng, *SCRAMBLED_TOTAL)
            demand = straddling_demand(code.k, (total[0] if total else code.k) * scale, rng)
            answer = p.query("membership", lambda i=instance, d=demand: srr.membership(i, d),
                             lambda a, d=demand: check.allocation(a[1].weights, demand=d) if a[0] else [])
            verdicts.append(answer[0] if answer else None)
        p.values.append([
            g, instance.system.per_symbol,
            [stats.nu, stats.tau, stats.mu_f] if stats else None,
            total[0] if total else None, stars, verdicts,
        ])


def validate_systems(ctx: Context) -> list[str]:
    problems = []
    for system in ctx.after_run:
        try:
            recovery.validate_recovery_system(system)
        except ValueError as exc:
            problems.append(f"validate_recovery_system: {exc}")
    return problems


# --- cli -------------------------------------------------------------------


def _cli_script(work: Path, seed: int) -> tuple[list[tuple], dict]:
    """(label, argv, name to save the parsed output under, check, digest
    fields) per command, and the dict the saved outputs go into."""
    rng = pass_rng(seed, "cli", "run")
    scr = work / "scr32_in.json"
    base = codes.systematic_hamming(3, 2).generator.to_lists()
    scr.write_text(json.dumps({"q": 2, "generator": scramble(base, 2, rng)}))
    f = {name: str(work / f"{name}.json") for name in ("h32", "h42", "h33", "scr32")}

    def demand(k, lo, hi):
        return ",".join(str(x) for x in straddling_demand(k, k * _uniform_fraction(rng, lo, hi), rng))

    demand32 = demand(4, Fraction(1, 2), Fraction(6, 5))
    demand33 = demand(10, Fraction(2, 5), Fraction(1))
    # Inside the region and clear of the band where waterfill runs away.
    demand42 = demand(11, *PROBE_SLOTS[0])
    subset42 = ",".join(str(s) for s in sorted(rng.sample(range(1, 12), 3)))
    saved: dict = {}

    def code_file(q, systematic):
        return lambda o: checks.expect(o["q"] == q and (o["systematic_positions"] is None) != systematic,
                                       "unexpected code file")

    def sets_recover(name):
        return lambda o: [f"set {m} does not recover {s['index']}"
                          for s in o["symbols"] for m in s["sets"]
                          if not checks.recovers(saved[name]["generator"], saved[name]["q"], m, s["index"])]

    def member_ok(name, text):
        def check(o):
            if not o["member"]:
                return []
            code = saved[name]
            sets = [[tuple(m) for m in s["sets"]] for s in saved[f"rec_{name}"]["symbols"]]
            weights = {(a["symbol"], tuple(a["set"])): Fraction(a["weight"]) for a in o["allocation"]}
            return checks.WitnessChecker(code["generator"], code["q"], sets).allocation(
                weights, demand=[Fraction(x) for x in text.split(",")])
        return check

    def sandwich(o):
        return checks.expect(o["nu"] <= Fraction(o["mu_f"]) <= o["tau"], "nu <= mu_f <= tau fails")

    def fill_ok(o):
        return checks.expect(all(Fraction(s) + Fraction(r) == Fraction(d) for s, r, d in
                                 zip(o["served"], o["residual"], demand42.split(","))),
                             "served + residual != demand")

    script = [
        ("gen", ["gen", "-r", "3", "-q", "2"], "h32", code_file(2, True), None),
        ("gen", ["gen", "-r", "4", "-q", "2", "--systematic"], "h42", code_file(2, True), None),
        ("gen", ["gen", "-r", "3", "-q", "3"], "h33", code_file(3, True), None),
        ("import", ["import", str(scr)], "scr32", code_file(2, False), None),
        ("recovery", ["recovery", f["h32"]], "rec_h32", sets_recover("h32"), None),
        ("recovery", ["recovery", f["h33"]], "rec_h33", sets_recover("h33"), None),
        ("recovery", ["recovery", f["scr32"]], "rec_scr32", sets_recover("scr32"), None),
        ("stats", ["stats", f["h42"]], None, sandwich, ("nu", "tau", "mu_f")),
        ("stats", ["stats", f["scr32"], "--symbols", "a,b"], None, sandwich, ("nu", "tau", "mu_f")),
        ("check", ["check", f["h32"], "--demand", demand32], None, member_ok("h32", demand32), ("member",)),
        ("check", ["check", f["h33"], "--demand", demand33], None, member_ok("h33", demand33), ("member",)),
        ("max", ["max", f["h42"], "--weights", ",".join(["1"] * 11)], None,
         lambda o: checks.expect(o["value"] == "11", "sum-rate != 11"), ("value", "demand")),
        ("lambda-star", ["lambda-star", f["h33"]], None,
         lambda o: checks.expect(set(o["values"]) == {"5/2"}, "lambda* != 5/2"), ("values",)),
        ("delta", ["delta", f["h32"]], None,
         lambda o: checks.expect(o["delta"] == "3", "delta != 3"), ("delta",)),
        ("subset", ["subset", f["h42"], "--symbols", subset42], None,
         lambda o: checks.expect(o["tight"], "subset not tight"), ("predicted", "computed")),
        ("waterfill", ["waterfill", f["h42"], "--demand", demand42], None, fill_ok, ("served", "residual")),
        ("m3", ["m3", "-r", "5"], None, lambda o: checks.expect(o["match"], "m3 mismatch"), ("closed_form",)),
        ("verify", ["verify", "-r", "3", "-q", "2"], None,
         lambda o: checks.expect(o["all_pass"], "verify failed"), ("all_pass",)),
        ("slice", ["slice", f["h32"], "--axes", "a,b", "--fix", "c=1/2", "--max", "2", "--step", "1/2"], None,
         lambda o: checks.expect(len(o.splitlines()) == 26, "slice row count"), None),
    ]
    return script, saved


HELP_ROUNDS = 3  # cold `--help` set-up samples per pass


def cli_pass(p: Pass) -> None:
    """Every subcommand as a fresh `python -m srrham` process on small codes.
    The environment comes from run.py, which already removed
    SRRHAM_PIVOT_LIMIT and PYTHONHASHSEED and pointed PYTHONPATH at src."""
    ctx = p.ctx
    if "cli" not in ctx.state:
        work = Path(tempfile.mkdtemp(prefix="cli-", dir=ctx.state["out_dir"]))
        ctx.state["cli"] = (work, *p.untimed(_cli_script, work, ctx.seed), [])
    work, script, saved, stdout0 = ctx.state["cli"]

    def launch(argv):
        return subprocess.run([sys.executable, "-m", "srrham", *argv], cwd=work,
                              capture_output=True, timeout=120)

    for _ in range(HELP_ROUNDS):
        start = perf_counter()
        helped = launch(["--help"])
        p.setup.append(perf_counter() - start)
        p.fail("--help", checks.expect(helped.returncode == 0, "--help failed"), query=False)
    subprocess_s = out_bytes = 0.0
    for n, (label, argv, save, check, fields) in enumerate(script):
        proc = p.query(label, lambda argv=argv: launch(argv))
        if proc is None:
            continue
        subprocess_s += p.latencies[-1]
        out_bytes += len(proc.stdout)
        if ctx.tracer is not None:
            clear_caches()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv)
            p.fail(label, checks.expect(status == 0 and buf.getvalue().encode() == proc.stdout,
                                        "in-process output differs from the subprocess"))
        if proc.returncode != 0:
            p.fail(label, [f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"])
            continue
        if p.index == 0:
            stdout0.append(proc.stdout)
            p.raw.update(proc.stdout)
        elif n < len(stdout0) and proc.stdout != stdout0[n]:
            p.fail(label, ["stdout differs from the first pass"])

        def verify(out=proc.stdout, save=save, check=check, fields=fields):
            parsed = out.decode() if label == "slice" else json.loads(out)
            if save is not None:
                saved[save] = parsed
                if not save.startswith("rec_"):
                    (work / f"{save}.json").write_bytes(out)
            kept = parsed if fields is None else [parsed[k] for k in fields]
            p.values.append([label, n, kept])
            return check(parsed)

        p.fail(label, p.untimed(verify))
    p.extra = {"cli.subprocess_s": subprocess_s, "cli.out_bytes": out_bytes}


WORKLOADS = {
    "probe": probe_pass,
    "extremes": extremes_pass,
    "scrambled": scrambled_pass,
    "cli": cli_pass,
}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", type=int, default=None, help="run exactly this many passes")
    ap.add_argument("--spans", default=None, help="trace and write spans here")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    ctx = Context(args.seed, tracer)
    ctx.state["out_dir"] = str(Path(args.out_dir).resolve())
    passes: list[Pass] = []
    begin = perf_counter()
    try:
        # Without --passes, a run starts another pass while one like the last
        # would still end within --seconds, so a run lasts about --seconds
        # whatever the machine's speed.  Pass 0 may do once-per-run work, so
        # pass 1 always runs and the estimate comes from the later passes.
        while len(passes) < (args.passes or sys.maxsize):
            if args.passes is None and len(passes) > 1 and (
                    perf_counter() - begin + passes[-1].wall_s > args.seconds):
                break
            p = Pass(ctx, len(passes))
            start = perf_counter()
            WORKLOADS[args.workload](p)
            p.wall_s = perf_counter() - start
            p.run_s = p.wall_s - p.check_s
            passes.append(p)
        after = validate_systems(ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.spans)
        if "cli" in ctx.state:
            shutil.rmtree(ctx.state["cli"][0], ignore_errors=True)

    failures = [f for p in passes for f in p.failures] + after
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failed) for p in passes) + len(after)
    print(json.dumps({
        "passes": len(passes),
        "pass_run_s": [p.run_s for p in passes],
        "setup_s": [s for p in passes for s in p.setup],
        "latencies": [x for p in passes for x in p.latencies],
        "pass_qps": [len(p.latencies) / sum(p.latencies) for p in passes],
        "attempted": attempted,
        "failed": min(attempted, failed),
        "failures": failures[:20],
        "digest": checks.digest(passes[0].values),
        "raw_sha": passes[0].raw.hexdigest(),
        "extra": [p.extra for p in passes],
        "peak_rss_mb": peak_rss_mb(),
        "srrham": str(Path(srr.__file__).resolve().parent),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
