"""Command-line surface.

Subcommands: gen, import, recovery, stats, check, max, lambda-star, delta,
subset, waterfill, m3, verify, slice.  Output is canonical JSON (CSV for
slice) on stdout or --out; identical invocations produce byte-identical
output.  Rationals are serialized as exact "p/q" strings, never floats.

Exit codes: 0 for a completed computation (including "not a member" answers,
which are data), 2 for input or validation problems (a bad
``SRRHAM_PIVOT_LIMIT`` value or an ``--out`` that cannot be written among
them), 3 when a resource ceiling (LP pivots, waterfilling events, the
estimated work of an enumeration, of a ``slice`` grid or of building a code)
aborts the run, and 4 when an internal invariant fails (a solver witness or
exactness check: a bug, not bad input).  The LP pivot ceiling has no
option: ``lp`` reads it from ``SRRHAM_PIVOT_LIMIT``.

The module top imports only the standard library: each command imports the
package modules it runs, so ``--help`` loads none of them, and ``gen``,
``import`` and ``recovery`` never load the solver.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    from . import codes, srr


def _load_code(path: str) -> codes.LinearCode:
    """The code document at ``path``: a JSON object with 'generator' and 'q',
    and optionally a 'parity_check' that must match G, checked in full."""
    from . import codes

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "generator" not in data or "q" not in data:
        raise ValueError(f"{path}: expected a JSON object with 'generator' and 'q'")
    return codes.code_from_json_dict(data)


def _symbol_token(token: str, k: int) -> int:
    """A data symbol given as a 1-based index of ASCII digits or as one ASCII
    letter (a=1, b=2, ...).  ``int`` and ``str.isalpha`` accept far more
    ('٣', '1_0', '+3', 'é'), so both are checked against ASCII first."""
    tok = token.strip()
    if len(tok) == 1 and tok.isascii() and tok.isalpha():
        idx = ord(tok.lower()) - ord("a") + 1
    elif tok.isascii() and tok.isdigit():
        idx = int(tok)
    else:
        raise ValueError(f"bad symbol token {token!r}")
    if not 1 <= idx <= k:
        raise ValueError(f"symbol {token!r} out of range 1..{k}")
    return idx


def _symbols_arg(text: str, k: int) -> list[int]:
    return [_symbol_token(t, k) for t in text.split(",")]


def _rationals(text: str) -> list[Fraction]:
    """Comma-separated exact rationals, as ``--demand`` and ``--weights`` take."""
    from .fields import parse_rational

    return [parse_rational(t) for t in text.split(",")]


def _load_instance(args) -> srr.SrrInstance:
    """The code file ``args.code`` as a region instance at ``args.capacity``."""
    from . import srr
    from .fields import parse_rational

    return srr.SrrInstance.for_code(_load_code(args.code), parse_rational(args.capacity))


def _hamming(args) -> codes.LinearCode:
    """Ham(args.r, args.q) in the layout that ``args.systematic`` picks, after
    checking its generator's size against ``codes.CODE_ENTRY_LIMIT``.  The
    size comes first: a primality test of a huge q would not finish."""
    from . import codes

    r, q = args.r, args.q
    if q < 2:
        raise ValueError(f"q must be prime, got {q}")
    if r >= 2:
        codes.check_code_entries(r, q)
    build = codes.systematic_hamming if args.systematic else codes.classic_hamming
    return build(r, q)


def _cmd_gen(args) -> dict:
    return _hamming(args).to_json_dict()


def _cmd_import(args) -> dict:
    return _load_code(args.file).to_json_dict()


def _cmd_recovery(args) -> dict:
    from . import recovery

    code = _load_code(args.code)
    system = recovery.build_recovery_system(code)
    return system.to_json_dict()


def _cmd_stats(args) -> dict:
    from . import hypergraph as hg, recovery

    code = _load_code(args.code)
    system = recovery.build_recovery_system(code)
    graph = hg.from_recovery_system(system)
    if args.symbols is not None:
        graph = hg.partial_hypergraph(graph, _symbols_arg(args.symbols, code.k))
    return hg.compute_stats(graph).to_json_dict()


def _cmd_check(args) -> dict:
    from . import srr

    instance = _load_instance(args)
    member, allocation = srr.membership(instance, _rationals(args.demand))
    out = {"member": member}
    out["allocation"] = allocation.to_json_list() if member else None
    return out


def _cmd_max(args) -> dict:
    from . import srr
    from .fields import format_rational

    instance = _load_instance(args)
    value, demand, allocation = srr.max_objective(instance, _rationals(args.weights))
    return {
        "value": format_rational(value),
        "demand": [format_rational(x) for x in demand],
        "allocation": allocation.to_json_list(),
    }


def _cmd_lambda_star(args) -> dict:
    from . import srr
    from .fields import format_rational

    instance = _load_instance(args)
    if args.symbol is not None:
        i = _symbol_token(args.symbol, instance.code.k)
        value = srr.lambda_star(instance, i)
        return {"symbol": i, "value": format_rational(value)}
    stars = srr.lambda_star_vector(instance)
    return {"values": [format_rational(x) for x in stars]}


def _cmd_delta(args) -> dict:
    from . import srr
    from .fields import format_rational

    instance = _load_instance(args)
    return {"delta": format_rational(srr.delta_simplex(instance))}


def _cmd_subset(args) -> dict:
    from . import srr

    instance = _load_instance(args)
    subset = _symbols_arg(args.symbols, instance.code.k)
    return srr.subset_bound(instance, subset).to_json_dict()


def _cmd_waterfill(args) -> dict:
    from . import srr
    from .fields import format_rational

    instance = _load_instance(args)
    allocation, served, residual = srr.waterfill(
        instance, _rationals(args.demand), args.max_events
    )
    return {
        "allocation": allocation.to_json_list(),
        "served": [format_rational(x) for x in served],
        "residual": [format_rational(x) for x in residual],
    }


def _cmd_m3(args) -> dict:
    from . import srr

    srr.check_m3_budget(args.r)
    closed = srr.m3_closed_form(args.r)
    brute = srr.m3_brute(args.r)
    return {"r": args.r, "closed_form": closed, "brute": brute, "match": closed == brute}


def _cmd_verify(args) -> dict:
    from . import srr

    if args.code is not None:
        code = _load_code(args.code)
    elif args.r is None or args.q is None:
        raise ValueError("verify needs either --code FILE or -r and -q")
    else:
        code = _hamming(args)
    return srr.verify_report(code, args.seed, args.samples)


def _cmd_slice(args) -> str:
    from fractions import Fraction

    from . import srr
    from .errors import WorkLimitError
    from .fields import format_rational, parse_rational

    instance = _load_instance(args)
    k = instance.code.k
    axes = _symbols_arg(args.axes, k)
    if len(set(axes)) != len(axes):
        raise ValueError("axes must be distinct")
    fixed: dict[int, Fraction] = {}
    if args.fix is not None:
        for part in args.fix.split(","):
            if "=" not in part:
                raise ValueError(f"bad --fix assignment {part!r}")
            sym, val = part.split("=", 1)
            fixed[_symbol_token(sym, k)] = parse_rational(val)
    overlap = set(axes) & set(fixed)
    if overlap:
        raise ValueError(f"symbols {sorted(overlap)} both axis and fixed")
    maximum = parse_rational(args.max)
    step = parse_rational(args.step)
    if step <= 0 or maximum < 0:
        raise ValueError("--step must be positive and --max nonnegative")
    count = maximum // step + 1
    points = count ** len(axes)
    if points > srr.SLICE_POINT_LIMIT:
        raise WorkLimitError(
            "slice needs", "membership LPs", srr.SLICE_POINT_LIMIT, points
        )
    ticks = [step * t for t in range(count)]
    lines = [",".join([f"lambda_{i}" for i in range(1, k + 1)] + ["member"])]
    demand = [fixed.get(i, Fraction(0)) for i in range(1, k + 1)]
    for point in itertools.product(ticks, repeat=len(axes)):
        for axis, t in zip(axes, point):
            demand[axis - 1] = t
        member, _ = srr.membership(instance, tuple(demand))
        row = [format_rational(x) for x in demand] + ["1" if member else "0"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srrham",
        description=(
            "Construct q-ary Hamming storage codes, enumerate their recovery "
            "systems, and query the exact service rate region."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("code", help="code JSON file (from gen or import)")
    common.add_argument("--out", help="write output here instead of stdout")
    region = argparse.ArgumentParser(add_help=False, parents=[common])
    region.add_argument("--capacity", default="1")

    p = sub.add_parser("gen", help="construct a Hamming code")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument(
        "--systematic",
        action="store_true",
        help="standard form [I_k | P] (default: counting-ordered layout)",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("import", help="validate an external generator matrix")
    p.add_argument("file", help="JSON file with 'generator' and 'q'")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser(
        "recovery", parents=[common], help="enumerate the minimum recovery system"
    )
    p.set_defaults(func=_cmd_recovery)

    p = sub.add_parser(
        "stats", parents=[common], help="matching/transversal/fractional numbers"
    )
    p.add_argument("--symbols", help="restrict to these data symbols (partial)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("check", parents=[region], help="is a demand vector servable?")
    p.add_argument("--demand", required=True, help='rates like "1,1,1/3,2"')
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "max", parents=[region], help="maximize a weighted sum of service rates"
    )
    p.add_argument("--weights", required=True)
    p.set_defaults(func=_cmd_max)

    p = sub.add_parser(
        "lambda-star", parents=[region], help="largest single-object rate"
    )
    p.add_argument("--symbol", help="one symbol (default: all)")
    p.set_defaults(func=_cmd_lambda_star)

    p = sub.add_parser(
        "delta", parents=[region], help="largest uniform simplex in the region"
    )
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser(
        "subset", parents=[region], help="ceiling on a subset's total rate"
    )
    p.add_argument("--symbols", required=True, help='e.g. "a,b,c" or "1,2,3"')
    p.set_defaults(func=_cmd_subset)

    p = sub.add_parser(
        "waterfill", parents=[region], help="greedy request-splitting allocation"
    )
    p.add_argument("--demand", required=True)
    p.add_argument("--max-events", type=int)
    p.set_defaults(func=_cmd_waterfill)

    p = sub.add_parser("m3", help="triples whose pairwise sums close at 3")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_m3)

    p = sub.add_parser("verify", help="machine-check every law on one code")
    p.add_argument("-r", type=int)
    p.add_argument("-q", type=int)
    p.add_argument("--systematic", action="store_true")
    p.add_argument("--code", help="verify this code file instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "slice", parents=[region], help="CSV membership grid over chosen axes"
    )
    p.add_argument("--axes", required=True, help='e.g. "a,b,c"')
    p.add_argument("--fix", help='e.g. "d=0,e=1/2"')
    p.add_argument("--max", required=True)
    p.add_argument("--step", required=True)
    p.set_defaults(func=_cmd_slice)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .errors import EventLimitError, InvariantError, PivotLimitError, WorkLimitError

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.func(args)
        if not isinstance(payload, str):
            payload = json.dumps(payload, indent=2) + "\n"
        if getattr(args, "out", None) is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except (PivotLimitError, EventLimitError, WorkLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:  # a ValueError, so it must come first
        print(f"error: bad JSON input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
