"""Span recorder that instruments srrham from outside its source tree.

``Tracer.install`` rebinds the public functions of each layer, including the
names callers look up in their own module namespace (``srr.build_recovery_
system``, the hypergraph helpers used by ``compute_stats``, ``srr.max_objective``
used by ``lambda_star``/``subset_bound``) and the methods ``LpProblem.maximize``
and ``Allocation.validate``.  Each call becomes a span (id, parent, query id,
name, start, end, attributes) kept in memory until ``write``; attributes such
as LP shape are computed there, outside the timed spans.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


def _lp_shape(args, kwargs, result) -> dict:
    problem = args[0]
    return {
        "rows": len(problem.constraints),
        "cols": problem.num_vars,
        "nonzeros": sum(1 for c in problem.constraints for v in c.coeffs if v),
    }


def _member(args, kwargs, result) -> dict:
    return {"member": bool(result[0])}


def _sets(args, kwargs, result) -> dict:
    return {"sets": result.total_sets()}


def _edges(args, kwargs, result) -> dict:
    return {"edges": len(args[0].edges)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query = None
        self.paused = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _record(self, name, fn, attrs, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self.query, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[5] = perf_counter()
            rec[4] = start
            self._stack.pop()
        if attrs is not None:
            # Evaluated in write(), so counting stays out of every open span.
            rec[6] = (attrs, args, kwargs, result)
        return result

    def _wrap(self, owner, attr, name, attrs=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            func = raw.__func__

            def call_cls(cls, *args, **kwargs):
                return self._record(name, func, attrs, (cls,) + args, kwargs)

            setattr(owner, attr, classmethod(functools.wraps(func)(call_cls)))
            return

        def call(*args, **kwargs):
            return self._record(name, raw, attrs, args, kwargs)

        setattr(owner, attr, functools.wraps(raw)(call))

    def install(self) -> None:
        from srrham import cli, codes, lp, recovery, srr
        from srrham import hypergraph as hg

        self._wrap(codes, "import_generator", "codes.import")
        self._wrap(codes, "systematic_hamming", "codes.construct")
        self._wrap(codes, "classic_hamming", "codes.construct")
        for owner in (codes, recovery):
            self._wrap(owner, "dual_codewords", "codes.dual")
        for owner in (recovery, srr):
            self._wrap(owner, "build_recovery_system", "recovery.build", _sets)
        self._wrap(lp.LpProblem, "maximize", "lp.build")
        self._wrap(lp, "check_feasible", "lp.feasible", _lp_shape)
        self._wrap(lp, "solve", "lp.solve", _lp_shape)
        self._wrap(srr.SrrInstance, "for_code", "srr.for_code")
        self._wrap(srr.Allocation, "validate", "srr.validate")
        self._wrap(srr, "membership", "srr.membership", _member)
        for attr in ("max_objective", "max_served", "waterfill", "lambda_star", "subset_bound"):
            self._wrap(srr, attr, f"srr.{attr}")
        self._wrap(hg, "compute_stats", "hypergraph.stats", _edges)
        self._wrap(hg, "matching_number", "hypergraph.matching")
        self._wrap(hg, "transversal_number", "hypergraph.transversal")
        self._wrap(hg, "fractional_matching_number", "hypergraph.fractional")
        self._wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, query, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "query": query, "name": name,
                    "start": start, "end": end, "attrs": attrs and attrs[0](*attrs[1:]),
                }) + "\n")
