"""Call tracer for the benchmark's traced run.

The tracer rebinds public claimtails functions, in every claimtails module
that holds them by name, to timing wrappers, and restores each name on exit.
Coarse functions ("span" kind) are recorded as one span per call; kernels
("kernel" kind), which can be called 10^5 times per job, are only aggregated
per (job, parent, function, tag). Everything stays in memory until
`write` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _elems(args, kwargs):
    """Element count of a kernel's second argument (x or p)."""
    return int(np.size(args[1])) if len(args) > 1 else 1


def _stage(args, kwargs):
    """Fit stage of a `mad_objective` call, from its sample's label."""
    label = args[0].label
    if label == "upper tail":
        return "upper"
    if label == "lower head":
        return "lower"
    return "base"


def _tail_k(args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return f"k{k}"


# (module, function, kind, tag extractor, element counter)
TARGETS = (
    ("core_dist", "survival", "kernel", None, _elems),
    ("core_dist", "cdf", "kernel", None, _elems),
    ("core_dist", "quantile", "kernel", None, _elems),
    ("tail_model", "adjusted_survival", "kernel", None, _elems),
    ("tail_model", "adjusted_cdf", "kernel", None, _elems),
    ("tail_model", "adjusted_quantile", "kernel", None, None),
    ("claim_process", "thinned_cdf_closed", "kernel", None, None),
    ("estimation", "mad_objective", "kernel", _stage, None),
    ("estimation", "fit_mad", "span", None, None),
    ("estimation", "fit_pipeline", "span", None, None),
    ("gof", "pareto_tail_test", "span", _tail_k, None),
    ("gof", "qq_coordinates", "span", None, None),
    ("resampling", "bootstrap_fit", "span", None, None),
    ("cli", "read_loss_csv", "span", None, None),
    ("cli", "write_json", "span", None, None),
    ("cli", "write_csv", "span", None, None),
)


class Tracer:
    """Collects spans and per-call aggregates for traced jobs.

    Aggregates map (job, parent name, name, tag) to
    [calls, inclusive s, self s, elements, calls that raised].
    """

    def __init__(self):
        self.spans: list = []
        self.agg: dict = {}
        self._stack: list = []  # frames: [name, tag, child seconds, span id]
        self._job = None
        self._next_id = 0

    # -- recording ------------------------------------------------------

    def _open(self, name, tag, is_span):
        span_id = None
        if is_span:
            self._next_id += 1
            span_id = self._next_id
        frame = [name, tag, 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0, t1, elems, raised):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        key = (self._job, parent[0] if parent else None, frame[0], frame[1])
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        rec[3] += elems
        rec[4] += raised
        if frame[3] is not None:  # a span, not a kernel
            parent_span = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            self.spans.append({
                "id": frame[3], "parent": parent_span, "job": self._job,
                "name": frame[0], "tag": frame[1], "start": t0, "end": t1,
                "self": dur - frame[2], "raised": bool(raised),
            })

    def _wrap(self, name, fn, kind, tag_of, elems_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name, tag_of(args, kwargs) if tag_of else None,
                                 kind == "span")
            elems = elems_of(args, kwargs) if elems_of else 1
            raised = 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = 0
                return out
            finally:
                tracer._close(frame, t0, perf_counter(), elems, raised)

        return wrapper

    @contextmanager
    def job(self, index: int):
        """Span around one benchmark job; its spans share the job index."""
        self._job = index
        frame = self._open("job", None, True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, perf_counter(), 1, 0)
            self._job = None

    @contextmanager
    def tracing(self, index: int):
        """Trace job `index`: functions rebound, one job span around it."""
        with self.installed(), self.job(index):
            yield

    # -- installation ---------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "claimtails" or n.startswith("claimtails."))]

    @contextmanager
    def installed(self):
        """Rebind every traced function wherever it is held by name, and
        put every original back on exit, whatever happens inside."""
        rebound = []
        try:
            for mod_name, fn_name, kind, tag_of, elems_of in TARGETS:
                home = importlib.import_module(f"claimtails.{mod_name}")
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, kind, tag_of, elems_of)
                for mod in self._modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            rebound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original in reversed(rebound):
                setattr(mod, attr, original)

    # -- queries ----------------------------------------------------------

    def total(self, name, field=1, jobs=None, tag=None, parent=None):
        """Sum one aggregate field over matching records.

        Fields: 0 calls, 1 inclusive seconds, 2 self seconds, 3 elements,
        4 calls that raised.
        """
        return sum(
            rec[field] for (job, par, nm, tg), rec in self.agg.items()
            if nm == name
            and (jobs is None or job in jobs)
            and (tag is None or tg == tag)
            and (parent is None or par == parent)
        )

    def write(self, path) -> None:
        agg = [
            {"job": job, "parent": par, "name": nm, "tag": tg, "calls": r[0],
             "incl_s": r[1], "self_s": r[2], "elems": r[3], "raised": r[4]}
            for (job, par, nm, tg), r in self.agg.items()
        ]
        path.write_text(json.dumps({"spans": self.spans, "aggregates": agg}, indent=1) + "\n")
