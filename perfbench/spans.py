"""Timing spans recorded around the calls into each pgglmc layer.

``Tracer.install`` replaces the names the callers actually bind (for example
``pgglmc.lmc.sample_pgg``, not only ``pgglmc.pgg.sample_pgg``) with wrappers
that record one span per call: ``{id, name, start, end, parent, run_id,
work}``.  Spans stay in memory and are written out when the run ends.  A call
made on a worker thread with no open span of its own is parented to the
innermost open span of the main thread, which is the ``run_chain`` call that
started the thread group.

``self_times`` gives each span's duration minus the time its child spans
cover (the union of their intervals, so overlapping children on two threads
are not subtracted twice).  ``layer_metrics`` folds spans into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

# Span names are "<layer>.<call>".
PGG = "pgg.sample_pgg"
GRAD = "smoothing.grad_estimate_from_draws"
VALUE = "potentials.value"
RUN_CHAIN = "lmc.run_chain"
W2 = "transport.w2_to_gaussian"
CDIST = "transport.cdist"
LSA = "transport.linear_sum_assignment"
MAIN = "cli.main"
BYTES_PER_FLOAT = 8  # every array on these paths is float64


def _rows(x) -> int:
    """Points in a (..., d) array: its size over its last axis."""
    shape = getattr(x, "shape", ())
    return int(x.size // shape[-1]) if shape else 1


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _pgg_work(args, kwargs, out):
    return {"coords": _size(out), "bytes": _size(out) * BYTES_PER_FLOAT}


def _grad_work(args, kwargs, out):
    # (pot, mu, p, x, xi): bytes of the draws and states read plus the
    # estimates returned, computed from shapes.
    x, xi = args[3], args[4]
    return {"points": _rows(x),
            "bytes": (_size(x) + _size(xi) + _size(out)) * BYTES_PER_FLOAT}


def _value_work(args, kwargs, out):
    return {"points": _rows(args[1])}


def _lsa_work(args, kwargs, out):
    return {"n": int(args[0].shape[0])}


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: dict[int, dict] = {}
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, work=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        span = {"id": sid, "name": name, "parent": parent, "run_id": self.run_id,
                "start": time.perf_counter(), "end": None, "work": {}}
        self.spans[sid] = span
        stack.append(sid)
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if work is not None:
            span["work"] = work(args, kwargs, out)
        return out

    def wrap(self, name, fn, work=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)
        return wrapper

    def install(self) -> None:
        """Wrap every traced name in the imported pgglmc package."""
        from pgglmc import cli, config, lmc, potentials, smoothing, suites, transport

        for mod in (lmc, smoothing, suites):
            mod.sample_pgg = self.wrap(PGG, mod.sample_pgg, _pgg_work)
        for mod in (lmc, smoothing):
            mod.grad_estimate_from_draws = self.wrap(GRAD, mod.grad_estimate_from_draws,
                                                     _grad_work)
        reg = potentials.RegularizedPotential
        reg.value = self.wrap(VALUE, reg.value, _value_work)
        cli.run_chain = self.wrap(RUN_CHAIN, cli.run_chain)
        cli.w2_to_gaussian = self.wrap(W2, cli.w2_to_gaussian)
        transport.cdist = self.wrap(CDIST, transport.cdist)
        transport.linear_sum_assignment = self.wrap(LSA, transport.linear_sum_assignment,
                                                    _lsa_work)
        for key, fn in list(suites.SUITE_NAMES.items()):
            suites.SUITE_NAMES[key] = self.wrap(f"suites.{key}", fn)
        exp = config.ExperimentConfig
        exp.from_file = staticmethod(self.wrap("config.from_file", exp.from_file))
        for meth in ("build_potential", "build_smoothing", "build_lmc"):
            setattr(exp, meth, self.wrap(f"config.{meth}", getattr(exp, meth)))

    def records(self) -> list[dict]:
        return [self.spans[k] for k in sorted(self.spans)]


def _covered(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sp in spans:
        if sp["parent"] is not None:
            children[sp["parent"]].append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c["start"], sp["start"]), min(c["end"], sp["end"]))
                for c in children[sp["id"]]]
        out[sp["id"]] = (sp["end"] - sp["start"]) - _covered(k for k in kids if k[1] > k[0])
    return out


def _under(spans_by_id, sp, name) -> bool:
    parent = sp["parent"]
    while parent is not None:
        anc = spans_by_id[parent]
        if anc["name"] == name:
            return True
        parent = anc["parent"]
    return False


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times, call counts and shape-derived work counts."""
    selfs = self_times(spans)
    by_id = {sp["id"]: sp for sp in spans}
    m = defaultdict(float)
    for sp in spans:
        name, work = sp["name"], sp["work"]
        dur, own = sp["end"] - sp["start"], selfs[sp["id"]]
        layer = name.split(".", 1)[0]
        if name == PGG:
            m["pgg.calls"] += 1
            m["pgg.self_s"] += own
            m["pgg.coords"] += work["coords"]
            m["pgg.bytes_computed"] += work["bytes"]
        elif name == GRAD:
            m["smoothing.calls"] += 1
            m["smoothing.self_s"] += own
            m["smoothing.bytes_computed"] += work["bytes"]
            if _under(by_id, sp, RUN_CHAIN):
                m["lmc.chain_steps"] += work["points"]
        elif name == VALUE:
            m["potentials.calls"] += 1
            m["potentials.self_s"] += own
            m["potentials.points"] += work["points"]
            if _under(by_id, sp, RUN_CHAIN):
                m["lmc.evals"] += work["points"]
        elif name == RUN_CHAIN:
            m["lmc.run_chain_s"] += dur
            m["lmc.self_s"] += own
        elif name == W2:
            m["transport.w2_s"] += dur
        elif name == CDIST:
            m["transport.cost_matrix_s"] += own
        elif name == LSA:
            m["transport.solve_s"] += own
            m["transport.solves"] += 1
            m["transport.n"] = max(m["transport.n"], work["n"])
        elif layer == "suites":
            m[f"{name}_s"] += dur
        elif layer == "config":
            m["config.load_s"] += dur
        elif name == MAIN:
            m["cli.self_s"] += own
    m["pgg.coords_per_s"] = m["pgg.coords"] / m["pgg.self_s"] if m["pgg.self_s"] else 0.0
    m["potentials.points_per_s"] = (m["potentials.points"] / m["potentials.self_s"]
                                    if m["potentials.self_s"] else 0.0)
    return dict(m)
