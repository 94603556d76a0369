"""Spans around the package's public functions, recorded from outside it.

``Tracer.install()`` replaces every module-level binding of each traced
function (the defining module and every module that imported the name) with
a wrapper that records a span: name, parent span, start, end, and a few
counts taken at the boundary.  ``uninstall()`` puts the originals back.
Spans stay in memory; ``layer_metrics`` turns one operation's spans into the
per-layer metrics.

The package itself is not modified: spans inside a function (the DP5 step,
the tail check in ``eval_forms``) are out of reach here.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from ncperiods.quadrature import NPTS


@dataclass
class Span:
    name: str
    parent: int  # index of the calling span in Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# --- boundary counts: hook(tracer, span, fn, args, kwargs) -> result ---------

def _eval_forms_hook(tracer, span, fn, args, kwargs):
    span.attrs["points"] = int(np.size(_arg(args, kwargs, 1, "tau")))
    return fn(*args, **kwargs)


def _vertical_j_hook(tracer, span, fn, args, kwargs):
    # the memo key vertical_J uses: (collection digest, z0, panel, D, cfg);
    # None for an empty collection, which returns the unit series before the memo
    h = _arg(args, kwargs, 0, "h")
    if not h.support:
        span.attrs["key"] = None
        return fn(*args, **kwargs)
    t = np.atleast_1d(np.asarray(_arg(args, kwargs, 2, "t"), dtype=complex))
    cfg = _arg(args, kwargs, 4, "cfg", inspect.signature(fn).parameters["cfg"].default)
    span.attrs["key"] = (h.digest, complex(_arg(args, kwargs, 1, "z0")), t.tobytes(),
                         _arg(args, kwargs, 3, "D"), cfg)
    return fn(*args, **kwargs)


def _r_direct_hook(tracer, span, fn, args, kwargs):
    span.attrs["levels"] = len(_arg(args, kwargs, 0, "forms"))
    return fn(*args, **kwargs)


def _rows_hook(tracer, span, fn, args, kwargs):
    span.attrs["rows"] = int(np.shape(_arg(args, kwargs, 1, "A"))[0])
    return fn(*args, **kwargs)


def _adaptive_pw_hook(tracer, span, fn, args, kwargs):
    fun = _arg(args, kwargs, 0, "fun")
    span.attrs.update(rounds=0, points=0)

    def integrand(s):
        span.attrs["rounds"] += 1
        span.attrs["points"] += int(np.size(s))
        return tracer.call("integrand", fun, (s,), {})

    pw = fn(integrand, *args[1:], **kwargs)
    span.attrs["accepted"] = len(pw.breaks) - 1
    return pw


def _plain(tracer, span, fn, args, kwargs):
    return fn(*args, **kwargs)


#: module -> {public function: boundary hook}
TRACED = {
    "modforms": {"eval_forms": _eval_forms_hook, "level_one_basis": _plain,
                 "cusp_space_basis": _plain, "form_linear_combination": _plain},
    "quadrature": {"adaptive_pw": _adaptive_pw_hook},
    "ncpoly": {"nc_mul": _plain, "nc_inv": _plain, "slash_factors": _plain},
    "iterint": {"r_direct": _r_direct_hook, "vertical_J": _vertical_j_hook,
                "path_split_check": _plain},
    "cocycle": {"psi": _plain, "rows_mul": _rows_hook, "rows_inv": _rows_hook,
                "rows_slash": _plain, "j_rows_direct": _plain,
                "verify_multiplicativity": _plain, "verify_equivariance": _plain},
    "mlv": {"moments_table": _plain, "double_moments": _plain,
            "period_polynomial": _plain, "double_period_polynomial": _plain,
            "verify_shuffle": _plain, "lambda_probe": _plain},
    "reconstruct": {"build_catalog": _plain, "psi_evaluator": _plain, "peel": _plain,
                    "dump_cocycle_values": _plain},
}

LAYERS = tuple(TRACED)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def call(self, name, fn, args, kwargs, hook=_plain):
        span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return hook(self, span, fn, args, kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ncperiods" or n.startswith("ncperiods."))]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"ncperiods.{layer}"]
            for fname, hook in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrapper(f"{layer}.{fname}", original, hook)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take(self) -> list:
        """Spans recorded since the last take."""
        spans, self.spans = self.spans, []
        return spans


# --- analysis -----------------------------------------------------------------

def _children(spans) -> list:
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    kids = _children(spans)
    out = []
    for s, ks in zip(spans, kids):
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(spans[k].start, s.start), min(spans[k].end, s.end))
                           for k in ks):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def _layer_of(spans, i) -> str:
    """Module a span's self time belongs to; an integrand is its caller's work."""
    name = spans[i].name
    if name == "integrand":
        caller = spans[spans[i].parent].parent  # integrand -> adaptive_pw -> caller
        return _layer_of(spans, caller) if caller >= 0 else "quadrature"
    return name.split(".", 1)[0]


def vertical_j_stats(spans) -> dict:
    """Solves are vertical_J spans with at least one eval_forms child; the rest
    returned from the memo or had an empty collection.  A repeat is a call
    that reaches the memo with a key an earlier call in the same spans used."""
    kids = _children(spans)
    calls = solves = attempts = repeats = 0
    seen = set()
    for i, s in enumerate(spans):
        if s.name != "iterint.vertical_J":
            continue
        calls += 1
        n_eval = sum(spans[k].name == "modforms.eval_forms" for k in kids[i])
        if n_eval:
            solves += 1
            attempts += n_eval - 1  # one evaluation seeds the FSAL stage
        key = s.attrs.get("key")
        if key is not None:
            repeats += key in seen
            seen.add(key)
    return {
        "calls": calls,
        "solves": solves,
        "hit_share": (calls - solves) / calls if calls else 0.0,
        "repeat_share": repeats / calls if calls else 0.0,
        "attempts_per_solve": attempts / solves if solves else 0.0,
    }


def adaptive_pw_stats(spans) -> dict:
    calls = rounds = tried = accepted = 0
    for s in spans:
        if s.name != "quadrature.adaptive_pw":
            continue
        calls += 1
        rounds += s.attrs.get("rounds", 0)
        tried += s.attrs.get("points", 0) // NPTS
        accepted += s.attrs.get("accepted", 0)
    return {"calls": calls, "rounds": rounds, "panels_tried": tried,
            "accept_ratio": accepted / tried if tried else 0.0}


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one operation's spans (values only)."""
    st = self_times(spans)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(int)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_by_name[s.name] += st[i]
        calls[s.name] += 1
        for k in ("points", "levels", "rows"):
            if k in s.attrs:
                attr_sum[s.name, k] += s.attrs[k]
        self_by_layer[_layer_of(spans, i)] += st[i]

    m = {
        "modforms.eval_forms.calls": calls["modforms.eval_forms"],
        "modforms.eval_forms.points": attr_sum["modforms.eval_forms", "points"],
        "modforms.eval_forms.self_s": self_by_name["modforms.eval_forms"],
    }
    for k, v in vertical_j_stats(spans).items():
        m[f"iterint.vertical_J.{k}"] = v
    m["iterint.vertical_J.self_s"] = self_by_name["iterint.vertical_J"]
    m["iterint.r_direct.calls"] = calls["iterint.r_direct"]
    m["iterint.r_direct.levels"] = attr_sum["iterint.r_direct", "levels"]
    m["iterint.r_direct.self_s"] = self_by_name["iterint.r_direct"]
    for k, v in adaptive_pw_stats(spans).items():
        m[f"quadrature.adaptive_pw.{k}"] = v
    m["quadrature.adaptive_pw.self_s"] = self_by_name["quadrature.adaptive_pw"]
    for f in ("nc_mul", "nc_inv"):
        m[f"ncpoly.{f}.calls"] = calls[f"ncpoly.{f}"]
        m[f"ncpoly.{f}.self_s"] = self_by_name[f"ncpoly.{f}"]
    m["cocycle.psi.calls"] = calls["cocycle.psi"]
    m["cocycle.psi.self_s"] = self_by_name["cocycle.psi"]
    for f in ("rows_mul", "rows_inv"):
        m[f"cocycle.{f}.rows"] = attr_sum[f"cocycle.{f}", "rows"]
        m[f"cocycle.{f}.self_s"] = self_by_name[f"cocycle.{f}"]
    m["cocycle.rows_slash.self_s"] = self_by_name["cocycle.rows_slash"]
    m["cocycle.j_rows_direct.self_s"] = self_by_name["cocycle.j_rows_direct"]
    for f in ("moments_table", "double_moments", "verify_shuffle"):
        m[f"mlv.{f}.self_s"] = self_by_name[f"mlv.{f}"]
    m["reconstruct.build_catalog.self_s"] = self_by_name["reconstruct.build_catalog"]
    m["reconstruct.peel.self_s"] = self_by_name["reconstruct.peel"]
    m["reconstruct.peel.psi_calls"] = sum(
        1 for i, s in enumerate(spans)
        if s.name == "cocycle.psi" and _has_ancestor(spans, i, "reconstruct.peel"))
    for layer, v in self_by_layer.items():
        m[f"{layer}.self_s"] = v
    return m


def median_metrics(per_op: list) -> dict:
    """Median over operations of each metric."""
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
