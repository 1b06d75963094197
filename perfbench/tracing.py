"""Span tracing of khinfam from outside the package.

``Tracer.install`` replaces every public function bound in a khinfam module
namespace (including names brought in with ``from .x import y``) with a
wrapper that records a span: name, start, end, parent span and query id.
Families returned by ``make_family`` and ``family_from_coeffs`` get their
evaluator closures wrapped through ``dataclasses.replace``, as the
``catalog.eval`` layer. Spans stay in memory in flat arrays until
``layer_metrics`` and ``write_spans`` read them; ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import dataclasses
import functools
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("series", "catalog", "catalog.eval", "numerics", "asym", "family", "large_powers",
          "lagrange", "cli")
EVAL_FIELDS = ("log_value", "mean", "variance", "log_value_complex", "fulcrum34")
FAMILY_MAKERS = ("make_family", "family_from_coeffs")

# Function groups behind the per-layer metrics; a group's calls and self
# time are summed over its member spans.
GROUPS = {
    "series.mul": ("series.mul",),
    "series.pow": ("series.pow",),
    "series.compose": ("series.compose",),
    "series.lagrange": ("series.lagrange_invert", "series.lagrange_fixed_point"),
    "catalog.exact_coeffs": ("catalog.exact_coeffs",),
    "catalog.make_family": ("catalog.make_family",),
    "numerics.solve": ("numerics.solve_monotone",),
    "asym.saddle_solve": ("asym.saddle_solve",),
    "asym.estimate": ("asym.hayman_estimate", "asym.baez_duarte_estimate",
                      "asym.closed_partition_asym", "asym.moser_wyman"),
    "asym.diag": ("asym.local_clt_sup", "asym.strong_gaussian_integral",
                  "asym.gaussianity_ratio", "asym.cut_diagnostics"),
    "large_powers.exact": ("large_powers.exact_power_coeff", "large_powers.exact_power_coeff_log",
                           "large_powers.fixed_k_polynomial",
                           "large_powers.series_b_coefficients"),
    "lagrange.exact": ("lagrange.extended_coeff", "lagrange.lagrangian_exact_pmf_rational",
                       "lagrange.borel_tanner_rational_part"),
    "lagrange.sample": ("lagrange.gw_sample",),
    "cli.emit": ("cli.emit_rows",),
}

# name, unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("series.calls", "count"), ("series.self_s", "s"),
    ("series.mul.calls", "count"), ("series.mul.self_s", "s"),
    ("series.pow.calls", "count"), ("series.compose.self_s", "s"),
    ("series.lagrange.self_s", "s"),
    ("catalog.exact_coeffs.calls", "count"), ("catalog.exact_coeffs.self_s", "s"),
    ("catalog.exact_coeffs.hit_ratio", "frac"), ("catalog.oracle_terms_built", "count"),
    ("catalog.make_family.self_s", "s"), ("catalog.self_s", "s"),
    ("catalog.eval.calls", "count"), ("catalog.eval.self_s", "s"),
    ("numerics.solve.calls", "count"), ("numerics.self_s", "s"),
    ("asym.saddle_solve.calls", "count"), ("asym.saddle_solve.self_s", "s"),
    ("asym.mean_evals_per_solve", "count"), ("asym.estimate.self_s", "s"),
    ("asym.diag.self_s", "s"), ("asym.self_s", "s"),
    ("family.calls", "count"), ("family.self_s", "s"),
    ("large_powers.exact.calls", "count"), ("large_powers.exact.self_s", "s"),
    ("large_powers.estimate.self_s", "s"),
    ("lagrange.exact.self_s", "s"), ("lagrange.asym.self_s", "s"),
    ("lagrange.sample.self_s", "s"),
    ("cli.self_s", "s"), ("cli.emit.self_s", "s"), ("cli.stdout_bytes", "bytes"),
) + tuple(
    (f"{layer}.errors.{kind}", "count") for layer in LAYERS for kind in ("domain", "unexpected")
) + (
    ("trace.spans", "count"), ("trace.overhead_frac", "frac"),
)


class Tracer:
    def __init__(self, K, modules) -> None:
        self.domain_errors = (K.errors.KhinfamError, ValueError, SystemExit)
        self.modules = modules
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_qid = array("i")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        self.stack = [-1]
        self.qid = -1
        self.errors: Counter = Counter()
        self.cache: Counter = Counter()
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._name_ids[name]

    def wrap(self, fn, name: str, layer: str, post=None):
        """A recording wrapper around ``fn``; one wrapper per original object."""
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        nid = self._name_id(name, layer)
        cached = callable(getattr(fn, "cache_info", None))
        tr = self

        def wrapper(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1]
            sid = len(tr.sp_name)
            tr.sp_name.append(nid)
            tr.sp_parent.append(parent)
            tr.sp_qid.append(tr.qid)
            tr.sp_t1.append(0.0)
            stack.append(sid)
            misses = fn.cache_info().misses if cached else 0
            tr.sp_t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.sp_t1[sid] = perf_counter()
                stack.pop()
                tr._crossed(layer, parent, exc)
                raise
            tr.sp_t1[sid] = perf_counter()
            stack.pop()
            if cached:
                tr._cache_event(name, fn, misses, args, kwargs)
            return post(result) if post is not None else result

        functools.update_wrapper(wrapper, fn)
        if cached:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        wrapper.__bench_original__ = fn
        self._wrappers[key] = wrapper
        return wrapper

    def _crossed(self, layer: str, parent: int, exc: BaseException) -> None:
        """Count an exception once, where it leaves its layer."""
        if parent >= 0 and self.layer_of[self.sp_name[parent]] == layer:
            return
        kind = "domain" if isinstance(exc, self.domain_errors) else "unexpected"
        self.errors[f"{layer}.errors.{kind}"] += 1

    def _cache_event(self, name: str, fn, misses_before: int, args, kwargs) -> None:
        if fn.cache_info().misses > misses_before:
            self.cache[f"{name}.misses"] += 1
            if name == "catalog.exact_coeffs":
                n_max = kwargs["n_max"] if "n_max" in kwargs else args[1]
                self.cache["catalog.oracle_terms_built"] += n_max + 1
        else:
            self.cache[f"{name}.hits"] += 1

    def wrap_family(self, fam):
        """The same family with its evaluator closures recorded as catalog.eval."""
        changes = {}
        for field in EVAL_FIELDS:
            f = getattr(fam, field)
            if f is not None and not hasattr(f, "__bench_original__"):
                changes[field] = self.wrap(f, f"catalog.eval.{field}", "catalog.eval")
        return dataclasses.replace(fam, **changes) if changes else fam

    def install(self) -> None:
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type):
                    continue
                owner = getattr(obj, "__module__", None) or ""
                if not owner.startswith("khinfam.") or not (
                    isinstance(obj, types.FunctionType) or callable(getattr(obj, "cache_info", None))
                ):
                    continue
                layer = owner.rpartition(".")[2]
                post = self.wrap_family if obj.__name__ in FAMILY_MAKERS else None
                wrapper = self.wrap(obj, f"{layer}.{obj.__name__}", layer, post)
                setattr(mod, name, wrapper)
                self._patched.append((mod, name, obj))

    def uninstall(self) -> bool:
        """Put every original back; True when each name holds its original."""
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        ok = all(getattr(mod, name) is obj for mod, name, obj in self._patched)
        self._patched.clear()
        return ok

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        t0, t1, parent = self.sp_t0, self.sp_t1, self.sp_parent
        out = [b - a for a, b in zip(t0, t1)]
        for sid, p in enumerate(parent):
            if p >= 0:
                out[p] -= t1[sid] - t0[sid]
        return out

    def layer_metrics(self, overhead_frac: float, stdout_bytes: int) -> dict[str, float]:
        selfs = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layer_calls: Counter = Counter()
        layer_self: Counter = Counter()
        for nid, s in zip(self.sp_name, selfs):
            calls[nid] += 1
            self_s[nid] += s
        for nid, name in enumerate(self.names):
            layer_calls[self.layer_of[nid]] += calls[nid]
            layer_self[self.layer_of[nid]] += self_s[nid]
        by_name = {name: (calls[nid], self_s[nid]) for nid, name in enumerate(self.names)}

        def group(g: str) -> tuple[int, float]:
            members = [by_name.get(n, (0, 0.0)) for n in GROUPS[g]]
            return sum(c for c, _ in members), sum(s for _, s in members)

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = layer_calls[layer]
            m[f"{layer}.self_s"] = layer_self[layer]
        for g in GROUPS:
            m[f"{g}.calls"], m[f"{g}.self_s"] = group(g)
        exact_c, exact_s = group("large_powers.exact")
        m["large_powers.estimate.self_s"] = layer_self["large_powers"] - exact_s
        lag_exact = group("lagrange.exact")[1] + group("lagrange.sample")[1]
        m["lagrange.asym.self_s"] = layer_self["lagrange"] - lag_exact
        hits = self.cache["catalog.exact_coeffs.hits"]
        misses = self.cache["catalog.exact_coeffs.misses"]
        m["catalog.exact_coeffs.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["catalog.oracle_terms_built"] = self.cache["catalog.oracle_terms_built"]
        m["asym.mean_evals_per_solve"] = self._mean_evals_per_solve()
        m["cli.stdout_bytes"] = stdout_bytes
        for layer in LAYERS:
            for kind in ("domain", "unexpected"):
                key = f"{layer}.errors.{kind}"
                m[key] = self.errors[key]
        m["trace.spans"] = len(self.sp_name)
        m["trace.overhead_frac"] = overhead_frac
        return {name: m[name] for name, _ in PER_LAYER}

    def _mean_evals_per_solve(self) -> float:
        solve = self._name_ids.get("asym.saddle_solve")
        mean = self._name_ids.get("catalog.eval.mean")
        if solve is None:
            return 0.0
        inside = [False] * len(self.sp_name)
        evals = solves = 0
        for sid, (nid, p) in enumerate(zip(self.sp_name, self.sp_parent)):
            in_parent = p >= 0 and inside[p]
            inside[sid] = nid == solve or in_parent
            solves += nid == solve
            evals += nid == mean and in_parent
        return evals / solves if solves else 0.0

    def write_spans(self, path, qids: list[str]) -> None:
        """One line per span: id, name, parent id, query id, start and end in µs."""
        base = self.sp_t0[0] if self.sp_t0 else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tquery\tstart_us\tend_us\n")
            for sid, (nid, p, q, a, b) in enumerate(
                zip(self.sp_name, self.sp_parent, self.sp_qid, self.sp_t0, self.sp_t1)
            ):
                fh.write(f"{sid}\t{self.names[nid]}\t{p}\t{qids[q] if q >= 0 else ''}\t"
                         f"{(a - base) * 1e6:.1f}\t{(b - base) * 1e6:.1f}\n")
