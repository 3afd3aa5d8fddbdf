"""Outside-in layer tracer for the symgap package.

`Tracer.install()` wraps the public functions of each module at every name
their callers import them under (`from .setfn import tabulate` binds a second
name, so both are replaced), plus `ValuationOracle.eval`, the mechanisms'
`allocate` methods and the scipy `binom` object that `extensions` calls.
Nothing under `src/` changes.

Two kinds of wrapper:

- span: one record per call (id, parent id, name, start, end, self time),
  kept in memory and written by `write_spans` when the invocation ends;
- counter: calls and summed self and inclusive time only, for the per-query
  boundaries (`eval`, `binom.pmf`, `psi_tilde`) that run millions of times.

Self time is a call's duration minus the time its traced children cover;
both kinds report their duration to the enclosing frame, so a span's self
time excludes the counters inside it too.
"""
from __future__ import annotations

import inspect
import itertools
import json
from time import perf_counter

# (metric, unit, better); the order is the print order.
PER_LAYER = [
    ("setfn.eval.calls", "count", "lower"),
    ("setfn.eval.self_s", "s", "lower"),
    ("setfn.eval.per_s", "1/s", "higher"),
    ("setfn.tabulate.calls", "count", "lower"),
    ("setfn.tabulate.self_s", "s", "lower"),
    ("setfn.tabulate.entries_per_s", "1/s", "higher"),
    ("setfn.check_monotone_submodular.self_s", "s", "lower"),
    ("instances.sample_bisection_sequence.calls", "count", "lower"),
    ("instances.sample_bisection_sequence.self_s", "s", "lower"),
    ("instances.TwoBlockValuation.oracle.calls", "count", "lower"),
    ("instances.psi_tilde.calls", "count", "lower"),
    ("instances.psi_tilde.self_s", "s", "lower"),
    ("extensions.exact_F_blockwise.calls", "count", "lower"),
    ("extensions.exact_F_blockwise.self_s", "s", "lower"),
    ("extensions.exact_F_blockwise.per_s", "1/s", "higher"),
    ("extensions.binom_pmf.calls", "count", "lower"),
    ("extensions.binom_pmf.self_s", "s", "lower"),
    ("extensions.count_grid.hits", "count", "higher"),
    ("extensions.count_grid.misses", "count", "lower"),
    ("extensions.multilinear_F.samples_per_s", "1/s", "higher"),
    ("mechanisms.vcg_auction_exhaustive.calls", "count", "lower"),
    ("mechanisms.vcg_auction_exhaustive.self_s", "s", "lower"),
    ("mechanisms.greedy_cpp.calls", "count", "lower"),
    ("mechanisms.greedy_cpp.self_s", "s", "lower"),
    ("mechanisms.exhaustive_opt_cpp.self_s", "s", "lower"),
    ("mechanisms.assignment_masks.hits", "count", "higher"),
    ("mechanisms.assignment_masks.misses", "count", "lower"),
    ("mechanisms.allocate.calls", "count", "lower"),
    ("mechanisms.allocate.distinct_ratio", "ratio", "higher"),
    ("audit.audit_truthfulness.self_s", "s", "lower"),
    ("audit.symmetry_gap_experiment.self_s", "s", "lower"),
    ("audit.symmetry_gap_experiment.queries_total", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.serialize.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Program counts: they must repeat exactly between runs on one seed.
EXACT_UNITS = ("count", "ratio", "bytes")


class _BinomProxy:
    """Stands in for `scipy.stats.binom` with a traced `pmf`."""

    def __init__(self, dist, pmf):
        self._dist = dist
        self.pmf = pmf

    def __getattr__(self, name):
        return getattr(self._dist, name)


class Tracer:
    def __init__(self):
        self._stack = [[0.0, 0]]  # frames: [time covered by children, span id]
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self_s)
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.extra: dict[str, float] = {}
        self._alloc_inputs: dict = {}  # distinct inputs of deterministic mechanisms
        self._alloc_det_calls = 0

    def _wrap(self, name, fn, record_span=True, post=None):
        stack, spans, ids = self._stack, self.spans, self._ids
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [0.0, next(ids) if record_span else 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                self_s = dt - frame[0]
                stat[0] += 1
                stat[1] += self_s
                stat[2] += dt
                if record_span:
                    spans.append((frame[1], parent[1], name, t0, t1, self_s))
            if post is not None:
                post(out, args)
            return out

        return traced

    def _add(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def _patch_function(self, module, attr, name, record_span=True, post=None):
        import symgap

        orig = getattr(module, attr)
        traced = self._wrap(name, orig, record_span, post)
        for mod in (symgap, *vars(symgap).values()):
            if not inspect.ismodule(mod):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)

    def _count_allocate(self, _out, args):
        mech, views = args[0], args[1]
        self._alloc_det_calls += 1
        declared = tuple(getattr(v, "_oracle", v) for v in views)
        k = args[2] if len(args) > 3 else None
        # keeping `declared` alive keeps its ids from being reused
        self._alloc_inputs.setdefault((type(mech), tuple(map(id, declared)), k), declared)

    def install(self) -> None:
        from symgap import audit, cli, extensions, instances, mechanisms, setfn

        wrap = self._patch_function
        setfn.ValuationOracle.eval = self._wrap("setfn.eval", setfn.ValuationOracle.eval, False)
        wrap(setfn, "tabulate", "setfn.tabulate",
             post=lambda out, _: self._add("setfn.tabulate.entries", len(out)))
        wrap(setfn, "check_monotone_submodular", "setfn.check_monotone_submodular")
        wrap(instances, "sample_bisection_sequence", "instances.sample_bisection_sequence")
        wrap(instances, "psi_tilde", "instances.psi_tilde", record_span=False)
        instances.TwoBlockValuation.oracle = self._wrap(
            "instances.TwoBlockValuation.oracle", instances.TwoBlockValuation.oracle
        )
        wrap(extensions, "exact_F_blockwise", "extensions.exact_F_blockwise")
        wrap(extensions, "multilinear_F", "extensions.multilinear_F",
             post=lambda out, _: self._add(
                 "extensions.multilinear_F.samples",
                 out.samples if out.mode == "monte_carlo" else 0))
        extensions.binom = _BinomProxy(
            extensions.binom, self._wrap("extensions.binom_pmf", extensions.binom.pmf, False)
        )
        for attr in ("vcg_auction_exhaustive", "greedy_cpp", "exhaustive_opt_cpp"):
            wrap(mechanisms, attr, f"mechanisms.{attr}")
        bases = (mechanisms.CPPMechanism, mechanisms.AuctionMechanism)
        for cls in vars(mechanisms).values():
            if (inspect.isclass(cls) and issubclass(cls, bases)
                    and not inspect.isabstract(cls) and "allocate" in vars(cls)):
                post = self._count_allocate if cls.deterministic else None
                cls.allocate = self._wrap("mechanisms.allocate", cls.allocate, post=post)
        wrap(audit, "audit_truthfulness", "audit.audit_truthfulness")
        wrap(audit, "symmetry_gap_experiment", "audit.symmetry_gap_experiment")
        wrap(cli, "_serialize_json", "cli.serialize",
             post=lambda out, _: self._add("cli.report_bytes", len(out.encode())))
        wrap(cli, "main", "cli.main")

    def summary(self) -> dict:
        """Per-name totals for one invocation; `round_metrics` combines them."""
        from symgap import extensions, mechanisms

        extra = dict(self.extra)
        for name, cached in (("extensions.count_grid", extensions._cached_count_grid),
                             ("mechanisms.assignment_masks", mechanisms._assignment_masks)):
            info = cached.cache_info()
            extra[f"{name}.hits"], extra[f"{name}.misses"] = info.hits, info.misses
        extra["mechanisms.allocate.deterministic_calls"] = self._alloc_det_calls
        extra["mechanisms.allocate.distinct_inputs"] = len(self._alloc_inputs)
        return {"stats": self.stats, "extra": extra}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "self_s"],
                       "spans": self.spans}, fh)


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def round_metrics(summaries: list[dict], queries_total: int, overhead_s: float) -> dict:
    """PER_LAYER values for one round from its invocations' summaries."""
    stats: dict[str, list] = {}
    extra: dict[str, float] = {}
    for s in summaries:
        for name, vals in s["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, v in s["extra"].items():
            extra[name] = extra.get(name, 0) + v

    def get(name):
        return stats.get(name, [0, 0.0, 0.0])

    det_calls = extra.get("mechanisms.allocate.deterministic_calls", 0)
    v = {
        "setfn.eval.per_s": _rate(get("setfn.eval")[0], get("setfn.eval")[1]),
        "setfn.tabulate.entries_per_s": _rate(
            extra.get("setfn.tabulate.entries", 0), get("setfn.tabulate")[2]),
        "extensions.exact_F_blockwise.per_s": _rate(
            get("extensions.exact_F_blockwise")[0], get("extensions.exact_F_blockwise")[2]),
        "extensions.multilinear_F.samples_per_s": _rate(
            extra.get("extensions.multilinear_F.samples", 0), get("extensions.multilinear_F")[2]),
        "mechanisms.allocate.distinct_ratio": (
            extra["mechanisms.allocate.distinct_inputs"] / det_calls if det_calls else 1.0),
        "audit.symmetry_gap_experiment.queries_total": queries_total,
        "cli.report_bytes": int(extra.get("cli.report_bytes", 0)),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in v:
            out[name] = v[name]
        elif name.endswith((".hits", ".misses")):
            out[name] = extra[name]
        elif name.endswith(".calls"):
            out[name] = get(name[: -len(".calls")])[0]
        else:
            out[name] = get(name[: -len(".self_s")])[1]
    return out
