"""Span tracing of divsym from the outside, and the per-layer metrics built on it.

The tracer replaces the public functions of the divsym modules (plus the
few methods and private helpers the layer metrics need) with wrappers
that record a span: name, start, end and the span that called it.  Spans
live in memory; the benchmark writes them out when the run ends.  A
layer's self time is its span's duration minus the time its child spans
cover, so the self times of one command add up to its traced wall time.

Work counts are read at the same boundaries, from arguments and return
values.  Counts that take real work (triangle-point pairs, the exact
cover overlap) are deferred until the command has finished, so they do
not land inside any span.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

import numpy as np

# short layer name -> divsym module
MODULES = {
    "fields": "divsym.fields",
    "maximal": "divsym.maximal",
    "whitney": "divsym.whitney",
    "truncation": "divsym.truncation",
    "kernels": "divsym._kernels",
    "potential": "divsym.potential_trunc",
    "envelope": "divsym.envelope",
    "schemas": "divsym.schemas",
}

# methods and private helpers that per-layer metrics need, beyond public functions
EXTRA = [
    ("fields", "_ModeField.eval_many"),
    ("fields", "_ModeField.grid_components"),
    ("whitney", "WhitneyCover.neighbor_pairs"),
    ("envelope", "_band_project"),
    ("envelope", "DistanceObjective.__call__"),
    ("cli", "_dump_json"),
]


class Tracer:
    """Records spans of wrapped divsym calls made inside a root span."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, root index]
        self.stack = []
        self.root_counts = {}  # root index -> work counts of that command
        self.counts = None     # work counts of the open root
        self.deferred = None   # count jobs run once the root has closed
        self._patches = []

    # -- installing -----------------------------------------------------

    def install(self):
        targets = []
        for short, modname in MODULES.items():
            mod = sys.modules[modname]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == modname and not name.startswith("_"):
                    targets.append((f"{short}.{name}", mod, name))
        for short, path in EXTRA:
            mod = sys.modules[MODULES.get(short, f"divsym.{short}")]
            owner, _, attr = path.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            targets.append((f"{short}.{attr.strip('_')}", holder, attr))

        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if n == "divsym" or n.startswith("divsym.")]
        for span_name, holder, attr in targets:
            orig = vars(holder)[attr]
            wrapper = self._wrap(span_name, orig)
            if inspect.isclass(holder):
                self._patches.append((holder, attr, orig))
                setattr(holder, attr, wrapper)
                continue
            # rebind every module-level reference, including `from x import f` copies
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is orig:
                        self._patches.append((ns, key, orig))
                        ns[key] = wrapper

    def uninstall(self):
        for holder, attr, orig in reversed(self._patches):
            if isinstance(holder, dict):
                holder[attr] = orig
            else:
                setattr(holder, attr, orig)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, func):
        observe = OBSERVERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return func(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1], self.stack[0]])
            self.stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    # -- roots ------------------------------------------------------------

    def root(self, name):
        return _Root(self, name)

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def defer(self, job):
        self.deferred.append(job)


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.index = None
        self.counts = {}

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, None, self.index])
        t.stack.append(self.index)
        t.root_counts[self.index] = self.counts
        t.counts, t.deferred = self.counts, []
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        for job in t.deferred:
            job()
        t.counts, t.deferred = None, None


# ---------------------------------------------------------------------------
# observers: work counts read at span boundaries


def _eval_many(t, args, kwargs, result):
    t.add("eval_many_point_modes", int(result.shape[0]) * len(args[0].coeffs))


def _build_context(t, args, kwargs, ctx):
    t.add("triples", len(ctx.triples))
    t.add("moment_nodes", len(ctx.triples) * len(ctx.rule.weights))


def _sample_bad_truncation(t, args, kwargs, result):
    seen = t.counts.setdefault("_sampled", set())
    key = (id(args[0]), args[1] if len(args) > 1 else kwargs["m"])
    if key not in seen:
        seen.add(key)
        t.add("flagged_points", int(result[2].shape[0]))


def _bad_set(t, args, kwargs, mask):
    t.add("bad_cells", int(mask.mask.sum()))


def _w_m_inf_truncate(t, args, kwargs, vt):
    t.add("potential_bad_cells", int(vt.bad.mask.sum()))


def _neighbor_pairs(t, args, kwargs, adj):
    covers = t.counts.setdefault("_adjacency", {})
    covers[id(args[0])] = sum(len(s) for s in adj) // 2


def _whitney_decompose(t, args, kwargs, cover):
    counts = t.counts

    def job():
        covers = counts.setdefault("_covers", [])
        covers.append({
            "cubes": len(cover),
            "levels": np.bincount(cover.levels, minlength=3).tolist(),
            "max_level": int(cover.levels.max(initial=0)),
            "overlap_reported": int(cover.stats.get("overlap", 0)),
            "overlap_exact": exact_overlap(cover),
            "adjacent_pairs": counts.get("_adjacency", {}).get(id(cover), 0),
        })

    t.defer(job)


def _accumulate_truncation(t, args, kwargs, result):
    counts = t.counts
    triples, _, _, tri_verts, sides, m, period, bad_index = args[:8]

    def job():
        per_triple = triangle_point_pairs(triples, tri_verts, sides, m, period, bad_index)
        counts["pairs"] = counts.get("pairs", 0) + int(per_triple.sum())
        counts["triples_active"] = counts.get("triples_active", 0) + int((per_triple > 0).sum())
        counts["triples_visited"] = counts.get("triples_visited", 0) + len(per_triple)

    t.defer(job)


def _minimize(t, args, kwargs, result):
    counts = t.counts
    objective, xi, trace = args[0], kwargs["xi_offset"], result[2]

    def job():
        # restart 0 starts at the zero field, so its value dist(xi, K)^p is the baseline
        base = float(objective(np.asarray(xi, dtype=float)[None])[0][0])
        counts["restarts"] = counts.get("restarts", 0) + len(trace)
        useful = sum(1 for v in trace if v < base * (1.0 - 1e-9))
        counts["useful_restarts"] = counts.get("useful_restarts", 0) + useful

    t.defer(job)


OBSERVERS = {
    "fields.eval_many": _eval_many,
    "truncation.build_context": _build_context,
    "truncation.sample_bad_truncation": _sample_bad_truncation,
    "maximal.bad_set": _bad_set,
    "potential.w_m_inf_truncate": _w_m_inf_truncate,
    "whitney.neighbor_pairs": _neighbor_pairs,
    "whitney.whitney_decompose": _whitney_decompose,
    "kernels.accumulate_truncation": _accumulate_truncation,
    "envelope.minimize_over_test_fields": _minimize,
}


def exact_overlap(cover) -> int:
    """Largest number of open cube supports over generic points, from the intervals.

    Per axis, the support endpoints cut the circle into arcs; the count is
    constant on each product of arcs, so one midpoint per arc is exact and
    never sits on a boundary (unlike the cell centres the report samples).
    """
    if len(cover) == 0:
        return 0
    p = cover.period
    half = cover.sides / 2.0
    inside = []
    for d in range(3):
        ends = np.concatenate([cover.centers[:, d] - half, cover.centers[:, d] + half]) % p
        cuts = np.unique(np.round(ends, 12))
        mids = (cuts + np.diff(np.append(cuts, cuts[0] + p)) / 2.0) % p
        gap = np.abs((mids[None, :] - cover.centers[:, d, None] + p / 2.0) % p - p / 2.0)
        inside.append((gap < half[:, None]).astype(np.float32))
    x, y, z = inside
    xy = (x[:, :, None] * y[:, None, :]).reshape(len(cover), -1)
    return int(round(float((xy.T @ z).max())))


def triangle_point_pairs(triples, tri_verts, sides, m, period, bad_index):
    """Flagged m-grid points inside each triple's support box (what the kernel visits)."""
    hm = period / m
    half = 0.5 * sides[triples]                                   # (nt, 3)
    lo = (tri_verts - half[:, :, None]).max(axis=1)               # (nt, 3)
    hi = (tri_verts + half[:, :, None]).min(axis=1)
    ilo = np.floor(lo / hm - 0.5).astype(np.int64) + 1
    ihi = np.ceil(hi / hm - 0.5).astype(np.int64) - 1
    length = np.clip(ihi - ilo + 1, 0, m)
    # prefix sums over a doubled periodic copy of the flagged grid
    flagged = np.tile(bad_index >= 0, (2, 2, 2)).astype(np.int64)
    cum = np.zeros((2 * m + 1,) * 3, dtype=np.int64)
    cum[1:, 1:, 1:] = flagged.cumsum(0).cumsum(1).cumsum(2)
    a = ilo % m
    b = a + length
    total = np.zeros(len(triples), dtype=np.int64)
    for corner in range(8):
        idx = [b[:, d] if corner >> d & 1 else a[:, d] for d in range(3)]
        sign = (-1) ** (3 - bin(corner).count("1"))
        total += sign * cum[idx[0], idx[1], idx[2]]
    return np.where((length > 0).all(axis=1), total, 0)


# ---------------------------------------------------------------------------
# per-layer metrics

def _self(name):
    return lambda s: s["self"].get(name, 0.0)


def _incl(name):
    return lambda s: s["incl"].get(name, 0.0)


def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _count(key):
    return lambda s: s["counts"].get(key, 0)


def _covers(fn):
    return lambda s: fn(s["counts"].get("_covers", []))


def _ratio(num, den):
    return lambda s: s["counts"].get(num, 0) / s["counts"][den] if s["counts"].get(den) else 0.0


def _quality(key):
    return lambda s: s["quality"].get(key, 0.0)


# (metric, unit, value from one command's span summary, end-to-end metric and workload
# it should move).  A metric of a layer the workload never reaches reads 0.
LAYERS = [
    ("kernels.truncation_s", "s", _self("kernels.accumulate_truncation"), "command_s on truncate-n16"),
    ("kernels.spacks_s", "s", _self("kernels.accumulate_spacks"), "command_s on truncate-n16"),
    ("kernels.pairs", "count", _count("pairs"), "command_s on truncate-n16"),
    ("kernels.active_triple_ratio", "1", _ratio("triples_active", "triples_visited"), "command_s on truncate-n16"),
    ("truncation.build_context_s", "s", _incl("truncation.build_context"), "command_s on truncate-n16, compare-n16"),
    ("truncation.moments_s", "s", _self("truncation.build_context"), "command_s on truncate-n16, compare-n16"),
    ("truncation.triples", "count", _count("triples"), "command_s on truncate-n16, compare-n16"),
    ("truncation.moment_nodes", "count", _count("moment_nodes"), "command_s on truncate-n16, compare-n16"),
    ("truncation.verify_s", "s", _self("truncation.verify"), "command_s on truncate-n16"),
    ("truncation.sample_bad_truncation_s", "s", _self("truncation.sample_bad_truncation"), "command_s on truncate-n16"),
    ("truncation.flagged_points", "count", _count("flagged_points"), "command_s on truncate-n16"),
    ("fields.eval_many_s", "s", _self("fields.eval_many"), "command_s on envelope-laminate (most), compare-n16, truncate-n16"),
    ("fields.eval_many_calls", "count", _calls("fields.eval_many"), "command_s on envelope-laminate (most), compare-n16, truncate-n16"),
    ("fields.eval_many_point_modes", "count", _count("eval_many_point_modes"), "command_s on envelope-laminate (most), compare-n16, truncate-n16"),
    ("fields.grid_components_s", "s", _self("fields.grid_components"), "command_s on envelope-laminate (most), compare-n16, truncate-n16"),
    ("whitney.decompose_s", "s", _self("whitney.whitney_decompose"), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.neighbor_pairs_s", "s", _self("whitney.neighbor_pairs"), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.neighbor_pairs_calls", "count", _calls("whitney.neighbor_pairs"), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.cubes", "count", _covers(lambda cs: sum(c["cubes"] for c in cs)), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.cubes_level0", "count", _covers(lambda cs: sum(c["levels"][0] for c in cs)), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.cubes_level1", "count", _covers(lambda cs: sum(c["levels"][1] for c in cs)), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.cubes_level2", "count", _covers(lambda cs: sum(c["levels"][2] for c in cs)), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.max_level", "count", _covers(lambda cs: max((c["max_level"] for c in cs), default=0)), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.adjacent_pairs", "count", _covers(lambda cs: sum(c["adjacent_pairs"] for c in cs)), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.overlap_reported", "count", _covers(lambda cs: max((c["overlap_reported"] for c in cs), default=0)), "command_s on compare-n16 (small share on truncate-n16)"),
    ("whitney.overlap_exact", "count", _covers(lambda cs: max((c["overlap_exact"] for c in cs), default=0)), "command_s on compare-n16 (small share on truncate-n16)"),
    ("potential.w_m_inf_truncate_s", "s", _self("potential.w_m_inf_truncate"), "command_s on compare-n16 only"),
    ("potential.averaged_taylor_s", "s", _self("potential.averaged_taylor"), "command_s on compare-n16 only"),
    ("potential.averaged_taylor_calls", "count", _calls("potential.averaged_taylor"), "command_s on compare-n16 only"),
    ("potential.bad_cells", "count", _count("potential_bad_cells"), "command_s on compare-n16 only"),
    ("maximal.sample_abs_s", "s", _self("maximal.sample_abs"), "no measurable move (under 2 %) on truncate-n16, compare-n16"),
    ("maximal.maximal_function_s", "s", _self("maximal.maximal_function"), "no measurable move (under 2 %) on truncate-n16, compare-n16"),
    ("maximal.bad_set_s", "s", _self("maximal.bad_set"), "no measurable move (under 2 %) on truncate-n16, compare-n16"),
    ("maximal.bad_cells", "count", _count("bad_cells"), "no measurable move (under 2 %) on truncate-n16, compare-n16"),
    ("envelope.band_project_s", "s", _self("envelope.band_project"), "command_s, quality_ratio on envelope-laminate"),
    ("envelope.band_project_calls", "count", _calls("envelope.band_project"), "command_s, quality_ratio on envelope-laminate"),
    ("envelope.objective_s", "s", _self("envelope.call"), "command_s, quality_ratio on envelope-laminate"),
    ("envelope.useful_restart_ratio", "1", _ratio("useful_restarts", "restarts"), "command_s, quality_ratio on envelope-laminate"),
    ("cli.report_io_s", "s", lambda s: sum(s["self"].get(n, 0.0) for n in
                                           ("schemas.validate", "schemas.schema", "maximal.write_grid", "cli.dump_json")),
     "command_s on truncate-n16"),
    ("cli.main_self_s", "s", lambda s: s["root_self"], "command_s: time in cli.main outside every traced call"),
    ("truncation.linf_ratio", "1", _quality("linf_ratio"), "quality_ratio on truncate-n16 (same figure)"),
    ("truncation.stability_ratio", "1", _quality("stability_ratio"), "deterministic output figure on truncate-n16"),
    ("truncation.div_defect_ratio", "1", _quality("div_defect_ratio"), "deterministic output figure on truncate-n16"),
    ("potential.bad_fraction", "1", _quality("potential_bad_fraction"), "deterministic output figure on compare-n16"),
    ("envelope.hull_score_p1", "1", _quality("hull_score_p1"), "deterministic output figure on envelope-laminate"),
    ("envelope.hull_score_p4", "1", _quality("hull_score_p4"), "deterministic output figure on envelope-laminate"),
    ("trace.command_s", "s", lambda s: s["wall"], "traced wall time per command"),
    ("trace.spans", "count", lambda s: s["spans"], "spans recorded per command"),
]


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer, root_index: int, quality: dict) -> dict:
    """Self/inclusive time, call and work counts of one root span."""
    spans = tracer.spans
    own = self_times(spans)
    self_t, incl, calls = {}, {}, {}
    members = 0
    for i, (name, start, end, _, root) in enumerate(spans):
        if root != root_index:
            continue
        members += 1
        self_t[name] = self_t.get(name, 0.0) + own[i]
        incl[name] = incl.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
    root = spans[root_index]
    return {
        "self": self_t, "incl": incl, "calls": calls, "quality": quality,
        "counts": tracer.root_counts.get(root_index, {}),
        "wall": root[2] - root[1], "root_self": own[root_index], "spans": members,
    }


def layer_values(summaries) -> dict:
    """Per-layer metrics: median over the traced commands that reach the layer."""
    out = {}
    for name, unit, fn, _ in LAYERS:
        vals = [fn(s) for s in summaries]
        reached = [v for v in vals if v] or [0.0]
        out[name] = {"value": float(statistics.median(reached)), "unit": unit}
    return out


def span_records(tracer: Tracer) -> list:
    """Every span with its self time, for writing out at the end of a run."""
    spans = tracer.spans
    own = self_times(spans)
    t0 = spans[0][1] if spans else 0.0
    return [
        {"id": i, "name": name, "start": start - t0, "end": end - t0, "parent": parent,
         "root": root, "self": own[i]}
        for i, (name, start, end, parent, root) in enumerate(spans)
    ]
