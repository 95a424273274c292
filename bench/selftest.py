"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py

They run every workload traced twice on seed 3 (about four minutes on
two cores) and check that work counts repeat exactly, that they match
the sizes the workloads were chosen for, that another seed does the
same work, and that the dominant stages are the expected ones.  They also check the benchmark's own counting
against brute force, the refusal of mismatched stamps, and that the
benchmark fails in a directory without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import tracing  # noqa: E402
from divsym.fields import random_field  # noqa: E402
from divsym.truncation import build_context, lambda_for_fraction, sample_bad_truncation  # noqa: E402

WORKLOADS = ("truncate-n16", "compare-n16", "envelope-laminate")


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def record(workload, trace, seed=3):
    proc = run_bench(workload, trace, seed=seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return json.loads((ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())


def exact_part(rec):
    """Everything in a traced record that must repeat exactly: counts and quality."""
    metrics = rec["result"]["metrics"]
    units = {m["metric"]: m["unit"] for m in rec["layers"]}
    return {
        "counts": rec["counts"],
        "metrics": {k: v["value"] for k, v in metrics.items() if units.get(k) in ("count", "1")},
    }


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (record(w, 1), record(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = traced_twice[workload]
    assert exact_part(first) == exact_part(second)


def test_seed3_sizes(traced_twice):
    trunc = traced_twice["truncate-n16"][0]["result"]["metrics"]
    assert trunc["whitney.cubes"]["value"] == 328
    assert trunc["truncation.triples"]["value"] == 3257
    assert trunc["truncation.flagged_points"]["value"] == 2624
    comp = traced_twice["compare-n16"][0]["result"]["metrics"]
    assert comp["potential.averaged_taylor_calls"]["value"] == 1979


@pytest.mark.parametrize("workload", ["truncate-n16", "compare-n16"])
def test_seeds_do_equal_work(traced_twice, workload):
    seed3 = traced_twice[workload][0]
    other = record(workload, 1, seed=8)
    assert other["counts"][0] == seed3["counts"][0]
    # the divergence defect is read against fixed test functions, which the symmetry moves
    quality = [{k: v for k, v in r["outcomes"][0]["quality"].items() if k != "div_defect_ratio"}
               for r in (seed3, other)]
    assert quality[0] == pytest.approx(quality[1], rel=1e-9)


@pytest.mark.parametrize("workload, dominant", [
    ("truncate-n16", "kernels.accumulate_truncation"),
    ("envelope-laminate", "fields.eval_many"),
])
def test_dominant_stage(traced_twice, workload, dominant):
    for self_s in traced_twice[workload][0]["self_s"]:
        assert next(iter(self_s)) == dominant


def test_compare_never_reaches_kernels(traced_twice):
    for self_s in traced_twice["compare-n16"][0]["self_s"]:
        assert not [name for name in self_s if name.startswith("kernels.")]


def test_self_times_account_for_traced_wall_and_overhead_is_small(traced_twice):
    """Self times add up to each traced command, and the wrappers add under 1 % to it.

    The overhead is bounded by the spans a command records times the cost of
    a traced no-op call, because the traced minus untraced wall time of one
    command mostly shows the host's drift (up to 20 % on a shared host).
    """
    tracer = tracing.Tracer()
    noop = tracer._wrap("noop", lambda: None)
    calls = 100_000
    with tracer.root("root"):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        per_span = (time.perf_counter() - t0) / calls
    for first, _ in traced_twice.values():
        untraced = first["result"]["metrics"]["trace.untraced_command_s"]["value"]
        spans = first["result"]["metrics"]["trace.spans"]["value"]
        assert spans * per_span < 0.01 * untraced
        for self_s, outcome in zip(first["self_s"], first["outcomes"][1:]):
            assert sum(self_s.values()) == pytest.approx(outcome["wall_s"], rel=0.01)


def test_benchmark_json_lists_the_reported_metrics(traced_twice):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    reported = traced_twice["truncate-n16"][0]["result"]["metrics"]
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {(k, v["unit"]) for k, v in reported.items()}
    untraced = record("compare-n16", 0)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (k, v["unit"]) for k, v in untraced["result"]["metrics"].items()}


@pytest.fixture(scope="module")
def ctx():
    w = random_field(3, 2, 1.0, divfree=True)
    return build_context(w, lambda_for_fraction(w, 16, 0.08), 16)


def test_exact_overlap_matches_dense_sampling(ctx):
    cover = ctx.cover
    pts = np.random.default_rng(0).random((200_000, 3)) * cover.period
    sampled = 0
    for chunk in np.array_split(pts, 50):
        gap = np.abs(cover.wrap(chunk[:, None, :] - cover.centers[None, :, :]))
        inside = (gap < cover.sides[None, :, None] / 2.0).all(axis=2)
        sampled = max(sampled, int(inside.sum(axis=1).max()))
    assert sampled == tracing.exact_overlap(cover)


def test_triangle_point_pairs_match_brute_force(ctx):
    m = 2 * ctx.n
    bad_index = sample_bad_truncation(ctx, m)[0]
    counts = tracing.triangle_point_pairs(ctx.triples, ctx.tri_verts, ctx.cover.sides, m,
                                          ctx.period, bad_index)
    hm = ctx.period / m
    for t in range(0, len(ctx.triples), 37):
        half = 0.5 * ctx.cover.sides[ctx.triples[t]]
        lo = (ctx.tri_verts[t] - half[:, None]).max(axis=0)
        hi = (ctx.tri_verts[t] + half[:, None]).min(axis=0)
        rng = [range(int(np.floor(lo[d] / hm - 0.5)) + 1, int(np.ceil(hi[d] / hm - 0.5))) for d in range(3)]
        brute = sum(bad_index[i % m, j % m, k % m] >= 0 for i in rng[0] for j in rng[1] for k in rng[2])
        assert counts[t] == brute


def test_mismatched_stamps_are_refused():
    stamps = {"git_sha": "a", "source_digest": "x", "python": "3.11.7", "nproc": 2, "seed": 3}
    metrics = {"command_s": {"value": 1.0, "unit": "s"}}
    base = {("w", 3, 0): {"stamps": stamps, "result": {"metrics": metrics}}}
    head = {("w", 3, 0): {"stamps": dict(stamps, git_sha="b", source_digest="y"), "result": {"metrics": metrics}}}
    rows, refused = compare.compare(base, head)
    assert len(rows) == 1 and not refused
    head[("w", 3, 0)]["stamps"]["nproc"] = 4
    rows, refused = compare.compare(base, head)
    assert not rows and refused == [(("w", 3, 0), ["nproc"])]


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench("truncate-n16", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
