"""Benchmark of the divsym CLI: one workload, one seed, one run.

    python3 bench/run.py --workload truncate-n16 --seed 3 --seconds 36 --trace 0

Runs the workload's commands through ``divsym.cli.main`` in this process,
in whole passes over its inputs for about ``--seconds``, and
checks every output.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs the first input once untraced, then
traced until ``--seconds`` have gone by, and reports the per-layer
metrics.  The last line of standard output is the result as JSON; the
full record (stamps, every command, work counts, spans) goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_CODE = ("import divsym, divsym.cli\n"
              "from divsym import schemas\n"
              "for name in ('field', 'report', 'compare', 'envelope'):\n"
              "    schemas.schema(name)\n")

# load generation is this one process; BLAS gets no extra threads either
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path):
    """HEAD of the checkout's git repository, read from files; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamps(seed, nproc):
    import numpy
    import scipy
    from divsym import _kernels
    return {
        "git_sha": git_sha(ROOT),
        "source_digest": source_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "numba": find_spec("numba") is not None,
        "backend": "numba" if _kernels.HAVE_NUMBA else "interpreted",
        "blas_threads": min(BLAS_THREADS, nproc),
        "seed": seed,
    }


def setup_timer(env):
    """A function that times one fresh interpreter importing divsym and loading its schemas."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)  # byte-compile once

    def sample():
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        return time.perf_counter() - t0

    return sample


def execute(cmd, main, tracer=None):
    """Run one CLI command and check its output; never raises."""
    for path in cmd.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    error, quality, root = None, {}, None
    captured = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(captured):
            if tracer is None:
                rc = main(cmd.argv)
            else:
                with tracer.root(f"cli.{cmd.argv[0]}") as r:
                    root = r.index
                    rc = main(cmd.argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    except Exception as exc:  # cli.main lets some errors escape; count them, keep going
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None and rc != 0:
        error = f"exit code {rc}: {captured.getvalue().strip()[:500]}"
    if error is None:
        try:
            quality = cmd.check()
        except Exception as exc:  # a broken output is a failed operation
            error = f"{type(exc).__name__}: {exc}"
    return {"command": cmd.name, "wall_s": wall, "cpu_s": cpu, "ok": error is None, "error": error,
            "quality": quality, "root": root}


def run_passes(commands, seconds, main, tracer=None, between=None):
    """Whole passes over ``commands`` while the next pass should end within ``seconds``.

    The next pass is expected to take as long as the last one, so a run
    ends near ``seconds`` instead of up to one pass after it.  ``between``
    is called before each command with the commands' time so far; its own
    time does not count.
    """
    outcomes = []
    busy = 0.0
    while True:
        last = 0.0
        for cmd in commands:
            if between is not None:
                between(busy + last)
            outcomes.append(execute(cmd, main, tracer))
            last += outcomes[-1]["wall_s"]
        busy += last
        if busy + last > seconds:
            return outcomes


def end_to_end(outcomes, pass_len, setup_s):
    walls = [o["wall_s"] for o in outcomes if o["ok"]] or [o["wall_s"] for o in outcomes]
    first_pass = outcomes[:pass_len]
    quality = [o["quality"]["quality_ratio"] for o in first_pass if o["ok"]]
    ok = sum(o["ok"] for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "command_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (ok / len(outcomes), "1"),
        # a run with no correct output has no quality figure; it is reported incorrect
        "quality_ratio": (statistics.fmean(quality) if quality else 0.0, "1"),
    }
    timing = {"samples": len(walls), "median_s": statistics.median(walls), "max_s": max(walls)}
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}, timing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "divsym" / "cli.py").is_file():
        print(f"no divsym sources under {SRC}", file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import divsym
    import divsym.cli
    if Path(divsym.__file__).resolve().parent != SRC / "divsym":
        print(f"divsym imported from {divsym.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = args.workload

    workdir = OUT / f"work-{workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "trace": args.trace,
              "seconds": args.seconds, "stamps": stamps(args.seed, nproc)}
    inputs = WORKLOADS[workload](args.seed, str(workdir))
    cli_main = divsym.cli.main

    if not args.trace:
        commands = [c for group in inputs for c in group]
        # set-up samples are spread over the run as the commands are: one
        # before the first command that starts after each SETUP_REPEATS-th of
        # --seconds, the rest after the last command
        setup = setup_timer(env)
        samples = []

        def sample_setup(busy):
            if busy >= len(samples) * args.seconds / SETUP_REPEATS:
                samples.append(setup())

        outcomes = run_passes(commands, args.seconds, cli_main, between=sample_setup)
        while len(samples) < SETUP_REPEATS:
            samples.append(setup())
        record["setup_samples_s"] = samples
        metrics, record["command_timing"] = end_to_end(outcomes, len(commands), statistics.median(samples))
    else:
        baseline = execute(inputs[0][0], cli_main)
        tracer = tracing.Tracer()
        with tracer:
            traced = run_passes(inputs[0], args.seconds, cli_main, tracer)
        summaries = [tracing.summarize(tracer, o["root"], o["quality"]) for o in traced]
        metrics = tracing.layer_values(summaries)
        first = [o["wall_s"] for o in traced if o["command"] == baseline["command"]]
        overhead = statistics.median(first) - baseline["wall_s"]
        metrics["trace.untraced_command_s"] = {"value": baseline["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record["layers"] = [{"metric": n, "unit": u, "moves": moves} for n, u, _, moves in tracing.LAYERS]
        record["counts"] = [{k: v for k, v in s["counts"].items() if not k.startswith("_")}
                            | {"covers": s["counts"].get("_covers", [])} for s in summaries]
        record["self_s"] = [dict(sorted(s["self"].items(), key=lambda kv: -kv[1])) for s in summaries]
        spans_path = OUT / f"spans-{workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump(tracing.span_records(tracer), fh)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        outcomes = [baseline] + traced

    for o in outcomes:
        o.pop("root", None)
    failed = sum(not o["ok"] for o in outcomes)
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    record.update(outcomes=outcomes, result=result)
    with open(OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for o in outcomes:
        if not o["ok"]:
            print(f"FAILED {o['command']}: {o['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
