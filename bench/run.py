"""Benchmark of fpverify: enroll_verify, identify and classify.

    python3 bench/run.py --workload enroll_verify --seed 1 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Without ``--workload`` it runs every workload, each in a fresh
process, and prints every metric by name with its unit. Each workload run
also writes its result, with the machine it ran on, to ``bench/results/``.
A run measures for ``--seconds``, by default the ``run_seconds`` of
``BENCHMARK.json``.

The exit code is 0 when every checked output was correct and no operation
failed, 1 otherwise, and 2 when the program under test cannot be found.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("enroll_verify", "identify", "classify")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def run_seconds() -> float:
    """The run length ``BENCHMARK.json`` names."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    except (OSError, ValueError, KeyError) as exc:
        fail(f"no --seconds given and no run_seconds in BENCHMARK.json: {exc}")


def require_program() -> None:
    if not (SRC / "fpverify" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'fpverify'} is missing")


def import_program() -> None:
    """Import fpverify from this checkout's src/, and nothing else."""
    require_program()
    sys.path.insert(0, str(SRC))
    import fpverify

    if Path(fpverify.__file__).resolve().parent != (SRC / "fpverify").resolve():
        fail(f"imported fpverify from {fpverify.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_one(args) -> int:
    import_program()
    if args.seconds is None:
        args.seconds = run_seconds()
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    run = workloads.Run(seconds=args.seconds, tracer=tracer)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        if tracer is not None:
            tracer.install()
        try:
            e2e = workloads.run_workload(args.workload, args.seed, run, workloads.Sizes(), tmp)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = []
    if tracer is not None:
        metrics, missing = tracer.metrics()
    else:
        metrics = e2e
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    env = environment()
    print(f"# env {json.dumps(env)}")
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
        f"attempted {run.attempted}, failed {run.failed}, correct {str(run.correct).lower()}"
    )
    if tracer is not None:
        rates = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in e2e.items())
        print(f"# traced end-to-end figures (tracing on, not comparable): {rates}")
    for name, m in run.details.items():
        print(f"# {args.workload} {name} {m['value']:.6g} {m['unit']}")
    for name in missing:
        print(f"# missing per-layer metric {name}: the function it wraps is gone")
    for msg in run.errors:
        print(f"# failed operation: {msg}")
    for msg in run.checks.failures[:20]:
        print(f"# CHECK FAILED: {msg}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "missing": missing,
        "check_failures": run.checks.failures,
        "errors": run.errors,
        "details": run.details,
        "end_to_end_traced" if tracer is not None else "end_to_end": e2e,
        **result,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result), flush=True)
    return 0 if run.correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process; print all metrics by name."""
    require_program()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"# {name}: no result (exit code {proc.returncode})")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of fpverify.")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measurement time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics instead of end-to-end")
    args = ap.parse_args()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
