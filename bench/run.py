"""Benchmark of lganet: one workload, one seed, one run.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It imports ``lganet`` from ``src/`` of
that checkout, caps the BLAS threads at the number of usable cores through
``LGA_THREADS``, generates the workload's inputs from ``--seed``, measures
for about ``--seconds`` seconds and checks every output. The full record of
the run (environment, seeds, fixture digest, every metric, the training
loss trace) goes to ``bench_out/``; with ``--trace 1`` the spans go there
too. The last line on standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with the ``end_to_end`` metrics of ``BENCHMARK.json`` for ``--trace 0`` and
its ``per_layer`` metrics for ``--trace 1``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train_desk", "infer_paper", "fd_mini", "ingest")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one lganet benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or "unknown"


def environment(np, threads: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_cap": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lganet" / "__init__.py").is_file():
        print(f"error: no lganet sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = str(len(os.sched_getaffinity(0)))
    os.environ["LGA_THREADS"] = threads  # read by lganet before numpy starts BLAS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    tmp_dir = ROOT / "bench_out" / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, threads, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import lganet, lganet.gradcheck; print(time.perf_counter() - t)")


def import_seconds(repeats: int) -> list[float]:
    """Time ``import lganet`` in fresh interpreters, the way every user pays it."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def measure(args, spec, threads: str, tmp_dir: Path) -> int:
    import lganet
    import lganet.gradcheck  # noqa: F401  (fd_mini drives it)
    if Path(lganet.__file__).resolve().parent != (ROOT / "src" / "lganet").resolve():
        print(f"error: imported lganet from {lganet.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    run = workloads.Run(lganet, args.seed, args.seconds, bool(args.trace), tmp_dir)
    imports = import_seconds(workloads.SETUP_REPEATS)
    workloads.WORKLOADS[args.workload](run)
    run.end_to_end["import_s"] = float(np.median(imports))
    run.end_to_end["setup_s"] = run.end_to_end["import_s"] + run.end_to_end["setup_body_s"]
    run.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.end_to_end["failed_ratio"] = run.failed / max(run.attempted, 1)

    section = "per_layer" if args.trace else "end_to_end"
    values = run.layers if args.trace else run.end_to_end
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            raise KeyError(f"workload {args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

    out_dir = ROOT / "bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(np, threads),
              "fixture": run.fixture_info, "problems": run.problems,
              "end_to_end": run.end_to_end, "per_layer": run.layers, "info": run.info,
              "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if run.spans is not None:
        with gzip.open(out_dir / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump(run.spans, fh)
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
