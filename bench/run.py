"""Benchmark command: run one workload and print its metrics.

    python3 bench/run.py --workload train-desk-wn18rr --seed 1 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Run it from any directory; it imports the
library from the `src` directory beside `bench`. It prints one line per
metric and check, then, as its last line, a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result, with the
environment, the graph statistics, every step time and every loss at full
precision, goes to .bench_results/ at the repository root; traced runs also
write their spans there. Exit code 0 means every output check passed.
"""

from __future__ import annotations

import os

# one BLAS thread per core, at most two, fixed before numpy loads
_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """The `meim` package from this checkout's src; without it, exit with a message only."""
    sys.path.insert(0, str(SRC))
    try:
        import meim
    except ImportError as exc:
        sys.exit(f"cannot import meim from {SRC}: {exc}")
    if not Path(meim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"meim was imported from {meim.__file__}, not from {SRC}")
    return meim


def blas_threads(np) -> int | None:
    """Threads of the OpenBLAS that numpy loaded, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(np),
        "blas_threads_env": _THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meim = import_library()
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(np)
    print("environment " + json.dumps(env))

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        result = workloads.run(meim, workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = result.details
    spans = details.pop("spans", None)
    losses = details.get("losses", [])
    details["loss_digest"] = hashlib.sha256(json.dumps(losses).encode()).hexdigest()
    error_rate = result.failed / result.attempted
    print(f"workload {workload.name}: {workload.why}")
    print("graph " + json.dumps(details.get("graph")))
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric error_rate = {error_rate!r} ratio ({result.failed} of {result.attempted})")
    if "step_s_tail_percentile" in details:
        print(f"step_s_tail is the p{details['step_s_tail_percentile']:.1f} "
              f"of {len(details['step_s'])} steps")
    overhead = details.get("trace_overhead")
    if overhead:
        print(f"trace.overhead_s is {overhead['spans_per_step']:g} spans per step "
              f"x {overhead['span_cost_s']:.3g} s per span")
        if "interleaved_diff_s" in overhead:
            print(f"traced minus untraced median step: {overhead['interleaved_diff_s']:.4g} s, "
                  f"untraced quartile spread {overhead['untraced_iqr_s']:.4g} s, "
                  + ("resolved" if overhead["resolved"] else "unresolved (noise)"))
    if details.get("absent_metrics"):
        print("absent (read 0): " + ", ".join(details["absent_metrics"]))
    for name, ok in result.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for error in details.get("errors", []):
        print(f"error {error}")
    print(f"losses {len(losses)} sha256 {details['loss_digest']}")

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": result.correct,
              "attempted": result.attempted, "failed": result.failed, "error_rate": error_rate,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
              "checks": result.checks, **details}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        (results / f"{tag}.spans.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent] for s in spans]))

    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
