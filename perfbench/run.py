"""mortonseg benchmark: end-to-end metrics per workload, or a traced run.

One workload, in this process:

    python3 perfbench/run.py --workload train_desk --seed 0 --seconds 20 --trace 0

prints the workload's metrics and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
full record (environment, input digest, unit times, checks) goes to
.perfbench_out/ at the root of the checkout.

Every workload, each in its own process, untraced then traced:

    python3 perfbench/run.py [--seed 0] [--seconds 20]

The BLAS pool is pinned before numpy loads; see README.md in this
directory for the workloads, the metrics and the first baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("train_desk", "train_full", "scan_long", "eval_window")
DEFAULT_SECONDS = 20
SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: the package's claim is single-threaded CPU speed, and a
# spinning multi-thread pool collapses whenever anything else shares the cores.
BLAS_THREADS = 1
TAIL_BEYOND = 10
# large arrays come from a heap kept between units (see pin_allocator)
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 31)}


def pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def pin_allocator(argv: list) -> None:
    """Restart this process under MALLOC_ENV unless it already runs under it.

    glibc reads these variables only at start-up, so the process execs
    itself (same pid, no child). Without them every array above 32 MB is
    a fresh mmap: a scan_long unit then spends a quarter of its time in
    page faults, whose cost follows the host's memory pressure: on a
    shared 2-core VM it moved whole runs by 20%.
    """
    if all(os.environ.get(k) == v for k, v in MALLOC_ENV.items()):
        return
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv)


def import_package():
    """Import mortonseg from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mortonseg
    if not os.path.abspath(mortonseg.__file__).startswith(src + os.sep):
        raise ImportError(f"mortonseg imported from {mortonseg.__file__}, "
                          f"not from {src}")
    return mortonseg


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": NPROC, "cpu": cpu, "blas_threads": BLAS_THREADS,
            "malloc": " ".join(f"{k}={v}" for k, v in MALLOC_ENV.items())}


def tail(times: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Never below the median: with too few samples for such a percentile
    above the median, the upper median (rank n//2 + 1) is reported.
    Returns (value, percentile, samples beyond).
    """
    s = sorted(times)
    n = len(s)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)  # 1-based rank of the value
    return s[rank - 1], 100.0 * rank / n, n - rank


def timed_phase(w, seconds: float, min_units: int = 1, tracer=None):
    """Closed loop of units for `seconds`; returns (times, failures, wall)."""
    from mortonseg.tensor import NumericalError
    times, failed = [], 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(times) < min_units:
        idx = tracer.open("unit") if tracer else None
        a = time.perf_counter()
        try:
            w.unit()
        except NumericalError as exc:  # the state is unusable after this
            print(f"unit {len(times)} failed: {exc}", file=sys.stderr)
            failed += 1
            break
        finally:
            if tracer:
                tracer.close(idx)
        times.append(time.perf_counter() - a)
    return times, failed, time.perf_counter() - t0


def run_workload(args) -> int:
    from statistics import median
    import resource

    mortonseg = import_package()
    import workloads
    import_s = time.perf_counter() - T_START
    w = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        idx = tr.open("setup")
        w.build(args.seed)
        w.warm_up()
        tr.close(idx)
        tr.uninstall()
        plain, failed_u, _ = timed_phase(w, args.seconds / 2)
        tr.install()
        times, failed_t, _ = timed_phase(w, args.seconds / 2, tracer=tr)
        extra = w.finish(Path(OUT_DIR), tr)
        tr.uninstall()
        unit_failures = failed_u + failed_t
        metrics = tracing.layer_metrics(tr, extra)
        metrics["trace_overhead_frac"] = (
            median(times) / median(plain) - 1.0, "ratio")
        tr.write(os.path.join(OUT_DIR, f"{tag}-spans.json"))
    else:
        set_ups = []
        for _ in range(SETUP_REPEATS):  # the last one is kept
            a = time.perf_counter()
            w.build(args.seed)
            w.warm_up()
            set_ups.append(time.perf_counter() - a)
        setup_s = import_s + median(set_ups)
        times, unit_failures, wall = timed_phase(w, args.seconds,
                                                 w.min_units)
        w.finish(Path(OUT_DIR))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t_val, t_pct, t_beyond = tail(times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "step_s_p50": (median(times), "s"),
            "step_s_tail": (t_val, "s"),
            "voxels_per_s": (w.voxels_per_unit * len(times) / wall, "voxel/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    checks = w.checks()
    if args.trace:
        checks.append(tracing.self_time_check(tr))
    failed_checks = sum(not c.ok for c in checks)
    attempted = len(times) + (len(plain) if args.trace else 0) + len(checks)
    failed = unit_failures + failed_checks
    results = {} if args.trace else w.result_metrics()
    results["failed_frac"] = (failed / attempted, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {len(times)}  (mortonseg {mortonseg.__version__})")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"inputs sha256 {w.input_digest()}")
    for name, (value, unit) in {**metrics, **results}.items():
        note = ""
        if name == "step_s_tail":
            note = f"   (p{t_pct:.1f}, {t_beyond} beyond, n={len(times)})"
        elif name == "step_s_p50":
            note = f"   (n={len(times)})"
        elif name == "loss_final":
            note = f"   (step {workloads.LOSS_STEP})"
        print(f"  {name:32s} {value:.6g} {unit}{note}")
    for c in checks:
        print(f"  check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "inputs_sha256": w.input_digest(), "unit_times_s": times,
              "checks": [c.to_dict() for c in checks],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **results}.items()},
              "attempted": attempted, "failed": failed}
    if not args.trace:
        record["setup_parts_s"] = {"import": import_s, "set_ups": set_ups}
        record["step_s_tail_percentile"] = t_pct
        record["step_s_tail_beyond"] = t_beyond
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, untraced then traced."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines() or [""]
            print("\n".join(lines[:-1]))
            try:
                ok = proc.returncode == 0 and json.loads(lines[-1])["correct"]
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                print(lines[-1])
                print(f"{name} trace {trace}: FAILED (exit {proc.returncode})")
                status = 1
            print()
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="run one workload here (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    pin_blas()
    pin_allocator(sys.argv[1:] if argv is None else list(argv))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
