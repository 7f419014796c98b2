"""Run one psq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; psq is imported from ./src.  The seed fixes
the workload's inputs.  Passes over the inputs repeat until about `seconds`
have been measured (at least one).  With --trace 0 the run reports the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(see README.md).  Either way the outputs are checked against a reference
outside the timed region.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where `failed`
counts the points that failed in a way `workloads.KNOWN_FAILURES` does not
record; the known failures are counted in the metrics.  A full record (the
environment, failure taxonomy, and, when traced, the spans) goes to
./.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("exact_ladder", "exact_queries", "asym_surface", "corner_curves")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BL_SUBREGIONS = ("D1", "D2", "D3")
SUBCRITICAL_LABELS = ("R2", "R3", "T1", "T2", "BL_nsigma", "BL_xtau", "BL_ntau")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: do the workload's set-up, print 'ready' and exit",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads() -> int:
    """Cap BLAS and OpenMP thread pools at the CPUs this process may use.

    Must run before numpy is imported; child processes inherit the setting.
    """
    limit = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    limit = max(1, limit or 1)
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= limit):
            os.environ[var] = str(limit)
    return limit


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from process start to the end of set-up, in fresh processes.

    Each probe imports psq, builds the workload's inputs (and for
    exact_queries its decomposition), prints 'ready' and exits.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
        times.append(elapsed)
    return times


def run_passes(workload, plain, kit, tracer, seconds: float):
    """Timed passes until `seconds` are spent; traced runs alternate an
    untraced and a traced pass, starting untraced, with at least one each.

    Another pass starts only while at least half a mean pass remains, so the
    pass count is round(seconds / pass time) and does not flip on noise.
    Returns the untraced and traced tallies, and the outputs of the first
    pass for the reference check.
    """
    from perfbench.workloads import Tally

    untraced, traced = Tally(), Tally()
    record: list = []
    start = time.perf_counter()
    passes = 0
    while True:
        if tracer is not None and passes % 2 == 1:
            tracer.phase = len(traced.walls) + 1
            with tracer.installed():
                t0 = time.perf_counter()
                workload.run_pass(kit, traced)
                traced.end_pass(time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
            workload.run_pass(plain, untraced, record if passes == 0 else None)
            untraced.end_pass(time.perf_counter() - t0)
        passes += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and passes < 2:
            continue
        if seconds - elapsed < 0.5 * elapsed / passes:
            return untraced, traced, record


def exact_floor_and_peak(workload) -> tuple[float, float]:
    """LAPACK eigh_tridiagonal time on the matrices one repetition
    decomposes, and the tracemalloc peak (MB) of decomposing the largest."""
    decomposed = getattr(workload, "decomposed", None)
    if decomposed is None:
        return 0.0, 0.0
    import tracemalloc

    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    from psq import exact

    floor = 0.0
    for params in decomposed():
        gen = exact.build_generator(params)
        off = np.sqrt(gen.sup * gen.sub)
        t0 = time.perf_counter()
        eigh_tridiagonal(gen.diag, off)
        floor += time.perf_counter() - t0
    largest = max(decomposed(), key=lambda p: p.population)
    gen = exact.build_generator(largest)
    tracemalloc.start()
    try:
        exact.spectral_decompose(gen, largest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return floor, peak / 2**20


def per_pass(value: float, passes: int) -> float:
    return value / passes if passes else 0.0


def layer_metrics(stats: dict, tally, floor: float, peak_mb: float, overhead: float) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    from perfbench.spans import LayerStat

    none = LayerStat(0.0, 0.0, 0.0, 0.0, {})
    passes = len(tally.walls)

    def stat(name: str) -> LayerStat:
        return stats.get(name, none)

    def fails(layer: str, kind: str | None = None) -> float:
        return per_pass(
            sum(
                c
                for (lay, k, _), c in tally.failures.items()
                if lay == layer and (kind is None or k == kind)
            ),
            passes,
        )

    m = {
        "exact.spectral_decompose_s": (stat("exact.spectral_decompose").inclusive_s, "s"),
        "exact.eigh_floor_s": (floor, "s"),
        "exact.spectral_decompose_peak_mb": (peak_mb, "MB"),
        "exact.cond_log_us": (stat("exact.cond_log").mean_us, "us"),
        "exact.uncond_log_us": (stat("exact.uncond_log").mean_us, "us"),
        "exact.cond_log.calls": (stat("exact.cond_log").calls, "count"),
        "exact.cond_log.nonpos": (fails("exact.cond_log", "sign"), "count"),
        "subcritical.classify_us": (stat("subcritical.classify").mean_us, "us"),
    }
    bl = [f"subcritical.BL_xsigma.{sub}" for sub in BL_SUBREGIONS]
    bl_calls = sum(stat(name).calls for name in bl)
    bl_time = sum(stat(name).inclusive_s for name in bl)
    m["subcritical.BL_xsigma_us"] = (1e6 * bl_time / bl_calls if bl_calls else 0.0, "us")
    m["subcritical.BL_xsigma.calls"] = (bl_calls, "count")
    m["subcritical.BL_xsigma.fails"] = (sum(fails(name) for name in bl), "count")
    for name in [f"subcritical.{label}" for label in SUBCRITICAL_LABELS] + bl + [
        "supercritical.xi_tau_expansion",
        "infinite.invert_density",
    ]:
        m[f"{name}_us"] = (stat(name).mean_us, "us")
        m[f"{name}.calls"] = (stat(name).calls, "count")
        m[f"{name}.fails"] = (fails(name), "count")
    ts = stat("specfun.tanh_sinh")
    roots = stat("specfun.find_root_bracketed")
    m.update(
        {
            "infinite.transform_phat_us": (stat("infinite.transform_phat").mean_us, "us"),
            "infinite.transform_phat.calls": (stat("infinite.transform_phat").calls, "count"),
            "specfun.tanh_sinh.calls": (ts.calls, "count"),
            "specfun.tanh_sinh.nodes": (ts.count, "count"),
            "specfun.tanh_sinh_s": (ts.self_s, "s"),
            "specfun.tanh_sinh.depth_fails": (ts.errors.get("MaxDepthExceeded", 0.0), "count"),
            "specfun.quad_to_infinity.calls": (stat("specfun.quad_to_infinity").calls, "count"),
            "specfun.find_root_bracketed.calls": (roots.calls, "count"),
            "specfun.find_root_bracketed.f_evals": (roots.count, "count"),
            "specfun.find_root_bracketed_s": (roots.self_s, "s"),
            "specfun.elliptic_KE.calls": (stat("specfun.elliptic_KE").calls, "count"),
            "specfun.parabolic_cylinder_H.calls": (
                stat("specfun.parabolic_cylinder_H").calls,
                "count",
            ),
            "specfun.cut_integral.calls": (stat("specfun.cut_integral").calls, "count"),
            "specfun.cut_integral_s": (stat("specfun.cut_integral").self_s, "s"),
            "trace.overhead_frac": (overhead, "ratio"),
        }
    )
    return m


def end_to_end_metrics(setup_times: list, tally, check) -> dict:
    points = tally.points
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(tally.walls), "s"),
        "point_p50_ms": (1e3 * tally.pass_percentile(50), "ms"),
        "point_p99_ms": (1e3 * tally.pass_percentile(99), "ms"),
        "ok_frac": (1.0 - tally.failed / points, "ratio"),
        "raw_error_free_frac": (1.0 - tally.raw_errors / points, "ratio"),
        "ref_agree_frac": (check.agreed / check.checked, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def taxonomy(tally) -> dict:
    """Per layer and per pass: points attempted, failures by exception class
    or kind (nonfinite, sign, nonpositive), and how many were raw errors."""
    passes = len(tally.walls)
    out = {}
    for layer, attempted in sorted(tally.attempted.items()):
        by_kind = {
            kind: per_pass(c, passes)
            for (lay, kind, _), c in sorted(tally.failures.items())
            if lay == layer
        }
        raw = sum(c for (lay, _, r), c in tally.failures.items() if lay == layer and r)
        out[layer] = {
            "attempted": per_pass(attempted, passes),
            "failures": by_kind,
            "raw_errors": per_pass(raw, passes),
        }
    return out


def git_commit() -> str | None:
    """Commit of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
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


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args: argparse.Namespace, threads: int) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        # the build's directories say nothing about the library in use
        blas = {k: v for k, v in blas.items() if not k.endswith("directory")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "psq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": threads,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "psq_source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "psq" / "__init__.py").is_file():
        print(f"perfbench: psq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # numpy, psq and the benchmark's own modules are imported only from here
    # on, inside functions, so that the thread caps apply to them
    threads = pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.setup_probe:
        from perfbench.workloads import WORKLOADS, Kit

        cls = WORKLOADS[args.workload]
        cls(args.seed, Kit.build(cls.calls, None))
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else measure_setup(args)

    from perfbench.spans import Tracer, layer_stats
    from perfbench.workloads import WORKLOADS, Kit

    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    plain = Kit.build(cls.calls, None)
    kit = Kit.build(cls.calls, tracer)
    if tracer is not None:
        with tracer.installed():
            workload = cls(args.seed, kit)
    else:
        workload = cls(args.seed, plain)

    untraced, traced, record = run_passes(workload, plain, kit, tracer, args.seconds)
    check = workload.check(record)

    if tracer is None:
        metrics = end_to_end_metrics(setup_times, untraced, check)
    else:
        floor, peak_mb = exact_floor_and_peak(workload)
        overhead = statistics.median(traced.walls) / statistics.median(untraced.walls) - 1.0
        stats = layer_stats(tracer, len(traced.walls))
        metrics = layer_metrics(stats, traced, floor, peak_mb, overhead)

    attempted = untraced.points + traced.points
    failed = untraced.failed + traced.failed
    result = {
        "correct": not check.unexpected,
        "attempted": attempted,
        "failed": untraced.unexpected + traced.unexpected,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record_doc = {
        "environment": environment(args, threads),
        "passes": {"untraced": untraced.walls, "traced": traced.walls},
        "setup_s_samples": setup_times,
        "latency_samples": len(untraced.latencies),
        "fail_frac": failed / attempted,
        "raw_error_frac": (untraced.raw_errors + traced.raw_errors) / attempted,
        "taxonomy": taxonomy(untraced),
        "check": {
            "checked": check.checked,
            "agreed": check.agreed,
            "unexpected": check.unexpected[:50],
        },
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record_doc, fh, indent=1, default=float)
    if tracer is not None:
        tracer.write(f"{stem}-spans.npz")

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(
        f"points {attempted}, failed {failed} ({result['failed']} unexpected; fail_frac "
        f"{record_doc['fail_frac']:.4f}, raw_error_frac {record_doc['raw_error_frac']:.4f}); reference "
        f"{check.agreed}/{check.checked} agree, {len(check.unexpected)} unexpected"
    )
    for layer, row in record_doc["taxonomy"].items():
        if row["failures"]:
            print(f"  {layer}: {row['attempted']:g} points, failures {row['failures']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
