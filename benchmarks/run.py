"""pdem-si benchmark: one command per workload, every metric by name and unit.

    python3 benchmarks/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
One process, one client, closed loop: each request starts when the previous
one has returned.  BLAS threads are pinned to 1.  A run repeats the seeded pass
of its workload while the passes measured so far leave room for one more in
``--seconds``; ``--trace 1`` alternates untraced and traced passes.  The
verification spectrum cache is cleared before every pass.  Every latency is
rescaled to a reference host speed (hostspeed.py), and a request's time is the
median of its rescaled latencies over the untraced passes.  Outputs are checked
after each pass, outside the timed region; a request counts once in
``attempted``, and in ``failed`` if any of its passes failed.  The last line of
stdout is the JSON result; see README.md.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PDEM_GRID_N", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "oracle_err_gmean": "ratio",
    "peak_rss_mb": "MB",
}

_SETUP_CODE = """
import pathlib, sys
sys.path.insert(0, sys.argv[2])
import hostspeed
with hostspeed.Meter() as meter:
    import pdem_si
if not pathlib.Path(pdem_si.__file__).resolve().is_relative_to(pathlib.Path(sys.argv[1])):
    sys.exit("pdem_si imported from outside the checkout: " + pdem_si.__file__)
print(repr(meter.normalized))
"""


def _fail(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def import_time() -> float:
    """Wall time of `import pdem_si` (which builds the catalog) in a fresh interpreter,
    with the bytecode cache in use as in a normal installation, rescaled to the
    reference host speed by a hostspeed.Meter in that interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR)], env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        _fail(f"fresh-interpreter import failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a mean of all order
    statistics weighted by a Beta((n+1)q/100, (n+1)(1-q/100)) density.  Latencies
    cluster by entry, so a nearest-rank percentile jumps between clusters as
    the seed moves a cluster's edge; this estimate moves smoothly."""
    x = np.sort(values)
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    u = np.linspace(0.0, 1.0, 20001)
    mid = (u[1:] + u[:-1]) / 2
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, u, cdf / cdf[-1]))
    return float(weights @ x)


def request_times(passes: list, key: str = "normalized") -> list:
    """Each request's median latency over the given passes."""
    return [statistics.median(lats) for lats in zip(*(r[key] for r in passes))]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness test only")
    ns = p.parse_args(argv)

    if not (SRC / "pdem_si" / "__init__.py").is_file():
        _fail(f"no source package at {SRC / 'pdem_si'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pdem_si

    if not Path(pdem_si.__file__).resolve().is_relative_to(SRC):
        _fail(f"pdem_si imported from {pdem_si.__file__}, not from {SRC}")
    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracing
    import workloads

    if ns.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {ns.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    setup_samples = 1 if ns.smoke else SETUP_SAMPLES
    setup_times = []
    if not ns.trace:
        import_time()  # fills the bytecode cache; not counted
    requests = workloads.WORKLOADS[ns.workload](ns.seed, smoke=ns.smoke)
    checker = workloads.Checker()
    tracer = tracing.Tracer() if ns.trace else None

    untraced, traced, layer = [], [], []
    while True:
        trace_this = bool(ns.trace) and len(untraced) > len(traced)
        if trace_this:
            tracer.reset()
            tracer.install()
        try:
            result = workloads.run_pass(requests, tracer if trace_this else None)
        finally:
            if trace_this:
                tracer.uninstall()
        result["statuses"] = workloads.check_pass(requests, result.pop("outputs"), checker)
        if trace_this:
            layer.append(tracer.layer_metrics())
            traced.append(result)
        else:
            untraced.append(result)
        if not ns.trace and len(setup_times) < setup_samples:
            # one set-up sample between passes, so the samples span the run's speed phases
            setup_times.append(import_time())
        passes = untraced + traced
        measured = sum(r["wall"] for r in passes)
        if len(traced) >= ns.trace and measured + statistics.median(r["wall"] for r in passes) > ns.seconds:
            break

    # a request counts once, however many passes ran it, so that attempted and
    # failed depend on the seed alone and not on how many passes fitted
    per_request = list(zip(*(r["statuses"] for r in passes)))
    attempted = len(per_request)
    failed = [sts for sts in per_request if any(s[1] != workloads.OK for s in sts)]
    correct = not any(s[1] == workloads.WRONG for sts in per_request for s in sts)
    for label, status, reason in sorted({s for sts in failed for s in sts if s[1] != workloads.OK}):
        print(f"{status}: {label}: {reason}")
    for sts in failed:
        if len({s[1] for s in sts}) > 1:
            print(f"warning: {sts[0][0]} failed in some passes only", file=sys.stderr)

    while not ns.trace and len(setup_times) < setup_samples:
        setup_times.append(import_time())
    times = request_times(untraced)
    if ns.trace:
        for name in tracing.DETERMINISTIC:
            seen = {m[name] for m in layer}
            if len(seen) > 1:
                print(f"warning: {name} differs between traced passes: {sorted(seen)}", file=sys.stderr)
        per_layer = tracing.median_metrics(layer)
        per_layer["trace_overhead_frac"] = sum(request_times(traced)) / sum(times) - 1.0
        units = tracing.PER_LAYER_UNITS
        metrics = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
        print(f"{ns.workload}: per-layer numbers, median over {len(traced)} traced pass(es) of {len(times)} requests")
    else:
        wall = sum(times)
        ok_frac = 1.0 - len(failed) / attempted
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "ops_per_s": len(times) / wall,
            "op_p50_ms": 1e3 * percentile(times, 50),
            "op_p90_ms": 1e3 * percentile(times, 90),
            "ok_frac": ok_frac,
            "oracle_err_gmean": checker.err_gmean(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        slowdowns = [f for r in untraced for f in r["slowdowns"]]
        print(
            f"{ns.workload}: {len(untraced)} passes of {len(times)} requests; times are each request's median "
            f"of {len(untraced)} repeats at reference host speed, percentiles over {len(times)} requests; "
            f"{len(checker.oracle_errors)} oracle comparisons; setup_s median of {setup_samples} imports"
        )
        print(
            f"  host slowdown median {statistics.median(slowdowns):.3f} (range {min(slowdowns):.3f}-"
            f"{max(slowdowns):.3f}); raw pass time {sum(request_times(untraced, 'latencies')):.4g} s"
        )
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
