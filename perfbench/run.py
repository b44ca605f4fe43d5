"""Benchmark of isac-beamkit: optimised hybrid designs per second, and their quality.

    python3 perfbench/run.py --workload isac_narrowband --seed 1 --seconds 30 --trace 0

Run from the repository root. Set-up imports the package from ``src/`` and
builds the workload's scenarios and their ``PcrbEngine``; the timed part
then repeats whole rounds of the workload's cells until ``--seconds`` have
passed. Every distinct cell is checked against an independent
recomputation (``checks.py``), and every repeat must equal the first round
bit for bit. The last line of standard output is one JSON object:
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).
"""

import os
import sys
import time

_T_SCRIPT = time.perf_counter()

# BLAS threads are fixed before numpy is imported: one thread keeps the
# small dense kernels of the optimisers steady from run to run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_s_p50": "s",
    "peak_rss_mb": "MB",
    "pcrb_geomean": "rad2",
}
# traced layers reported as calls and self seconds per cell
LAYERS = (
    "quadrature.a1",
    "quadrature.btilde",
    "cvxkit.qcqp",
    "isac_opt.fpp_sca",
    "ofdm_opt.fpp_sca",
    "cvxkit.digital",
    "isac_opt.wmmse",
    "isac_opt.init",
    "cvxkit.eig",
    "sensing_opt.phase_align",
)
# per-cell counts: metric -> tracer counter
LAYER_COUNTS = {
    "cvxkit.qcqp.newton_steps": "cvxkit.qcqp.newton_steps",
    "isac_opt.fpp_sca.sca_iters": "isac_opt.fpp_sca.sca_iters",
    "ofdm_opt.fpp_sca.sca_iters": "ofdm_opt.fpp_sca.sca_iters",
    "cvxkit.digital.dual_solves": "cvxkit.digital.dual_solves",
    "cvxkit.digital.infeasible": "cvxkit.digital.raised.RateInfeasibleError",
    "bench.outer_iters": "bench.run_scheme.outer_iters",
}


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_SCRIPT


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(message: str) -> None:
    print(message, file=sys.stderr)


def run_rounds(bench, cells, seconds, tracer=None):
    """Whole rounds of the cells for about `seconds`, at least one.

    Another round starts while it is expected to end less than half a
    round past `seconds`, so a run ends within half a round of it.
    Returns (wall seconds, per-cell seconds, reports); a cell that raised
    holds its exception in place of a report.
    """
    times, reports = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for cell in cells:
            if tracer is not None:
                tracer.cell = len(reports)
            t0 = time.perf_counter()
            try:
                rep = bench.run_scheme(cell.scheme, cell.scenario, cell.engine, cell.ao_options)
            except Exception as exc:  # a failed cell is counted; the run goes on
                traceback.print_exc(file=sys.stderr)
                rep = exc
            times.append(time.perf_counter() - t0)
            reports.append(rep)
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) > seconds:
            break
    return time.perf_counter() - start, times, reports


def end_to_end(bench, checks, cells, seconds, setup_s):
    wall, times, reports = run_rounds(bench, cells, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, sound = checks.check_rounds(cells, reports, log)
    logs = [math.log(r.final_pcrb) for r in reports if not isinstance(r, Exception)]
    metrics = {
        "setup_s": setup_s,
        "cells_per_s": len(reports) / wall,
        "cell_s_p50": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
        "pcrb_geomean": math.exp(statistics.fmean(logs)) if logs else float("nan"),
    }
    return reports, failed, sound, metrics, END_TO_END_UNITS


def per_layer(bench, checks, tracer, cells, seconds, workload, seed):
    """One untraced round, then traced rounds that must repeat it bit for bit."""
    metrics = {"pcrb.engine.builds": tracer.calls["pcrb.engine"],
               "pcrb.engine.build_s": tracer.self_s["pcrb.engine"]}
    units = {"pcrb.engine.builds": "count", "pcrb.engine.build_s": "s"}
    tracer.uninstall()
    plain_wall, _, plain = run_rounds(bench, cells, 0.0)
    tracer.install()
    tracer.reset()
    traced_wall, _, traced = run_rounds(bench, cells, seconds - plain_wall, tracer)
    tracer.uninstall()
    reports = plain + traced
    failed, sound = checks.check_rounds(cells, reports, log)

    n = len(traced)
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls[layer] / n
        metrics[f"{layer}.self_s"] = tracer.self_s[layer] / n
        units[f"{layer}.calls"], units[f"{layer}.self_s"] = "count/cell", "s/cell"
    for metric, key in LAYER_COUNTS.items():
        metrics[metric], units[metric] = tracer.counts[key] / n, "count/cell"
    extra = {
        "pcrb.engine.cell_builds": (tracer.calls["pcrb.engine"], "count/cell"),
        "pcrb.engine.cell_build_s": (tracer.self_s["pcrb.engine"], "s/cell"),
        "bench.run_scheme.self_s": (tracer.self_s["bench.run_scheme"], "s/cell"),
    }
    for metric, (total, unit) in extra.items():
        metrics[metric], units[metric] = total / n, unit
    # traced against untraced designs per second
    metrics["trace.overhead_pct"] = 100.0 * ((len(plain) / plain_wall) / (n / traced_wall) - 1.0)
    units["trace.overhead_pct"] = "%"
    tracer.write(
        OUT / f"trace_{workload}_{seed}.json",
        workload=workload,
        seed=seed,
        # a span's cell is its traced cell's index (-1: set-up); its
        # label is cell_labels[cell % len(cell_labels)]
        cell_labels=[c.label for c in cells],
    )
    return reports, failed, sound, metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "isac_beamkit").is_dir():
        log(f"no package source under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import checks
    import tracing
    import workloads
    from isac_beamkit import bench

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2

    tracer = None
    if args.trace:
        # installed before set-up so the engine builds there are counted
        tracer = tracing.Tracer()
        for name in tracer.install():
            log(f"trace target {name} not found")
    cells = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = process_age()

    if tracer is None:
        result = end_to_end(bench, checks, cells, args.seconds, setup_s)
    else:
        result = per_layer(bench, checks, tracer, cells, args.seconds, args.workload, args.seed)
    reports, failed, sound, metrics, units = result
    print(
        json.dumps(
            {
                "correct": bool(sound),
                "attempted": len(reports),
                "failed": int(failed),
                "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
