"""The benchmark's span tracer still finds every layer it measures."""

import importlib.util
import os

import isac_beamkit
from isac_beamkit import bench, cvxkit, isac_opt  # every module the benchmark traces

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")

# ofdm_opt was folded into isac_opt; its target is known to be stale
STALE = {"isac_beamkit.ofdm_opt.fpp_sca_vrf_ofdm"}


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    solver = cvxkit.rate_constrained_trace_max_multi
    tracer = tracing.Tracer()
    try:
        missing = tracer.install()
        assert isac_opt.rate_constrained_trace_max_multi is not solver
    finally:
        tracer.uninstall()
    assert set(missing) <= STALE
    assert isac_opt.rate_constrained_trace_max_multi is solver
    assert isac_beamkit.rate_constrained_trace_max_multi is solver
    assert bench.run_scheme.__module__ == "isac_beamkit.bench"
