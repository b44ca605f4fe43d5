"""Benchmark schemes, parameter sweeps, Monte-Carlo aggregation, power patterns.

Scheme catalogue (sensing-only when the scenario's rate target is zero):

  fully_digital     both ends fully digital; convex, solved exactly
  fd_receive        fully-digital receiver, hybrid transmitter optimized
  fd_transmit       fully-digital transmitter, receive side + digital optimized
  random_phase:N    best of N uniform-phase analog draws, exact digital stage
  direction_align   analog columns steer at the user and the most probable
                    target angles; receive/digital optimized
  partial_prior     runs the AO with the engine collapsed onto the most
                    probable angle (PcrbEngine.at_angle), i.e. optimizes the
                    point CRB there, and is scored by the true PCRB
  proposed          the alternating optimizer of this package
"""

from __future__ import annotations

import contextlib
import enum
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cvxkit import RateInfeasibleError
from .designs import AoReport, HybridDesign, RxIdentity, default_rx, digital_factor
from .isac_opt import _optimal_rbb_design, ao_p1, ao_p2, design_report, init_random_phase
from .model import (
    ModelError,
    RicianChannelSpec,
    RxArchitecture,
    Scenario,
    realize_channel,
    steering_block,
    steering_vector,
)
from .pcrb import PcrbEngine
from .scenarios import dbm_to_watt
from .sensing_opt import _initial_r_bb


class SchemeError(ValueError):
    """Malformed scheme label or scheme/scenario mismatch (missing channel recipe, ...)."""


class SchemeKind(enum.Enum):
    FULLY_DIGITAL = "fully_digital"
    FD_RECEIVE = "fd_receive"
    FD_TRANSMIT = "fd_transmit"
    RANDOM_PHASE = "random_phase"
    DIRECTION_ALIGN = "direction_align"
    PARTIAL_PRIOR = "partial_prior"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class Scheme:
    kind: SchemeKind
    n_rand: int = 100

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        """Scheme from its label; raises SchemeError for an unknown name, a
        random_phase count that is not a positive integer, or an argument
        on a scheme that takes none."""
        name, sep, arg = text.partition(":")
        try:
            kind = SchemeKind(name)
        except ValueError:
            known = ", ".join(k.value for k in SchemeKind)
            raise SchemeError(f"unknown scheme {name!r} (known: {known})") from None
        if not sep:
            return cls(kind)
        if kind is not SchemeKind.RANDOM_PHASE:
            raise SchemeError(f"scheme {name!r} takes no argument, got {text!r}")
        if not (arg.isdecimal() and int(arg) >= 1):
            raise SchemeError(f"scheme 'random_phase' needs a positive integer count, got {arg!r}")
        return cls(kind, int(arg))

    def label(self) -> str:
        if self.kind is SchemeKind.RANDOM_PHASE:
            return f"random_phase:{self.n_rand}"
        return self.kind.value


def _fully_digital_scenario(scenario: Scenario, n_rf_tx: int) -> Scenario:
    """The scenario with a fully-digital receiver and n_rf_tx transmit chains."""
    arrays = replace(
        scenario.arrays,
        n_rf_tx=n_rf_tx,
        n_rf_rx=scenario.arrays.n_rx,
        rx_architecture=RxArchitecture.FULLY_DIGITAL,
    )
    return scenario.replace(arrays=arrays)


def _alignment_matrix(scenario: Scenario) -> np.ndarray:
    spec = scenario.channel_spec
    if not isinstance(spec, RicianChannelSpec):
        raise SchemeError(
            "direction_align needs a narrowband channel recipe with a known user angle"
        )
    arrays = scenario.arrays
    prior = scenario.angle_prior
    order = np.argsort(-prior.weights, kind="stable")
    cols = [steering_vector(arrays.n_tx, spec.theta_user)]
    for j in range(1, arrays.n_rf_tx):
        if j - 1 < order.size:
            cols.append(steering_vector(arrays.n_tx, float(prior.means[order[j - 1]])))
        else:
            cols.append(steering_vector(arrays.n_tx, spec.theta_user))
    return np.stack(cols, axis=1)


def _dispatch_ao(scenario: Scenario, engine: PcrbEngine, ao_options: dict, **start) -> AoReport:
    """ao_p2 for OFDM, ao_p1 for narrowband, at any rate target.

    start holds a scheme's init_design or fixed_v.
    """
    optimize = ao_p2 if scenario.subcarriers > 1 else ao_p1
    return optimize(scenario, engine, **start, **ao_options)


def run_scheme(
    scheme: Scheme,
    scenario: Scenario,
    engine: Optional[PcrbEngine] = None,
    ao_options: Optional[dict] = None,
) -> AoReport:
    """Evaluate one benchmark scheme on a scenario.

    For surrogate-objective schemes the report's trace logs the scheme's own
    objective while final_pcrb is always the true posterior bound of the
    returned design.
    """
    t_start = time.perf_counter()
    ao_options = dict(ao_options or {})

    if engine is None:
        engine = PcrbEngine(scenario)

    if scheme.kind is SchemeKind.FULLY_DIGITAL:
        sc = _fully_digital_scenario(scenario, scenario.arrays.n_tx)
        eng = engine.for_scenario(sc)
        rx = RxIdentity()
        design = _optimal_rbb_design(sc, HybridDesign(None, (), rx), eng.a1_of(rx))[0]
        return design_report(sc, eng, design, t_start)

    if scheme.kind is SchemeKind.FD_RECEIVE:
        sc = _fully_digital_scenario(scenario, scenario.arrays.n_rf_tx)
        return _dispatch_ao(sc, engine.for_scenario(sc), ao_options)

    if scheme.kind is SchemeKind.PROPOSED:
        return _dispatch_ao(scenario, engine, ao_options)

    if scheme.kind is SchemeKind.RANDOM_PHASE:
        design = init_random_phase(scenario, scheme.n_rand, scenario.seed, engine)
        return design_report(scenario, engine, design, t_start)

    if scheme.kind is SchemeKind.FD_TRANSMIT:
        arrays = scenario.arrays
        fd_tx = replace(arrays, n_rf_tx=arrays.n_tx)
        sc = scenario.replace(arrays=fd_tx)
        eng = engine.for_scenario(sc)
        k = sc.subcarriers
        r0 = [np.eye(arrays.n_tx, dtype=complex) * (sc.power / arrays.n_tx / k)] * k
        init = HybridDesign(None, tuple(r0), default_rx(fd_tx))
        return _dispatch_ao(sc, eng, ao_options, init_design=init)

    if scheme.kind is SchemeKind.DIRECTION_ALIGN:
        arrays = scenario.arrays
        r0 = _initial_r_bb(scenario, arrays.n_rf_tx)
        init = HybridDesign(_alignment_matrix(scenario), tuple(r0), default_rx(arrays))
        return _dispatch_ao(scenario, engine, ao_options, init_design=init, fixed_v=True)

    if scheme.kind is SchemeKind.PARTIAL_PRIOR:
        theta_max = scenario.angle_prior.most_probable_angle()
        rep = _dispatch_ao(scenario, engine.at_angle(theta_max), ao_options)
        return replace(rep, final_pcrb=engine.pcrb(rep.design))

    raise SchemeError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_VARIABLES = ("power_dbm", "rate_target_bits", "n_rf_tx")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment family: a scenario template, a swept variable, schemes."""

    scenario: Scenario
    variable: str
    values: tuple
    schemes: tuple
    trials: int = 1
    seed: int = 0
    rf_budget: int = 0            # used by the n_rf_tx sweep
    record_timings: bool = False
    ao_options: Optional[tuple] = None   # (key, value) pairs, picklable

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("sweep values must be finite")
        if self.variable == "n_rf_tx" and any(v != int(v) for v in self.values):
            raise ValueError("n_rf_tx sweep values must be whole numbers")
        if list(self.values) != sorted(self.values):
            raise ValueError("sweep values must be sorted ascending")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.variable == "n_rf_tx" and self.rf_budget <= 0:
            raise ValueError("n_rf_tx sweep needs a positive rf_budget")
        # each side needs a chain and the transmitter at most one per antenna;
        # a split the receiver cannot realize is valid and gives an infeasible row
        top = min(self.rf_budget - 1, self.scenario.arrays.n_tx)
        if self.variable == "n_rf_tx" and not all(1 <= v <= top for v in self.values):
            raise ValueError(f"n_rf_tx sweep values must lie in [1, {top}]")


@dataclass
class SweepRow:
    sweep_var: str
    value: float
    scheme: str
    trial: int
    pcrb_theta: float
    rate_nats: float
    rate_bits: float
    iterations: int
    feasible: bool
    wall_ms: float


def _scenario_for_value(spec: SweepSpec, value) -> Scenario:
    sc = spec.scenario
    if spec.variable == "power_dbm":
        return sc.replace(power=dbm_to_watt(float(value)))
    if spec.variable == "rate_target_bits":
        return sc.replace(rate_target=float(value) * math.log(2.0))
    n_rf_tx = int(value)
    return sc.replace(arrays=replace(sc.arrays, n_rf_tx=n_rf_tx, n_rf_rx=spec.rf_budget - n_rf_tx))


def _run_cell(args) -> SweepRow:
    spec, vi, si, trial = args
    value = spec.values[vi]
    scheme = spec.schemes[si]
    label = scheme.label()
    try:
        sc = _scenario_for_value(spec, value)
    except ModelError as exc:
        return SweepRow(
            spec.variable, float(value), label, trial,
            float("nan"), float("nan"), float("nan"), 0, False, 0.0,
        )
    # one channel realization per trial: every scheme and every swept value
    # sees the same channel draw (cells are paired); scheme randomness is
    # seeded separately below
    if sc.channel_spec is not None and spec.trials > 1:
        chan_seed = np.random.SeedSequence(spec.seed, spawn_key=(trial,))
        sc = sc.replace(channel=realize_channel(sc.arrays, sc.channel_spec, sc.subcarriers, chan_seed))
    run_seed = int(
        np.random.SeedSequence(spec.seed, spawn_key=(vi, trial, si)).generate_state(1)[0]
    )
    sc = sc.replace(seed=run_seed)
    ao_options = dict(spec.ao_options) if spec.ao_options else {}
    return scheme_row(scheme, sc, spec.variable, value, trial, spec.record_timings, ao_options)


def scheme_row(
    scheme: Scheme,
    scenario: Scenario,
    sweep_var: str,
    value,
    trial: int,
    record_timings: bool,
    ao_options: Optional[dict] = None,
) -> SweepRow:
    """Run one scheme and report it as a row.

    An infeasible rate target gives a row with feasible=False and the best
    achievable rate. wall_ms is 0 unless record_timings is set, so rows stay
    reproducible.
    """
    t0 = time.perf_counter()
    try:
        rep = run_scheme(scheme, scenario, ao_options=ao_options)
    except RateInfeasibleError as exc:
        pcrb, rate, iterations, ok = float("nan"), exc.max_rate, 0, False
    else:
        pcrb, rate = float(rep.final_pcrb), float(rep.final_rate)
        iterations, ok = int(rep.iterations), bool(rep.feasible)
    wall = (time.perf_counter() - t0) * 1e3 if record_timings else 0.0
    return SweepRow(
        sweep_var, float(value), scheme.label(), trial,
        pcrb, rate, rate / math.log(2.0), iterations, ok, wall,
    )


def _max_workers() -> int:
    env = os.environ.get("ISAC_BEAMKIT_THREADS", "0")
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n


# Each pool worker already occupies a core, so a BLAS thread pool per worker
# oversubscribes the machine: two concurrent reference-scale cells on a
# 2-core host ran 16x slower with the default OpenBLAS threads than with one.
_WORKER_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _single_threaded_blas():
    """Environment under which spawned workers load a one-thread BLAS.

    Workers are spawned rather than forked, so they read these variables
    when they import numpy; the parent's own BLAS is already loaded and
    unaffected. The previous values are restored on exit.
    """
    saved = {k: os.environ.get(k) for k in _WORKER_BLAS_ENV}
    os.environ.update({k: "1" for k in _WORKER_BLAS_ENV})
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Run every (value, scheme, trial) cell; deterministic under the seed.

    Infeasible cells are explicit rows (feasible=False) carrying the best
    achievable rate. Cells are independent and may run in parallel
    (ISAC_BEAMKIT_THREADS caps the pool; results are ordered regardless).
    """
    cells = [
        (spec, vi, si, trial)
        for vi in range(len(spec.values))
        for si in range(len(spec.schemes))
        for trial in range(spec.trials)
    ]
    workers = min(_max_workers(), len(cells))
    if workers > 1:
        with _single_threaded_blas(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(c) for c in cells]


@dataclass
class AggregateRow:
    sweep_var: str
    value: float
    scheme: str
    n_trials: int
    n_feasible: int
    pcrb_mean: float
    pcrb_stderr: float
    rate_mean: float
    rate_stderr: float


def mc_average(spec: SweepSpec, n_trials: Optional[int] = None) -> list[AggregateRow]:
    """Sweep with per-(value, scheme) means and standard errors over trials."""
    if n_trials is not None:
        spec = replace(spec, trials=n_trials)
    rows = sweep(spec)
    out = []
    for vi, value in enumerate(spec.values):
        for scheme in spec.schemes:
            label = scheme.label()
            cell = [r for r in rows if r.value == float(value) and r.scheme == label]
            ok = [r for r in cell if r.feasible and np.isfinite(r.pcrb_theta)]
            def stats(xs):
                if not xs:
                    return float("nan"), float("nan")
                arr = np.array(xs)
                se = arr.std(ddof=1) / math.sqrt(arr.size) if arr.size > 1 else 0.0
                return float(arr.mean()), float(se)
            p_mean, p_se = stats([r.pcrb_theta for r in ok])
            r_mean, r_se = stats([r.rate_nats for r in ok])
            out.append(
                AggregateRow(
                    spec.variable, float(value), label, len(cell), len(ok),
                    p_mean, p_se, r_mean, r_se,
                )
            )
    return out


# ---------------------------------------------------------------------------
# power patterns
# ---------------------------------------------------------------------------

PATTERN_POINTS = 721


def power_pattern(
    scenario: Scenario,
    design: HybridDesign,
    thetas: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean received echo power versus angle after analog combining.

    P(theta) = gamma * sum_k ||W^H b(theta) a(theta)^H V V_bb,k||_F^2, which
    factorizes as gamma * ||W^H b||^2 * sum_k ||V_bb,k^H V^H a||^2.
    """
    arrays = scenario.arrays
    if thetas is None:
        thetas = np.linspace(-math.pi / 2, math.pi / 2, PATTERN_POINTS)
    w = design.rx.matrix(arrays)
    a_all, _ = steering_block(arrays.n_tx, thetas)
    b_all, _ = steering_block(arrays.n_rx, thetas)
    p_gain = np.abs(b_all @ w.conj()) ** 2  # (n_theta, n_rf_rx)
    p_gain = p_gain.sum(axis=1)
    v = np.eye(arrays.n_tx) if design.v_rf is None else design.v_rf
    q_gain = np.zeros_like(p_gain)
    for r in design.r_bb:
        vv = v @ digital_factor(r)
        q_gain += (np.abs(a_all.conj() @ vv) ** 2).sum(axis=1)
    return thetas, scenario.reflection.gamma * p_gain * q_gain


def pattern_mass_near_prior(
    thetas: np.ndarray,
    power: np.ndarray,
    prior,
    width_sigmas: float = 3.0,
) -> float:
    """Fraction of the trapezoid-integrated pattern inside the union of
    [mean - k*sigma, mean + k*sigma] windows of the prior components."""
    total = np.trapezoid(power, thetas)
    if total <= 0:
        return 0.0
    mask = np.zeros_like(thetas, dtype=bool)
    for mu, var in zip(prior.means, prior.variances):
        s = math.sqrt(var)
        mask |= (thetas >= mu - width_sigmas * s) & (thetas <= mu + width_sigmas * s)
    inside = np.trapezoid(np.where(mask, power, 0.0), thetas)
    return float(inside / total)
