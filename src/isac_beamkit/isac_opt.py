"""Narrowband ISAC hybrid beamforming: PCRB minimization under a rate floor.

Block structure of the alternating optimization:

  * transmit analog matrix: the log-det rate constraint is replaced by its
    weighted-MMSE surrogate (tight at the closed-form decoder/weight
    optima), after which the subproblem in v = vec(V_rf) is a QCQP with
    unit-modulus equalities. Those are split into convex <= halves plus
    linearized >= halves with slack penalties, and the resulting convex
    program is solved repeatedly around the current point (slacks collapse
    to zero at a feasible stationary point);
  * transmit digital covariance: exact Lagrange-duality solver (cvxkit);
  * receive side: closed-form per-entry phase alignment (partially
    connected) or DFT-row selection (fully connected).

Each block is committed only if it does not increase the PCRB and keeps the
iterate feasible, so the reported objective trace is weakly decreasing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cvxkit import (
    ConvexQcqp,
    QuadConstraint,
    RateInfeasibleError,
    TraceMaxResult,
    rate_constrained_trace_max,
    rate_constrained_trace_max_multi,
    solve_convex_qcqp,
)
from .designs import (
    AoReport,
    HybridDesign,
    RxDft,
    RxIdentity,
    RxPhases,
    achieved_rate,
    default_rx,
    digital_factor,
)
from .model import ArrayConfig, Scenario
from .pcrb import PcrbEngine
from .sensing_opt import (
    _initial_r_bb,
    ao_p0,
    coordinate_update_receive,
    dft_select_fc,
    random_sensing_design,
    receive_quadratic,
)

RATE_TOL = 1e-6
POWER_TOL = 1e-8


@dataclass
class WmmseAux:
    """Decoder, weight, and the surrogate rate they certify."""

    q: np.ndarray      # n_user x n_streams decoder
    u: np.ndarray      # n_streams x n_streams PD weight
    xi: float          # surrogate rate at (q, u); equals the true rate here


def wmmse_update(h: np.ndarray, v_rf: Optional[np.ndarray], v_bb: np.ndarray, noise: float) -> WmmseAux:
    """Closed-form decoder/weight optima for the current precoder.

    q = J^-1 H_eff V_bb with J = noise*I + H_eff V_bb V_bb^H H_eff^H, and
    u = E^-1 with E the decoding MSE matrix; at these values the surrogate
    log|u| - tr(u E) + n_s equals the log-det rate of the precoder.
    """
    h_eff = h if v_rf is None else h @ v_rf
    hv = h_eff @ v_bb
    n_u, n_s = hv.shape
    j = noise * np.eye(n_u) + hv @ hv.conj().T
    q = np.linalg.solve(j, hv)
    m = q.conj().T @ hv - np.eye(n_s)
    e = noise * (q.conj().T @ q) + m @ m.conj().T
    e = 0.5 * (e + e.conj().T)
    u = np.linalg.inv(e)
    u = 0.5 * (u + u.conj().T)
    sign, logdet_u = np.linalg.slogdet(u)
    xi = float(logdet_u - np.trace(u @ e).real + n_s)
    return WmmseAux(q=q, u=u, xi=xi)


@dataclass
class FppScaState:
    """Progress record of one slack-penalized SCA run."""

    v: np.ndarray                       # final vectorized analog point
    eps: float
    slack_trace: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)
    converged: bool = False
    ok: bool = True                     # anchor, interior point and every subproblem solved


def _lift_hermitian(m: np.ndarray) -> np.ndarray:
    """Real symmetric matrix L with v^H M v = [Re v; Im v]^T L [Re v; Im v]."""
    re, im = m.real, m.imag
    return np.block([[re, -im], [im, re]])


def _vec(v_rf: np.ndarray) -> np.ndarray:
    return np.reshape(v_rf, -1, order="F")


def _unvec(v: np.ndarray, n_tx: int, n_rf: int) -> np.ndarray:
    return np.reshape(v, (n_tx, n_rf), order="F")


def _sca_subproblem(
    ups1_l: np.ndarray,
    ups2_l: np.ndarray,
    rate_quad_l: np.ndarray,
    rate_lin: np.ndarray,
    rate_offset: float,
    power: float,
    eps: float,
    x_bar: np.ndarray,
) -> ConvexQcqp:
    """Assemble the convex slack-penalized subproblem around x_bar.

    The epigraph pair (objective variable, its slack) is eliminated exactly:
    for penalty weight > 1 the slack sits at zero and the epigraph variable
    at its bound, so the objective is the linearized sensing gain minus the
    modulus-slack penalties. Remaining variables: z = [x (2D), p (D), w (D)].
    """
    two_d = ups1_l.shape[0]
    d = two_d // 2
    n = two_d + 2 * d
    i_p, i_w = two_d, two_d + d

    def pad_quad(q):
        out = np.zeros((n, n))
        out[:two_d, :two_d] = q
        return out

    cons = []
    # power: x^T U2 x - P <= 0 (scaled by 1/P)
    cons.append(QuadConstraint(pad_quad(ups2_l / power), np.zeros(n), -1.0))
    if rate_quad_l is not None:
        # rate surrogate: x^T Kb x + rate_lin^T x + rate_offset <= 0
        s_rate = 1.0 / max(1.0, np.abs(rate_quad_l).max(), np.abs(rate_lin).max(), abs(rate_offset))
        a = np.zeros(n)
        a[:two_d] = rate_lin * s_rate
        cons.append(QuadConstraint(pad_quad(rate_quad_l * s_rate), a, rate_offset * s_rate))
    # unit-modulus split: |v_m|^2 <= 1 + p_m and linearized >= 1 - w_m
    for m in range(d):
        q = np.zeros(n)
        q[m] = q[d + m] = 1.0
        a = np.zeros(n)
        a[i_p + m] = -1.0
        cons.append(QuadConstraint(q, a, -1.0))
        a = np.zeros(n)
        a[m] = -2.0 * x_bar[m]
        a[d + m] = -2.0 * x_bar[d + m]
        a[i_w + m] = -1.0
        cons.append(QuadConstraint(None, a, 1.0 + x_bar[m] ** 2 + x_bar[d + m] ** 2))

    # maximize 2 g^T x - eps*(sum p + sum w)  (g = linearization of the
    # sensing quadratic at x_bar; constant dropped)
    g = ups1_l @ x_bar
    c = np.zeros(n)
    c[:two_d] = -2.0 * g
    c[i_p:] = eps
    nonneg = np.zeros(n, dtype=bool)
    nonneg[i_p:] = True
    return ConvexQcqp(c, cons, nonneg)


def _run_fpp_sca(
    ups1: np.ndarray,
    ups2: np.ndarray,
    rate_quad: np.ndarray,
    c_vec: np.ndarray,
    eta_bar: float,
    rate_target: float,
    power: float,
    v_init: np.ndarray,
    eps: float,
    max_iters: int,
    slack_tol: float = 1e-7,
    obj_tol: float = 1e-8,
) -> FppScaState:
    """Iterate the convex subproblem until the slacks collapse.

    Complex inputs: ups1/ups2/rate_quad are Hermitian PSD in v-space, the
    rate constraint is v^H rate_quad v - 2 Re(c_vec^T v) <= eta_bar -
    rate_target. The sensing objective v^H ups1 v is normalized internally
    so the epigraph variable is O(1).
    """
    d = v_init.size
    s1 = 1.0 / max(1.0, float(np.linalg.norm(ups1)))
    ups1_l = _lift_hermitian(ups1) * s1
    ups2_l = _lift_hermitian(ups2)
    # a non-positive target makes the true rate constraint vacuous; the
    # surrogate row must then be dropped entirely (it only lower-bounds the
    # rate, so keeping it would shrink the search region around v_init)
    rate_active = rate_target > 0.0
    if rate_active:
        rate_quad_l = _lift_hermitian(rate_quad)
        rate_lin = -2.0 * np.concatenate([c_vec.real, -c_vec.imag])
        rate_offset = rate_target - eta_bar
        rate_scale = max(1.0, np.abs(rate_quad_l).max(), np.abs(rate_lin).max(), abs(rate_offset))
    else:
        rate_quad_l, rate_lin, rate_offset, rate_scale = None, None, 0.0, 1.0

    def power_val(x):
        return float(x @ (ups2_l @ x)) / power - 1.0

    def rate_val(x):
        if not rate_active:
            return -1.0
        return float(x @ (rate_quad_l @ x) + rate_lin @ x + rate_offset)

    def strictly_ok(x):
        return power_val(x) < -1e-11 and rate_val(x) < -1e-11 * rate_scale

    def feasibility_anchor(x_bar):
        """A point strictly inside the power/rate rows (they do not move
        across SCA iterations, so one anchor serves the whole run)."""
        if not rate_active:
            return np.zeros(2 * d)
        two_d = 2 * d
        n = two_d + 1
        cons = []
        q = np.zeros((n, n))
        q[:two_d, :two_d] = ups2_l / power
        a = np.zeros(n)
        a[-1] = -1.0
        cons.append(QuadConstraint(q, a, -1.0))
        q = np.zeros((n, n))
        q[:two_d, :two_d] = rate_quad_l / rate_scale
        a = np.zeros(n)
        a[:two_d] = rate_lin / rate_scale
        a[-1] = -1.0
        cons.append(QuadConstraint(q, a, rate_offset / rate_scale))
        q = np.zeros(n)
        q[:two_d] = 1.0
        a = np.zeros(n)
        a[-1] = -1.0
        cons.append(QuadConstraint(q, a, -4.0 * two_d))
        c = np.zeros(n)
        c[-1] = 1.0
        x0 = 0.999 * x_bar
        s0 = max(power_val(x0), rate_val(x0) / rate_scale, 0.0) + 1.0
        rep = solve_convex_qcqp(ConvexQcqp(c, cons), tol=1e-10, x0=np.append(x0, s0))
        cand = rep.x[:two_d]
        return cand if strictly_ok(cand) else None

    def interior_near(x, anchor):
        """Mix x with the strict anchor; by convexity any positive mixing
        weight is strictly inside, so stay as close to x as roundoff allows."""
        if strictly_ok(x):
            return x
        for tau in (0.01, 0.05, 0.2, 0.5, 1.0):
            cand = (1.0 - tau) * x + tau * anchor
            if strictly_ok(cand):
                return cand
        return None

    def complete_start(x, x_bar):
        """Attach modulus slacks with an interior margin."""
        two_d = 2 * d
        z = np.zeros(two_d + 2 * d)
        z[:two_d] = x
        v_abs2 = x[:d] ** 2 + x[d:] ** 2
        z[two_d : two_d + d] = np.maximum(0.0, v_abs2 - 1.0) + 0.25
        lin_part = 2.0 * (x_bar[:d] * x[:d] + x_bar[d:] * x[d:])
        bar_abs2 = x_bar[:d] ** 2 + x_bar[d:] ** 2
        z[two_d + d :] = np.maximum(0.0, 1.0 + bar_abs2 - lin_part) + 0.25
        return z

    x = np.concatenate([v_init.real, v_init.imag])
    state = FppScaState(v=v_init.copy(), eps=eps)
    prev_obj = float(x @ (ups1_l @ x)) / s1
    anchor = None
    # Penalty continuation: the tangent-plane rows price any phase move at
    # eps * angle^2, so at the final eps steps would be microscopic far from
    # a stationary point. Start near the (normalized) objective-gradient
    # scale for long steps and ramp towards the requested weight as progress
    # stalls; termination requires the final weight with collapsed slacks.
    # The user's eps is relative to the natural objective, i.e. eps * s1 in
    # the normalized units used here.
    eps_final = eps * s1
    g0 = float(np.abs(ups1_l @ x).max())
    eps_work = min(eps_final, max(4.0 * g0, 1e-2 * eps_final, 1e-8))
    for it in range(max_iters):
        if it >= max_iters - 2:
            # polish the tail at the requested weight so the slacks collapse
            # even when the iteration budget is short
            eps_work = eps_final
        problem = _sca_subproblem(
            ups1_l, ups2_l, rate_quad_l, rate_lin, rate_offset, power, eps_work, x
        )
        if anchor is None:
            anchor = feasibility_anchor(x)
            if anchor is None:
                state.ok = False
                break
        x_in = interior_near(x, anchor)
        if x_in is None:
            state.ok = False
            break
        rep = solve_convex_qcqp(problem, tol=1e-10, x0=complete_start(x_in, x))
        if not rep.success:
            state.ok = False
            break
        two_d = 2 * d
        x = rep.x[:two_d]
        slack = float(rep.x[two_d:].sum())
        obj = float(x @ (ups1_l @ x)) / s1
        state.slack_trace.append(slack)
        state.objective_trace.append(obj)
        at_final = eps_work >= eps_final * (1 - 1e-12)
        stalled = abs(obj - prev_obj) <= obj_tol * max(1.0, abs(prev_obj))
        if at_final and stalled and slack < slack_tol:
            state.converged = True
            prev_obj = obj
            break
        if not at_final and (
            stalled or abs(obj - prev_obj) <= 1e-5 * max(1.0, abs(prev_obj))
        ):
            eps_work = min(eps_final, eps_work * 8.0)
        prev_obj = obj
    state.eps = eps_work / s1
    state.v = x[:d] + 1j * x[d:]
    # ok reports only solver failures: a budget-capped run that is still
    # moving carries slack ~ step^2, and its projection below is judged by
    # the caller's digital re-solve and accept test like any other step
    # exact unit modulus; entries that collapsed to zero get phase 0
    mag = np.abs(state.v)
    state.v = np.where(mag > 1e-12, state.v / np.where(mag > 1e-12, mag, 1.0), 1.0)
    return state


def fpp_sca_vrf(
    scenario: Scenario,
    a_tilde: np.ndarray,
    r_bb: np.ndarray,
    aux: WmmseAux,
    v_init: np.ndarray,
    eps: float = 1e3,
    max_iters: int = 30,
) -> tuple[np.ndarray, FppScaState]:
    """Transmit-analog update for the narrowband rate-constrained problem.

    v_init is the vectorized current analog matrix (unit modulus). Returns
    the unit-modulus update and the SCA state; on failure the caller should
    keep its previous iterate.
    """
    arrays = scenario.arrays
    h = scenario.channel.per_subcarrier()[0]
    v_bb = digital_factor(r_bb)
    b1 = h.conj().T @ aux.q @ aux.u @ aux.q.conj().T @ h
    b2 = v_bb @ aux.u @ aux.q.conj().T @ h
    n_s = v_bb.shape[1]
    sign, logdet_u = np.linalg.slogdet(aux.u)
    eta = float(
        logdet_u
        + n_s
        - np.trace(aux.u).real
        - scenario.noise_comm * np.trace(aux.u @ aux.q.conj().T @ aux.q).real
    )
    ups1 = np.kron(r_bb.T, a_tilde)
    ups2 = np.kron(r_bb.T, np.eye(arrays.n_tx))
    rate_quad = np.kron(r_bb.T, b1)
    c_vec = _vec(b2.T)
    state = _run_fpp_sca(
        ups1,
        ups2,
        rate_quad,
        c_vec,
        eta,
        scenario.rate_target,
        scenario.power,
        v_init,
        eps,
        max_iters,
    )
    return _unvec(state.v, arrays.n_tx, arrays.n_rf_tx), state


def optimal_rbb_isac(
    a_tilde: np.ndarray,
    v_rf: Optional[np.ndarray],
    h: np.ndarray,
    power: float,
    rate_target: float,
    noise: float,
) -> TraceMaxResult:
    """Optimal digital covariance in the RF-chain basis for fixed analog parts."""
    if v_rf is None:
        return rate_constrained_trace_max(a_tilde, np.eye(a_tilde.shape[0]), h, power, rate_target, noise)
    a_eff = v_rf.conj().T @ a_tilde @ v_rf
    g_eff = v_rf.conj().T @ v_rf
    return rate_constrained_trace_max(a_eff, g_eff, h @ v_rf, power, rate_target, noise)


def _optimal_rbb_design(
    scenario: Scenario, design: HybridDesign, a_tilde: np.ndarray
) -> tuple[HybridDesign, TraceMaxResult]:
    """Re-solve the digital covariances for the design's analog parts.

    a_tilde is the sensing integral A1 of the design's receive matrix.
    """
    arrays = scenario.arrays
    h_list = scenario.channel.per_subcarrier()
    v = design.v_rf
    if v is None:
        a_eff, g_eff, h_eff = a_tilde, np.eye(arrays.n_tx), h_list
    else:
        a_eff = v.conj().T @ a_tilde @ v
        g_eff = v.conj().T @ v
        h_eff = [h @ v for h in h_list]
    res = rate_constrained_trace_max_multi(
        a_eff, g_eff, h_eff, scenario.power, scenario.rate_target, scenario.noise_comm
    )
    return HybridDesign(v, tuple(res.r_bb), design.rx), res


class _TraceObjective:
    """PCRB of a design from the trace against a1_fn (A1 or a surrogate).

    Designs of one AO run share their receive descriptor until the receive
    block replaces it, so keeping the last (descriptor, A1) pair evaluates
    A1 once per receive matrix.
    """

    def __init__(self, engine: PcrbEngine, arrays: ArrayConfig, a1_fn: Callable):
        self.engine = engine
        self.arrays = arrays
        self.a1_fn = a1_fn
        self._rx = self._a1 = None

    def a1(self, rx) -> np.ndarray:
        if rx is not self._rx:
            self._rx, self._a1 = rx, self.a1_fn(rx.matrix(self.arrays))
        return self._a1

    def __call__(self, design: HybridDesign) -> float:
        a1 = self.a1(design.rx)
        tr = sum(np.trace(a1 @ t).real for t in design.tx_covariances())
        return self.engine.pcrb_from_trace(design.rx.kappa(self.arrays), tr)


def init_random_phase(
    scenario: Scenario,
    n_rand: int,
    seed,
    engine: Optional[PcrbEngine] = None,
) -> HybridDesign:
    """Best feasible design among seeded uniform-phase analog realizations.

    Every realization gets its exact optimal digital covariance; raises
    RateInfeasibleError carrying the best achievable rate when no
    realization meets the target.
    """
    if n_rand < 1:
        raise ValueError("n_rand must be >= 1")
    if engine is None:
        engine = PcrbEngine(scenario)
    pcrb_of = _TraceObjective(engine, scenario.arrays, engine.a1)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x1A,)))
    best: Optional[HybridDesign] = None
    best_pcrb = np.inf
    best_rate = 0.0
    for _ in range(n_rand):
        cand = random_sensing_design(scenario, rng)
        try:
            cand, res = _optimal_rbb_design(scenario, cand, pcrb_of.a1(cand.rx))
        except RateInfeasibleError as exc:
            best_rate = max(best_rate, exc.max_rate)
            continue
        best_rate = max(best_rate, res.rate)
        pcrb = pcrb_of(cand)
        if pcrb < best_pcrb:
            best, best_pcrb = cand, pcrb
    if best is None:
        raise RateInfeasibleError(scenario.rate_target, best_rate)
    return best


def _feasible(scenario: Scenario, design: HybridDesign) -> bool:
    if design.total_power() > scenario.power + POWER_TOL:
        return False
    if scenario.rate_target > 0:
        return achieved_rate(scenario, design) >= scenario.rate_target - RATE_TOL
    return True


def _start_design(
    scenario: Scenario,
    engine: PcrbEngine,
    n_init: int,
    init_design: Optional[HybridDesign],
    objective: _TraceObjective,
) -> HybridDesign:
    """Rate-feasible starting point of the rate-constrained AO.

    The accept test only compares feasible iterates: from an infeasible
    start, whose PCRB may undercut every rate-feasible design, each
    feasible candidate would be rejected. A given design that misses the
    rate therefore first gets its exact digital stage. Without one, the best
    seeded random-phase draw is used; if no draw meets the rate, the phases
    of the dominant right singular vectors of the stacked channel (the
    communication-only analog choice) are tried before the target is
    declared infeasible.
    """
    if init_design is not None:
        if _feasible(scenario, init_design):
            return init_design
        return _optimal_rbb_design(scenario, init_design, objective.a1(init_design.rx))[0]
    try:
        return init_random_phase(scenario, n_init, scenario.seed, engine)
    except RateInfeasibleError as exc:
        arrays = scenario.arrays
        gram = sum(h.conj().T @ h for h in scenario.channel.per_subcarrier())
        vec = np.linalg.eigh(gram)[1][:, ::-1]
        v = np.exp(1j * np.angle(vec[:, : arrays.n_rf_tx]))
        cand = HybridDesign(v, tuple(_initial_r_bb(scenario, arrays.n_rf_tx)), default_rx(arrays))
        try:
            return _optimal_rbb_design(scenario, cand, engine.a1(cand.rx.matrix(arrays)))[0]
        except RateInfeasibleError as exc2:
            raise RateInfeasibleError(
                scenario.rate_target, max(exc.max_rate, exc2.max_rate)
            ) from None


def ao_isac(
    scenario: Scenario,
    engine: Optional[PcrbEngine] = None,
    *,
    n_init: int = 32,
    max_outer: int = 15,
    wmmse_rounds: int = 2,
    sca_iters: int = 5,
    tol: float = 1e-8,
    eps: float = 1e3,
    init_design: Optional[HybridDesign] = None,
    fixed_v: bool = False,
    update_rx: bool = True,
    a1_fn: Optional[Callable] = None,
    btilde_fn: Optional[Callable] = None,
) -> AoReport:
    """Alternating optimization for the narrowband rate-constrained problem.

    Hooks mirror ao_sensing: a1_fn/btilde_fn replace the prior-weighted
    integrals for surrogate-objective benchmark schemes, in which case the
    trace logs the surrogate while final_pcrb stays the true bound.
    """
    t_start = time.perf_counter()
    if engine is None:
        engine = PcrbEngine(scenario)
    arrays = scenario.arrays
    surrogate = _TraceObjective(engine, arrays, a1_fn or engine.a1)
    btilde_fn = btilde_fn or engine.b_tilde

    design = _start_design(scenario, engine, n_init, init_design, surrogate)
    current = surrogate(design)
    trace = [current]
    h = scenario.channel.per_subcarrier()[0]

    converged = False
    for _ in range(max_outer):
        changed = False
        analog_failed = False
        # --- transmit analog (+ immediate digital re-solve) ---------------
        if design.v_rf is not None and not fixed_v:
            a_tilde = surrogate.a1(design.rx)
            v_bar = _vec(design.v_rf)
            r_bb = design.r_bb[0]
            for _round in range(wmmse_rounds):
                v_bb = digital_factor(r_bb)
                aux = wmmse_update(h, _unvec(v_bar, arrays.n_tx, arrays.n_rf_tx), v_bb, scenario.noise_comm)
                v_new, state = fpp_sca_vrf(
                    scenario,
                    a_tilde,
                    r_bb,
                    aux,
                    v_bar,
                    eps=eps,
                    max_iters=sca_iters,
                )
                if not state.ok:
                    analog_failed = True
                    break
                v_bar = _vec(v_new)
            if not analog_failed:
                cand = HybridDesign(
                    _unvec(v_bar, arrays.n_tx, arrays.n_rf_tx), design.r_bb, design.rx
                )
                try:
                    cand, _ = _optimal_rbb_design(scenario, cand, a_tilde)
                    value = surrogate(cand)
                    if value <= trace[-1] * (1 + 1e-12) and _feasible(scenario, cand):
                        if value < trace[-1]:
                            changed = True
                        design, current = cand, value
                except RateInfeasibleError:
                    pass
        else:
            # analog transmit fixed: keep the digital covariance optimal
            try:
                cand, _ = _optimal_rbb_design(scenario, design, surrogate.a1(design.rx))
                value = surrogate(cand)
                if value <= trace[-1] * (1 + 1e-12) and _feasible(scenario, cand):
                    if value < trace[-1] * (1 - 1e-12):
                        changed = True
                    design, current = cand, value
            except RateInfeasibleError:
                pass

        # --- receive side --------------------------------------------------
        if update_rx and not isinstance(design.rx, RxIdentity):
            tx_total = sum(design.tx_covariances())
            b_tilde = btilde_fn(tx_total)
            if isinstance(design.rx, RxDft):
                rx_new = RxDft(dft_select_fc(b_tilde, arrays.n_rf_rx))
            else:
                pi = receive_quadratic(b_tilde, arrays.n_rf_rx)
                rx_new = RxPhases(coordinate_update_receive(design.rx.d, pi))
            cand = HybridDesign(design.v_rf, design.r_bb, rx_new)
            value = surrogate(cand)
            if value <= trace[-1] * (1 + 1e-12):
                if value < trace[-1] * (1 - 1e-12):
                    changed = True
                design, current = cand, value

        trace.append(current)
        if abs(trace[-2] - trace[-1]) <= tol * trace[-2] or not changed:
            # a stop caused by an analog block the solver could not
            # evaluate is not convergence
            converged = not analog_failed
            break

    rate = achieved_rate(scenario, design)
    return AoReport(
        trace=trace,
        design=design,
        converged=converged,
        wall_time=time.perf_counter() - t_start,
        final_pcrb=engine.pcrb(design),
        final_rate=rate,
        power_used=design.total_power(),
        feasible=_feasible(scenario, design),
    )


def ao_p1(
    scenario: Scenario,
    engine: Optional[PcrbEngine] = None,
    **kw,
) -> AoReport:
    """Narrowband ISAC alternating optimization.

    A zero rate target makes the problem sensing-only, so it is delegated
    to the sensing loop (whose transmit update is exact rather than
    SCA-based).
    """
    if scenario.subcarriers != 1:
        raise ValueError("ao_p1 expects a narrowband scenario (1 sub-carrier)")
    if scenario.rate_target <= 0:
        if engine is None:
            engine = PcrbEngine(scenario)
        return ao_p0(scenario, engine)
    return ao_isac(scenario, engine, **kw)
