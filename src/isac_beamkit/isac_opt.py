"""Hybrid beamforming: PCRB minimization with or without a rate floor, K >= 1.

Narrowband is the wideband OFDM problem with one sub-carrier, and the
sensing-only problem is the one with a zero rate target, so one alternating
optimization (ao_isac) serves all of them. The angle information adds
across sub-carriers through the trace sum, the rate constraint averages the
per-subcarrier log-dets, and one analog matrix serves all carriers.

The rate target chooses the start and the transmit block. Without a rate
floor the start is the given design or all-ones phases, and a moving
analog matrix gets the closed-form sensing update of sensing_opt (phase
splitting of the rank-1 optimum or per-entry phase alignment). With one
the start is rate-feasible. Under a rate floor, or for a fully digital or
fixed analog transmitter, the transmit block is:

  * transmit analog matrix, under a rate floor unless fully digital or
    fixed: the log-det rate constraint is replaced by its weighted-MMSE
    surrogate (tight at the closed-form decoder/weight optima); the
    per-subcarrier surrogates are stacked into one subproblem in
    v = vec(V_rf), a QCQP with unit-modulus equalities. Those are split
    into convex <= halves plus linearized >= halves with slack penalties,
    and the resulting convex program is solved repeatedly around the
    current point (slacks collapse to zero at a feasible stationary point);
  * transmit digital covariances, one per sub-carrier: exact
    Lagrange-duality solver (cvxkit) with a power dual common to all
    carriers, on the range of the analog Gram V^H V.

The receive block is the same for every rate target: closed-form per-entry
phase alignment (partially connected) or DFT-row selection (fully
connected) against the carrier-summed integral.

Each block is committed only if it does not increase the PCRB and keeps the
iterate feasible, so the reported objective trace is weakly decreasing.

PcrbEngine.pcrb scores every design; design_report writes every scheme's
report from its final design. _optimal_rbb_design is the one entry to the
digital solver, for the AO, the random-phase draws and the fully-digital
benchmark alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cvxkit import (
    ConvexQcqp,
    RateInfeasibleError,
    TraceMaxResult,
    rate_constrained_trace_max_multi,
    solve_convex_qcqp,
    top_generalized_eig,
)
from .designs import (
    AoReport,
    HybridDesign,
    RxIdentity,
    achieved_rate,
    default_rx,
    digital_factor,
    feasible,
)
from .model import Scenario
from .pcrb import PcrbEngine
from .sensing_opt import (
    _initial_r_bb,
    _rx_update,
    _sensing_tx_update,
    random_sensing_design,
)

# FPP-SCA: final slack-penalty weight relative to the sensing objective, and
# the stop tests on the summed slacks and the relative objective change
SCA_PENALTY = 1e3
SCA_SLACK_TOL = 1e-7
SCA_OBJ_TOL = 1e-8


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
    slack_trace: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)
    converged: bool = False
    ok: bool = True                     # every subproblem solved


def _lift_hermitian(m: np.ndarray) -> np.ndarray:
    """Real symmetric matrix L with v^H M v = [Re v; Im v]^T L [Re v; Im v]."""
    re, im = m.real, m.imag
    return np.block([[re, -im], [im, re]])


def _vec(v_rf: np.ndarray) -> np.ndarray:
    return np.reshape(v_rf, -1, order="F")


def _unvec(v: np.ndarray, n_tx: int, n_rf: int) -> np.ndarray:
    return np.reshape(v, (n_tx, n_rf), order="F")


def _run_fpp_sca(
    ups1: np.ndarray,
    ups2: np.ndarray,
    rate_quad: np.ndarray,
    c_vec: np.ndarray,
    eta_bar: float,
    rate_target: float,
    power: float,
    v_init: np.ndarray,
    max_iters: int,
) -> FppScaState:
    """Iterate the convex subproblem until the slacks collapse.

    Complex inputs: ups1/ups2/rate_quad are Hermitian PSD in v-space, the
    rate constraint is v^H rate_quad v - 2 Re(c_vec^T v) <= eta_bar -
    rate_target. The sensing objective v^H ups1 v is normalized internally
    so the epigraph variable is O(1).
    """
    d = v_init.size
    two_d = 2 * d
    s1 = 1.0 / max(1.0, float(np.linalg.norm(ups1)))
    ups1_l = _lift_hermitian(ups1) * s1
    # dense rows on x: power x^T U2 x / P - 1 <= 0 and, with a rate floor,
    # the rate surrogate x^T Kb x + lin^T x + offset <= 0 scaled to O(1)
    # coefficients. A non-positive target makes the true rate constraint
    # vacuous; the surrogate row must then be dropped entirely (it only
    # lower-bounds the rate, so keeping it would shrink the search region
    # around v_init). The rows do not move across SCA iterations.
    quad, lin, offset = [_lift_hermitian(ups2) / power], [np.zeros(two_d)], [-1.0]
    rate_active = rate_target > 0.0
    if rate_active:
        rate_quad_l = _lift_hermitian(rate_quad)
        rate_lin = -2.0 * np.concatenate([c_vec.real, -c_vec.imag])
        rate_offset = rate_target - eta_bar
        s_rate = 1.0 / max(1.0, np.abs(rate_quad_l).max(), np.abs(rate_lin).max(), abs(rate_offset))
        quad.append(rate_quad_l * s_rate)
        lin.append(rate_lin * s_rate)
        offset.append(rate_offset * s_rate)
    quad, lin, offset = np.array(quad), np.array(lin), np.array(offset)

    x = np.concatenate([v_init.real, v_init.imag])
    state = FppScaState(v=v_init.copy())
    prev_obj = float(x @ (ups1_l @ x)) / s1
    # Penalty continuation: the tangent-plane rows price any phase move at
    # eps * angle^2, so at the final eps steps would be microscopic far from
    # a stationary point. Start near the (normalized) objective-gradient
    # scale for long steps and ramp towards the requested weight as progress
    # stalls; termination requires the final weight with collapsed slacks.
    # SCA_PENALTY is relative to the natural objective, i.e. SCA_PENALTY * s1
    # in the normalized units used here.
    eps_final = SCA_PENALTY * s1
    g0 = float(np.abs(ups1_l @ x).max())
    eps_work = min(eps_final, max(4.0 * g0, 1e-2 * eps_final, 1e-8))
    for it in range(max_iters):
        if it >= max_iters - 2:
            # polish the tail at the requested weight so the slacks collapse
            # even when the iteration budget is short
            eps_work = eps_final
        # maximize 2 g^T x - eps*(sum p + sum w), g = ups1_l x the
        # linearization of the sensing quadratic (constant dropped). The
        # objective's epigraph pair is eliminated exactly: for penalty
        # weight > 1 its slack sits at zero and the epigraph variable at its
        # bound
        problem = ConvexQcqp(-2.0 * (ups1_l @ x), quad, lin, offset, x_bar=x, eps=eps_work)
        rep = solve_convex_qcqp(problem, np.concatenate([x, np.zeros(two_d)]), tol=1e-10)
        if not rep.success:
            state.ok = False
            break
        x = rep.x[:two_d]
        slack = float(rep.x[two_d:].sum())
        obj = float(x @ (ups1_l @ x)) / s1
        state.slack_trace.append(slack)
        state.objective_trace.append(obj)
        at_final = eps_work >= eps_final * (1 - 1e-12)
        stalled = abs(obj - prev_obj) <= SCA_OBJ_TOL * max(1.0, abs(prev_obj))
        if at_final and stalled and slack < SCA_SLACK_TOL:
            state.converged = True
            break
        if not at_final and (
            stalled or abs(obj - prev_obj) <= 1e-5 * max(1.0, abs(prev_obj))
        ):
            eps_work = min(eps_final, eps_work * 8.0)
        prev_obj = obj
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
    r_bb_list,
    aux_list: list[WmmseAux],
    v_init: np.ndarray,
    max_iters: int = 30,
) -> tuple[np.ndarray, FppScaState]:
    """Common transmit-analog update across all sub-carriers.

    r_bb_list and aux_list hold one digital covariance and one WMMSE
    decoder/weight pair per sub-carrier. The stacked quadratics use the sum
    of the digital covariances for the sensing and power forms and average
    the per-subcarrier WMMSE pieces for the surrogate rate. v_init is the
    vectorized current analog matrix (unit modulus). Returns the
    unit-modulus update and the SCA state; on failure the caller should
    keep its previous iterate.
    """
    arrays = scenario.arrays
    h_list = scenario.channel.per_subcarrier()
    k_sub = len(h_list)
    r_sum = np.zeros_like(np.asarray(r_bb_list[0]))
    rate_quad = 0.0
    c_vec = 0.0
    eta = 0.0
    for h, r, aux in zip(h_list, r_bb_list, aux_list):
        r = np.asarray(r)
        r_sum = r_sum + r
        v_bb = digital_factor(r)
        d1 = h.conj().T @ aux.q @ aux.u @ aux.q.conj().T @ h
        d2 = v_bb @ aux.u @ aux.q.conj().T @ h
        rate_quad = rate_quad + np.kron(r.T, d1) / k_sub
        c_vec = c_vec + _vec(d2.T) / k_sub
        n_s = v_bb.shape[1]
        sign, logdet_u = np.linalg.slogdet(aux.u)
        eta += (
            float(
                logdet_u
                + n_s
                - np.trace(aux.u).real
                - scenario.noise_comm * np.trace(aux.u @ aux.q.conj().T @ aux.q).real
            )
            / k_sub
        )
    ups1 = np.kron(r_sum.T, a_tilde)
    ups2 = np.kron(r_sum.T, np.eye(arrays.n_tx))
    state = _run_fpp_sca(
        ups1,
        ups2,
        rate_quad,
        c_vec,
        eta,
        scenario.rate_target,
        scenario.power,
        v_init,
        max_iters,
    )
    return _unvec(state.v, arrays.n_tx, arrays.n_rf_tx), state


def _optimal_rbb_design(
    scenario: Scenario, design: HybridDesign, a_tilde: np.ndarray
) -> tuple[HybridDesign, TraceMaxResult]:
    """Re-solve the digital covariances for the design's analog parts.

    a_tilde is the sensing integral A1 of the design's receive matrix. The
    solver sees it, the Gram matrix and every carrier's channel reduced by
    the analog matrix (unreduced for a fully-digital transmitter).
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


def init_random_phase(
    scenario: Scenario,
    n_rand: int,
    seed,
    engine: Optional[PcrbEngine] = None,
) -> HybridDesign:
    """Best feasible design among seeded uniform-phase analog realizations.

    A realization gets its exact optimal digital covariance unless it cannot
    beat the best feasible one so far: without the rate floor its trace is
    at most P lam_max(V^H A1 V, V^H V), and a draw whose PCRB at that bound
    is not below the best is skipped. The skip changes no result; raises
    RateInfeasibleError carrying the best achievable rate when no
    realization meets the target (nothing is skipped before a feasible one).
    """
    if n_rand < 1:
        raise ValueError("n_rand must be >= 1")
    if engine is None:
        engine = PcrbEngine(scenario)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x1A,)))
    best: Optional[HybridDesign] = None
    best_pcrb = np.inf
    best_rate = 0.0
    for _ in range(n_rand):
        cand = random_sensing_design(scenario, rng)
        a1 = engine.a1_of(cand.rx)
        if best is not None:
            v = cand.v_rf
            lam = top_generalized_eig(v.conj().T @ a1 @ v, v.conj().T @ v)[0]
            kappa = cand.rx.kappa(scenario.arrays)
            # the 1e-9 margin keeps rounding from skipping a draw that would win
            if engine.pcrb_from_trace(kappa, scenario.power * lam * (1 + 1e-9)) >= best_pcrb:
                continue
        try:
            cand, res = _optimal_rbb_design(scenario, cand, a1)
        except RateInfeasibleError as exc:
            best_rate = max(best_rate, exc.max_rate)
            continue
        best_rate = max(best_rate, res.rate)
        pcrb = engine.pcrb(cand)
        if pcrb < best_pcrb:
            best, best_pcrb = cand, pcrb
    if best is None:
        raise RateInfeasibleError(scenario.rate_target, best_rate)
    return best


def _start_design(
    scenario: Scenario,
    engine: PcrbEngine,
    n_init: int,
    init_design: Optional[HybridDesign],
) -> HybridDesign:
    """Starting point of the AO: feasible for the scenario's rate target.

    Without a rate floor it is the given design or all-ones analog phases
    with the equal-power digital start. Under a rate floor the accept test
    only compares feasible iterates: from an infeasible start, whose PCRB
    may undercut every rate-feasible design, each feasible candidate would
    be rejected. A given design that misses the rate therefore first gets
    its exact digital stage. Without one, the best seeded random-phase draw
    is used (init_random_phase solves only the draws whose sensing bound can
    still beat the best feasible one); if no draw meets the rate, the phases
    of the dominant right singular vectors of the stacked channel (the
    communication-only analog choice) are tried before the target is
    declared infeasible.
    """
    arrays = scenario.arrays
    if scenario.rate_target <= 0:
        if init_design is not None:
            return init_design
        v0 = np.ones((arrays.n_tx, arrays.n_rf_tx), dtype=complex)
        return HybridDesign(v0, tuple(_initial_r_bb(scenario, arrays.n_rf_tx)), default_rx(arrays))
    if init_design is not None:
        if feasible(scenario, init_design):
            return init_design
        return _optimal_rbb_design(scenario, init_design, engine.a1_of(init_design.rx))[0]
    try:
        return init_random_phase(scenario, n_init, scenario.seed, engine)
    except RateInfeasibleError as exc:
        gram = sum(h.conj().T @ h for h in scenario.channel.per_subcarrier())
        vec = np.linalg.eigh(gram)[1][:, ::-1]
        v = np.exp(1j * np.angle(vec[:, : arrays.n_rf_tx]))
        cand = HybridDesign(v, tuple(_initial_r_bb(scenario, arrays.n_rf_tx)), default_rx(arrays))
        try:
            return _optimal_rbb_design(scenario, cand, engine.a1_of(cand.rx))[0]
        except RateInfeasibleError as exc2:
            raise RateInfeasibleError(
                scenario.rate_target, max(exc.max_rate, exc2.max_rate)
            ) from None


def _solver_tx_update(
    scenario: Scenario,
    design: HybridDesign,
    a_tilde: np.ndarray,
    fixed_v: bool,
    wmmse_rounds: int,
    sca_iters: int,
) -> tuple[Optional[HybridDesign], bool]:
    """Transmit block through the digital solver: the common analog matrix
    via stacked WMMSE/FPP-SCA rounds (skipped when the transmitter is fully
    digital or fixed_v is set, as always without a rate floor), then the
    exact digital re-solve.

    Returns (candidate, analog_failed). The candidate is None when the
    analog solver failed or the re-solve finds the rate out of reach.
    """
    arrays = scenario.arrays
    cand = design
    if design.v_rf is not None and not fixed_v:
        h_list = scenario.channel.per_subcarrier()
        v_bar = _vec(design.v_rf)
        for _round in range(wmmse_rounds):
            v_cur = _unvec(v_bar, arrays.n_tx, arrays.n_rf_tx)
            aux_list = [
                wmmse_update(h, v_cur, digital_factor(r), scenario.noise_comm)
                for h, r in zip(h_list, design.r_bb)
            ]
            v_new, state = fpp_sca_vrf(
                scenario,
                a_tilde,
                design.r_bb,
                aux_list,
                v_bar,
                max_iters=sca_iters,
            )
            if not state.ok:
                return None, True
            v_bar = _vec(v_new)
        cand = HybridDesign(_unvec(v_bar, arrays.n_tx, arrays.n_rf_tx), design.r_bb, design.rx)
    try:
        return _optimal_rbb_design(scenario, cand, a_tilde)[0], False
    except RateInfeasibleError:
        return None, False


def design_report(
    scenario: Scenario, engine: PcrbEngine, design: HybridDesign, t_start: float,
    trace: Optional[list] = None, converged: bool = True,
) -> AoReport:
    """Report of a finished design: PCRB, rate, power and feasibility are all
    computed from it. A scheme without an iteration log (one exact solve, the
    best of random draws) gives no trace and logs its final PCRB alone."""
    pcrb = engine.pcrb(design)
    return AoReport(
        trace=[pcrb] if trace is None else trace,
        design=design,
        converged=converged,
        wall_time=time.perf_counter() - t_start,
        final_pcrb=pcrb,
        final_rate=achieved_rate(scenario, design),
        power_used=design.total_power(),
        feasible=feasible(scenario, design),
    )


def ao_isac(
    scenario: Scenario,
    engine: Optional[PcrbEngine] = None,
    *,
    n_init: int = 32,
    max_outer: int = 15,
    wmmse_rounds: int = 2,
    sca_iters: int = 5,
    tol: float = 1e-8,
    init_design: Optional[HybridDesign] = None,
    fixed_v: bool = False,
) -> AoReport:
    """Alternating optimization for any rate target and any K.

    Blocks per outer iteration: the transmit block, then the receive update
    against the carrier-summed integral. The rate target chooses the start
    (see _start_design) and, with the analog matrix, the transmit block:
    without a rate floor a moving analog matrix gets the closed-form
    sensing update, else the block is _solver_tx_update. n_init,
    wmmse_rounds and sca_iters tune the rate floor only. Every block is
    committed only if the PCRB does not increase and the iterate stays
    feasible; the loop stops once an outer iteration changes the PCRB by
    at most tol relative.
    fixed_v keeps the analog matrix of the start. The engine's A1 and B~
    define the objective: a surrogate-objective scheme passes its own
    engine (for example PcrbEngine.at_angle), and the trace, the start and
    final_pcrb then all use that objective.
    """
    t_start = time.perf_counter()
    if engine is None:
        engine = PcrbEngine(scenario)

    design = _start_design(scenario, engine, n_init, init_design)
    current = engine.pcrb(design)
    trace = [current]

    # without transmit power no block can change the bound
    converged = scenario.power == 0.0
    for _ in range(0 if converged else max_outer):
        # --- transmit ------------------------------------------------------
        a_tilde = engine.a1_of(design.rx)
        if scenario.rate_target > 0 or design.v_rf is None or fixed_v:
            cand, analog_failed = _solver_tx_update(
                scenario, design, a_tilde, fixed_v, wmmse_rounds, sca_iters
            )
        else:
            cand, analog_failed = _sensing_tx_update(scenario, a_tilde, design), False
        if cand is not None:
            value = engine.pcrb(cand)
            if value <= trace[-1] * (1 + 1e-12) and feasible(scenario, cand):
                design, current = cand, value

        # --- receive side --------------------------------------------------
        if not isinstance(design.rx, RxIdentity):
            rx_new = _rx_update(scenario, design, engine.b_tilde(sum(design.tx_covariances())))
            cand = HybridDesign(design.v_rf, design.r_bb, rx_new)
            value = engine.pcrb(cand)
            if value <= trace[-1] * (1 + 1e-12):
                design, current = cand, value

        trace.append(current)
        if abs(trace[-2] - trace[-1]) <= tol * trace[-2]:
            # a stop caused by an analog block the solver could not
            # evaluate is not convergence
            converged = not analog_failed
            break

    return design_report(scenario, engine, design, t_start, trace, converged)


def ao_p0(
    scenario: Scenario,
    engine: Optional[PcrbEngine] = None,
    *,
    max_outer: int = 200,
    tol: float = 1e-8,
    restarts: int = 0,
    init_design: Optional[HybridDesign] = None,
    **kw,
) -> AoReport:
    """Sensing-only alternating optimization: ao_isac without the rate floor.

    The run starts from init_design or the deterministic all-ones phases;
    kw takes ao_isac's other options. restarts > 0 additionally runs the
    loop from that many seeded random-phase starts and keeps the best final
    PCRB. A restart replaces only the start (with fixed_v, each start keeps
    its own analog matrix), so restarts cannot be combined with init_design.
    """
    if restarts > 0 and init_design is not None:
        raise ValueError("restarts replace the start design; give init_design or restarts")
    scenario = scenario.replace(rate_target=0.0)
    if engine is None:
        engine = PcrbEngine(scenario)
    best = ao_isac(scenario, engine, max_outer=max_outer, tol=tol, init_design=init_design, **kw)
    if restarts > 0:
        rng = np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(0xA0,)))
        for _ in range(restarts):
            cand = ao_isac(
                scenario,
                engine,
                max_outer=max_outer,
                tol=tol,
                init_design=random_sensing_design(scenario, rng),
                **kw,
            )
            if cand.final_pcrb < best.final_pcrb:
                best = cand
    return best


def ao_p1(
    scenario: Scenario,
    engine: Optional[PcrbEngine] = None,
    **kw,
) -> AoReport:
    """Narrowband alternating optimization: ao_isac on one sub-carrier.

    A zero rate target runs ao_p0 with every option given.
    """
    if scenario.subcarriers != 1:
        raise ValueError("ao_p1 expects a narrowband scenario (1 sub-carrier)")
    if scenario.rate_target <= 0:
        return ao_p0(scenario, engine, **kw)
    return ao_isac(scenario, engine, **kw)


def ao_p2(
    scenario: Scenario,
    engine: Optional[PcrbEngine] = None,
    **kw,
) -> AoReport:
    """OFDM alternating optimization: ao_isac for any number of carriers.

    Under a rate floor its defaults differ from ao_isac's: max_outer=10 and
    sca_iters=4 unless given. A zero rate target runs ao_p0 with every
    option given.
    """
    if scenario.rate_target <= 0:
        return ao_p0(scenario, engine, **kw)
    return ao_isac(scenario, engine, **{"max_outer": 10, "sca_iters": 4, **kw})
