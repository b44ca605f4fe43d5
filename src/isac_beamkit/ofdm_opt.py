"""Wideband OFDM ISAC: per-subcarrier digital covariances, common analog parts.

The angle information adds across sub-carriers through the trace sum, the
rate constraint averages the per-subcarrier log-dets, and one analog matrix
serves all carriers. The digital stage is solved exactly by the shared
Lagrange-dual water-filling solver; the analog stage stacks the per-subcarrier
WMMSE surrogates into a single slack-penalized SCA subproblem.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .cvxkit import RateInfeasibleError, rate_constrained_trace_max_multi
from .designs import AoReport, HybridDesign, RxDft, RxIdentity, RxPhases, achieved_rate, digital_factor
from .isac_opt import (
    FppScaState,
    WmmseAux,
    _TraceObjective,
    _feasible,
    _optimal_rbb_design,
    _run_fpp_sca,
    _start_design,
    _unvec,
    _vec,
    ao_isac,
    wmmse_update,
)
from .model import Scenario
from .pcrb import PcrbEngine
from .sensing_opt import (
    ao_p0,
    coordinate_update_receive,
    dft_select_fc,
    receive_quadratic,
)


def pcrb_ofdm_objective(
    scenario: Scenario, design: HybridDesign, engine: Optional[PcrbEngine] = None
) -> float:
    """Angle PCRB of an OFDM design; reduces to the narrowband value at K=1.

    The per-subcarrier traces against A1 add, so the same engine expression
    covers any number of carriers.
    """
    if engine is None:
        engine = PcrbEngine(scenario)
    return engine.pcrb(design)


def optimal_rbb_ofdm(
    a_tilde: np.ndarray,
    v_rf: Optional[np.ndarray],
    h_list: list[np.ndarray],
    power: float,
    rate_target: float,
    noise: float,
):
    """Per-subcarrier digital covariances for fixed analog beamforming.

    Shares the Lagrange-dual water-filling solver with the narrowband path;
    the power dual is common to all carriers and the rate dual sets a common
    water level over the whitened per-carrier eigenmodes.
    """
    if v_rf is None:
        dim = a_tilde.shape[0]
        return rate_constrained_trace_max_multi(
            a_tilde, np.eye(dim), list(h_list), power, rate_target, noise
        )
    a_eff = v_rf.conj().T @ a_tilde @ v_rf
    g_eff = v_rf.conj().T @ v_rf
    return rate_constrained_trace_max_multi(
        a_eff, g_eff, [h @ v_rf for h in h_list], power, rate_target, noise
    )


def fpp_sca_vrf_ofdm(
    scenario: Scenario,
    a_tilde: np.ndarray,
    r_bb_list,
    aux_list: list[WmmseAux],
    v_init: np.ndarray,
    eps: float = 1e3,
    max_iters: int = 30,
) -> tuple[np.ndarray, FppScaState]:
    """Common transmit-analog update across all sub-carriers.

    Builds the stacked quadratics: the sensing and power forms use the sum
    of the digital covariances, the surrogate-rate form averages the
    per-subcarrier WMMSE pieces. K=1 collapses to the narrowband update.
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
        eps,
        max_iters,
    )
    return _unvec(state.v, arrays.n_tx, arrays.n_rf_tx), state


def ao_p2(
    scenario: Scenario,
    engine: Optional[PcrbEngine] = None,
    *,
    n_init: int = 32,
    max_outer: int = 10,
    wmmse_rounds: int = 2,
    sca_iters: int = 4,
    tol: float = 1e-8,
    eps: float = 1e3,
    init_design: Optional[HybridDesign] = None,
    fixed_v: bool = False,
    update_rx: bool = True,
    a1_fn=None,
    btilde_fn=None,
) -> AoReport:
    """OFDM ISAC alternating optimization (K=1 runs the narrowband loop).

    Blocks per outer iteration: common analog matrix via stacked
    WMMSE/FPP-SCA with an immediate exact digital re-solve, then the receive
    update against the carrier-summed integral. Every block is committed
    only if the PCRB does not increase and the iterate stays feasible.
    """
    if scenario.rate_target <= 0:
        if engine is None:
            engine = PcrbEngine(scenario)
        return ao_p0(scenario, engine)
    if scenario.subcarriers == 1:
        return ao_isac(
            scenario,
            engine,
            n_init=n_init,
            max_outer=max_outer,
            wmmse_rounds=wmmse_rounds,
            sca_iters=sca_iters,
            tol=tol,
            eps=eps,
            init_design=init_design,
            fixed_v=fixed_v,
            update_rx=update_rx,
            a1_fn=a1_fn,
            btilde_fn=btilde_fn,
        )

    t_start = time.perf_counter()
    if engine is None:
        engine = PcrbEngine(scenario)
    arrays = scenario.arrays
    h_list = scenario.channel.per_subcarrier()
    objective = _TraceObjective(engine, arrays, a1_fn or engine.a1)
    btilde_fn = btilde_fn or engine.b_tilde

    design = _start_design(scenario, engine, n_init, init_design, objective)
    current = objective(design)
    trace = [current]

    converged = False
    for _ in range(max_outer):
        changed = False
        analog_failed = False
        a_tilde = objective.a1(design.rx)
        if design.v_rf is not None and not fixed_v:
            v_bar = _vec(design.v_rf)
            for _round in range(wmmse_rounds):
                v_cur = _unvec(v_bar, arrays.n_tx, arrays.n_rf_tx)
                aux_list = [
                    wmmse_update(h, v_cur, digital_factor(r), scenario.noise_comm)
                    for h, r in zip(h_list, design.r_bb)
                ]
                v_new, state = fpp_sca_vrf_ofdm(
                    scenario,
                    a_tilde,
                    design.r_bb,
                    aux_list,
                    v_bar,
                    eps=eps,
                    max_iters=sca_iters,
                )
                if not state.ok:
                    analog_failed = True
                    break
                v_bar = _vec(v_new)
            cand = HybridDesign(
                _unvec(v_bar, arrays.n_tx, arrays.n_rf_tx), design.r_bb, design.rx
            )
        else:
            cand = design
        if not analog_failed:
            try:
                cand, _ = _optimal_rbb_design(scenario, cand, a_tilde)
                value = objective(cand)
                if value <= trace[-1] * (1 + 1e-12) and _feasible(scenario, cand):
                    if value < trace[-1] * (1 - 1e-12):
                        changed = True
                    design, current = cand, value
            except RateInfeasibleError:
                pass

        if update_rx and not isinstance(design.rx, RxIdentity):
            b_bar = btilde_fn(sum(design.tx_covariances()))
            if isinstance(design.rx, RxDft):
                rx_new = RxDft(dft_select_fc(b_bar, arrays.n_rf_rx))
            else:
                pi = receive_quadratic(b_bar, arrays.n_rf_rx)
                rx_new = RxPhases(coordinate_update_receive(design.rx.d, pi))
            cand = HybridDesign(design.v_rf, design.r_bb, rx_new)
            value = objective(cand)
            if value <= trace[-1] * (1 + 1e-12):
                if value < trace[-1] * (1 - 1e-12):
                    changed = True
                design, current = cand, value

        trace.append(current)
        if abs(trace[-2] - trace[-1]) <= tol * trace[-2] or not changed:
            # a failed analog block is not convergence
            converged = not analog_failed
            break

    return AoReport(
        trace=trace,
        design=design,
        converged=converged,
        wall_time=time.perf_counter() - t_start,
        final_pcrb=engine.pcrb(design),
        final_rate=achieved_rate(scenario, design),
        power_used=design.total_power(),
        feasible=_feasible(scenario, design),
    )
