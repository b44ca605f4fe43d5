"""Posterior Fisher information and the posterior CRB of the target angle.

The unknowns are (theta, Re alpha, Im alpha). For the Gaussian observation
model with analog combining W whose Gram is kappa*I, the observation blocks
reduce to traces of the prior-weighted steering integrals against the
transmit covariance:

    J_tt = (2 L gamma / (kappa sigma_s^2)) * sum_k tr(A1(W) V R_k V^H)
    J_ta = 0
    J_aa = (2 L / (kappa sigma_s^2)) * sum_k tr(A2(W) V R_k V^H) * I_2

and the prior adds E[(d log p/d theta)^2] for theta plus (2/gamma) I_2 for
the circular-Gaussian reflection coefficient. The angle PCRB is the (1,1)
entry of the inverse of the 3x3 total information.

`fim_oracle` estimates the same blocks directly from the defining
expectation by Monte-Carlo sampling of (theta, alpha) and central finite
differences in theta; it shares no code with the quadrature path and serves
as the numerical ground truth in tests.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .designs import HybridDesign, digital_factor
from .model import ModelError, Scenario, steering_block
from .quadrature import LagMoments, QuadratureGrid, build_grid, prior_fisher_theta


class PcrbError(ValueError):
    """Singular information matrix or inconsistent inputs."""


@dataclass
class Pfim:
    """Posterior Fisher information, split into observation and prior parts."""

    j_theta_theta: float
    j_theta_alpha: np.ndarray   # 1x2 row, zero for zero-mean reflection priors
    j_alpha_alpha: np.ndarray   # 2x2
    f_p_theta: float
    f_p_alpha: np.ndarray       # 2x2

    def matrix(self) -> np.ndarray:
        f = np.zeros((3, 3))
        f[0, 0] = self.j_theta_theta + self.f_p_theta
        f[0, 1:] = self.j_theta_alpha
        f[1:, 0] = self.j_theta_alpha
        f[1:, 1:] = self.j_alpha_alpha + self.f_p_alpha
        return f


class PcrbEngine:
    """Caches the prior lag moments of one scenario for repeated evaluations.

    All optimizer loops get their A1/A2/Btilde/PCRB values from here so that
    the moments are computed once per scenario, and pcrb scores every
    design. A scheme that optimizes another objective passes another engine
    (see at_angle).
    """

    def __init__(self, scenario: Scenario, grid: QuadratureGrid | None = None):
        self.scenario = scenario
        self.grid = grid if grid is not None else build_grid(
            scenario.angle_prior, scenario.quadrature_points
        )
        prior = scenario.angle_prior
        self.moments = LagMoments(
            scenario.arrays, self.grid.nodes, self.grid.weights * prior.pdf(self.grid.nodes)
        )
        self.f_p_theta = prior_fisher_theta(prior, self.grid)
        self._rx = self._a1 = None     # the a1_of cache

    def at_angle(self, theta: float) -> "PcrbEngine":
        """Engine of the point objective: the prior collapsed onto theta.

        A1, A2 and B~ become the integrands at theta (weight 1), as in the
        classical CRB at that angle. The scenario and the prior Fisher term
        are kept, so its PCRB is the bound the partial-prior benchmark
        optimizes.
        """
        engine = copy.copy(self)
        engine._rx = engine._a1 = None
        engine.moments = LagMoments(self.scenario.arrays, np.array([theta]), np.ones(1))
        return engine

    def for_scenario(self, scenario: Scenario) -> "PcrbEngine":
        """Engine of a scenario that differs from this one only in its RF chains.

        The grid, the lag moments and the prior Fisher term depend only on
        the antenna counts, the angle prior and the grid size, so the new
        engine shares them instead of rebuilding.
        """
        def key(sc: Scenario) -> tuple:
            prior = sc.angle_prior
            return (sc.arrays.n_tx, sc.arrays.n_rx, sc.quadrature_points,
                    *(tuple(x) for x in (prior.weights, prior.means, prior.variances)))

        if key(scenario) != key(self.scenario):
            raise ModelError("scenario does not share this engine's antennas, prior and grid")
        engine = copy.copy(self)
        engine._rx = engine._a1 = None
        engine.scenario = scenario
        return engine

    # -- observation-side integrals ------------------------------------
    def a1(self, w: np.ndarray) -> np.ndarray:
        return self.moments.a1(w @ w.conj().T)

    def a2(self, w: np.ndarray) -> np.ndarray:
        return self.moments.a2(w @ w.conj().T)

    def b_tilde(self, tx_cov: np.ndarray) -> np.ndarray:
        return self.moments.b_tilde(tx_cov)

    # -- scalar pieces ---------------------------------------------------
    def info_coefficient(self, kappa: float) -> float:
        """2 L gamma / (kappa sigma_s^2): multiplies the A1 trace."""
        sc = self.scenario
        return 2.0 * sc.symbols * sc.reflection.gamma / (kappa * sc.noise_sense)

    def a1_of(self, rx) -> np.ndarray:
        """A1 of a receive descriptor's matrix, kept for the last descriptor:
        the designs of an AO run share it until the receive block replaces it."""
        if rx is not self._rx:
            self._rx, self._a1 = rx, self.a1(rx.matrix(self.scenario.arrays))
        return self._a1

    def pcrb(self, design: HybridDesign) -> float:
        """Angle PCRB of a design: the trace of its covariances against A1."""
        a1 = self.a1_of(design.rx)
        tr = sum(np.trace(a1 @ t).real for t in design.tx_covariances())
        return self.pcrb_from_trace(design.rx.kappa(self.scenario.arrays), tr)

    def pcrb_from_trace(self, kappa: float, trace_value: float) -> float:
        return 1.0 / (self.f_p_theta + self.info_coefficient(kappa) * trace_value)


def assemble_pfim(
    scenario: Scenario, design: HybridDesign, engine: PcrbEngine | None = None
) -> Pfim:
    """Analytic posterior Fisher information of a design (all sub-carriers)."""
    if engine is None:
        engine = PcrbEngine(scenario)
    arrays = scenario.arrays
    if design.v_rf is not None and design.v_rf.shape[0] != arrays.n_tx:
        raise ModelError("design analog matrix does not match the array")
    if design.n_subcarriers != scenario.subcarriers:
        raise ModelError(
            f"design has {design.n_subcarriers} sub-carriers, "
            f"scenario declares {scenario.subcarriers}"
        )
    gamma = scenario.reflection.gamma
    if gamma <= 0:
        raise PcrbError("degenerate reflection prior (gamma == 0)")
    w = design.rx.matrix(arrays)
    kappa = design.rx.kappa(arrays)
    a1 = engine.a1(w)
    a2 = engine.a2(w)
    tr1 = sum(np.trace(a1 @ t).real for t in design.tx_covariances())
    tr2 = sum(np.trace(a2 @ t).real for t in design.tx_covariances())
    coef = 2.0 * scenario.symbols / (kappa * scenario.noise_sense)
    return Pfim(
        j_theta_theta=gamma * coef * tr1,
        j_theta_alpha=np.zeros(2),
        j_alpha_alpha=coef * tr2 * np.eye(2),
        f_p_theta=engine.f_p_theta,
        f_p_alpha=(2.0 / gamma) * np.eye(2),
    )


def pcrb_theta(pfim: Pfim) -> float:
    """Angle PCRB: (1,1) entry of the inverted 3x3 information matrix.

    With a zero cross block this is 1/(f_p_theta + j_theta_theta); the full
    inversion is evaluated as well and both paths must agree.
    """
    denom = pfim.f_p_theta + pfim.j_theta_theta
    if denom <= 0:
        raise PcrbError("posterior information about theta is not positive")
    scalar = 1.0 / denom
    f = pfim.matrix()
    try:
        full = float(np.linalg.inv(f)[0, 0])
    except np.linalg.LinAlgError as exc:
        raise PcrbError("singular posterior information matrix") from exc
    if not np.allclose(pfim.j_theta_alpha, 0.0):
        return full
    if abs(full - scalar) > 1e-9 * scalar:
        raise PcrbError(
            f"scalar ({scalar}) and full-inversion ({full}) PCRB paths disagree"
        )
    return scalar


def pcrb_fully_connected(
    scenario: Scenario, design: HybridDesign, engine: PcrbEngine | None = None
) -> float:
    """Angle PCRB under a fully-connected receiver with orthogonal rows.

    Requires W^H W = n_rx * I within 1e-9 (the DFT-codebook construction
    guarantees this); the effective noise then stays white and the standard
    trace expression applies with kappa = n_rx.
    """
    arrays = scenario.arrays
    w = design.rx.matrix(arrays)
    gram = w.conj().T @ w
    if not np.allclose(gram, arrays.n_rx * np.eye(w.shape[1]), atol=1e-9 * arrays.n_rx):
        raise PcrbError("receive rows are not orthogonal with norm sqrt(n_rx)")
    if engine is None:
        engine = PcrbEngine(scenario)
    tx_total = np.zeros((arrays.n_tx, arrays.n_tx), dtype=complex)
    for t in design.tx_covariances():
        tx_total += t
    b_tilde = engine.b_tilde(tx_total)
    tr = np.trace(b_tilde @ w @ w.conj().T).real
    return 1.0 / (engine.f_p_theta + engine.info_coefficient(arrays.n_rx) * tr)


@dataclass
class OracleFim:
    """Monte-Carlo estimate of the observation Fisher blocks with standard errors."""

    j_theta_theta: float
    se_theta_theta: float
    j_theta_alpha: np.ndarray      # (2,)
    se_theta_alpha: np.ndarray     # (2,)
    j_alpha_alpha: float           # common diagonal value of the 2x2 block
    se_alpha_alpha: float
    n_samples: int


def fim_oracle(
    scenario: Scenario,
    design: HybridDesign,
    mc_samples: int = 100_000,
    fd_step: float = 1e-6,
    seed: int = 0,
) -> OracleFim:
    """Estimate the observation Fisher blocks straight from their definition.

    Samples (theta, alpha) from the prior, forms the noise-free combined
    signal factorized as (W^H b)(a^H V V_bb) per sub-carrier, differentiates
    in theta by central finite differences, and averages the defining
    quadratic forms with the white effective-noise covariance kappa*sigma^2*I.
    The symbol Gram is taken at its expectation L*I, matching the
    large-sample covariance approximation used by the analytic path.
    """
    if mc_samples < 1000:
        raise ValueError("mc_samples must be >= 1000")
    if not (0.0 < fd_step <= 1e-3):
        raise ValueError("fd_step must lie in (0, 1e-3]")
    arrays = scenario.arrays
    rng = np.random.default_rng(seed)
    thetas = scenario.angle_prior.sample(rng, mc_samples)
    alphas = scenario.reflection.sample(rng, mc_samples)

    w = design.rx.matrix(arrays)
    kappa = design.rx.kappa(arrays)
    c_noise = kappa * scenario.noise_sense
    factors = [
        (np.eye(arrays.n_tx) if design.v_rf is None else design.v_rf) @ digital_factor(r)
        for r in design.r_bb
    ]

    # rank-1 structure: U_k(theta) = p(theta) q_k(theta)^H with p = W^H b,
    # q_k = (V V_bb,k)^H a; the three theta evaluations feed the central
    # difference of U_k.
    def pq(th):
        a, _ = steering_block(arrays.n_tx, th)
        b, _ = steering_block(arrays.n_rx, th)
        p = b @ w.conj()                     # (N, n_rf_rx)
        qs = [a.conj() @ f for f in factors]  # (N, n_s) per sub-carrier
        return p, qs

    p0, q0 = pq(thetas)
    pp, qp = pq(thetas + fd_step)
    pm, qm = pq(thetas - fd_step)

    l_sym = scenario.symbols
    base = 2.0 * l_sym / c_noise
    f_tt = np.zeros(mc_samples)
    f_ta = np.zeros(mc_samples, dtype=complex)   # tr(Udot^H U) per sample
    f_aa = np.zeros(mc_samples)
    inv2h = 1.0 / (2.0 * fd_step)
    for k in range(len(factors)):
        pp_n = np.einsum("ni,ni->n", pp.conj(), pp).real
        pm_n = np.einsum("ni,ni->n", pm.conj(), pm).real
        p0_n = np.einsum("ni,ni->n", p0.conj(), p0).real
        qp_n = np.einsum("ni,ni->n", qp[k].conj(), qp[k]).real
        qm_n = np.einsum("ni,ni->n", qm[k].conj(), qm[k]).real
        q0_n = np.einsum("ni,ni->n", q0[k].conj(), q0[k]).real
        ppm = np.einsum("ni,ni->n", pp.conj(), pm)
        qpm = np.einsum("ni,ni->n", qp[k].conj(), qm[k])
        pp0 = np.einsum("ni,ni->n", pp.conj(), p0)
        qp0 = np.einsum("ni,ni->n", qp[k].conj(), q0[k])
        pm0 = np.einsum("ni,ni->n", pm.conj(), p0)
        qm0 = np.einsum("ni,ni->n", qm[k].conj(), q0[k])
        # with U = p q^H and the stored qc = conj(q), the cross trace is
        # tr(U1^H U2) = (p1^H p2)(q2^H q1) = (p1^H p2)(qc1^H qc2)
        f_tt += (pp_n * qp_n + pm_n * qm_n - 2.0 * (ppm * qpm).real) * inv2h**2
        f_ta += (pp0 * qp0 - pm0 * qm0) * inv2h
        f_aa += p0_n * q0_n

    abs2 = alphas.real**2 + alphas.imag**2
    tt = base * abs2 * f_tt
    ta_r = base * (alphas.conj() * f_ta).real
    ta_i = base * (1j * alphas.conj() * f_ta).real
    aa = base * f_aa

    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))

    m_tt, se_tt = mean_se(tt)
    m_tr, se_tr = mean_se(ta_r)
    m_ti, se_ti = mean_se(ta_i)
    m_aa, se_aa = mean_se(aa)
    return OracleFim(
        j_theta_theta=m_tt,
        se_theta_theta=se_tt,
        j_theta_alpha=np.array([m_tr, m_ti]),
        se_theta_alpha=np.array([se_tr, se_ti]),
        j_alpha_alpha=m_aa,
        se_alpha_alpha=se_aa,
        n_samples=mc_samples,
    )
