"""Small dense convex-optimization kit.

Three pieces, all deterministic and dependency-free beyond numpy/scipy:

  * a top generalized-eigenpair solver (the rank-1 sensing optimum);
  * a log-barrier interior-point solver for convex QCQPs with linear
    objective (hosts the slack-penalized analog-beamforming subproblems);
  * the rate-constrained trace-maximization solver for the transmit digital
    covariance, via Lagrange duality with two scalar multipliers: at a
    power dual mu the Lagrangian's maximizer is a water-filling whose level
    (the rate dual) exhausts the power budget in closed form, and one
    monotone root search over mu meets the rate target. The same routine
    covers the per-subcarrier case (one covariance per carrier,
    average-rate constraint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.optimize import brentq


class SolverError(RuntimeError):
    """Internal solver failure (distinct from problem infeasibility)."""


class RateInfeasibleError(ValueError):
    """Requested rate exceeds what full power can support."""

    def __init__(self, rate_target: float, max_rate: float, message: str = ""):
        self.rate_target = rate_target
        self.max_rate = max_rate
        super().__init__(
            message
            or f"rate target {rate_target:.6g} nats exceeds achievable {max_rate:.6g} nats"
        )


# ---------------------------------------------------------------------------
# generalized eigenpair
# ---------------------------------------------------------------------------

def top_generalized_eig(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest generalized eigenpair of (A, B), A Hermitian PSD, B Hermitian PD.

    Returns (lam, x) with A x = lam B x and x^H B x = 1. Ties are broken
    deterministically (largest leading entry magnitude, then lowest index)
    and the global phase is fixed so the largest-magnitude entry is real
    positive.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    try:
        scipy.linalg.cholesky(b, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError("B is not positive definite") from exc
    lam, vec = scipy.linalg.eigh(a, b)
    top = lam[-1]
    tied = np.where(lam >= top - 1e-12 * max(abs(top), 1.0))[0]
    if tied.size > 1:
        lead = np.abs(vec[0, tied])
        tied = tied[lead >= lead.max() - 1e-12]
        best = tied[0]
    else:
        best = tied[0]
    x = vec[:, best]
    k = int(np.argmax(np.abs(x)))
    ph = x[k] / abs(x[k]) if abs(x[k]) > 0 else 1.0
    x = x / ph
    return float(top), x


# ---------------------------------------------------------------------------
# convex QCQP via log barrier
# ---------------------------------------------------------------------------

@dataclass
class QuadConstraint:
    """x^T Q x + a^T x + b <= 0 with Q symmetric PSD.

    quad is the n x n matrix Q, a length-n vector holding a diagonal Q, or
    None for a linear row.
    """

    quad: Optional[np.ndarray]
    lin: np.ndarray
    offset: float


@dataclass
class ConvexQcqp:
    """minimize c^T x subject to convex quadratic/linear <= constraints."""

    objective: np.ndarray
    constraints: list[QuadConstraint]
    nonneg: Optional[np.ndarray] = None  # boolean mask of coordinates kept >= 0

    @property
    def dim(self) -> int:
        return self.objective.size


@dataclass
class SolverReport:
    x: np.ndarray
    objective: float
    max_violation: float
    kkt_residual: float
    iterations: int
    success: bool
    message: str = ""


class _Constraints:
    """Split constraint set with vectorized value/gradient/Hessian pieces.

    Quadratic rows given by their diagonal (unit-modulus halves, trust
    balls) stay vectors; only matrix rows keep a dense n x n block. Rows
    whose gradient touches at most SPARSE_ROW coordinates (modulus halves,
    tangent planes, sign bounds) enter the barrier Hessian through their
    fixed sparsity pattern, so apart from the Cholesky solve a Newton step
    costs O(n^2) per dense row.
    """

    SPARSE_ROW = 8

    def __init__(self, problem: ConvexQcqp):
        n = problem.dim
        quads = [c for c in problem.constraints if c.quad is not None]
        lins = [c for c in problem.constraints if c.quad is None]
        if problem.nonneg is not None:
            for i in np.where(problem.nonneg)[0]:
                a = np.zeros(n)
                a[i] = -1.0
                lins.append(QuadConstraint(None, a, 0.0))
        dense = [c for c in quads if c.quad.ndim == 2]
        diag = [c for c in quads if c.quad.ndim == 1]
        # row order: dense quadratics, diagonal quadratics, linear rows
        quads = dense + diag
        self.n = n
        self.n_dense = len(dense)
        self.n_quad = len(quads)
        self.qmats = np.array([c.quad for c in dense]) if dense else np.zeros((0, n, n))
        self.qdiag = np.array([c.quad for c in diag]) if diag else np.zeros((0, n))
        self.qlin = np.array([c.lin for c in quads]) if quads else np.zeros((0, n))
        self.qoff = np.array([c.offset for c in quads])
        self.alin = np.array([c.lin for c in lins]) if lins else np.zeros((0, n))
        self.aoff = np.array([c.offset for c in lins])
        self.m = self.qoff.size + self.aoff.size
        # gradient support of each row (quadratic rows first, as in grads)
        support = np.vstack([self.qlin, self.alin]) != 0
        support[: self.n_dense] |= np.any(self.qmats != 0, axis=1)
        support[self.n_dense : self.n_quad] |= self.qdiag != 0
        sparse = support.sum(axis=1) <= self.SPARSE_ROW
        self.dense_rows = np.flatnonzero(~sparse)
        # (row, i, j) for every Hessian entry a sparse row contributes to
        pairs = [np.zeros((3, 0), dtype=int)]
        for r in np.flatnonzero(sparse):
            idx = np.flatnonzero(support[r])
            ii, jj = np.meshgrid(idx, idx, indexing="ij")
            pairs.append(np.stack([np.full(ii.size, r), ii.ravel(), jj.ravel()]))
        self.pair_row, self.pair_i, self.pair_j = np.hstack(pairs)
        self.pair_flat = self.pair_i * n + self.pair_j

    def _quad_forms(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x^T Q_i y for every quadratic row."""
        return np.concatenate([self.qmats @ y @ x, self.qdiag @ (x * y)])

    def values(self, x: np.ndarray) -> np.ndarray:
        vq = self._quad_forms(x, x) + self.qlin @ x + self.qoff
        vl = self.alin @ x + self.aoff
        return np.concatenate([vq, vl])

    def values_and_gradients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        qx = np.concatenate([self.qmats @ x, self.qdiag * x])
        vq = qx @ x + self.qlin @ x + self.qoff
        gq = 2.0 * qx + self.qlin
        vl = self.alin @ x + self.aoff
        return np.concatenate([vq, vl]), np.vstack([gq, self.alin])

    def gradients(self, x: np.ndarray) -> np.ndarray:
        return self.values_and_gradients(x)[1]

    def ray_coefficients(self, x: np.ndarray, dx: np.ndarray, vals, grads):
        """(v0, v1, v2) with q_i(x + s*dx) = v0 + s*v1 + s^2*v2."""
        v1 = grads @ dx
        v2 = np.zeros(self.m)
        v2[: self.n_quad] = self._quad_forms(dx, dx)
        return vals, v1, v2

    def barrier_hessian(self, x: np.ndarray, vals: np.ndarray, grads: np.ndarray) -> np.ndarray:
        inv = 1.0 / vals  # vals < 0 in the domain
        inv2 = inv**2
        gd = grads[self.dense_rows]
        h = (gd * inv2[self.dense_rows, None]).T @ gd
        pair_vals = (
            inv2[self.pair_row]
            * grads[self.pair_row, self.pair_i]
            * grads[self.pair_row, self.pair_j]
        )
        h += np.bincount(self.pair_flat, pair_vals, minlength=self.n * self.n).reshape(self.n, self.n)
        w = -2.0 * inv[: self.n_quad]
        if self.n_dense:
            h += np.tensordot(w[: self.n_dense], self.qmats, axes=1)
        h[np.diag_indices(self.n)] += w[self.n_dense :] @ self.qdiag
        return h


def _newton_barrier(
    cons: _Constraints,
    c: np.ndarray,
    x: np.ndarray,
    t_bar: float,
    max_iter: int,
    stop_fn=None,
) -> tuple[np.ndarray, int, str]:
    """Damped Newton on t*c^T x - sum log(-q_i(x)); x must be strictly feasible.

    Returns (x, iterations, reason) with reason one of "conv" (decrement
    small, or at its float64 floor), "cap" (iteration limit), "stall" (line
    search cannot certify progress at this t in float64), "stop" (caller's
    early-exit test).

    The decrement floor: the gradient t*c - sum grad_i/q_i cancels in
    float64, leaving noise that grows with t, and the decrement cannot
    fall below that noise. Inside the quadratic region (lambda < 0.1 after
    a full step) self-concordance bounds the next decrement by
    (lambda/(1-lambda))^2, about 1% of the current one, so a decrement
    that does not decrease at all there is rounding noise and the point is
    as centred as float64 allows.
    """
    n = x.size
    lam2_prev, full_step = math.inf, False
    for it in range(max_iter):
        vals, grads = cons.values_and_gradients(x)
        g = t_bar * c - grads.T @ (1.0 / vals)
        h = cons.barrier_hessian(x, vals, grads)
        try:
            l_chol = scipy.linalg.cho_factor(h, lower=True, check_finite=False)
            dx = -scipy.linalg.cho_solve(l_chol, g, check_finite=False)
        except scipy.linalg.LinAlgError:
            h = h + (1e-10 * max(np.trace(h) / n, 1.0)) * np.eye(n)
            dx = -np.linalg.solve(h, g)
        lam2 = float(-g @ dx)
        if lam2 / 2.0 <= 1e-11 or (full_step and lam2_prev < 1e-2 and lam2 >= lam2_prev):
            return x, it, "conv"
        # backtracking line search on the ray, with constraint values along
        # the ray evaluated from their exact quadratic coefficients
        v0, v1, v2 = cons.ray_coefficients(x, dx, vals, grads)
        f0 = t_bar * (c @ x) - np.log(-vals).sum()
        c_dx = float(c @ dx)
        g_dx = float(g @ dx)
        step = 1.0
        for _ in range(80):
            vn = v0 + step * v1 + step * step * v2
            if np.all(vn < 0):
                fn = t_bar * (c @ x + step * c_dx) - np.log(-vn).sum()
                if fn <= f0 + 0.25 * step * g_dx:
                    break
            step *= 0.5
        else:
            return x, it, "stall"
        x = x + step * dx
        lam2_prev, full_step = lam2, step == 1.0
        if stop_fn is not None and stop_fn(x):
            return x, it + 1, "stop"
    return x, max_iter, "cap"


def _phase_one(cons_problem: ConvexQcqp, x0: np.ndarray) -> tuple[np.ndarray, bool]:
    """Find a strictly feasible point by minimizing the worst violation.

    A generous ball around x0 bounds the search: the pure feasibility
    objective says nothing about coordinates the constraints reward pushing
    to infinity (slack variables), and the barrier would chase them.
    """
    n = cons_problem.dim
    aug_cons = []
    for con in cons_problem.constraints:
        lin = np.append(con.lin, -1.0)
        quad = None
        if con.quad is not None and con.quad.ndim == 1:
            quad = np.append(con.quad, 0.0)
        elif con.quad is not None:
            quad = np.zeros((n + 1, n + 1))
            quad[:n, :n] = con.quad
        aug_cons.append(QuadConstraint(quad, lin, con.offset))
    if cons_problem.nonneg is not None:
        for i in np.where(cons_problem.nonneg)[0]:
            a = np.zeros(n + 1)
            a[i] = -1.0
            a[-1] = -1.0
            aug_cons.append(QuadConstraint(None, a, 0.0))
    radius2 = 1e4 * n * max(1.0, float(x0 @ x0))
    ball = np.append(np.ones(n), 0.0)
    aug_cons.append(QuadConstraint(ball, np.zeros(n + 1), -radius2))
    aug = ConvexQcqp(np.append(np.zeros(n), 1.0), aug_cons, None)
    cons = _Constraints(aug)
    s0 = float(cons.values(np.append(x0, 0.0)).max()) if cons.m else -1.0
    x = np.append(x0, s0 + 1.0)
    c = aug.objective
    t_bar = 1.0
    for _ in range(40):
        x, _, reason = _newton_barrier(cons, c, x, t_bar, 60, stop_fn=lambda z: z[-1] < -1e-9)
        if x[-1] < -1e-9:
            return x[:n], True
        if cons.m / t_bar < 1e-10 or reason == "stall":
            break
        t_bar *= 20.0
    return x[:n], bool(x[-1] < 0)


def solve_convex_qcqp(
    problem: ConvexQcqp,
    tol: float = 1e-8,
    x0: Optional[np.ndarray] = None,
    max_stages: int = 60,
) -> SolverReport:
    """Log-barrier interior-point solve of a convex QCQP.

    If x0 is strictly feasible it is used directly, otherwise a phase-I
    barrier run locates an interior point first. The returned violation and
    KKT residual are recomputed from the final iterate.
    """
    cons = _Constraints(problem)
    n = problem.dim
    c = problem.objective
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float)
    vals0 = cons.values(x0)
    if vals0.size and vals0.max() >= -1e-12:
        x0, ok = _phase_one(problem, x0)
        if not ok:
            vals = cons.values(x0)
            return SolverReport(
                x=x0,
                objective=float(c @ x0),
                max_violation=float(vals.max()) if vals.size else 0.0,
                kkt_residual=float("inf"),
                iterations=0,
                success=False,
                message="no strictly feasible point found",
            )
    x = x0
    # duality-gap target frozen at the starting objective scale; tying it to
    # the current iterate would let a wild |f| value self-certify
    gap_target = tol * max(1.0, abs(float(c @ x0)))
    t_bar = max(1.0, cons.m)
    total_newton = 0
    for _ in range(max_stages):
        f_before = float(c @ x)
        x, its, reason = _newton_barrier(cons, c, x, t_bar, 60)
        total_newton += its
        if cons.m / t_bar < gap_target:
            break
        if reason in ("stall", "cap") and abs(float(c @ x) - f_before) <= 1e-12 * max(
            1.0, abs(f_before)
        ):
            # float64 cannot certify further progress at this barrier weight
            break
        t_bar *= 20.0
    vals = cons.values(x)
    grads = cons.gradients(x)
    duals = 1.0 / (-vals * t_bar)
    kkt = float(np.abs(c + grads.T @ duals).max())
    return SolverReport(
        x=x,
        objective=float(c @ x),
        max_violation=float(vals.max()) if vals.size else 0.0,
        kkt_residual=kkt,
        iterations=total_newton,
        success=bool(vals.max() < tol if vals.size else True),
        message="",
    )


# ---------------------------------------------------------------------------
# water-filling and the rate-constrained trace maximization
# ---------------------------------------------------------------------------

def _fill_level(inv: np.ndarray, weights: np.ndarray, budget: float) -> float:
    """Level c with sum_i weights_i * (c - inv_i)^+ = budget, inv ascending.

    The left side is increasing and piecewise linear in c. With the first
    j+1 entries active it equals budget at (budget + sum w*inv) / sum w, and
    that candidate lies above inv_j exactly for the active prefix, so the
    last such j gives the level.
    """
    levels = (budget + np.cumsum(weights * inv)) / np.cumsum(weights)
    return float(levels[np.nonzero(levels > inv)[0][-1]])


def waterfill(gains: np.ndarray, budget: float, noise: float) -> tuple[np.ndarray, float]:
    """maximize sum log(1 + p_i g_i / noise) s.t. sum p <= budget, p >= 0.

    Returns (p, level) with p_i = (level - noise/g_i)^+. Exact via sorting.
    """
    gains = np.asarray(gains, dtype=float)
    pos = gains > 0
    if budget <= 0 or not pos.any():
        return np.zeros_like(gains), 0.0
    inv = noise / gains[pos]
    level = _fill_level(np.sort(inv), np.ones(inv.size), budget)
    p = np.zeros_like(gains)
    p[pos] = np.maximum(level - inv, 0.0)
    return p, level


def _inv_sqrt_psd(m: np.ndarray, floor: float = 1e-300) -> np.ndarray:
    lam, vec = np.linalg.eigh(0.5 * (m + m.conj().T))
    lam = np.maximum(lam, floor)
    return (vec / np.sqrt(lam)) @ vec.conj().T


def mimo_capacity(
    h_list: list[np.ndarray], g_eff: np.ndarray, power: float, noise: float
) -> float:
    """Maximum average rate over the sub-carriers at total power `power`.

    Joint water-filling across all (carrier, eigenmode) pairs of the
    whitened channels H_k G^{-1/2}. g_eff must be positive definite (an
    analog matrix with dependent columns has no well-defined per-chain
    power accounting).
    """
    try:
        scipy.linalg.cholesky(g_eff, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError("power Gram matrix is not positive definite") from exc
    g_inv_half = _inv_sqrt_psd(g_eff)
    gains = np.concatenate(
        [scipy.linalg.svdvals(h @ g_inv_half) ** 2 for h in h_list]
    )
    p, _ = waterfill(gains, power, noise)
    return float(np.log1p(p * gains / noise).sum() / len(h_list))


@dataclass
class TraceMaxResult:
    """Solution of the rate-constrained trace maximization."""

    r_bb: list[np.ndarray]
    objective: float
    rate: float
    power: float
    beta: float          # dual of the rate constraint
    mu: float            # dual of the power constraint
    branch: str          # "sensing" | "capacity" | "dual"

    @property
    def r_single(self) -> np.ndarray:
        return self.r_bb[0]


def _exact_rate(h_list: list[np.ndarray], r_list: list[np.ndarray], noise: float) -> float:
    """Average log-det rate of explicit covariances (no eigen shortcuts)."""
    total = 0.0
    for h, r in zip(h_list, r_list):
        n_u = h.shape[0]
        g = np.eye(n_u) + h @ r @ h.conj().T / noise
        total += float(np.linalg.slogdet(g)[1])
    return total / len(h_list)


@dataclass
class _DualPoint:
    """The Lagrangian's maximizer at one power dual mu, up to its water level.

    Per (carrier, mode): the whitened gain, the power and the sensing
    objective that one unit of allocation costs and earns. `level` is the
    per-carrier water level beta/K.
    """

    mu: float
    s: np.ndarray        # (n,) column scales (mu - lam)^-1/2
    vh: np.ndarray       # (K, modes, n) right singular vectors
    gains: np.ndarray    # (K, modes)
    power_w: np.ndarray  # (K, modes)
    sense_w: np.ndarray  # (K, modes)
    noise: float
    level: float

    @property
    def alloc(self) -> np.ndarray:
        alloc = np.maximum(self.level - self.noise / np.maximum(self.gains, 1e-300), 0.0)
        alloc[self.gains <= 0] = 0.0
        return alloc

    @property
    def power(self) -> float:
        return float((self.alloc * self.power_w).sum())

    @property
    def objective(self) -> float:
        return float((self.alloc * self.sense_w).sum())

    @property
    def rate(self) -> float:
        return float(np.log1p(self.alloc * self.gains / self.noise).sum()) / self.gains.shape[0]

    def rate_level(self, rate: float) -> float:
        """Water level at which the modes carry average rate `rate`.

        An active mode carries log(level / inv), inv = noise/gain; with the
        first n modes active, log level = (K rate + sum log inv) / n, and the
        same prefix argument as in _fill_level picks n.
        """
        inv = np.sort(self.noise / self.gains[self.gains > 0])
        k_rate = self.gains.shape[0] * rate
        levels = np.exp((k_rate + np.cumsum(np.log(inv))) / np.arange(1, inv.size + 1))
        return float(levels[np.nonzero(levels > inv)[0][-1]])


class _DualPoints:
    """Inner maximizer of the Lagrangian, evaluated in the (A, G) eigenbasis.

    With G^-1/2 A G^-1/2 = U diag(lam) U^H, the factor
    F(mu) = G^-1/2 U diag(s), s = (mu - lam)^-1/2, satisfies
    F F^H = (mu G - A)^-1, F^H G F = diag(s^2) and F^H A F = diag(lam s^2).
    The whitened channels H_k F(mu) are the fixed B_k = H_k G^-1/2 U with
    scaled columns, so a dual point costs one batched SVD and no
    eigendecomposition. At duals (mu, beta) the maximizer is
    R_k = F V_k diag(p_k) V_k^H F^H, water-filled at the level beta/K over
    the mode gains g; mode j of carrier k costs w = sum_i |V_ij|^2 s_i^2
    power per unit of p. For a given mu the beta that exhausts the budget,
    sum w (beta/K - noise/g)^+ = P, is therefore exact by sorting the
    breakpoints noise/g, and a point is one SVD per mu. The covariances are
    formed only on request.
    """

    def __init__(self, a_eff: np.ndarray, g_eff: np.ndarray, h_list: list[np.ndarray], noise: float):
        g_inv_half = _inv_sqrt_psd(g_eff)
        a_w = g_inv_half @ a_eff @ g_inv_half
        self.lam, u = np.linalg.eigh(0.5 * (a_w + a_w.conj().T))
        self.basis = g_inv_half @ u
        self.b = np.stack([h @ self.basis for h in h_list])
        self.noise = noise

    def point(self, mu: float, power: float) -> _DualPoint:
        """Maximizer at mu (above the top eigenvalue), its level exhausting `power`."""
        s = 1.0 / np.sqrt(mu - self.lam)
        _, sv, vh = np.linalg.svd(self.b * s, full_matrices=False)
        gains = sv**2
        mode_w = np.abs(vh) ** 2 * s**2          # (K, modes, n): |F v_j| weights
        power_w = mode_w.sum(axis=2)
        pos = gains > 0
        inv = self.noise / gains[pos]
        order = np.argsort(inv)
        level = _fill_level(inv[order], power_w[pos][order], power)
        return _DualPoint(mu, s, vh, gains, power_w, mode_w @ self.lam, self.noise, level)

    def covariances(self, pt: _DualPoint) -> list[np.ndarray]:
        r_list = []
        for vh_k, alloc_k in zip(pt.vh, pt.alloc):
            fv = (self.basis * pt.s) @ vh_k.conj().T
            r = (fv * alloc_k) @ fv.conj().T
            r_list.append(0.5 * (r + r.conj().T))
        return r_list


def rate_constrained_trace_max_multi(
    a_eff: np.ndarray,
    g_eff: np.ndarray,
    h_list: list[np.ndarray],
    power: float,
    rate_target: float,
    noise: float,
) -> TraceMaxResult:
    """maximize sum_k tr(A R_k) s.t. average rate >= target, total power <= P.

    A = a_eff (PSD), Gram G = g_eff (PD), per-carrier channels h_list. Strong
    duality holds (convex, Slater point from the capacity solution), so the
    optimum is recovered from two scalar duals: mu (power) and beta (rate).
    For each mu the budget-exhausting beta is exact (see _DualPoints); along
    that curve beta and the achieved rate increase with mu, so one monotone
    root search in log(mu - lam_max) for rate(mu) = target gives both duals.
    If water-filling meets the rate without the whole budget even at the
    smallest mu, mu stays there, the level is lowered to the rate and the
    remaining power goes on the top sensing direction.
    """
    a_eff = 0.5 * (np.asarray(a_eff) + np.asarray(a_eff).conj().T)
    g_eff = 0.5 * (np.asarray(g_eff) + np.asarray(g_eff).conj().T)
    k_sub = len(h_list)
    if power <= 0:
        raise ValueError("power budget must be positive")

    scale_a = float(np.linalg.norm(a_eff))
    scale_g = float(np.linalg.norm(g_eff))
    if scale_a <= 1e-16 * max(scale_g, 1.0):
        # sensing term vanishes: return the capacity water-filling point
        g_inv_half = _inv_sqrt_psd(g_eff)
        r_list = []
        gains_all = [scipy.linalg.svdvals(h @ g_inv_half) ** 2 for h in h_list]
        p_all, _ = waterfill(np.concatenate(gains_all), power, noise)
        rate = float(np.log1p(p_all * np.concatenate(gains_all) / noise).sum() / k_sub)
        ofs = 0
        for h, gains in zip(h_list, gains_all):
            _, s, vh = np.linalg.svd(h @ g_inv_half, full_matrices=False)
            alloc = p_all[ofs : ofs + gains.size]
            ofs += gains.size
            basis = g_inv_half @ vh.conj().T
            r = (basis * alloc) @ basis.conj().T
            r_list.append(0.5 * (r + r.conj().T))
        if rate < rate_target - 1e-9:
            raise RateInfeasibleError(rate_target, rate)
        used = sum(float(np.trace(g_eff @ r).real) for r in r_list)
        return TraceMaxResult(r_list, 0.0, rate, used, 0.0, 0.0, "capacity")

    lam_top, x_top = top_generalized_eig(a_eff, g_eff)

    # branch 1: unconstrained sensing optimum (rank one, full power)
    r_sense = [np.zeros_like(a_eff) for _ in range(k_sub)]
    r_sense[0] = power * np.outer(x_top, x_top.conj())
    gain_s = float(np.real(x_top.conj() @ (h_list[0].conj().T @ h_list[0]) @ x_top))
    rate_sense = math.log1p(power * gain_s / noise) / k_sub
    if rate_sense >= rate_target - 1e-12:
        return TraceMaxResult(
            r_sense, power * lam_top, rate_sense, power, 0.0, lam_top, "sensing"
        )

    c_max = mimo_capacity(h_list, g_eff, power, noise)
    if rate_target > c_max + 1e-12:
        raise RateInfeasibleError(rate_target, c_max)

    duals = _DualPoints(a_eff, g_eff, h_list, noise)
    lam_hi = max(lam_top, float(duals.lam[-1]))
    u_floor = math.log(max(1e-12 * max(lam_hi, 1.0), 1e-300))
    pts = {u_floor: duals.point(lam_hi + math.exp(u_floor), power)}
    if pts[u_floor].rate >= rate_target:
        # even the smallest mu meets the rate without the whole budget: lower
        # the level to the rate and put the rest on the top sensing direction
        # (zero reduced cost there)
        pt = pts[u_floor]
        pt.level = pt.rate_level(rate_target)
        r_list = duals.covariances(pt)
        deficit = power - pt.power
        r_list[0] = r_list[0] + deficit * np.outer(x_top, x_top.conj())
        rate = _exact_rate(h_list, r_list, noise)
        return TraceMaxResult(
            r_list, pt.objective + deficit * lam_top, rate, power, k_sub * pt.level, pt.mu, "dual"
        )

    def gap(u):
        if u not in pts:
            pts[u] = duals.point(lam_hi + math.exp(u), power)
        return pts[u].rate - rate_target

    # the optima sit within a few decades of mu = 2 lam_max: walk windows of
    # three decades of mu - lam_max from there until one holds the root (the
    # rate tends to the capacity as mu grows, so an upper end exists)
    step = math.log(1e3)
    hi = max(math.log(lam_hi), u_floor + step)
    lo = hi - step
    for _ in range(60):
        if gap(hi) < 0:
            lo, hi = hi, hi + step
        elif lo > u_floor and gap(lo) >= 0:
            lo, hi = lo - step, lo
        else:
            break
    else:
        raise SolverError("rate bracket not found")
    u = brentq(gap, max(lo, u_floor), hi, xtol=1e-13, rtol=4 * np.finfo(float).eps, maxiter=200)
    gap(u)
    pt = pts[u]
    # land on the feasible side of the rate constraint
    for _ in range(60):
        if pt.rate >= rate_target - 1e-9:
            break
        pt = duals.point(pt.mu * (1.0 + 1e-12), power)
    return TraceMaxResult(
        duals.covariances(pt), pt.objective, pt.rate, pt.power, k_sub * pt.level, pt.mu, "dual"
    )


def rate_constrained_trace_max(
    a_eff: np.ndarray,
    g_eff: np.ndarray,
    h_eff: np.ndarray,
    power: float,
    rate_target: float,
    noise: float,
) -> TraceMaxResult:
    """Narrowband digital-beamforming solver (single carrier)."""
    return rate_constrained_trace_max_multi(
        a_eff, g_eff, [np.asarray(h_eff)], power, rate_target, noise
    )
