"""Small dense convex-optimization kit.

Three pieces, all deterministic and dependency-free beyond numpy/scipy:

  * a top generalized-eigenpair solver (the rank-1 sensing optimum);
  * a log-barrier interior-point solver for the FPP-SCA subproblem of the
    analog update: dense quadratic rows on x = [Re v; Im v] plus, per
    analog entry, a modulus row and a tangent row, each with its own
    nonnegative slack. Each Newton step solves for the slacks in closed
    form, which adds one 2x2 block per entry to the Hessian over x, and the
    Cholesky runs on x alone. Without the per-entry rows the same barrier
    solves the dense rows only (the feasibility anchor);
  * the rate-constrained trace-maximization solver for the transmit digital
    covariance, via Lagrange duality with two scalar multipliers: at a
    power dual mu the Lagrangian's maximizer is a water-filling whose level
    (the rate dual) exhausts the power budget in closed form, and one
    monotone root search over mu meets the rate target. It takes a list of
    carriers (one covariance per carrier, average-rate constraint); the
    narrowband problem is the list of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dposv as _posv
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
class ConvexQcqp:
    """minimize c^T x + eps * (sum p + sum w) over dense and per-entry rows.

    Dense row r is x^T quad[r] x + lin[r]^T x + offset[r] <= 0, quad[r]
    symmetric PSD. With a centre x_bar (x = [Re v; Im v], v of length d),
    the variables are z = [x, p, w] and each entry m adds four rows:
    |v_m|^2 <= 1 + p_m, 2 Re(conj(x_bar_m) v_m) >= 1 + |x_bar_m|^2 - w_m,
    p_m >= 0 and w_m >= 0 (the FPP-SCA subproblem). Without one, z = x.
    """

    objective: np.ndarray               # c, on x
    quad: np.ndarray                    # (r, n, n)
    lin: np.ndarray                     # (r, n)
    offset: np.ndarray                  # (r,)
    x_bar: Optional[np.ndarray] = None
    eps: float = 0.0

    @property
    def dim(self) -> int:
        n = self.objective.size
        return n if self.x_bar is None else 2 * n


@dataclass
class SolverReport:
    x: np.ndarray
    objective: float
    max_violation: float
    kkt_residual: float
    iterations: int
    success: bool
    message: str = ""


class _Barrier:
    """The rows of one ConvexQcqp and their log barrier, in its structure.

    Dense rows keep 2 Q stacked by rows (2 Q x of every row in one BLAS
    product) and flattened (sum_r w_r 2 Q_r in another). The per-entry rows
    are stacked as k = 0 (modulus) and k = 1 (tangent) with slacks
    s = [p; w] of shape (2, d): row (k, m) has gradient ge[k, :, m] on
    (Re v_m, Im v_m) and -1 on s[k, m]. Row values are ordered dense rows,
    modulus and tangent rows, sign bounds -s.

    Block elimination (Boyd & Vandenberghe, App. C.4): a slack sits in its
    row (value f) and its sign bound only, so its Hessian block is the
    scalar 1/f^2 + 1/s^2 and it couples only to (Re v_m, Im v_m). Solving
    for it in closed form leaves ge ge^T / (f^2 + s^2) on that 2x2 block,
    and the Cholesky runs on the Hessian over x alone.
    """

    def __init__(self, problem: ConvexQcqp):
        r, n = problem.lin.shape
        quad2 = 2.0 * problem.quad
        self.r, self.n = r, n
        self.quad2_rows = quad2.reshape(r * n, n)
        self.quad2_flat = quad2.reshape(r, n * n)
        self.lin, self.off = problem.lin, problem.offset
        self.c = problem.objective
        self.m = r
        self.d = 0
        if problem.x_bar is None:
            return
        d = self.d = n // 2
        self.c = np.concatenate([self.c, np.full(n, float(problem.eps))])
        self.m = r + 2 * n
        x_bar = problem.x_bar.reshape(2, d)
        self.g_tan = -2.0 * x_bar
        # row value = (ge * x).sum over (Re, Im) * scale + offset - slack
        self.scale_e = np.array([[0.5], [1.0]])
        self.off_e = np.stack([np.full(d, -1.0), 1.0 + (x_bar * x_bar).sum(axis=0)])
        self.zeros_e = np.zeros(3 * d)
        # flat positions in the n x n Hessian of the 2x2 blocks on (Re v_m, Im v_m)
        coord = np.arange(n).reshape(2, d)
        self.block_at = (coord[:, None, :] * n + coord[None, :, :]).ravel()

    def derivatives(self, z: np.ndarray):
        """(row values, dense-row gradients on x, per-entry row gradients
        ge of shape (2, 2, d) or None) at z."""
        x = z[: self.n]
        gd = self.lin + (self.quad2_rows @ x).reshape(self.r, self.n)
        # x^T Q x + a^T x = (2 Q x + a + a)^T x / 2
        vals = 0.5 * ((gd + self.lin) @ x) + self.off
        if not self.d:
            return vals, gd, None
        xv = x.reshape(2, self.d)
        ge = np.stack([2.0 * xv, self.g_tan])
        fe = (ge * xv).sum(axis=1) * self.scale_e + self.off_e - z[self.n :].reshape(2, self.d)
        return np.concatenate([vals, fe.ravel(), -z[self.n :]]), gd, ge

    def grad_sum(self, w: np.ndarray, gd: np.ndarray, ge) -> np.ndarray:
        """sum_i w_i grad q_i over z."""
        gx = w[: self.r] @ gd
        if ge is None:
            return gx
        n = self.n
        we = w[self.r : self.r + n].reshape(2, self.d)
        gx += (ge * we[:, None, :]).sum(axis=0).ravel()
        return np.concatenate([gx, -w[self.r : self.r + n] - w[self.r + n :]])

    def reduced_system(self, vals: np.ndarray, gd: np.ndarray, ge):
        """Barrier Hessian sum grad grad^T / q^2 - 2 Q / q with the slacks
        eliminated: (h, the Schur complement over x, and per-entry (f^2,
        s^2 / (f^2 + s^2)) for the slack solve, None without entries)."""
        r, n = self.r, self.n
        inv = 1.0 / vals[:r]
        gdi = gd * inv[:, None]
        h = gdi.T @ gdi - (inv @ self.quad2_flat).reshape(n, n)
        if ge is None:
            return h, None
        f = vals[r : r + n].reshape(2, self.d)
        f2, s2 = f * f, (vals[r + n :] ** 2).reshape(2, self.d)
        wgt = 1.0 / (f2 + s2)
        block = (ge[:, :, None, :] * (ge * wgt[:, None, :])[:, None, :, :]).sum(axis=0)
        block[[0, 1], [0, 1]] -= 2.0 / f[0]     # the modulus row's curvature
        h.reshape(-1)[self.block_at] += block.ravel()
        return h, (f2, s2 * wgt)

    def newton_step(self, vals: np.ndarray, gd: np.ndarray, ge, g: np.ndarray) -> np.ndarray:
        """Solve (barrier Hessian) dz = -g, the slacks by block elimination."""
        h, entry = self.reduced_system(vals, gd, ge)
        if entry is None:
            return _pd_solve(h, -g)
        f2, rho = entry
        n = self.n
        g_s = g[n:].reshape(2, self.d)
        dx = _pd_solve(h, -g[:n] - (ge * (rho * g_s)[:, None, :]).sum(axis=0).ravel())
        ds = rho * ((ge * dx.reshape(2, self.d)).sum(axis=1) - f2 * g_s)
        return np.concatenate([dx, ds.ravel()])

    def ray_coefficients(self, dz: np.ndarray, gd: np.ndarray, ge):
        """(v1, v2) with q_i(z + s*dz) = q_i(z) + s*v1_i + s^2*v2_i."""
        dx = dz[: self.n]
        v1 = gd @ dx
        v2 = 0.5 * (self.quad2_rows @ dx).reshape(self.r, self.n) @ dx
        if ge is None:
            return v1, v2
        dxv, v1s = dx.reshape(2, self.d), -dz[self.n :]
        return (
            np.concatenate([v1, (ge * dxv).sum(axis=1).ravel() + v1s, v1s]),
            np.concatenate([v2, (dxv * dxv).sum(axis=0), self.zeros_e]),
        )


def _pd_solve(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve h y = rhs by Cholesky; a matrix that is not numerically
    positive definite is solved with a small diagonal regularization."""
    # LAPACK posv: potrf then potrs on a copy of h. h is symmetric, so its
    # transpose is the same matrix in Fortran order
    _, y, info = _posv(h.T, rhs, lower=1)
    if info == 0:
        return y
    n = h.shape[0]
    h[np.diag_indices(n)] += 1e-10 * max(np.trace(h) / n, 1.0)
    return np.linalg.solve(h, rhs)


def _newton_barrier(
    barrier: _Barrier, z: np.ndarray, t_bar: float, max_iter: int
) -> tuple[np.ndarray, int, str]:
    """Damped Newton on t*c^T z - sum log(-q_i(z)); z must be strictly feasible.

    Returns (z, iterations, reason) with reason one of "conv" (decrement
    small, or at its float64 floor), "cap" (iteration limit), "stall" (line
    search cannot certify progress at this t in float64).

    The decrement floor: the gradient t*c - sum grad_i/q_i cancels in
    float64, leaving noise that grows with t, and the decrement cannot
    fall below that noise. Inside the quadratic region (lambda < 0.1 after
    a full step) self-concordance bounds the next decrement by
    (lambda/(1-lambda))^2, about 1% of the current one, so a decrement
    that does not decrease at all there is rounding noise and the point is
    as centred as float64 allows.
    """
    c = barrier.c
    t_c = t_bar * c
    lam2_prev, full_step = math.inf, False
    for it in range(max_iter):
        vals, gd, ge = barrier.derivatives(z)
        g = t_c - barrier.grad_sum(1.0 / vals, gd, ge)
        dz = barrier.newton_step(vals, gd, ge, g)
        lam2 = -float(g @ dz)
        if lam2 / 2.0 <= 1e-11 or (full_step and lam2_prev < 1e-2 and lam2 >= lam2_prev):
            return z, it, "conv"
        # backtracking line search on the ray, with constraint values along
        # the ray evaluated from their exact quadratic coefficients
        v1, v2 = barrier.ray_coefficients(dz, gd, ge)
        c_z = float(c @ z)
        f0 = t_bar * c_z - np.log(-vals).sum()
        c_dz = float(c @ dz)
        for k in range(80):
            step = 0.5**k
            vn = vals + step * v1 + step * step * v2
            if vn.max() < 0:
                fn = t_bar * (c_z + step * c_dz) - np.log(-vn).sum()
                if fn <= f0 - 0.25 * step * lam2:
                    break
        else:
            return z, it, "stall"
        z = z + step * dz
        lam2_prev, full_step = lam2, step == 1.0
    return z, max_iter, "cap"


def solve_convex_qcqp(
    problem: ConvexQcqp,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_stages: int = 60,
) -> SolverReport:
    """Log-barrier interior-point solve of a ConvexQcqp from x0 (length dim).

    x0 must be strictly feasible; any other start is refused with
    success=False and no iteration. The returned violation and KKT residual
    are recomputed from the final iterate, the residual with the duals of
    the last barrier weight that was centred. `message` is empty when the
    duality-gap target was certified and says why not otherwise; `success`
    only reports feasibility.
    """
    barrier = _Barrier(problem)
    c = barrier.c
    x = np.asarray(x0, dtype=float)
    vals = barrier.derivatives(x)[0]
    if not vals.max() < -1e-12:
        return SolverReport(
            x=x,
            objective=float(c @ x),
            max_violation=float(vals.max()),
            kkt_residual=float("inf"),
            iterations=0,
            success=False,
            message="start is not strictly feasible",
        )
    # duality-gap target frozen at the starting objective scale; tying it to
    # the current iterate would let a wild |f| value self-certify
    gap_target = tol * max(1.0, abs(float(c @ x)))
    t_bar = max(1.0, barrier.m)
    total_newton = 0
    unfinished = "stage cap reached"
    for stage in range(max_stages):
        if stage:
            t_bar *= 20.0
        f_before = float(c @ x)
        x, its, reason = _newton_barrier(barrier, x, t_bar, 60)
        total_newton += its
        if barrier.m / t_bar < gap_target:
            unfinished = ""
            break
        if reason in ("stall", "cap") and abs(float(c @ x) - f_before) <= 1e-12 * max(
            1.0, abs(f_before)
        ):
            # float64 cannot certify further progress at this barrier weight
            unfinished = "float64 cannot certify further progress"
            break
    message = ""
    if unfinished:
        message = f"gap bound {barrier.m / t_bar:.3g} above target {gap_target:.3g}: {unfinished}"
    # duals at the last weight that was centred
    vals, gd, ge = barrier.derivatives(x)
    kkt = float(np.abs(c - barrier.grad_sum(1.0 / vals, gd, ge) / t_bar).max())
    return SolverReport(
        x=x,
        objective=float(c @ x),
        max_violation=float(vals.max()),
        kkt_residual=kkt,
        iterations=total_newton,
        success=bool(vals.max() < tol),
        message=message,
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
