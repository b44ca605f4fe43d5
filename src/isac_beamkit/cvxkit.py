"""Small dense convex-optimization kit.

Three pieces, all deterministic and dependency-free beyond numpy/scipy:

  * a top generalized-eigenpair solver (the rank-1 sensing optimum);
  * an infeasible-start primal-dual interior-point solver for the FPP-SCA
    subproblem of the analog update: dense quadratic rows on
    x = [Re v; Im v] plus, per analog entry, a modulus row and a tangent
    row, each with its own nonnegative slack. Any start is valid. Each
    Newton step solves for the entry slacks in closed form, which adds one
    2x2 block per entry to the matrix over x, and the Cholesky runs on x
    alone. Without the per-entry rows it solves the dense rows only;
  * the rate-constrained trace-maximization solver for the transmit digital
    covariances, on the range of the Gram G = V^H V: the rank-1 sensing
    optimum ("sensing") when it meets the rate, else Lagrange duality with
    two scalar multipliers ("dual"): at a power dual mu the Lagrangian's
    maximizer is a water-filling whose level (the rate dual) exhausts the
    power budget in closed form, and one monotone root search over mu
    meets the rate target. It takes a list of carriers (one covariance per
    carrier, average-rate constraint); the narrowband problem is one.
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
# convex QCQP via an infeasible-start primal-dual interior-point method
# ---------------------------------------------------------------------------

_MAX_ITER = 100
_SIGMA = 0.1            # fixed centring: each step aims at sigma times the current mu
_TO_BOUNDARY = 0.99     # a step goes at most this fraction of the way to s = 0 or lambda = 0


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


class _Rows:
    """The rows of one ConvexQcqp and their Newton system, in its structure.

    Dense rows keep 2 Q stacked by rows (2 Q x of every row in one BLAS
    product) and flattened (sum_r lambda_r 2 Q_r in another). The per-entry
    rows are stacked as k = 0 (modulus) and k = 1 (tangent) with entry
    slacks y = [p; w] of shape (2, d): row (k, m) has gradient ge[k, :, m]
    on (Re v_m, Im v_m) and -1 on y[k, m]. Row values are ordered dense
    rows, modulus and tangent rows, sign bounds -y.

    Block elimination (Boyd & Vandenberghe, App. C.4): in the Newton matrix
    sum_i (lambda_i / s_i) g_i g_i^T + sum_i lambda_i 2 Q_i an entry slack
    sits in its row (weight a) and its sign bound (weight b) only, so its
    diagonal is a + b and it couples only to (Re v_m, Im v_m). Solving for
    it in closed form leaves ge ge^T a b / (a + b) on that 2x2 block, and
    the Cholesky runs on x alone.
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
        # flat positions in the n x n matrix of the 2x2 blocks on (Re v_m, Im v_m)
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
        """sum_i w_i grad f_i over z."""
        gx = w[: self.r] @ gd
        if ge is None:
            return gx
        n = self.n
        we = w[self.r : self.r + n].reshape(2, self.d)
        gx += (ge * we[:, None, :]).sum(axis=0).ravel()
        return np.concatenate([gx, -w[self.r : self.r + n] - w[self.r + n :]])

    def slopes(self, dz: np.ndarray, gd: np.ndarray, ge) -> np.ndarray:
        """grad f_i^T dz for every row."""
        dx = dz[: self.n]
        v1 = gd @ dx
        if ge is None:
            return v1
        dy = -dz[self.n :]
        return np.concatenate([v1, (ge * dx.reshape(2, self.d)).sum(axis=1).ravel() + dy, dy])

    def reduced_system(self, wgt: np.ndarray, lam: np.ndarray, gd: np.ndarray, ge):
        """Newton matrix sum_i wgt_i g_i g_i^T + sum_i lam_i 2 Q_i with the
        entry slacks eliminated: (h, the Schur complement over x, and per
        entry (a / (a + b), 1 / (a + b)) for the slack solve, None without
        entries)."""
        r, n = self.r, self.n
        gdw = gd * np.sqrt(wgt[:r])[:, None]
        h = gdw.T @ gdw + (lam[:r] @ self.quad2_flat).reshape(n, n)
        if ge is None:
            return h, None
        a, b = wgt[r : r + n].reshape(2, self.d), wgt[r + n :].reshape(2, self.d)
        inv = 1.0 / (a + b)
        block = (ge[:, :, None, :] * (ge * (a * b * inv)[:, None, :])[:, None, :, :]).sum(axis=0)
        block[[0, 1], [0, 1]] += 2.0 * lam[r : r + self.d]     # the modulus row's curvature
        h.reshape(-1)[self.block_at] += block.ravel()
        return h, (a * inv, inv)

    def newton_step(
        self, wgt: np.ndarray, lam: np.ndarray, gd: np.ndarray, ge, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve (Newton matrix) dz = rhs, the entry slacks by block elimination."""
        h, entry = self.reduced_system(wgt, lam, gd, ge)
        if entry is None:
            return _pd_solve(h, rhs)
        rho, inv = entry
        n = self.n
        r_y = rhs[n:].reshape(2, self.d)
        dx = _pd_solve(h, rhs[:n] + (ge * (rho * r_y)[:, None, :]).sum(axis=0).ravel())
        dy = rho * (ge * dx.reshape(2, self.d)).sum(axis=1) + inv * r_y
        return np.concatenate([dx, dy.ravel()])


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


def _step_to_boundary(rel: np.ndarray) -> float:
    """Step up to 1 along which every 1 + step * rel stays >= 1 - _TO_BOUNDARY."""
    shrink = float(rel.min())
    return 1.0 if shrink >= -_TO_BOUNDARY else -_TO_BOUNDARY / shrink


def solve_convex_qcqp(problem: ConvexQcqp, x0: np.ndarray, tol: float = 1e-8) -> SolverReport:
    """Infeasible-start primal-dual interior-point solve of a ConvexQcqp.

    Every row gets a slack s > 0 with f(z) + s = 0 and a dual lambda > 0
    (Boyd & Vandenberghe, Convex Optimization, sec. 11.7), so any finite x0
    of length dim is a valid start; the slacks start at max(-f(x0), 1) and
    the duals at 1. Each iteration takes one Newton step on the dual,
    primal and centring residuals (r_d, r_p, lambda s - sigma mu), with
    mu = lambda^T s / m and s and lambda solved in closed form, so a step
    costs one Cholesky. The primal step (z, s) and the dual step (lambda)
    are each cut to 0.99 of the way to their boundary. It stops when
    |r_p| <= tol, m mu <= tol max(1, |c^T x0|) and
    |r_d| <= sqrt(tol) max(1, |c|) (max norms), or after _MAX_ITER steps.

    `iterations` counts the steps, `kkt_residual` is |r_d| at the returned
    point, and `message` is empty when the stop test held and says why not
    otherwise; `success` only reports feasibility (every row below tol).
    """
    rows = _Rows(problem)
    c = rows.c
    z = np.asarray(x0, dtype=float)
    if not np.isfinite(z).all():
        nan = float("nan")
        return SolverReport(z, nan, nan, float("inf"), 0, False, "start is not finite")
    vals, gd, ge = rows.derivatives(z)
    s = np.maximum(-vals, 1.0)
    lam = np.ones(rows.m)
    # both targets frozen at the starting scale; tying them to the current
    # iterate would let a wild c^T z self-certify
    gap_target = tol * max(1.0, abs(float(c @ z)))
    dual_target = math.sqrt(tol) * max(1.0, float(np.abs(c).max()))
    for it in range(_MAX_ITER + 1):
        r_d = c + rows.grad_sum(lam, gd, ge)
        r_p = vals + s
        gap = float(lam @ s)
        done = (
            np.abs(r_p).max() <= tol and gap <= gap_target and np.abs(r_d).max() <= dual_target
        )
        if done or it == _MAX_ITER:
            break
        r_c = lam * s - _SIGMA * gap / rows.m
        rhs = -r_d - rows.grad_sum((lam * r_p - r_c) / s, gd, ge)
        dz = rows.newton_step(lam / s, lam, gd, ge, rhs)
        ds = -r_p - rows.slopes(dz, gd, ge)
        dlam = -(r_c + lam * ds) / s
        step_p, step_d = _step_to_boundary(ds / s), _step_to_boundary(dlam / lam)
        z, s, lam = z + step_p * dz, s + step_p * ds, lam + step_d * dlam
        vals, gd, ge = rows.derivatives(z)
    message = ""
    if not done:
        message = (
            f"iteration cap reached: primal residual {np.abs(r_p).max():.3g}, "
            f"gap {gap:.3g} (target {gap_target:.3g}), dual residual {np.abs(r_d).max():.3g}"
        )
    return SolverReport(
        x=z,
        objective=float(c @ z),
        max_violation=float(vals.max()),
        kkt_residual=float(np.abs(r_d).max()),
        iterations=it,
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


def _range_basis(g: np.ndarray) -> np.ndarray:
    """Basis B of the range of the PSD Gram G with B^H G B = I.

    With G = U diag(s) U^H, B = U_+ diag(s_+)^-1/2 over the eigenvalues
    above 1e-10 of the largest, so an analog matrix with dependent columns
    keeps the directions it can radiate. For G = I, B = I exactly.
    """
    s, u = np.linalg.eigh(g)
    keep = s > 1e-10 * s[-1]
    return u[:, keep] / np.sqrt(s[keep])


def mimo_capacity(
    h_list: list[np.ndarray], g_eff: np.ndarray, power: float, noise: float
) -> float:
    """Maximum average rate over the sub-carriers at total power `power`.

    Joint water-filling across all (carrier, eigenmode) pairs of the
    whitened channels H_k B, B the basis of range(G) from _range_basis: the
    power x^H G x is spent on the directions the Gram can radiate.
    """
    basis = _range_basis(g_eff)
    gains = np.concatenate([scipy.linalg.svdvals(h @ basis) ** 2 for h in h_list])
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
    branch: str          # "sensing" | "dual"

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

    With the range basis B of G and B^H A B = U diag(lam) U^H, the factor
    F(mu) = B U diag(s), s = (mu - lam)^-1/2, satisfies F^H G F = diag(s^2)
    and F^H A F = diag(lam s^2). The whitened channels H_k F(mu) are the
    fixed H_k B U with scaled columns, so a dual point costs one batched SVD
    and no eigendecomposition. At duals (mu, beta) the maximizer is
    R_k = F V_k diag(p_k) V_k^H F^H, water-filled at the level beta/K over
    the mode gains g; mode j of carrier k costs w = sum_i |V_ij|^2 s_i^2
    power per unit of p. For a given mu the beta that exhausts the budget,
    sum w (beta/K - noise/g)^+ = P, is therefore exact by sorting the
    breakpoints noise/g, and a point is one SVD per mu. The covariances are
    formed only on request, in the coordinates of G.
    """

    def __init__(self, a_w: np.ndarray, basis: np.ndarray, h_list: list[np.ndarray], noise: float):
        self.lam, u = np.linalg.eigh(0.5 * (a_w + a_w.conj().T))
        self.basis = basis @ u
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

    A = a_eff (PSD), Gram G = g_eff (PSD), per-carrier channels h_list. G is
    reduced once, to the basis B of its range, and the solve runs on
    B^H A B, so dependent analog columns are allowed. The rank-1 sensing
    optimum is returned ("sensing") when it meets the rate. Otherwise
    strong duality holds (convex, Slater point from the capacity solution),
    so the optimum is recovered from two scalar duals: mu (power) and beta
    (rate) ("dual"). For each mu the budget-exhausting beta is exact (see
    _DualPoints); along that curve beta and the achieved rate increase with
    mu, so one monotone root search in log(mu - lam_max) for
    rate(mu) = target gives both duals. If water-filling meets the rate
    without the whole budget even at the smallest mu, mu stays there, the
    level is lowered to the rate and the remaining power goes on the top
    sensing direction (with A = 0: the rate target at full power).
    """
    a_eff = 0.5 * (np.asarray(a_eff) + np.asarray(a_eff).conj().T)
    g_eff = 0.5 * (np.asarray(g_eff) + np.asarray(g_eff).conj().T)
    k_sub = len(h_list)
    if power <= 0:
        raise ValueError("power budget must be positive")

    basis = _range_basis(g_eff)
    a_w = basis.conj().T @ a_eff @ basis
    lam_top, y_top = top_generalized_eig(a_w, np.eye(a_w.shape[0]))
    x_top = basis @ y_top

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

    duals = _DualPoints(a_w, basis, h_list, noise)
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
