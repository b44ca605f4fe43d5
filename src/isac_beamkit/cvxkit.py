"""Small dense convex-optimization kit.

Three pieces, all deterministic and dependency-free beyond numpy/scipy:

  * a top generalized-eigenpair solver (the rank-1 sensing optimum);
  * a log-barrier interior-point solver for convex QCQPs with linear
    objective (hosts the slack-penalized analog-beamforming subproblems).
    Each Newton step eliminates the coordinates that only sparse rows touch,
    one per row (the modulus and tangent slacks), whose Hessian block is
    diagonal: they are recovered in closed form and the Cholesky runs on
    the Schur complement over the remaining coordinates;
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
    """Row structure of a convex QCQP, built once per solve.

    Rows are split by the number of coordinates their gradient touches.
    Dense rows (more than SPARSE_ROW coordinates: the power and rate rows,
    trust balls) keep 2Q as a dense block on the union of their supports,
    the dense support, and enter the barrier Hessian through BLAS. Sparse
    rows (modulus halves, tangent planes, sign bounds) keep their
    coordinates in k padded slots and their quadratic as a list of nonzero
    entries, and enter the Hessian through precomputed flat indices. The
    linear parts are constants, so a linear row's gradient costs nothing.

    Block elimination (Boyd & Vandenberghe, App. C.4): a coordinate that no
    dense row touches and that shares no sparse row with another such
    coordinate has a diagonal block in the barrier Hessian. These
    eliminated coordinates (the modulus and tangent slacks of the FPP-SCA
    subproblems) are solved for in closed form, and the Cholesky runs on the
    Schur complement over the kept coordinates only. A problem without such
    coordinates (the feasibility anchor) goes through the same code with an
    empty eliminated set.

    The per-step methods work in the internal coordinate order `perm`:
    dense support, other kept coordinates, eliminated coordinates. Rows are
    ordered dense first, then sparse; `order` maps that order to the input
    rows (sign bounds numbered after them).
    """

    SPARSE_ROW = 8

    def __init__(self, problem: ConvexQcqp):
        n = problem.dim
        given = problem.constraints
        signed = np.flatnonzero(problem.nonneg) if problem.nonneg is not None else np.zeros(0, int)
        m = len(given) + signed.size
        quads = [c.quad for c in given] + [None] * signed.size
        lin = np.zeros((m, n))
        if given:
            lin[: len(given)] = np.array([c.lin for c in given])
        lin[len(given) + np.arange(signed.size), signed] = -1.0
        off = np.zeros(m)
        off[: len(given)] = [c.offset for c in given]
        ndim = np.array([0 if q is None else q.ndim for q in quads], dtype=int)
        support = lin != 0
        diag_rows = np.flatnonzero(ndim == 1)
        qdiag = np.array([quads[r] for r in diag_rows]).reshape(-1, n)
        support[diag_rows] |= qdiag != 0
        for r in np.flatnonzero(ndim == 2):
            support[r] |= quads[r].any(axis=0)
        dense = support.sum(axis=1) > self.SPARSE_ROW
        order = np.argsort(~dense, kind="stable")

        # coordinates: dense support, other kept, eliminated
        in_dense = support[dense].any(axis=0)
        sp_support = support[~dense]
        cand = sp_support.any(axis=0) & ~in_dense
        crowded = (sp_support & cand).sum(axis=1) > 1
        elim = cand & ~sp_support[crowded].any(axis=0)
        perm = np.concatenate([
            np.flatnonzero(in_dense), np.flatnonzero(~in_dense & ~elim), np.flatnonzero(elim)
        ])
        pos = np.empty(n, dtype=int)
        pos[perm] = np.arange(n)
        n_sup = int(in_dense.sum())
        n_elim = int(elim.sum())
        n_keep = n - n_elim
        self.n, self.m = n, m
        self.perm, self.inv, self.order = perm, pos, order
        self.off = off[order]
        self.n_sup, self.n_keep, self.n_elim = n_sup, n_keep, n_elim

        # dense rows on the dense support, with 2 Q stacked by rows (2 Q x of
        # every row in one product) and flattened (sum_r w_r 2 Q_r in one)
        rows_d = order[: int(dense.sum())]
        sup = perm[:n_sup]
        self.n_dense = rows_d.size
        self.d_lin = lin[rows_d][:, sup]
        quad2 = np.zeros((rows_d.size, n_sup, n_sup))
        for j, r in enumerate(rows_d):
            q = quads[r]
            if q is not None:
                quad2[j] = 2.0 * (np.diag(q[sup]) if q.ndim == 1 else q[sup][:, sup])
        self.d_quad2_rows = quad2.reshape(rows_d.size * n_sup, n_sup)
        self.d_quad2_flat = quad2.reshape(rows_d.size, n_sup * n_sup)

        # sparse rows on k padded slots (a padded slot points at coordinate
        # 0 with zero coefficients)
        rows_s = order[rows_d.size :]
        s_support = support[rows_s]
        count = s_support.sum(axis=1)
        k = int(count.max()) if rows_s.size else 0
        r_i, c_i = np.nonzero(s_support)
        slot_i = np.arange(r_i.size) - (np.cumsum(count) - count)[r_i]
        coord = np.zeros((rows_s.size, k), dtype=int)
        coord[r_i, slot_i] = c_i
        valid = np.zeros((rows_s.size, k), dtype=bool)
        valid[r_i, slot_i] = True
        self.slot = pos[coord]
        self.slot_flat = self.slot.ravel()
        self.s_lin = np.where(valid, lin[rows_s[:, None], coord], 0.0)
        self.ones_k = np.ones(k)
        # their quadratics as k x k blocks, kept as lists of nonzero entries
        s_quad = np.zeros((rows_s.size, k, k))
        pair_valid = valid[:, :, None] & valid[:, None, :]
        js = np.flatnonzero(ndim[rows_s] == 1)
        if js.size:
            slots = np.arange(k)
            q = qdiag[np.searchsorted(diag_rows, rows_s[js])]
            s_quad[js[:, None], slots, slots] = np.where(
                valid[js], q[np.arange(js.size)[:, None], coord[js]], 0.0
            )
        for j in np.flatnonzero(ndim[rows_s] == 2):
            cj = coord[j]
            s_quad[j] = np.where(pair_valid[j], quads[rows_s[j]][cj[:, None], cj], 0.0)
        q_row, q_a, q_b = np.nonzero(s_quad)
        q_val = s_quad[q_row, q_a, q_b]
        self.q_row, self.q_val, self.q_val2 = q_row, q_val, 2.0 * q_val
        self.q_slot_a = q_row * k + q_a
        self.q_ca, self.q_cb = pos[coord[q_row, q_a]], pos[coord[q_row, q_b]]

        # the sparse rows' local Hessian entries inv_r^2 g_a g_b - 2 inv_r Q_ab
        # as products of the flattened slot gradients, in the order:
        # eliminated diagonal, kept x eliminated couplings (summed per
        # coordinate pair), kept x kept (into the reduced matrix); eliminated
        # x kept entries mirror the couplings and are left out
        row, a, b = np.nonzero(pair_valid)
        sa, sb = row * k + a, row * k + b
        ia, ib = self.slot_flat[sa], self.slot_flat[sb]
        ka, kb = ia < n_keep, ib < n_keep
        ee, ke, kk = ~ka & ~kb, ka & ~kb, ka & kb
        entries = np.concatenate([np.flatnonzero(ee), np.flatnonzero(ke), np.flatnonzero(kk)])
        self.ent_a, self.ent_b = sa[entries], sb[entries]
        self.n_ec = int(ee.sum() + ke.sum())
        entry_of = np.full(pair_valid.shape, -1)
        entry_of[row[entries], a[entries], b[entries]] = np.arange(entries.size)
        q_ent = entry_of[q_row, q_a, q_b]
        self.q_ent, self.q_inv = q_ent[q_ent >= 0], self.n_dense + q_row[q_ent >= 0]
        self.q_ent_val2 = 2.0 * q_val[q_ent >= 0]
        # couplings numbered by eliminated coordinate, then kept coordinate
        pair_of = np.zeros((n_elim, n_keep), dtype=int)
        pair_of[ib[ke] - n_keep, ia[ke]] = 1
        self.pair_e, self.pair_k = np.nonzero(pair_of)
        pair_of[self.pair_e, self.pair_k] = np.arange(self.pair_e.size)
        # diagonal and couplings come out of one scatter
        self.ec_dst = np.concatenate([ia[ee] - n_keep, n_elim + pair_of[ib[ke] - n_keep, ia[ke]]])
        # Schur complement terms: every two couplings of one eliminated coordinate
        per_e = np.bincount(self.pair_e, minlength=n_elim)
        group = np.full((n_elim, int(per_e.max()) if n_elim else 0), -1)
        group[self.pair_e, np.arange(self.pair_e.size) - (np.cumsum(per_e) - per_e)[self.pair_e]] = (
            np.arange(self.pair_e.size)
        )
        both = (group[:, :, None] >= 0) & (group[:, None, :] >= 0)
        self.schur_a = np.broadcast_to(group[:, :, None], both.shape)[both]
        self.schur_b = np.broadcast_to(group[:, None, :], both.shape)[both]
        self.h_dst = np.concatenate([
            ia[kk] * n_keep + ib[kk],
            self.pair_k[self.schur_a] * n_keep + self.pair_k[self.schur_b],
        ])

    def values(self, x: np.ndarray) -> np.ndarray:
        """Row values at x (input coordinates), in internal row order."""
        return self.derivatives(x[self.perm])[0]

    def derivatives(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, dense-row gradients on the dense support, sparse-row
        gradients on their slots) at internal coordinates x."""
        xs, xl = x[: self.n_sup], x[self.slot]
        gd = self.d_lin + (self.d_quad2_rows @ xs).reshape(self.n_dense, self.n_sup)
        gs = self.s_lin + _scatter(
            self.q_slot_a, self.q_val2 * x[self.q_cb], self.s_lin.size
        ).reshape(self.s_lin.shape)
        # x^T Q x + a^T x = (2 Q x + a + a)^T x / 2
        vals = np.concatenate([(gd + self.d_lin) @ xs, ((gs + self.s_lin) * xl) @ self.ones_k])
        return 0.5 * vals + self.off, gd, gs

    def grad_sum(self, w: np.ndarray, gd: np.ndarray, gw: np.ndarray) -> np.ndarray:
        """sum_i w_i grad q_i in internal coordinates, with the sparse rows'
        part given weighted: gw = w_i * (their slot gradients)."""
        out = _scatter(self.slot_flat, gw.ravel(), self.n)
        out[: self.n_sup] += w[: self.n_dense] @ gd
        return out

    def ray_coefficients(self, dx: np.ndarray, gd: np.ndarray, gs: np.ndarray):
        """(v1, v2) with q_i(x + s*dx) = q_i(x) + s*v1_i + s^2*v2_i."""
        dxs, dxl = dx[: self.n_sup], dx[self.slot]
        v1 = np.concatenate([gd @ dxs, (gs * dxl) @ self.ones_k])
        v2 = np.concatenate([
            0.5 * (self.d_quad2_rows @ dxs).reshape(self.n_dense, self.n_sup) @ dxs,
            _scatter(self.q_row, self.q_val * dx[self.q_ca] * dx[self.q_cb], self.slot.shape[0]),
        ])
        return v1, v2

    def reduced_system(self, inv: np.ndarray, gd: np.ndarray, gi: np.ndarray):
        """Barrier Hessian sum grad grad^T / q^2 - 2 Q / q in eliminated form.

        inv = 1/q, gi = the sparse rows' slot gradients times inv. Returns
        (h, diag, cpl): the Schur complement over the kept coordinates, the
        diagonal of the eliminated block, and the kept x eliminated
        couplings (pair_k, pair_e).
        """
        nd, nk, ns = self.n_dense, self.n_keep, self.n_sup
        gi = gi.ravel()
        ent = gi[self.ent_a] * gi[self.ent_b]
        ent[self.q_ent] -= self.q_ent_val2 * inv[self.q_inv]
        ec = _scatter(self.ec_dst, ent[: self.n_ec], self.n_elim + self.pair_k.size)
        diag, cpl = ec[: self.n_elim], ec[self.n_elim :]
        scaled = cpl / diag[self.pair_e]
        h = _scatter(
            self.h_dst,
            np.concatenate([ent[self.n_ec :], -scaled[self.schur_a] * cpl[self.schur_b]]),
            nk * nk,
        ).reshape(nk, nk)
        gdi = gd * inv[:nd, None]
        q_part = -inv[:nd] @ self.d_quad2_flat
        h[:ns, :ns] += gdi.T @ gdi + q_part.reshape(ns, ns)
        return h, diag, cpl

    def newton_step(self, inv: np.ndarray, gd: np.ndarray, gi: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Solve (barrier Hessian) dx = -g by block elimination, internal coordinates."""
        h, diag, cpl = self.reduced_system(inv, gd, gi)
        nk = self.n_keep
        g_k, g_e = g[:nk], g[nk:]
        u = g_e / diag
        rhs = _scatter(self.pair_k, cpl * u[self.pair_e], nk) - g_k
        dk = _pd_solve(h, rhs)
        de = -u - _scatter(self.pair_e, cpl * dk[self.pair_k], self.n_elim) / diag
        return np.concatenate([dk, de])


def _scatter(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sums of weights over equal indices, as a float array of length size."""
    if not index.size:
        return np.zeros(size)  # bincount of no weights is an integer array
    return np.bincount(index, weights, size)


def _pd_solve(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve h y = rhs by Cholesky; a matrix that is not numerically
    positive definite is solved with a small diagonal regularization."""
    if not rhs.size:
        return rhs
    # LAPACK posv: potrf then potrs on a copy of h. h is symmetric, so its
    # transpose is the same matrix in Fortran order
    _, y, info = _posv(h.T, rhs, lower=1)
    if info == 0:
        return y
    n = h.shape[0]
    h[np.diag_indices(n)] += 1e-10 * max(np.trace(h) / n, 1.0)
    return np.linalg.solve(h, rhs)


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

    The iterates live in the constraints' internal coordinate order; x and
    the result are in the problem's order.
    """
    x, c = x[cons.perm], c[cons.perm]
    t_c = t_bar * c
    lam2_prev, full_step = math.inf, False
    for it in range(max_iter):
        vals, gd, gs = cons.derivatives(x)
        inv = 1.0 / vals
        gi = gs * inv[cons.n_dense :, None]
        g = t_c - cons.grad_sum(inv, gd, gi)
        dx = cons.newton_step(inv, gd, gi, g)
        lam2 = -float(g @ dx)
        if lam2 / 2.0 <= 1e-11 or (full_step and lam2_prev < 1e-2 and lam2 >= lam2_prev):
            return x[cons.inv], it, "conv"
        # backtracking line search on the ray, with constraint values along
        # the ray evaluated from their exact quadratic coefficients
        v1, v2 = cons.ray_coefficients(dx, gd, gs)
        c_x = float(c @ x)
        f0 = t_bar * c_x - np.log(-vals).sum()
        c_dx = float(c @ dx)
        for k in range(80):
            step = 0.5**k
            vn = vals + step * v1 + step * step * v2
            if vn.max() < 0:
                fn = t_bar * (c_x + step * c_dx) - np.log(-vn).sum()
                if fn <= f0 - 0.25 * step * lam2:
                    break
        else:
            return x[cons.inv], it, "stall"
        x = x + step * dx
        lam2_prev, full_step = lam2, step == 1.0
        if stop_fn is not None and stop_fn(x[cons.inv]):
            return x[cons.inv], it + 1, "stop"
    return x[cons.inv], max_iter, "cap"


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
    KKT residual are recomputed from the final iterate, the residual with
    the duals of the last barrier weight that was centred. `message` is
    empty when the duality-gap target was certified and says why not
    otherwise; `success` only reports feasibility.
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
    unfinished = "stage cap reached"
    for stage in range(max_stages):
        if stage:
            t_bar *= 20.0
        f_before = float(c @ x)
        x, its, reason = _newton_barrier(cons, c, x, t_bar, 60)
        total_newton += its
        if cons.m / t_bar < gap_target:
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
        message = f"gap bound {cons.m / t_bar:.3g} above target {gap_target:.3g}: {unfinished}"
    # duals at the last weight that was centred
    vals, gd, gs = cons.derivatives(x[cons.perm])
    inv = 1.0 / vals
    grad_sum = cons.grad_sum(inv, gd, gs * inv[cons.n_dense :, None])
    kkt = float(np.abs(c[cons.perm] - grad_sum / t_bar).max())
    return SolverReport(
        x=x,
        objective=float(c @ x),
        max_violation=float(vals.max()) if vals.size else 0.0,
        kkt_residual=kkt,
        iterations=total_newton,
        success=bool(vals.max() < tol if vals.size else True),
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
