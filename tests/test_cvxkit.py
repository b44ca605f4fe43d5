import math

import numpy as np
import pytest

from isac_beamkit import cvxkit
from isac_beamkit.cvxkit import (
    ConvexQcqp,
    _Rows,
    RateInfeasibleError,
    SolverError,
    _exact_rate,
    _inv_sqrt_psd,
    mimo_capacity,
    rate_constrained_trace_max_multi,
    solve_convex_qcqp,
    top_generalized_eig,
    waterfill,
)

from conftest import random_psd


def _dense_problem(c, rows, **entries):
    """ConvexQcqp with dense rows (Q, a, b): x^T Q x + a^T x + b <= 0, Q None
    for a linear row."""
    n = c.size
    quad = np.array([np.zeros((n, n)) if q is None else q for q, _, _ in rows])
    lin = np.array([a for _, a, _ in rows], dtype=float)
    return ConvexQcqp(c, quad, lin, np.array([b for _, _, b in rows], dtype=float), **entries)


def _fpp_sca_rows(rng):
    """FPP-SCA shape: power and rate rows on x (d = 5 entries), a centre, and
    a strictly feasible z = [x, p, w]. Returns the problem, z and the rows
    written out over z as (Q, a, b) in the solver's order."""
    d = 5
    n_x = 2 * d
    rows = []
    for scale in (1.0, 0.3):
        b = rng.standard_normal((n_x, n_x))
        rows.append((scale * b @ b.T, rng.standard_normal(n_x), -4.0))
    x_bar = rng.standard_normal(n_x)
    problem = _dense_problem(rng.standard_normal(n_x), rows, x_bar=x_bar, eps=3.0)
    x = 0.05 * rng.standard_normal(n_x)
    v_abs2 = x[:d] ** 2 + x[d:] ** 2
    lin_part = 2.0 * (x_bar[:d] * x[:d] + x_bar[d:] * x[d:])
    bar_abs2 = x_bar[:d] ** 2 + x_bar[d:] ** 2
    p = np.maximum(v_abs2 - 1.0, 0.0) + 0.5
    w = np.maximum(1.0 + bar_abs2 - lin_part, 0.0) + 0.5
    z = np.concatenate([x, p, w])

    n = 2 * n_x
    full = [(np.pad(q, (0, n_x)), np.append(a, np.zeros(n_x)), b) for q, a, b in rows]
    for m in range(d):
        q = np.zeros((n, n))
        q[m, m] = q[d + m, d + m] = 1.0
        a = np.zeros(n)
        a[n_x + m] = -1.0
        full.append((q, a, -1.0))
    for m in range(d):
        a = np.zeros(n)
        a[[m, d + m, n_x + d + m]] = (-2.0 * x_bar[m], -2.0 * x_bar[d + m], -1.0)
        full.append((np.zeros((n, n)), a, 1.0 + bar_abs2[m]))
    for j in range(n_x):
        a = np.zeros(n)
        a[n_x + j] = -1.0
        full.append((np.zeros((n, n)), a, 0.0))
    return problem, z, full


def _dense_rows(rng):
    """Dense rows only: two quadratic rows, one with a linear term, and a
    ball on x; nothing is eliminated."""
    n = 10
    rows = []
    for lin in (np.zeros(n), rng.standard_normal(n)):
        b = rng.standard_normal((n, n))
        rows.append((b @ b.T, lin, -1.0))
    rows.append((np.eye(n), np.zeros(n), -4.0 * n))
    z = 0.05 * rng.standard_normal(n)
    return _dense_problem(rng.standard_normal(n), rows), z, rows


class TestTopGeneralizedEig:
    def test_diagonal(self):
        lam, x = top_generalized_eig(np.diag([1.0, 3.0, 2.0]), np.eye(3))
        assert lam == pytest.approx(3.0)
        np.testing.assert_allclose(np.abs(x), [0, 1, 0], atol=1e-12)

    def test_generalized_ratio(self):
        lam, x = top_generalized_eig(np.eye(2), np.diag([1.0, 2.0]))
        assert lam == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(x), [1, 0], atol=1e-12)

    def test_b_not_pd(self):
        with pytest.raises(SolverError):
            top_generalized_eig(np.eye(2), np.diag([1.0, 0.0]))

    def test_rayleigh_quotient_dominates_random_search(self, rng):
        for _ in range(3):
            a = random_psd(rng, 4)
            b = random_psd(rng, 4) + 2 * np.eye(4)
            lam, x = top_generalized_eig(a, b)
            resid = np.abs(a @ x - lam * (b @ x)).max()
            assert resid <= 1e-9 * np.linalg.norm(a)
            z = rng.standard_normal((100_000, 4)) + 1j * rng.standard_normal((100_000, 4))
            num = np.einsum("ni,ij,nj->n", z.conj(), a, z).real
            den = np.einsum("ni,ij,nj->n", z.conj(), b, z).real
            assert (num / den).max() <= lam + 1e-9


class TestSolveConvexQcqp:
    def test_linear_bound(self):
        p = _dense_problem(np.array([-1.0]), [(None, np.array([1.0]), -5.0)])
        rep = solve_convex_qcqp(p, np.zeros(1))
        assert rep.success
        assert rep.x[0] == pytest.approx(5.0, abs=1e-6)
        assert rep.max_violation <= 1e-8

    def test_disk_support(self):
        p = _dense_problem(np.array([-1.0, 0.0]), [(np.eye(2), np.zeros(2), -1.0)])
        rep = solve_convex_qcqp(p, np.zeros(2))
        np.testing.assert_allclose(rep.x, [1.0, 0.0], atol=1e-6)
        assert rep.kkt_residual < 1e-5

    def test_row_scaling_invariance(self, rng):
        a = random_psd(rng, 3).real + np.eye(3)
        c = rng.standard_normal(3)
        rows = [(a, np.zeros(3), -2.0), (None, np.ones(3), -1.0)]
        rep1 = solve_convex_qcqp(_dense_problem(c, rows), np.zeros(3))
        scaled = [(50 * a, np.zeros(3), -100.0), (None, 7 * np.ones(3), -7.0)]
        rep2 = solve_convex_qcqp(_dense_problem(c, scaled), np.zeros(3))
        assert rep1.objective == pytest.approx(rep2.objective, abs=1e-6)

    def test_matches_projected_subgradient_oracle(self, rng):
        # minimize c^T x over the intersection of an ellipsoid and a halfspace
        n = 6
        a = random_psd(rng, n).real + np.eye(n)
        c = rng.standard_normal(n)
        lin = rng.standard_normal(n)
        rows = [(a, np.zeros(n), -4.0), (None, lin, -1.0)]
        rep = solve_convex_qcqp(_dense_problem(c, rows), np.zeros(n), tol=1e-10)

        # independent first-order oracle: subgradient descent on the
        # exact-penalty function with diminishing steps; the best feasible
        # iterate lower-bounds the optimum
        x = np.zeros(n)
        best = np.inf
        mu = 50.0
        for k in range(1, 1_000_001):
            viol1 = x @ a @ x - 4.0
            viol2 = lin @ x - 1.0
            if viol1 <= 1e-12 and viol2 <= 1e-12:
                best = min(best, c @ x)
            g = c.copy()
            if viol1 > 0:
                g += mu * 2 * (a @ x)
            if viol2 > 0:
                g += mu * lin
            x = x - (0.5 / math.sqrt(k)) * g / max(np.linalg.norm(g), 1e-12)
        # solver is at least as good as the oracle's best feasible point and
        # the oracle confirms it within its own accuracy
        assert rep.objective <= best + 1e-6
        assert abs(rep.objective - best) <= 1e-4 * max(1.0, abs(best))

    def test_structured_rows_match_dense_kkt(self, rng):
        # values, gradients, the eliminated Newton system, the Newton step
        # and the row slopes of the structured rows against the textbook
        # dense KKT system at random positive slacks and duals
        for case in (_fpp_sca_rows, _dense_rows):
            self._check_against_dense_kkt(rng, *case(rng))

    @staticmethod
    def _check_against_dense_kkt(rng, problem, z, rows):
        n = problem.dim
        m = len(rows)
        dz = rng.standard_normal(n)
        lam = rng.uniform(0.1, 3.0, m)
        wgt = lam / rng.uniform(0.1, 3.0, m)          # lambda / s
        vals = np.array([z @ q @ z + a @ z + b for q, a, b in rows])
        grads = np.array([2 * q @ z + a for q, a, _ in rows])
        kkt = sum(w * np.outer(g, g) + l * 2 * q for (q, _, _), g, w, l in zip(rows, grads, wgt, lam))
        rhs = rng.standard_normal(n)
        step = np.linalg.solve(kkt, rhs)
        c = np.append(problem.objective, np.full(n - problem.objective.size, problem.eps))

        struct = _Rows(problem)
        assert struct.m == m
        np.testing.assert_array_equal(struct.c, c)
        v_s, gd, ge = struct.derivatives(z)
        np.testing.assert_allclose(v_s, vals, rtol=1e-13, atol=1e-13)
        # per-row gradients, read off the slopes along each axis
        g_s = np.array([struct.slopes(e, gd, ge) for e in np.eye(n)]).T
        np.testing.assert_allclose(g_s, grads, rtol=1e-13, atol=1e-13)
        w = rng.standard_normal(m)
        np.testing.assert_allclose(struct.grad_sum(w, gd, ge), grads.T @ w, rtol=1e-12, atol=1e-12)
        # eliminated form: the slack block is diagonal, and the Schur
        # complement over x is what the Cholesky sees
        n_x = problem.objective.size if problem.x_bar is not None else n
        k_ss = kkt[n_x:, n_x:]
        np.testing.assert_array_equal(k_ss - np.diag(np.diag(k_ss)), 0.0)
        schur = kkt[:n_x, :n_x] - kkt[:n_x, n_x:] @ np.diag(1.0 / np.diag(k_ss)) @ kkt[n_x:, :n_x]
        h_s = struct.reduced_system(wgt, lam, gd, ge)[0]
        np.testing.assert_allclose(h_s, schur, rtol=1e-12, atol=1e-12 * np.abs(schur).max())
        dz_s = struct.newton_step(wgt, lam, gd, ge, rhs)
        assert np.abs(dz_s - step).max() <= 1e-10 * np.abs(step).max()
        np.testing.assert_allclose(struct.slopes(dz, gd, ge), grads @ dz, rtol=1e-12, atol=1e-12)

    def test_singular_hessian_falls_back_to_regularized_step(self):
        # coordinate 2 is touched by no row and ignored by the objective, so
        # the Newton matrix is singular in it
        c = np.array([1.0, -1.0, 0.0])
        problem = _dense_problem(c, [
            (np.diag([1.0, 1.0, 0.0]), np.zeros(3), -1.0),
            (None, np.array([1.0, -0.5, 0.0]), -0.5),
        ])
        struct = _Rows(problem)
        x0 = np.array([0.1, 0.2, 3.0])
        vals, gd, ge = struct.derivatives(x0)
        lam = np.ones(2)
        rhs = -c - struct.grad_sum(lam, gd, ge)
        dx = struct.newton_step(lam / -vals, lam, gd, ge, rhs)
        assert np.all(np.isfinite(dx))
        assert dx[2] == 0.0
        rep = solve_convex_qcqp(problem, x0)
        assert rep.message == "" and rep.iterations > 0
        assert np.all(np.isfinite(rep.x)) and rep.x[2] == 3.0
        assert rep.success

    def test_iteration_cap_reports_residuals(self, rng, monkeypatch):
        # a capped solve says so, reports the dual residual of the point it
        # returns, and judges success by feasibility alone
        n = 6
        a = random_psd(rng, n).real + np.eye(n)
        problem = _dense_problem(rng.standard_normal(n), [
            (a, np.zeros(n), -4.0),
            (None, rng.standard_normal(n), -1.0),
        ])
        x0 = np.full(n, 3.0)         # outside the ellipsoid
        full = solve_convex_qcqp(problem, x0, tol=1e-10)
        assert full.message == "" and full.success
        for cap in (1, 2, 3):
            monkeypatch.setattr(cvxkit, "_MAX_ITER", cap)
            rep = solve_convex_qcqp(problem, x0, tol=1e-10)
            assert rep.iterations == cap
            assert "iteration cap" in rep.message
            assert math.isfinite(rep.kkt_residual)
            assert rep.success == (rep.max_violation < 1e-10)

    def test_any_start_reaches_the_same_optimum(self, rng):
        # the slacks make every finite start valid: outside the rows, on a
        # row, and with a negative entry slack all reach the optimum that a
        # strictly feasible start reaches
        c = np.array([-1.0, -1.0])
        p = _dense_problem(c, [(np.eye(2), np.zeros(2), -1.0), (None, np.array([1.0, 0.0]), -0.5)])
        ref = solve_convex_qcqp(p, np.zeros(2), tol=1e-10)
        np.testing.assert_allclose(ref.x, [0.5, math.sqrt(0.75)], atol=1e-6)
        for x0 in ([2.0, 2.0], [0.5, 0.0], [1.0, 0.0], [-3.0, 0.5]):
            rep = solve_convex_qcqp(p, np.array(x0), tol=1e-10)
            assert rep.success and rep.message == ""
            np.testing.assert_allclose(rep.x, ref.x, atol=1e-6)
        problem, z, _ = _fpp_sca_rows(rng)
        ref = solve_convex_qcqp(problem, z, tol=1e-10)
        assert ref.success and ref.message == ""
        z[problem.objective.size] = -0.1
        rep = solve_convex_qcqp(problem, z, tol=1e-10)
        assert rep.success and rep.message == ""
        assert rep.objective == pytest.approx(ref.objective, abs=1e-7)
        # a start that is not finite is still refused without a step
        rep = solve_convex_qcqp(p, np.array([np.nan, 0.0]))
        assert not rep.success and rep.iterations == 0


class TestWaterfill:
    def test_budget_and_level(self):
        g = np.array([2.0, 1.0, 0.5])
        p, level = waterfill(g, 3.0, 1.0)
        assert p.sum() == pytest.approx(3.0)
        active = p > 0
        np.testing.assert_allclose(p[active] + 1.0 / g[active], level)

    def test_matches_grid_search(self, rng):
        for _ in range(5):
            g = rng.uniform(0.1, 3.0, 4)
            p, _ = waterfill(g, 2.0, 0.7)
            base = np.log1p(p * g / 0.7).sum()
            for _ in range(2000):
                q = rng.random(4)
                q = 2.0 * q / q.sum()
                assert np.log1p(q * g / 0.7).sum() <= base + 1e-9


def dual_grid_oracle(a, g, h_list, power, target, noise, rounds=4, n=120):
    """Zoomed dual-grid search; independent primal lower bound.

    Scans a (mu, beta) dual grid, rescales each candidate covariance that
    exceeds the power budget onto it and spends the budget a candidate
    leaves on the top generalized eigenvector (worth lam_top per unit of
    power; the rate counted is that of the water-filling part alone, which
    extra power cannot lower), keeps rate-feasible candidates, and refines
    around the top few separated cells (the clipped objective over the grid
    can be multi-modal, so single-cell zooming may lock onto the wrong
    basin).
    """
    import scipy.linalg

    lam, _ = top_generalized_eig(a, g)
    probe = _inv_sqrt_psd(2 * max(lam, 1e-300) * g - a + 1e-30 * np.eye(a.shape[0]))
    h_ref = max(float(scipy.linalg.svdvals(h @ probe).max()) ** 2 for h in h_list)
    bscale = len(h_list) * noise / h_ref
    k_sub = len(h_list)

    def scan(fac_lo, fac_hi, b_lo, b_hi, n_pts):
        """Best feasible objective per grid cell; returns sorted candidates."""
        cands = []
        betas = np.geomspace(b_lo, b_hi, n_pts)
        for fac in np.geomspace(fac_lo, fac_hi, n_pts):
            mu = lam * (1 + fac) + 1e-300
            q_inv_half = _inv_sqrt_psd(mu * g - a)
            gains, pw, ow = [], [], []
            for h in h_list:
                u, s, vh = np.linalg.svd(h @ q_inv_half, full_matrices=False)
                basis = q_inv_half @ vh.conj().T
                gains.append(s**2)
                pw.append(np.einsum("ij,jk,ki->i", basis.conj().T, g, basis).real)
                ow.append(np.einsum("ij,jk,ki->i", basis.conj().T, a, basis).real)
            # vectorized over beta
            obj_b = np.zeros(n_pts)
            pow_b = np.zeros(n_pts)
            for gains_k, pw_k, ow_k in zip(gains, pw, ow):
                alloc = np.maximum(
                    betas[:, None] / k_sub - noise / np.maximum(gains_k, 1e-300)[None, :], 0.0
                )
                alloc[:, gains_k <= 0] = 0.0
                pow_b += alloc @ pw_k
                obj_b += alloc @ ow_k
            scale_b = np.where(pow_b > power, power / np.maximum(pow_b, 1e-300), 1.0)
            rate_b = np.zeros(n_pts)
            for gains_k, pw_k in zip(gains, pw):
                alloc = np.maximum(
                    betas[:, None] / k_sub - noise / np.maximum(gains_k, 1e-300)[None, :], 0.0
                )
                alloc[:, gains_k <= 0] = 0.0
                rate_b += np.log1p(scale_b[:, None] * alloc * gains_k / noise).sum(axis=1) / k_sub
            ok = rate_b >= target - 1e-9
            spare = np.maximum(power - pow_b, 0.0)
            for bi in np.nonzero(ok)[0]:
                obj = obj_b[bi] * scale_b[bi] + spare[bi] * lam
                cands.append((float(obj), fac, float(betas[bi])))
        cands.sort(key=lambda t: -t[0])
        return cands

    cands = scan(1e-8, 1e4, bscale * 1e-4, bscale * 1e6, n)
    if not cands:
        return -np.inf
    # top separated seeds (multi-modality guard)
    seeds, seen = [], []
    for obj, fac, beta in cands:
        if all(
            abs(math.log(fac / f0)) > 0.5 or abs(math.log(beta / b0)) > 0.5
            for f0, b0 in seen
        ) or not seen:
            if all(abs(math.log(fac / f0)) > 0.25 or abs(math.log(beta / b0)) > 0.25 for f0, b0 in seen):
                seeds.append((fac, beta))
                seen.append((fac, beta))
        if len(seeds) >= 4:
            break
    # a budget left over goes on x_top, whose sensing gain per unit of power
    # is the largest, so such optima sit at the smallest mu: seed the best
    # cell there too
    edge = min(fac for _, fac, _ in cands)
    seeds.append(next((fac, beta) for _, fac, beta in cands if fac == edge))
    best = cands[0][0]
    span_f = (1e4 / 1e-8) ** (8.0 / n)
    span_b = 1e10 ** (8.0 / n)
    for fac0, beta0 in seeds:
        f_lo, f_hi = fac0 / span_f, fac0 * span_f
        b_lo, b_hi = beta0 / span_b, beta0 * span_b
        for _ in range(rounds - 1):
            local = scan(f_lo, f_hi, b_lo, b_hi, n)
            if not local:
                break
            obj, fac0, beta0 = local[0]
            best = max(best, obj)
            zf = (f_hi / f_lo) ** (8.0 / n)
            zb = (b_hi / b_lo) ** (8.0 / n)
            f_lo, f_hi = fac0 / zf, fac0 * zf
            b_lo, b_hi = beta0 / zb, beta0 * zb
    return best


class TestRateConstrainedTraceMax:
    def _instance(self, rng, n=3, nu=2):
        a = random_psd(rng, n)
        g = np.eye(n) * n + 0.2 * random_psd(rng, n)
        h = 1e-6 * (rng.standard_normal((nu, n)) + 1j * rng.standard_normal((nu, n)))
        return a, g, h

    def test_zero_target_rank_one_full_power(self, rng):
        a, g, h = self._instance(rng)
        res = rate_constrained_trace_max_multi(a, g, [h], 1.0, 0.0, 1e-12)
        assert res.branch == "sensing"
        assert res.power == pytest.approx(1.0)
        lam, _ = top_generalized_eig(a, g)
        assert res.objective == pytest.approx(lam, rel=1e-12)
        assert np.linalg.matrix_rank(res.r_single, tol=1e-12) == 1

    def test_zero_sensing_matrix_waterfills(self, rng):
        _, g, h = self._instance(rng)
        cap = mimo_capacity([h], g, 1.0, 1e-12)
        res = rate_constrained_trace_max_multi(np.zeros((3, 3)), g, [h], 1.0, 0.5 * cap, 1e-12)
        assert res.branch == "capacity"
        assert res.rate == pytest.approx(cap, rel=1e-12)

    def test_infeasible_target_reported(self, rng):
        a, g, h = self._instance(rng)
        cap = mimo_capacity([h], g, 1.0, 1e-12)
        with pytest.raises(RateInfeasibleError) as exc:
            rate_constrained_trace_max_multi(a, g, [h], 1.0, cap * 1.05, 1e-12)
        assert exc.value.max_rate == pytest.approx(cap, rel=1e-9)

    def test_dual_solution_matches_grid_oracle(self, rng):
        for _ in range(3):
            a, g, h = self._instance(rng)
            cap = mimo_capacity([h], g, 1.0, 1e-12)
            target = 0.85 * cap
            res = rate_constrained_trace_max_multi(a, g, [h], 1.0, target, 1e-12)
            oracle = dual_grid_oracle(a, g, [h], 1.0, target, 1e-12, rounds=6, n=160)
            assert res.objective >= oracle - 1e-9 * abs(oracle)
            assert abs(res.objective - oracle) <= 1e-5 * abs(oracle)
            assert res.rate >= target - 1e-9
            assert res.power <= 1.0 + 1e-8

    def test_complementary_slackness(self, rng):
        a, g, h = self._instance(rng)
        cap = mimo_capacity([h], g, 1.0, 1e-12)
        target = 0.9 * cap
        res = rate_constrained_trace_max_multi(a, g, [h], 1.0, target, 1e-12)
        assert abs((res.rate - target) * res.beta) <= 1e-6
        assert abs((1.0 - res.power) * res.mu) <= 1e-6

    def test_multi_carrier_reduces_to_single(self, rng):
        # two equal carriers split the optimum evenly (the average rate is
        # concave), so they solve the one-carrier problem at twice the noise
        a, g, h = self._instance(rng)
        cap = mimo_capacity([h], g, 1.0, 2e-12)
        res1 = rate_constrained_trace_max_multi(a, g, [h], 1.0, 0.8 * cap, 2e-12)
        resk = rate_constrained_trace_max_multi(a, g, [h, h], 1.0, 0.8 * cap, 1e-12)
        assert res1.objective == pytest.approx(resk.objective, rel=1e-10)

    def test_two_carriers_against_grid_oracle(self, rng):
        a = random_psd(rng, 3)
        g = np.eye(3) * 3
        hs = [
            1e-6 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
            for _ in range(2)
        ]
        cap = mimo_capacity(hs, g, 1.0, 1e-12)
        target = 0.8 * cap
        res = rate_constrained_trace_max_multi(a, g, hs, 1.0, target, 1e-12)
        oracle = dual_grid_oracle(a, g, hs, 1.0, target, 1e-12)
        assert abs(res.objective - oracle) <= 1e-5 * abs(oracle)
        assert res.rate >= target - 1e-9

    def test_power_deficit_parks_budget_on_sensing_direction(self, rng):
        # a channel orthogonal to the top sensing direction x_top: water-filling
        # meets the rate without the whole budget even at the smallest power
        # dual, and the rest of the budget goes on x_top
        a, g, h0 = self._instance(rng)
        lam, x = top_generalized_eig(a, g)
        h = h0 - np.outer(h0 @ x, x.conj()) / (x.conj() @ x)
        cap = mimo_capacity([h], g, 1.0, 1e-12)
        for frac in (0.3, 0.6, 0.9):
            target = frac * cap
            res = rate_constrained_trace_max_multi(a, g, [h], 1.0, target, 1e-12)
            assert res.branch == "dual"
            assert res.rate >= target - 1e-9
            assert res.power == pytest.approx(1.0, rel=1e-12)
            assert np.trace(g @ res.r_single).real == pytest.approx(1.0, rel=1e-9)
            assert _exact_rate([h], res.r_bb, 1e-12) >= target - 1e-9
            # the grid oracle is a primal lower bound and the dual function
            # at the returned multipliers an upper bound
            oracle = dual_grid_oracle(a, g, [h], 1.0, target, 1e-12, rounds=6, n=160)
            upper = _dual_function(a, g, [h], 1.0, target, 1e-12, res.mu, res.beta)
            assert oracle <= res.objective * (1 + 1e-9)
            assert abs(res.objective - oracle) <= 1e-5 * abs(oracle)
            assert res.objective <= upper * (1 + 1e-9)
            assert upper - res.objective <= 1e-5 * abs(res.objective)

    def test_k16_dual_solve_point_budget(self, rng, monkeypatch):
        calls = []
        point = cvxkit._DualPoints.point
        monkeypatch.setattr(
            cvxkit._DualPoints, "point", lambda self, *args: calls.append(1) or point(self, *args)
        )
        for _ in range(4):
            a = random_psd(rng, 3)
            g = np.eye(3) * 3 + 0.2 * random_psd(rng, 3)
            hs = [
                1e-6 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
                for _ in range(16)
            ]
            cap = mimo_capacity(hs, g, 1.0, 1e-12)
            for frac in (0.5, 0.8, 0.95):
                calls.clear()
                res = rate_constrained_trace_max_multi(a, g, hs, 1.0, frac * cap, 1e-12)
                assert res.branch == "dual"
                assert 0 < len(calls) <= 30
                assert res.rate >= frac * cap - 1e-9
                assert res.power <= 1.0 + 1e-8


def _dual_function(a, g, h_list, power, target, noise, mu, beta):
    """Lagrange dual function at (mu, beta), from an eigendecomposition of
    mu G - A (an upper bound on the optimum for any mu > lam_max, beta >= 0)."""
    k_sub = len(h_list)
    lam, vec = np.linalg.eigh(mu * g - a)
    m_inv_half = (vec / np.sqrt(lam)) @ vec.conj().T
    value = mu * power - beta * target
    for h in h_list:
        gains = np.linalg.svd(h @ m_inv_half, compute_uv=False) ** 2
        q = np.maximum(beta / k_sub - noise / np.maximum(gains, 1e-300), 0.0)
        value += float((beta / k_sub * np.log1p(q * gains / noise) - q).sum())
    return value

