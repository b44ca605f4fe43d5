import math

import numpy as np
import pytest

from isac_beamkit import cvxkit
from isac_beamkit.cvxkit import (
    ConvexQcqp,
    _Constraints,
    _newton_barrier,
    QuadConstraint,
    RateInfeasibleError,
    SolverError,
    _exact_rate,
    _inv_sqrt_psd,
    mimo_capacity,
    rate_constrained_trace_max,
    rate_constrained_trace_max_multi,
    solve_convex_qcqp,
    top_generalized_eig,
    waterfill,
)

from conftest import random_psd


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
        p = ConvexQcqp(np.array([-1.0]), [QuadConstraint(None, np.array([1.0]), -5.0)])
        rep = solve_convex_qcqp(p)
        assert rep.success
        assert rep.x[0] == pytest.approx(5.0, abs=1e-6)
        assert rep.max_violation <= 1e-8

    def test_disk_support(self):
        p = ConvexQcqp(
            np.array([-1.0, 0.0]),
            [QuadConstraint(np.eye(2), np.zeros(2), -1.0)],
        )
        rep = solve_convex_qcqp(p)
        np.testing.assert_allclose(rep.x, [1.0, 0.0], atol=1e-6)
        assert rep.kkt_residual < 1e-5

    def test_row_scaling_invariance(self, rng):
        a = random_psd(rng, 3).real + np.eye(3)
        c = rng.standard_normal(3)
        cons = [QuadConstraint(a, np.zeros(3), -2.0), QuadConstraint(None, np.ones(3), -1.0)]
        rep1 = solve_convex_qcqp(ConvexQcqp(c, cons))
        scaled = [QuadConstraint(50 * a, np.zeros(3), -100.0), QuadConstraint(None, 7 * np.ones(3), -7.0)]
        rep2 = solve_convex_qcqp(ConvexQcqp(c, scaled))
        assert rep1.objective == pytest.approx(rep2.objective, abs=1e-6)

    def test_matches_projected_subgradient_oracle(self, rng):
        # minimize c^T x over the intersection of an ellipsoid and a halfspace
        n = 6
        a = random_psd(rng, n).real + np.eye(n)
        c = rng.standard_normal(n)
        lin = rng.standard_normal(n)
        cons = [
            QuadConstraint(a, np.zeros(n), -4.0),
            QuadConstraint(None, lin, -1.0),
        ]
        rep = solve_convex_qcqp(ConvexQcqp(c, cons), tol=1e-10)

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

    def test_structured_rows_match_dense_barrier(self, rng):
        # dense, diagonal-vector, sparse-matrix, linear and sign rows against
        # the textbook dense barrier derivatives
        n = 9
        x = 0.05 * rng.standard_normal(n)
        dx = rng.standard_normal(n)
        cons = []
        b = rng.standard_normal((n, n))
        cons.append(QuadConstraint(b @ b.T, rng.standard_normal(n), -4.0))
        for i in range(3):
            q = np.zeros(n)
            q[i] = q[i + 3] = 1.0
            a = np.zeros(n)
            a[6] = -1.0
            cons.append(QuadConstraint(q, a, -1.0))
            a = np.zeros(n)
            a[[i, i + 3, 7]] = (0.4, -0.3, -1.0)
            cons.append(QuadConstraint(None, a, -1.0))
        q = np.zeros((n, n))
        q[1, 1], q[1, 2], q[2, 1], q[2, 2] = 2.0, 0.5, 0.5, 1.0
        cons.append(QuadConstraint(q, np.zeros(n), -3.0))
        cons.append(QuadConstraint(None, rng.standard_normal(n), -2.0))
        nonneg = np.zeros(n, dtype=bool)
        nonneg[6:] = True
        x[6:] = 0.5
        problem = ConvexQcqp(np.ones(n), cons, nonneg)
        rows = list(cons)
        for i in np.flatnonzero(nonneg):
            a = np.zeros(n)
            a[i] = -1.0
            rows.append(QuadConstraint(None, a, 0.0))
        full_q = [
            np.zeros((n, n)) if r.quad is None
            else np.diag(r.quad) if r.quad.ndim == 1 else r.quad
            for r in rows
        ]
        vals = np.array([x @ q @ x + r.lin @ x + r.offset for q, r in zip(full_q, rows)])
        grads = np.array([2 * q @ x + r.lin for q, r in zip(full_q, rows)])
        hess = sum(
            np.outer(g, g) / v**2 - 2 * q / v for q, g, v in zip(full_q, grads, vals)
        )
        curv = np.array([dx @ q @ dx for q in full_q])

        cons_s = _Constraints(problem)
        v_s, g_s = cons_s.values_and_gradients(x)
        # structured row order: matrix quadratics, vector quadratics, linear
        kind = [2 if r.quad is None else 2 - r.quad.ndim for r in rows]
        order = sorted(range(len(rows)), key=lambda i: (kind[i], i))
        np.testing.assert_allclose(v_s, vals[order], rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(g_s, grads[order], rtol=1e-13, atol=1e-13)
        h_s = cons_s.barrier_hessian(x, v_s, g_s)
        np.testing.assert_allclose(h_s, hess, rtol=1e-12, atol=1e-12 * np.abs(hess).max())
        _, v1, v2 = cons_s.ray_coefficients(x, dx, v_s, g_s)
        np.testing.assert_allclose(v1, (grads @ dx)[order], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v2, curv[order], rtol=1e-12, atol=1e-12)

    def test_centring_stops_at_decrement_floor(self, rng):
        # at large barrier weights the decrement bottoms out at rounding
        # noise; centring must recognise that instead of running to the cap
        n = 12
        b = rng.standard_normal((n, n))
        c = rng.standard_normal(n)
        cons = _Constraints(ConvexQcqp(c, [
            QuadConstraint(b @ b.T + np.eye(n), np.zeros(n), -1.0),
            QuadConstraint(None, rng.standard_normal(n), -1.0),
        ]))
        x, t_bar, f_prev = np.zeros(n), 1.0, np.inf
        for _ in range(12):
            x, its, reason = _newton_barrier(cons, c, x, t_bar, 60)
            assert reason == "conv" and its < 20
            assert cons.values(x).max() < 0
            # the objective decreases along the central path
            f = float(c @ x)
            assert f <= f_prev + 1e-12 * max(1.0, abs(f))
            f_prev = f
            t_bar *= 20.0

    def test_infeasible_flagged(self):
        cons = [
            QuadConstraint(None, np.array([1.0]), -1.0),   # x <= 1
            QuadConstraint(None, np.array([-1.0]), 2.0),   # x >= 2
        ]
        rep = solve_convex_qcqp(ConvexQcqp(np.array([1.0]), cons))
        assert not rep.success


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

    Scans a (mu, beta) dual grid, rescales each candidate covariance onto the
    power budget, keeps rate-feasible candidates, and refines around the top
    few separated cells (the clipped objective over the grid can be
    multi-modal, so single-cell zooming may lock onto the wrong basin).
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
            for bi in np.nonzero(ok)[0]:
                cands.append((float(obj_b[bi] * scale_b[bi]), fac, float(betas[bi])))
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
        res = rate_constrained_trace_max(a, g, h, 1.0, 0.0, 1e-12)
        assert res.branch == "sensing"
        assert res.power == pytest.approx(1.0)
        lam, _ = top_generalized_eig(a, g)
        assert res.objective == pytest.approx(lam, rel=1e-12)
        assert np.linalg.matrix_rank(res.r_single, tol=1e-12) == 1

    def test_zero_sensing_matrix_waterfills(self, rng):
        _, g, h = self._instance(rng)
        cap = mimo_capacity([h], g, 1.0, 1e-12)
        res = rate_constrained_trace_max(np.zeros((3, 3)), g, h, 1.0, 0.5 * cap, 1e-12)
        assert res.branch == "capacity"
        assert res.rate == pytest.approx(cap, rel=1e-12)

    def test_infeasible_target_reported(self, rng):
        a, g, h = self._instance(rng)
        cap = mimo_capacity([h], g, 1.0, 1e-12)
        with pytest.raises(RateInfeasibleError) as exc:
            rate_constrained_trace_max(a, g, h, 1.0, cap * 1.05, 1e-12)
        assert exc.value.max_rate == pytest.approx(cap, rel=1e-9)

    def test_dual_solution_matches_grid_oracle(self, rng):
        for _ in range(3):
            a, g, h = self._instance(rng)
            cap = mimo_capacity([h], g, 1.0, 1e-12)
            target = 0.85 * cap
            res = rate_constrained_trace_max(a, g, h, 1.0, target, 1e-12)
            oracle = dual_grid_oracle(a, g, [h], 1.0, target, 1e-12, rounds=6, n=160)
            assert res.objective >= oracle - 1e-9 * abs(oracle)
            assert abs(res.objective - oracle) <= 1e-5 * abs(oracle)
            assert res.rate >= target - 1e-9
            assert res.power <= 1.0 + 1e-8

    def test_complementary_slackness(self, rng):
        a, g, h = self._instance(rng)
        cap = mimo_capacity([h], g, 1.0, 1e-12)
        target = 0.9 * cap
        res = rate_constrained_trace_max(a, g, h, 1.0, target, 1e-12)
        assert abs((res.rate - target) * res.beta) <= 1e-6
        assert abs((1.0 - res.power) * res.mu) <= 1e-6

    def test_multi_carrier_reduces_to_single(self, rng):
        a, g, h = self._instance(rng)
        cap = mimo_capacity([h], g, 1.0, 1e-12)
        res1 = rate_constrained_trace_max(a, g, h, 1.0, 0.8 * cap, 1e-12)
        resk = rate_constrained_trace_max_multi(a, g, [h], 1.0, 0.8 * cap, 1e-12)
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
            res = rate_constrained_trace_max(a, g, h, 1.0, target, 1e-12)
            assert res.branch == "dual"
            assert res.rate >= target - 1e-9
            assert res.power == pytest.approx(1.0, rel=1e-12)
            assert np.trace(g @ res.r_single).real == pytest.approx(1.0, rel=1e-9)
            assert _exact_rate([h], res.r_bb, 1e-12) >= target - 1e-9
            # the grid oracle only rescales water-filling points and never
            # spends unused power on x_top, so it stays a primal lower bound
            # here; the dual function at the returned multipliers bounds the
            # optimum from above
            oracle = dual_grid_oracle(a, g, [h], 1.0, target, 1e-12)
            upper = _dual_function(a, g, [h], 1.0, target, 1e-12, res.mu, res.beta)
            assert oracle <= res.objective * (1 + 1e-9)
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

