import numpy as np
import pytest

from isac_beamkit.cvxkit import rate_constrained_trace_max_multi
from isac_beamkit.designs import HybridDesign, RxIdentity, RxPhases
from isac_beamkit.model import GmmAnglePrior, RxArchitecture, steering_block
from isac_beamkit.pcrb import PcrbEngine
from isac_beamkit.isac_opt import ao_p0
from isac_beamkit.sensing_opt import (
    coordinate_update_receive,
    coordinate_update_transmit,
    dft_select_fc,
    hybrid_from_rank1,
    receive_quadratic,
)

from conftest import make_scenario, random_phases, random_psd


def random_hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (x + x.conj().T)


def solve_p0_fully_digital(a, power):
    """The digital solver at zero rate for a fully-digital transmitter (G = I)."""
    n = a.shape[0]
    res = rate_constrained_trace_max_multi(a, np.eye(n), [np.zeros((1, n))], power, 0.0, 1.0)
    assert res.branch == "sensing"
    return res.r_single


class TestFullyDigital:
    def test_diagonal(self):
        r = solve_p0_fully_digital(np.diag([2.0, 1.0]), 3.0)
        np.testing.assert_allclose(r, np.diag([3.0, 0.0]), atol=1e-12)

    def test_degenerate_ties_to_first_coordinate(self):
        r = solve_p0_fully_digital(np.eye(3), 2.0)
        np.testing.assert_allclose(r, np.diag([2.0, 0.0, 0.0]), atol=1e-12)
        assert np.trace(r).real == pytest.approx(2.0)

    def test_beats_random_feasible_points(self, rng):
        a = random_psd(rng, 4)
        r = solve_p0_fully_digital(a, 1.0)
        base = np.trace(a @ r).real
        for _ in range(2000):
            q = random_psd(rng, 4)
            q *= 1.0 / np.trace(q).real
            assert np.trace(a @ q).real <= base + 1e-9


class TestHybridFromRank1:
    def test_equal_modulus_vector(self):
        f = np.full(4, 0.7 + 0j)
        v, w = hybrid_from_rank1(f, 2)
        np.testing.assert_allclose(v @ w, f, atol=1e-12)
        np.testing.assert_allclose(v[:, 0], np.ones(4))
        np.testing.assert_allclose(w, [0.35, 0.35], atol=1e-15)

    def test_zero_entry_via_antipodal_phases(self):
        f = np.array([2.0, 0.0], dtype=complex)
        v, w = hybrid_from_rank1(f, 2)
        np.testing.assert_allclose(v @ w, f, atol=1e-12)
        assert w[0] == pytest.approx(1.0)
        # second entry realized as c(e^{j pi/2} + e^{-j pi/2}) = 0
        np.testing.assert_allclose(v[1, 0], 1j, atol=1e-12)
        np.testing.assert_allclose(v[1, 1], -1j, atol=1e-12)

    def test_random_reconstruction_and_pcrb_equality(self, rng):
        sc = make_scenario(n_tx=8, n_rx=4, n_rf_tx=3, n_rf_rx=4,
                           arch=RxArchitecture.FULLY_DIGITAL)
        eng = PcrbEngine(sc)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v, w = hybrid_from_rank1(f, 3)
        assert np.abs(v @ w - f).max() < 1e-12
        assert np.abs(np.abs(v) - 1).max() < 1e-12
        # covariance-level equality transfers to the PCRB
        r_bb = np.outer(w, w.conj())
        hyb = HybridDesign(v, (r_bb,), RxIdentity())
        fd = HybridDesign(None, (np.outer(f, f.conj()),), RxIdentity())
        assert eng.pcrb(hyb) == pytest.approx(eng.pcrb(fd), rel=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hybrid_from_rank1(np.zeros(3, dtype=complex), 2)


class TestCoordinateUpdates:
    def test_diagonal_sets_ones(self, rng):
        pi = np.diag(rng.uniform(0.5, 2.0, 4)).astype(complex)
        d = random_phases(rng, 4)
        out = coordinate_update_receive(d, pi)
        np.testing.assert_allclose(out, np.ones(4))

    def test_two_by_two_closed_form(self):
        phi = 0.7
        pi = np.array([[1.0, np.exp(1j * phi)], [np.exp(-1j * phi), 1.0]])
        d = np.array([1.0 + 0j, 1.0 + 0j])
        out = coordinate_update_receive(d, pi)
        # after updating both entries the quadratic form reaches its maximum 4
        val = np.real(out.conj() @ pi @ out)
        assert val == pytest.approx(4.0, rel=1e-12)
        grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
        best = max(
            np.real(np.array([1, g]).conj() @ pi @ np.array([1, g])) for g in grid
        )
        assert val >= best - 1e-9

    def test_single_coordinate_update_beats_phase_grid(self, rng):
        # the closed-form phase for one coordinate (others held fixed) is
        # never beaten by a dense grid over that coordinate
        grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = random_hermitian(rng, n)
            z = random_phases(rng, n)
            k = int(rng.integers(0, n))
            c = z @ m[:, k].conj() - z[k] * m[k, k].conj()
            z_opt = z.copy()
            z_opt[k] = 1.0 if c == 0 else c / abs(c)
            val = np.real(z_opt.conj() @ m @ z_opt)
            trial = z.copy()
            vals = []
            for g in grid:
                trial[k] = g
                vals.append(np.real(trial.conj() @ m @ trial))
            assert val >= max(vals) - 1e-9

    def test_objective_monotone_within_pass(self, rng):
        for _ in range(10):
            n = 5
            m = random_hermitian(rng, n) + n * np.eye(n)
            z = random_phases(rng, n)
            before = np.real(z.conj() @ m @ z)
            after = np.real(
                coordinate_update_receive(z, m).conj() @ m @ coordinate_update_receive(z, m)
            )
            assert after >= before - 1e-9

    def test_rank_one_alignment(self, rng):
        a = random_phases(rng, 6)
        m = np.outer(a, a.conj())
        z = random_phases(rng, 6)
        for _ in range(50):
            z = coordinate_update_transmit(z, m)
        val = np.real(z.conj() @ m @ z)
        assert val == pytest.approx(36.0, rel=1e-9)  # |a^H z| = n at alignment


class TestReceiveQuadratic:
    def test_trace_identity(self, rng):
        sc = make_scenario(n_rx=6, n_rf_rx=3)
        eng = PcrbEngine(sc)
        v = random_phases(rng, (4, 2))
        r = random_psd(rng, 2)
        b = eng.b_tilde(v @ r @ v.conj().T)
        d = random_phases(rng, 6)
        pi = receive_quadratic(b, 3)
        w = RxPhases(d).matrix(sc.arrays)
        lhs = np.real(d.conj() @ pi @ d)
        rhs = np.trace(b @ w @ w.conj().T).real
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestAoP0:
    def test_proposition1_matches_fully_digital(self, rng):
        # 2 transmit chains + fully-digital receiver reach the convex optimum
        for seed in range(5):
            prior = GmmAnglePrior.from_components(
                [(0.5, float(rng.uniform(-1, 0)), float(rng.uniform(1e-3, 1e-2))),
                 (0.5, float(rng.uniform(0, 1)), float(rng.uniform(1e-3, 1e-2)))]
            )
            sc = make_scenario(n_tx=6, n_rx=4, n_rf_tx=2, n_rf_rx=4,
                               arch=RxArchitecture.FULLY_DIGITAL, prior=prior, seed=seed)
            eng = PcrbEngine(sc)
            rep = ao_p0(sc, eng)
            a = eng.a1(np.eye(4))
            lam = np.linalg.eigvalsh(a)[-1]
            best = 1.0 / (eng.f_p_theta + eng.info_coefficient(1.0) * sc.power * lam)
            assert abs(rep.final_pcrb - best) <= 1e-9 * best

    def test_zero_power(self):
        sc = make_scenario(power=0.0)
        eng = PcrbEngine(sc)
        rep = ao_p0(sc, eng)
        assert len(rep.trace) == 1
        assert rep.final_pcrb == pytest.approx(1.0 / eng.f_p_theta)

    def test_objective_computes_a1_once(self, monkeypatch):
        sc = make_scenario(seed=1)
        eng = PcrbEngine(sc)
        calls = []
        a1 = PcrbEngine.a1
        monkeypatch.setattr(PcrbEngine, "a1", lambda self, w: calls.append(1) or a1(self, w))
        rep = ao_p0(sc, eng)
        # the start design and one per receive matrix the loop makes; the
        # transmit block and the final PCRB reuse the last one
        assert len(rep.trace) > 2
        assert len(calls) == len(rep.trace)

    def test_trace_monotone_and_constraints(self):
        for seed in range(5):
            sc = make_scenario(n_tx=4, n_rx=6, n_rf_tx=1, n_rf_rx=3, seed=seed)
            rep = ao_p0(sc)
            t = rep.trace
            assert all(t[i + 1] <= t[i] * (1 + 1e-10) for i in range(len(t) - 1))
            assert rep.power_used <= sc.power + 1e-8
            assert np.abs(np.abs(rep.design.v_rf) - 1).max() < 1e-12

    def test_fixed_point_per_coordinate_optimality(self):
        sc = make_scenario(n_tx=4, n_rx=4, n_rf_tx=1, n_rf_rx=2, seed=3)
        eng = PcrbEngine(sc)
        rep = ao_p0(sc, eng, max_outer=300, tol=1e-14)
        des = rep.design
        grid = np.exp(2j * np.pi * np.arange(360) / 360)
        base = eng.pcrb(des)
        # transmit coordinates
        for m in range(4):
            v = des.v_rf.copy()
            vals = []
            for g in grid:
                v[m, 0] = g
                vals.append(eng.pcrb(HybridDesign(v, des.r_bb, des.rx)))
            assert base <= min(vals) + 1e-10 * base
        # receive coordinates
        for n in range(4):
            d = des.rx.d.copy()
            vals = []
            for g in grid:
                d[n] = g
                vals.append(eng.pcrb(HybridDesign(des.v_rf, des.r_bb, RxPhases(d))))
            assert base <= min(vals) + 1e-10 * base

    def test_more_receive_chains_never_hurt(self):
        results = {}
        for n_rf_rx in (1, 2, 4):
            sc = make_scenario(n_tx=2, n_rx=4, n_rf_tx=1, n_rf_rx=n_rf_rx, seed=7)
            results[n_rf_rx] = ao_p0(sc).final_pcrb
        assert results[2] <= results[1] * (1 + 1e-10)
        assert results[4] <= results[2] * (1 + 1e-10)

    def test_small_instance_near_exhaustive_optimum(self):
        # N_T=2, N_R=4, N_RF_R=2, N_RF_T=1, 12-point phase alphabet
        sc = make_scenario(n_tx=2, n_rx=4, n_rf_tx=1, n_rf_rx=2, seed=11,
                           quadrature_points=512)
        eng = PcrbEngine(sc)
        rep = ao_p0(sc, eng, restarts=4)

        k = 12
        alphabet = np.exp(2j * np.pi * np.arange(k) / k)
        # vectorized exhaustive search over v (k^2) x d (k^4), as node sums
        # over the engine's grid
        import itertools

        vs = np.array(list(itertools.product(range(k), repeat=2)))
        v_all = alphabet[vs]                        # (k^2, 2)
        r_scalar = sc.power / 2.0
        # B(v) per node: (Mdot v)(Mdot v)^H accumulated with weights
        a, da = steering_block(sc.arrays.n_tx, eng.grid.nodes)
        b, db = steering_block(sc.arrays.n_rx, eng.grid.nodes)
        # Mdot(theta) v = db (a^H v) + b (da^H v)
        av = np.einsum("vi,ni->vn", v_all, a.conj())
        dav = np.einsum("vi,ni->vn", v_all, da.conj())
        x_all = av[:, :, None] * db[None, :, :] + dav[:, :, None] * b[None, :, :]
        wp = eng.grid.weights * sc.angle_prior.pdf(eng.grid.nodes)
        b_all = np.einsum("n,vnr,vns->vrs", wp, x_all, x_all.conj()) * r_scalar
        ds = np.array(list(itertools.product(range(k), repeat=4)))
        d_all = alphabet[ds]                        # (k^4, 4)
        # objective tr(B W W^H) = sum_blocks w_i^H B_ii w_i with w = conj(d)
        d_c = d_all.conj()
        obj = np.zeros((v_all.shape[0], d_all.shape[0]))
        for blk in range(2):
            s = slice(2 * blk, 2 * blk + 2)
            obj += np.real(
                np.einsum("dk,vkl,dl->vd", d_c[:, s].conj(), b_all[:, s, s], d_c[:, s])
            )
        best_tr = obj.max()
        best_pcrb = eng.pcrb_from_trace(2.0, best_tr)
        assert rep.final_pcrb <= best_pcrb * 1.02


class TestDftSelect:
    def test_dft_column_outer_product(self):
        from isac_beamkit.designs import dft_matrix

        f = dft_matrix(6)
        b = np.outer(f[:, 2], f[:, 2].conj())
        q = dft_select_fc(b, 2)
        assert q[0] == 2
        diag = np.real(np.einsum("ji,jk,ki->i", f.conj(), b, f))
        assert diag[2] == pytest.approx(36.0)

    def test_identity_ties_break_low(self):
        q = dft_select_fc(np.eye(5, dtype=complex), 3)
        np.testing.assert_array_equal(q, [0, 1, 2])

    def test_matches_exhaustive_subsets(self, rng):
        from itertools import combinations
        from isac_beamkit.designs import dft_matrix

        for _ in range(10):
            n = 6
            b = random_psd(rng, n)
            q = dft_select_fc(b, 2)
            f = dft_matrix(n)
            def value(idx):
                return sum(np.real(f[:, i].conj() @ b @ f[:, i]) for i in idx)
            best = max(combinations(range(n), 2), key=value)
            assert value(q) == pytest.approx(value(best), rel=1e-12)
