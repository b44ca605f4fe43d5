import numpy as np
import pytest

from isac_beamkit.bench import Scheme, run_scheme
from isac_beamkit.cvxkit import mimo_capacity
from isac_beamkit.designs import HybridDesign, RxPhases, digital_factor
from isac_beamkit.isac_opt import _vec, ao_isac, fpp_sca_vrf, init_random_phase, wmmse_update
from isac_beamkit.model import WidebandChannel
from isac_beamkit.pcrb import PcrbEngine, fim_oracle

from conftest import make_scenario, random_phases, random_psd
from test_cvxkit import dual_grid_oracle
from test_isac_opt import digital_stage, feasible_rate_scenario


def ofdm_feasible_scenario(seed=0, k=2, frac=0.6, **kw):
    sc = make_scenario(seed=seed, subcarriers=k, **kw)
    arrays = sc.arrays
    v = random_phases(np.random.default_rng(seed + 177), (arrays.n_tx, arrays.n_rf_tx))
    h_eff = [h @ v for h in sc.channel.per_subcarrier()]
    cap = mimo_capacity(h_eff, v.conj().T @ v, sc.power, sc.noise_comm)
    return sc.replace(rate_target=frac * cap)


class TestObjective:
    def test_zero_covariances_prior_bound(self):
        sc = make_scenario(subcarriers=3)
        eng = PcrbEngine(sc)
        des = HybridDesign(
            np.ones((4, 2), dtype=complex),
            (np.zeros((2, 2)),) * 3,
            RxPhases(np.ones(4)),
        )
        assert eng.pcrb(des) == pytest.approx(1.0 / eng.f_p_theta)

    def test_split_covariance_matches_narrowband(self, rng):
        # identical channels, R/2 on each of two carriers == R on one carrier
        sc1 = make_scenario(seed=1)
        eng1 = PcrbEngine(sc1)
        v = random_phases(rng, (4, 2))
        r = random_psd(rng, 2, 0.01)
        rx = RxPhases(random_phases(rng, 4))
        nb = HybridDesign(v, (r,), rx)
        h = sc1.channel.h
        sc2 = sc1.replace(
            channel=WidebandChannel((h, h)), subcarriers=2
        )
        eng2 = PcrbEngine(sc2, eng1.grid)
        split = HybridDesign(v, (r / 2, r / 2), rx)
        assert eng2.pcrb(split) == pytest.approx(
            eng1.pcrb(nb), rel=1e-14
        )

    def test_label_permutation_invariance(self, rng):
        sc = make_scenario(seed=3, subcarriers=3)
        eng = PcrbEngine(sc)
        v = random_phases(rng, (4, 2))
        rs = tuple(random_psd(rng, 2, 0.01) for _ in range(3))
        rx = RxPhases(random_phases(rng, 4))
        d1 = HybridDesign(v, rs, rx)
        perm = (2, 0, 1)
        d2 = HybridDesign(v, tuple(rs[i] for i in perm), rx)
        assert eng.pcrb(d2) == pytest.approx(eng.pcrb(d1), rel=1e-14)

    def test_matches_per_carrier_oracle_sum(self, rng):
        sc = make_scenario(seed=4, subcarriers=4, symbols=8)
        eng = PcrbEngine(sc)
        v = random_phases(rng, (4, 2))
        rs = tuple(random_psd(rng, 2, 1.0 / 40) for _ in range(4))
        rx = RxPhases(random_phases(rng, 4))
        des = HybridDesign(v, rs, rx)
        from isac_beamkit.pcrb import assemble_pfim

        pf = assemble_pfim(sc, des, eng)
        orc = fim_oracle(sc, des, mc_samples=100_000, fd_step=1e-6, seed=9)
        assert abs(pf.j_theta_theta - orc.j_theta_theta) <= 3 * orc.se_theta_theta
        assert abs(pf.j_alpha_alpha[0, 0] - orc.j_alpha_alpha) <= 3 * orc.se_alpha_alpha
        assert np.all(np.abs(orc.j_theta_alpha) <= 4 * orc.se_theta_alpha)


class TestDigitalStage:
    def test_zero_target_concentrates_on_first_carrier(self, rng):
        sc = make_scenario(seed=6, subcarriers=3)
        eng = PcrbEngine(sc)
        v = random_phases(rng, (4, 2))
        w = RxPhases(random_phases(rng, 4)).matrix(sc.arrays)
        a_tilde = eng.a1(w)
        res = digital_stage(sc, a_tilde, v, 0.0)
        assert np.trace(res.r_bb[0]).real == pytest.approx(
            sc.power / np.trace(v.conj().T @ v).real * 2, rel=1e-9
        ) or np.trace(res.r_bb[0]).real > 0
        for r in res.r_bb[1:]:
            assert np.abs(r).max() == 0.0

    def test_two_carrier_dual_grid_oracle(self, rng):
        sc = ofdm_feasible_scenario(seed=7, k=2, frac=0.75)
        eng = PcrbEngine(sc)
        v = random_phases(rng, (4, 2))
        w = RxPhases(random_phases(rng, 4)).matrix(sc.arrays)
        a_tilde = eng.a1(w)
        a_eff = v.conj().T @ a_tilde @ v
        g_eff = v.conj().T @ v
        h_eff = [h @ v for h in sc.channel.per_subcarrier()]
        res = digital_stage(sc, a_tilde, v, sc.rate_target)
        oracle = dual_grid_oracle(
            a_eff, g_eff, h_eff, sc.power, sc.rate_target, sc.noise_comm, rounds=6, n=200
        )
        assert abs(res.objective - oracle) <= 1e-5 * abs(oracle)
        assert res.rate >= sc.rate_target - 1e-9
        assert res.power <= sc.power + 1e-8


class TestAnalogStage:
    def test_flat_channel_collapses_to_scaled_narrowband(self, rng):
        # equal channels and covariances across K: the stacked problem is the
        # narrowband one with K*R (same objective direction)
        sc1 = make_scenario(seed=9)
        h = sc1.channel.h
        sc2 = sc1.replace(channel=WidebandChannel((h, h)), subcarriers=2)
        eng = PcrbEngine(sc1)
        rx = RxPhases(random_phases(rng, 4))
        a_tilde = eng.a1(rx.matrix(sc1.arrays))
        v = random_phases(rng, (4, 2))
        r = random_psd(rng, 2, 0.01)
        aux = wmmse_update(h, v, digital_factor(r), sc1.noise_comm)
        sc1z = sc1.replace(rate_target=0.0)
        sc2z = sc2.replace(rate_target=0.0)
        v1, _ = fpp_sca_vrf(sc1z, a_tilde, [2 * r], [aux], _vec(v), max_iters=4)
        v2, _ = fpp_sca_vrf(sc2z, a_tilde, [r, r], [aux, aux], _vec(v), max_iters=4)
        np.testing.assert_allclose(v1, v2, atol=1e-9)


class TestAoP2:
    def test_k1_delegates(self):
        # narrowband is OFDM with one carrier: the same channel given as a
        # one-carrier wideband channel runs the same optimization
        sc = ofdm_feasible_scenario(seed=10, k=1)
        opts = dict(n_init=4, max_outer=3, wmmse_rounds=2, sca_iters=5)
        rep2 = ao_isac(sc.replace(channel=WidebandChannel((sc.channel.h,))), **opts)
        rep1 = ao_isac(sc, **opts)
        assert rep2.final_pcrb == pytest.approx(rep1.final_pcrb, rel=1e-12)

    def test_k1_forwards_every_option(self):
        # the proposed scheme hands every AO option to ao_isac unchanged
        sc = feasible_rate_scenario(seed=2, n_tx=4, n_rx=4, n_rf_tx=2, n_rf_rx=2)
        eng = PcrbEngine(sc)
        opts = dict(n_init=4, max_outer=3, wmmse_rounds=2, sca_iters=3, fixed_v=True)
        start = init_random_phase(sc, 4, sc.seed, eng)
        rep2 = run_scheme(Scheme.parse("proposed"), sc, eng, opts)
        ref = ao_isac(sc, eng, **opts)
        assert rep2.final_pcrb == ref.final_pcrb
        assert rep2.trace == ref.trace
        assert np.array_equal(rep2.design.v_rf, start.v_rf)
        assert np.array_equal(rep2.design.rx.d, ref.design.rx.d)
        for a, b in zip(rep2.design.r_bb, ref.design.r_bb):
            assert np.array_equal(a, b)

    def test_objective_computes_a1_once(self, monkeypatch):
        sc = ofdm_feasible_scenario(seed=4, k=4)
        eng = PcrbEngine(sc)
        calls = []
        a1 = PcrbEngine.a1
        monkeypatch.setattr(PcrbEngine, "a1", lambda self, w: calls.append(1) or a1(self, w))
        start = init_random_phase(sc, 3, sc.seed, eng)
        # one A1 per random draw: its PCRB reuses the A1 of its digital solve
        assert len(calls) == 3
        calls.clear()
        rep = ao_isac(sc, eng, init_design=start, max_outer=0, sca_iters=4)
        # the start design's objective; the final PCRB reuses its A1
        assert len(calls) == 1
        assert rep.trace == [eng.pcrb(start)]

    def test_zero_rate_target_matches_sensing(self):
        sc = make_scenario(seed=11, subcarriers=2, rate_target=0.0)
        eng = PcrbEngine(sc)
        rep = ao_isac(sc, eng)
        ref = ao_isac(sc, eng, max_outer=200)
        assert rep.final_pcrb == pytest.approx(ref.final_pcrb, rel=1e-12)

    def test_feasibility_and_monotone_trace(self):
        for seed in range(2):
            sc = ofdm_feasible_scenario(seed=seed, k=3, frac=0.6)
            rep = ao_isac(sc, n_init=6, max_outer=4, sca_iters=4)
            t = rep.trace
            assert all(t[i + 1] <= t[i] * (1 + 1e-10) for i in range(len(t) - 1))
            assert rep.feasible
            assert rep.final_rate >= sc.rate_target - 1e-6
            assert rep.power_used <= sc.power + 1e-8

    @pytest.mark.slow
    def test_flat_fading_equivalence_with_narrowband(self):
        # one tap: every carrier sees the same channel. (P2) with total power
        # P and average-rate target is then the narrowband problem with
        # per-carrier power P/K; the symbol count is scaled to keep the same
        # total angle information.
        k = 2
        sc_nb = ofdm_feasible_scenario(seed=12, k=1, frac=0.55)
        h = sc_nb.channel.per_subcarrier()[0]
        sc_ofdm = sc_nb.replace(
            channel=WidebandChannel((h,) * k),
            subcarriers=k,
        )
        sc_equiv = sc_nb.replace(power=sc_nb.power / k, symbols=sc_nb.symbols * k)
        # matched starting points: the block updates of the two problems
        # coincide under the power/symbol mapping, so equal inits must land
        # on the same design
        arrays = sc_nb.arrays
        v0 = random_phases(np.random.default_rng(99), (arrays.n_tx, arrays.n_rf_tx))
        rx0 = RxPhases(random_phases(np.random.default_rng(98), arrays.n_rx))
        scale_nb = sc_equiv.power / (arrays.n_tx * arrays.n_rf_tx)
        init_nb = HybridDesign(v0, (np.eye(arrays.n_rf_tx, dtype=complex) * scale_nb,), rx0)
        scale_k = sc_ofdm.power / (arrays.n_tx * arrays.n_rf_tx * k)
        init_k = HybridDesign(v0, (np.eye(arrays.n_rf_tx, dtype=complex) * scale_k,) * k, rx0)
        rep2 = ao_isac(sc_ofdm, init_design=init_k, max_outer=40, wmmse_rounds=2,
                       sca_iters=10, tol=1e-10)
        rep1 = ao_isac(sc_equiv, init_design=init_nb, max_outer=40, wmmse_rounds=2,
                       sca_iters=10, tol=1e-10)
        assert rep2.final_pcrb == pytest.approx(rep1.final_pcrb, rel=1e-4)

    def test_failed_analog_block_is_not_convergence(self, monkeypatch):
        import isac_beamkit.isac_opt as isac_opt
        from isac_beamkit.isac_opt import FppScaState, _unvec

        def failing_sca(scenario, a_tilde, r_bb_list, aux_list, v_init, max_iters=30):
            v = _unvec(v_init, scenario.arrays.n_tx, scenario.arrays.n_rf_tx)
            return v, FppScaState(v=v_init, ok=False)

        monkeypatch.setattr(isac_opt, "fpp_sca_vrf", failing_sca)
        sc = ofdm_feasible_scenario(seed=3, k=2, n_tx=3, n_rx=2, n_rf_tx=2, n_rf_rx=2)
        start = init_random_phase(sc, 3, sc.seed)
        rep = ao_isac(sc, n_init=3, max_outer=5, sca_iters=4)
        assert np.array_equal(rep.design.v_rf, start.v_rf)
        assert not rep.converged

    def test_rate_sweep_tradeoff(self):
        sc0 = make_scenario(seed=13, subcarriers=2)
        v = random_phases(np.random.default_rng(13), (4, 2))
        h_eff = [h @ v for h in sc0.channel.per_subcarrier()]
        cap = mimo_capacity(h_eff, v.conj().T @ v, sc0.power, sc0.noise_comm)
        pcrbs = []
        for frac in (0.3, 0.7):
            sc = sc0.replace(rate_target=frac * cap)
            pcrbs.append(ao_isac(sc, n_init=6, max_outer=3, sca_iters=4).final_pcrb)
        assert pcrbs[0] <= pcrbs[1] * (1 + 1e-9)
