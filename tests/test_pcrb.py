from dataclasses import replace

import numpy as np
import pytest

from isac_beamkit.designs import HybridDesign, RxDft, RxIdentity, RxPhases, dft_matrix
from isac_beamkit.model import ArrayConfig, RxArchitecture
from isac_beamkit.pcrb import (
    PcrbEngine,
    PcrbError,
    Pfim,
    assemble_pfim,
    fim_oracle,
    pcrb_fully_connected,
    pcrb_theta,
)

from conftest import make_scenario, random_phases, random_psd


def small_design(rng, scenario, scale=1.0 / 40):
    arrays = scenario.arrays
    v = random_phases(rng, (arrays.n_tx, arrays.n_rf_tx))
    r = random_psd(rng, arrays.n_rf_tx, scale)
    if scenario.arrays.rx_architecture is RxArchitecture.FULLY_DIGITAL:
        rx = RxIdentity()
    else:
        rx = RxPhases(random_phases(rng, arrays.n_rx))
    return HybridDesign(v, (r,) * scenario.subcarriers, rx)


class TestAssemble:
    def test_zero_covariance(self):
        sc = make_scenario()
        des = HybridDesign(
            np.ones((4, 2), dtype=complex),
            (np.zeros((2, 2)),),
            RxPhases(np.ones(4)),
        )
        pf = assemble_pfim(sc, des)
        assert pf.j_theta_theta == 0.0
        assert np.abs(pf.j_alpha_alpha).max() == 0.0

    def test_single_antennas_no_angle_information(self):
        sc = make_scenario(n_tx=1, n_rx=1, n_user=1, n_rf_tx=1, n_rf_rx=1,
                           arch=RxArchitecture.FULLY_DIGITAL)
        des = HybridDesign(None, (np.array([[1.0]]),), RxIdentity())
        pf = assemble_pfim(sc, des)
        assert pf.j_theta_theta < 1e-10
        assert pf.j_alpha_alpha[0, 0] > 0

    def test_f_p_alpha_circular_gaussian(self):
        sc = make_scenario(gamma=5e-12)
        des = HybridDesign(np.ones((4, 2), dtype=complex), (np.eye(2) * 0.1,),
                           RxPhases(np.ones(4)))
        pf = assemble_pfim(sc, des)
        np.testing.assert_allclose(pf.f_p_alpha, (2 / 5e-12) * np.eye(2))

    def test_oracle_agreement_partially_connected(self, rng):
        sc = make_scenario(seed=5)
        des = small_design(rng, sc)
        pf = assemble_pfim(sc, des)
        orc = fim_oracle(sc, des, mc_samples=100_000, fd_step=1e-6, seed=42)
        assert abs(pf.j_theta_theta - orc.j_theta_theta) <= 3 * orc.se_theta_theta
        assert abs(pf.j_alpha_alpha[0, 0] - orc.j_alpha_alpha) <= 3 * orc.se_alpha_alpha
        # cross block statistically consistent with zero
        assert np.all(np.abs(orc.j_theta_alpha) <= 4 * orc.se_theta_alpha)

    def test_oracle_zero_for_zero_covariance(self):
        sc = make_scenario()
        des = HybridDesign(np.ones((4, 2), dtype=complex), (np.zeros((2, 2)),),
                           RxPhases(np.ones(4)))
        orc = fim_oracle(sc, des, mc_samples=2000, seed=1)
        assert orc.j_theta_theta == 0.0
        assert orc.j_alpha_alpha == 0.0

    def test_oracle_zero_for_degenerate_reflection(self, rng):
        sc = make_scenario(gamma=0.0)
        des = small_design(rng, sc)
        orc = fim_oracle(sc, des, mc_samples=2000, seed=2)
        assert orc.j_theta_theta == 0.0


class TestEngineCache:
    def test_a1_of_reuses_the_last_descriptor(self, rng, monkeypatch):
        sc = make_scenario(seed=2)
        eng = PcrbEngine(sc)
        rx = RxPhases(random_phases(rng, sc.arrays.n_rx))
        calls = []
        a1 = PcrbEngine.a1
        monkeypatch.setattr(PcrbEngine, "a1", lambda self, w: calls.append(1) or a1(self, w))
        first = eng.a1_of(rx)
        assert eng.a1_of(rx) is first and len(calls) == 1
        # an equal descriptor is another receive step: the key is identity
        eng.a1_of(RxPhases(rx.d))
        assert len(calls) == 2

    def test_copies_start_with_an_empty_cache(self, rng):
        sc = make_scenario(seed=3)
        eng = PcrbEngine(sc)
        rx = RxPhases(random_phases(rng, sc.arrays.n_rx))
        cached = eng.a1_of(rx)
        point = eng.at_angle(0.3)
        own = point.a1(rx.matrix(sc.arrays))
        assert not np.allclose(own, cached)
        np.testing.assert_array_equal(point.a1_of(rx), own)
        # four receive chains give the same phase vector another combiner
        sc4 = sc.replace(arrays=replace(sc.arrays, n_rf_rx=4))
        other = eng.for_scenario(sc4)
        own = other.a1(rx.matrix(sc4.arrays))
        assert not np.allclose(own, cached)
        np.testing.assert_array_equal(other.a1_of(rx), own)


class TestPcrbTheta:
    def test_prior_only(self):
        pf = Pfim(0.0, np.zeros(2), np.eye(2), 100.0, np.eye(2))
        assert pcrb_theta(pf) == pytest.approx(0.01)

    def test_sum_rule(self):
        pf = Pfim(300.0, np.zeros(2), np.eye(2), 100.0, np.eye(2))
        assert pcrb_theta(pf) == pytest.approx(0.0025)

    def test_full_inversion_path_agrees(self, rng):
        for _ in range(20):
            jt = float(rng.uniform(0, 1e3))
            ja = float(rng.uniform(0.1, 1e3))
            fp = float(rng.uniform(1.0, 500.0))
            fa = float(rng.uniform(0.1, 10.0))
            pf = Pfim(jt, np.zeros(2), ja * np.eye(2), fp, fa * np.eye(2))
            scalar = 1.0 / (fp + jt)
            assert abs(pcrb_theta(pf) - scalar) <= 1e-12 * scalar

    def test_singular_reported(self):
        pf = Pfim(0.0, np.zeros(2), np.zeros((2, 2)), 0.0, np.zeros((2, 2)))
        with pytest.raises(PcrbError):
            pcrb_theta(pf)


class TestInvariants:
    def test_observation_never_hurts(self, rng):
        sc = make_scenario(seed=3)
        eng = PcrbEngine(sc)
        for _ in range(5):
            des = small_design(rng, sc)
            assert eng.pcrb(des) <= 1.0 / eng.f_p_theta + 1e-15

    def test_monotone_in_psd_order(self, rng):
        sc = make_scenario(seed=4)
        eng = PcrbEngine(sc)
        v = random_phases(rng, (4, 2))
        rx = RxPhases(random_phases(rng, 4))
        r1 = random_psd(rng, 2, 0.01)
        bump = random_psd(rng, 2, 0.01)
        d1 = HybridDesign(v, (r1,), rx)
        d2 = HybridDesign(v, (r1 + bump,), rx)
        assert eng.pcrb(d2) <= eng.pcrb(d1) + 1e-15

    def test_noise_scaling_exact(self, rng):
        sc = make_scenario(seed=6)
        des = small_design(rng, sc)
        pf1 = assemble_pfim(sc, des)
        sc2 = sc.replace(noise_sense=sc.noise_sense * 7.0)
        pf2 = assemble_pfim(sc2, des)
        assert pf2.j_theta_theta == pytest.approx(pf1.j_theta_theta / 7.0, rel=1e-12)

    def test_partially_connected_reduces_to_fully_digital(self, rng):
        # n_rf_rx = n_rx with identity-like phase vector reproduces the
        # fully-digital information exactly
        sc = make_scenario(n_rf_rx=4, seed=8)
        v = random_phases(rng, (4, 2))
        r = random_psd(rng, 2, 0.01)
        des_pc = HybridDesign(v, (r,), RxPhases(np.ones(4)))
        pf_pc = assemble_pfim(sc, des_pc)
        sc_fd = sc.replace(
            arrays=ArrayConfig(4, 4, 2, 2, 4, RxArchitecture.FULLY_DIGITAL)
        )
        des_fd = HybridDesign(v, (r,), RxIdentity())
        pf_fd = assemble_pfim(sc_fd, des_fd)
        assert pf_pc.j_theta_theta == pytest.approx(pf_fd.j_theta_theta, rel=1e-12)


class TestFullyConnected:
    def test_full_dft_equals_fully_digital(self, rng):
        sc = make_scenario(n_rf_rx=4, arch=RxArchitecture.FULLY_CONNECTED, seed=9)
        v = random_phases(rng, (4, 2))
        r = random_psd(rng, 2, 0.01)
        des = HybridDesign(v, (r,), RxDft(np.arange(4)))
        val_fc = pcrb_fully_connected(sc, des)
        sc_fd = sc.replace(arrays=ArrayConfig(4, 4, 2, 2, 4, RxArchitecture.FULLY_DIGITAL))
        des_fd = HybridDesign(v, (r,), RxIdentity())
        eng = PcrbEngine(sc_fd)
        assert val_fc == pytest.approx(eng.pcrb(des_fd), rel=1e-12)

    def test_zero_power_prior_bound(self):
        sc = make_scenario(n_rf_rx=2, arch=RxArchitecture.FULLY_CONNECTED)
        des = HybridDesign(np.ones((4, 2), dtype=complex), (np.zeros((2, 2)),),
                           RxDft(np.array([0, 1])))
        eng = PcrbEngine(sc)
        assert pcrb_fully_connected(sc, des, eng) == pytest.approx(1.0 / eng.f_p_theta)

    def test_rows_added_never_hurt(self, rng):
        sc2 = make_scenario(n_rx=6, n_rf_rx=2, arch=RxArchitecture.FULLY_CONNECTED, seed=10)
        sc3 = make_scenario(n_rx=6, n_rf_rx=3, arch=RxArchitecture.FULLY_CONNECTED, seed=10)
        v = random_phases(rng, (4, 2))
        r = random_psd(rng, 2, 0.01)
        d2 = HybridDesign(v, (r,), RxDft(np.array([0, 1])))
        d3 = HybridDesign(v, (r,), RxDft(np.array([0, 1, 2])))
        assert pcrb_fully_connected(sc3, d3) <= pcrb_fully_connected(sc2, d2) + 1e-18

    def test_orthogonality_enforced(self, rng):
        sc = make_scenario(n_rf_rx=2, arch=RxArchitecture.FULLY_CONNECTED)
        v = random_phases(rng, (4, 2))
        r = random_psd(rng, 2, 0.01)

        class FakeRx:
            def matrix(self, arrays):
                return random_phases(np.random.default_rng(0), (4, 2))

            def kappa(self, arrays):
                return 4.0

        des = HybridDesign(v, (r,), FakeRx())
        with pytest.raises(PcrbError):
            pcrb_fully_connected(sc, des)

    def test_top_subset_closed_form(self, rng):
        # PCRB with the best 2 of 4 DFT rows equals the top-2 diagonal sum
        # of F^H B F, verified against all 6 index pairs
        from itertools import combinations

        sc = make_scenario(n_rf_rx=2, arch=RxArchitecture.FULLY_CONNECTED, seed=11)
        eng = PcrbEngine(sc)
        v = random_phases(rng, (4, 2))
        r = random_psd(rng, 2, 0.01)
        tx_cov = v @ r @ v.conj().T
        b = eng.b_tilde(tx_cov)
        f = dft_matrix(4)
        diag = np.array([np.real(f[:, i].conj() @ b @ f[:, i]) for i in range(4)])
        best = None
        for pair in combinations(range(4), 2):
            val = pcrb_fully_connected(sc, HybridDesign(v, (r,), RxDft(np.array(pair))), eng)
            best = val if best is None else min(best, val)
        top2 = np.sort(diag)[-2:].sum()
        closed = 1.0 / (eng.f_p_theta + eng.info_coefficient(4.0) * top2)
        assert best == pytest.approx(closed, rel=1e-12)
