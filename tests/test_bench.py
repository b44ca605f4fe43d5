import math
import os

import numpy as np
import pytest

from isac_beamkit.bench import (
    Scheme,
    SchemeError,
    SchemeKind,
    SweepSpec,
    mc_average,
    pattern_mass_near_prior,
    power_pattern,
    run_scheme,
    sweep,
)
from isac_beamkit.designs import HybridDesign, RxIdentity, RxPhases, achieved_rate
from isac_beamkit.model import (
    RicianChannelSpec,
    RxArchitecture,
    realize_channel,
)
from isac_beamkit.pcrb import PcrbEngine

from conftest import make_scenario, random_phases


def rician_scenario(seed=0, rate_target=0.0, **kw):
    """Small scenario with a channel recipe so sweeps can re-draw trials."""
    sc = make_scenario(seed=seed, rate_target=rate_target, n_user=2, **kw)
    spec = RicianChannelSpec(
        theta_user=0.3,
        distance_m=120.0,
        rician_factor=0.2,
        reference_gain=1e-3,
        path_exponent=3.0,
    )
    channel = realize_channel(sc.arrays, spec, 1, seed)
    return sc.replace(channel=channel, channel_spec=spec)


class TestRunScheme:
    def test_fully_digital_sensing_closed_form(self):
        sc = make_scenario(seed=1, rate_target=0.0)
        rep = run_scheme(Scheme(SchemeKind.FULLY_DIGITAL), sc)
        from isac_beamkit.model import ArrayConfig

        sc_fd = sc.replace(
            arrays=ArrayConfig(4, 4, 2, 4, 4, RxArchitecture.FULLY_DIGITAL)
        )
        eng = PcrbEngine(sc_fd)
        lam = np.linalg.eigvalsh(eng.a1(np.eye(4)))[-1]
        expect = 1.0 / (eng.f_p_theta + eng.info_coefficient(1.0) * sc.power * lam)
        assert rep.final_pcrb == pytest.approx(expect, rel=1e-12)

    def test_random_phase_deterministic(self):
        sc = rician_scenario(seed=2)
        r1 = run_scheme(Scheme(SchemeKind.RANDOM_PHASE, 3), sc)
        r2 = run_scheme(Scheme(SchemeKind.RANDOM_PHASE, 3), sc)
        assert r1.final_pcrb == r2.final_pcrb
        np.testing.assert_array_equal(r1.design.v_rf, r2.design.v_rf)

    @pytest.mark.parametrize("scheme", ["fully_digital", "random_phase:3"])
    def test_single_solve_reports_are_scored_from_the_design(self, monkeypatch, scheme):
        import isac_beamkit.isac_opt as isac_opt

        sc = rician_scenario(seed=3, rate_target=0.5)
        rep = run_scheme(Scheme.parse(scheme), sc)
        assert rep.final_rate == achieved_rate(sc, rep.design)
        assert rep.final_rate >= sc.rate_target - 1e-6
        assert rep.feasible is True
        assert rep.trace == [rep.final_pcrb]
        # feasibility is judged, not asserted
        monkeypatch.setattr(isac_opt, "feasible", lambda scenario, design: False)
        assert run_scheme(Scheme.parse(scheme), sc).feasible is False

    def test_fd_receive_matches_fully_digital_on_sensing(self):
        # two transmit chains + fully-digital receiver == convex optimum
        sc = make_scenario(seed=3, rate_target=0.0, n_rf_tx=2)
        fd = run_scheme(Scheme(SchemeKind.FULLY_DIGITAL), sc)
        fdr = run_scheme(Scheme(SchemeKind.FD_RECEIVE), sc)
        assert fdr.final_pcrb == pytest.approx(fd.final_pcrb, rel=1e-6)

    @pytest.mark.parametrize(
        "kind", [SchemeKind.FULLY_DIGITAL, SchemeKind.FD_RECEIVE, SchemeKind.FD_TRANSMIT]
    )
    def test_derived_schemes_share_the_given_engine(self, monkeypatch, kind):
        import isac_beamkit.pcrb as pcrb_mod

        sc = rician_scenario(seed=3, rate_target=0.5)
        engine = PcrbEngine(sc)
        ao = {"n_init": 4, "max_outer": 2, "wmmse_rounds": 1, "sca_iters": 2}
        built = []
        moments = pcrb_mod.LagMoments
        monkeypatch.setattr(
            pcrb_mod, "LagMoments", lambda *args: built.append(args) or moments(*args)
        )
        shared = run_scheme(Scheme(kind), sc, engine, ao)
        assert built == []
        # reference: the derived scenario's own engine, built from scratch
        monkeypatch.setattr(PcrbEngine, "for_scenario", lambda self, s: PcrbEngine(s))
        fresh = run_scheme(Scheme(kind), sc, engine, ao)
        assert len(built) == 1
        assert shared.final_pcrb == fresh.final_pcrb
        assert shared.trace == fresh.trace
        assert shared.final_rate == fresh.final_rate
        for a, b in zip(shared.design.r_bb, fresh.design.r_bb):
            assert np.array_equal(a, b)

    def test_engine_rejects_scenario_with_other_antennas(self):
        from isac_beamkit.model import ModelError

        sc = make_scenario(seed=1)
        other = make_scenario(seed=1, n_tx=6, n_user=2)
        with pytest.raises(ModelError):
            PcrbEngine(sc).for_scenario(other)

    def test_direction_align_needs_recipe(self):
        sc = make_scenario(seed=4)
        with pytest.raises(SchemeError):
            run_scheme(Scheme(SchemeKind.DIRECTION_ALIGN), sc)

    def test_direction_align_uses_steering_columns(self):
        sc = rician_scenario(seed=5)
        rep = run_scheme(Scheme(SchemeKind.DIRECTION_ALIGN), sc)
        from isac_beamkit.model import steering_vector

        np.testing.assert_allclose(
            rep.design.v_rf[:, 0], steering_vector(4, 0.3), atol=1e-12
        )
        # second column steers at the heaviest prior component
        np.testing.assert_allclose(
            rep.design.v_rf[:, 1], steering_vector(4, -0.5), atol=1e-12
        )

    def test_partial_prior_reports_true_pcrb(self):
        sc = rician_scenario(seed=6)
        eng = PcrbEngine(sc)
        rep = run_scheme(Scheme(SchemeKind.PARTIAL_PRIOR), sc, engine=eng)
        assert rep.final_pcrb == pytest.approx(eng.pcrb(rep.design), rel=1e-12)
        # re-scored with the given engine; the trace logs the point objective
        theta = sc.angle_prior.most_probable_angle()
        assert rep.final_pcrb == eng.pcrb(rep.design)
        assert rep.trace[-1] == eng.at_angle(theta).pcrb(rep.design)
        assert rep.trace[-1] != rep.final_pcrb

    def test_proposed_beats_random_and_surrogates_on_sensing(self):
        sc = rician_scenario(seed=7)
        eng = PcrbEngine(sc)
        best = run_scheme(Scheme(SchemeKind.PROPOSED), sc, engine=eng)
        rand = run_scheme(Scheme(SchemeKind.RANDOM_PHASE, 8), sc, engine=eng)
        part = run_scheme(Scheme(SchemeKind.PARTIAL_PRIOR), sc, engine=eng)
        assert best.final_pcrb <= rand.final_pcrb * (1 + 1e-9)
        assert best.final_pcrb <= part.final_pcrb * (1 + 1e-9)


class TestPointObjective:
    def test_matches_delta_prior_limit(self, rng):
        sc = make_scenario(seed=8)
        point = PcrbEngine(sc).at_angle(0.4)
        w = RxPhases(random_phases(rng, 4)).matrix(sc.arrays)
        a_point = point.a1(w)
        from isac_beamkit.model import GmmAnglePrior
        from isac_beamkit.quadrature import build_grid
        from test_quadrature import a_matrices

        delta = GmmAnglePrior.from_components([(1.0, 0.4, 1e-12)])
        a_quad, _ = a_matrices(sc.arrays, delta, w, build_grid(delta, 1024))
        assert np.abs(a_point - a_quad).max() / np.abs(a_point).max() < 1e-3


class TestSweep:
    def test_row_counts_and_determinism(self):
        sc = rician_scenario(seed=9)
        spec = SweepSpec(
            scenario=sc,
            variable="power_dbm",
            values=(0.0, 10.0, 20.0),
            schemes=(Scheme(SchemeKind.RANDOM_PHASE, 2), Scheme(SchemeKind.FULLY_DIGITAL)),
            trials=2,
            seed=5,
        )
        rows1 = sweep(spec)
        rows2 = sweep(spec)
        assert len(rows1) == 3 * 2 * 2
        for a, b in zip(rows1, rows2):
            assert a == b

    def test_pooled_rows_match_serial_rows(self, monkeypatch):
        sc = rician_scenario(seed=9)
        spec = SweepSpec(
            scenario=sc,
            variable="power_dbm",
            values=(0.0, 10.0),
            schemes=(Scheme(SchemeKind.RANDOM_PHASE, 2), Scheme(SchemeKind.PROPOSED)),
            trials=2,
            seed=5,
        )
        monkeypatch.setenv("ISAC_BEAMKIT_THREADS", "1")
        serial = sweep(spec)
        monkeypatch.setenv("ISAC_BEAMKIT_THREADS", "2")
        pooled = sweep(spec)
        assert len(pooled) == len(serial) == 8
        for a, b in zip(serial, pooled):
            assert (a.value, a.scheme, a.trial, a.feasible) == (b.value, b.scheme, b.trial, b.feasible)
            assert b.pcrb_theta == pytest.approx(a.pcrb_theta, rel=1e-9)
            assert b.rate_nats == pytest.approx(a.rate_nats, rel=1e-9)

    def test_worker_blas_environment_restored(self, monkeypatch):
        from isac_beamkit.bench import _single_threaded_blas

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with _single_threaded_blas():
            assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
            assert os.environ["OMP_NUM_THREADS"] == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_power_sweep_monotone_sensing(self):
        sc = rician_scenario(seed=10)
        spec = SweepSpec(
            scenario=sc,
            variable="power_dbm",
            values=(-10.0, 0.0, 10.0),
            schemes=(Scheme(SchemeKind.FULLY_DIGITAL),),
            trials=1,
            seed=1,
        )
        rows = sweep(spec)
        pcrbs = [r.pcrb_theta for r in rows]
        assert pcrbs[0] > pcrbs[1] > pcrbs[2]

    def test_rf_sweep_marks_invalid_allocation(self):
        sc = rician_scenario(seed=11)  # n_rx=4
        spec = SweepSpec(
            scenario=sc,
            variable="n_rf_tx",
            values=(1.0, 2.0, 3.0),
            schemes=(Scheme(SchemeKind.PROPOSED),),
            trials=1,
            seed=2,
            rf_budget=4,
        )
        rows = sweep(spec)
        # n_rf_tx=1 -> n_rf_rx=3 does not divide n_rx=4: explicit infeasible row
        assert rows[0].feasible is False and math.isnan(rows[0].pcrb_theta)
        assert rows[1].feasible
        assert rows[2].feasible

    def test_infeasible_rate_rows_carry_best_rate(self):
        sc = rician_scenario(seed=12, rate_target=99.0)
        spec = SweepSpec(
            scenario=sc,
            variable="rate_target_bits",
            values=(99.0,),
            schemes=(Scheme(SchemeKind.RANDOM_PHASE, 2),),
            trials=1,
            seed=3,
        )
        rows = sweep(spec)
        assert rows[0].feasible is False
        assert 0 < rows[0].rate_bits < 99.0


class TestMcAverage:
    def test_single_trial_zero_stderr(self):
        sc = rician_scenario(seed=13)
        spec = SweepSpec(
            scenario=sc,
            variable="power_dbm",
            values=(0.0,),
            schemes=(Scheme(SchemeKind.FULLY_DIGITAL),),
            trials=1,
            seed=1,
        )
        agg = mc_average(spec)
        assert agg[0].n_trials == 1
        assert agg[0].pcrb_stderr == 0.0

    def test_sensing_schemes_have_zero_spread(self):
        # the sensing-only fully-digital scheme ignores the channel draw
        sc = rician_scenario(seed=14)
        spec = SweepSpec(
            scenario=sc,
            variable="power_dbm",
            values=(0.0,),
            schemes=(Scheme(SchemeKind.FULLY_DIGITAL),),
            trials=4,
            seed=1,
        )
        agg = mc_average(spec)
        assert agg[0].pcrb_stderr == pytest.approx(0.0, abs=1e-18)

    def test_disjoint_seed_ranges_statistically_consistent(self):
        sc = rician_scenario(seed=15, rate_target=0.3)
        means = []
        ses = []
        for seed in (100, 200):
            spec = SweepSpec(
                scenario=sc,
                variable="rate_target_bits",
                values=(float(sc.rate_target / math.log(2.0)),),
                schemes=(Scheme(SchemeKind.RANDOM_PHASE, 4),),
                trials=24,
                seed=seed,
            )
            agg = mc_average(spec)
            means.append(agg[0].pcrb_mean)
            ses.append(agg[0].pcrb_stderr)
        pooled = math.hypot(*ses)
        assert abs(means[0] - means[1]) <= 4 * pooled


class TestPowerPattern:
    def test_zero_design_zero_curve(self):
        sc = make_scenario(seed=16)
        des = HybridDesign(
            np.ones((4, 2), dtype=complex), (np.zeros((2, 2)),), RxPhases(np.ones(4))
        )
        thetas, power = power_pattern(sc, des)
        assert thetas.size == 721
        assert np.abs(power).max() == 0.0

    def test_single_antennas_flat(self, rng):
        sc = make_scenario(
            n_tx=1, n_rx=1, n_user=1, n_rf_tx=1, n_rf_rx=1,
            arch=RxArchitecture.FULLY_DIGITAL, seed=17,
        )
        des = HybridDesign(None, (np.array([[1.0]]),), RxIdentity())
        _, power = power_pattern(sc, des)
        assert power.std() / power.mean() < 1e-12

    def test_optimized_sensing_focuses_on_prior(self):
        # the 60% threshold is calibrated at the reference array scale; small
        # arrays have beams too wide for a +-3 sigma window
        import isac_beamkit as bk
        from isac_beamkit.isac_opt import ao_p0

        sc = bk.sensing_scenario(quadrature_points=1024)
        rep = ao_p0(sc)
        thetas, power = power_pattern(sc, rep.design)
        mass = pattern_mass_near_prior(thetas, power, sc.angle_prior)
        assert mass >= 0.6
