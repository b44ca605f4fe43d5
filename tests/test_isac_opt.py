import math

import numpy as np
import pytest

from isac_beamkit import bench, isac_opt
from isac_beamkit.cvxkit import (
    RateInfeasibleError,
    mimo_capacity,
    rate_constrained_trace_max_multi,
    top_generalized_eig,
)
from isac_beamkit.designs import HybridDesign, RxIdentity, RxPhases, achieved_rate, digital_factor
from isac_beamkit.isac_opt import (
    _optimal_rbb_design,
    _vec,
    ao_isac,
    fpp_sca_vrf,
    init_random_phase,
    wmmse_update,
)
from isac_beamkit.model import RxArchitecture
from isac_beamkit.pcrb import PcrbEngine
from isac_beamkit.scenarios import default_ofdm_scenario, default_scenario
from isac_beamkit.sensing_opt import coordinate_update_transmit, random_sensing_design

from conftest import make_scenario, random_phases, random_psd


def feasible_rate_scenario(seed=0, frac=0.7, **kw):
    """Small scenario whose rate target is a fixed fraction of the capacity of
    one seeded random-phase analog matrix (so random inits stay feasible)."""
    sc = make_scenario(seed=seed, **kw)
    arrays = sc.arrays
    v = random_phases(np.random.default_rng(seed + 77), (arrays.n_tx, arrays.n_rf_tx))
    h = sc.channel.per_subcarrier()[0]
    cap = mimo_capacity([h @ v], v.conj().T @ v, sc.power, sc.noise_comm)
    return sc.replace(rate_target=frac * cap)


def digital_stage(sc, a_tilde, v, rate_target):
    """The AO's exact digital stage for the analog matrix v on sc's carriers."""
    start = HybridDesign(v, (np.eye(v.shape[1], dtype=complex),) * sc.subcarriers, RxIdentity())
    return _optimal_rbb_design(sc.replace(rate_target=rate_target), start, a_tilde)[1]


class TestWmmse:
    def test_zero_precoder(self, rng):
        h = 1e-6 * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        aux = wmmse_update(h, None, np.zeros((4, 1), dtype=complex), 1e-12)
        np.testing.assert_allclose(aux.u, np.eye(1))
        assert aux.xi == pytest.approx(0.0, abs=1e-12)

    def test_scalar_channel_identity(self):
        h = np.array([[3e-6 + 1e-6j]])
        v = np.array([[0.4 - 0.2j]])
        aux = wmmse_update(h, None, v, 1e-12)
        expect = math.log(1.0 + abs(h[0, 0] * v[0, 0]) ** 2 / 1e-12)
        assert aux.xi == pytest.approx(expect, abs=1e-10)

    def test_tight_at_optimum(self, rng):
        for _ in range(10):
            h = 1e-6 * (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
            r = random_psd(rng, 6, 0.2)
            v_bb = digital_factor(r)
            aux = wmmse_update(h, None, v_bb, 1e-12)
            direct = np.linalg.slogdet(np.eye(4) + h @ r @ h.conj().T / 1e-12)[1]
            assert abs(aux.xi - direct) <= 1e-8 * max(1.0, abs(direct))


class TestOptimalRbb:
    def test_zero_target_rank_one(self, rng):
        sc = make_scenario(seed=1)
        eng = PcrbEngine(sc)
        v = random_phases(rng, (4, 2))
        w = RxPhases(random_phases(rng, 4)).matrix(sc.arrays)
        a_tilde = eng.a1(w)
        res = digital_stage(sc, a_tilde, v, 0.0)
        assert res.branch == "sensing"
        assert np.linalg.matrix_rank(res.r_single, tol=1e-10) == 1

    def test_zero_sensing_caps_power(self, rng):
        sc = make_scenario(seed=2)
        v = random_phases(rng, (4, 2))
        h = sc.channel.h
        cap = mimo_capacity([h @ v], v.conj().T @ v, sc.power, sc.noise_comm)
        # with A = 0 every feasible point is optimal: the solver returns one
        res = digital_stage(sc, np.zeros((4, 4)), v, 0.5 * cap)
        assert res.objective == 0.0
        assert res.rate >= 0.5 * cap - 1e-9
        assert achieved_rate(sc, HybridDesign(v, tuple(res.r_bb), RxIdentity())) >= 0.5 * cap - 1e-9
        assert res.power <= sc.power + 1e-8


class TestFppSca:
    def test_fixed_point_stays(self, rng):
        sc = feasible_rate_scenario(seed=3, n_tx=4, n_rf_tx=2)
        eng = PcrbEngine(sc)
        rx = RxPhases(random_phases(rng, 4))
        w = rx.matrix(sc.arrays)
        a_tilde = eng.a1(w)
        v = random_phases(rng, (4, 2))
        res = digital_stage(sc, a_tilde, v, sc.rate_target)
        aux = wmmse_update(sc.channel.h, v, digital_factor(res.r_single), sc.noise_comm)
        v1, st1 = fpp_sca_vrf(sc, a_tilde, [res.r_single], [aux], _vec(v), max_iters=6)
        # restarting from the converged point must not move the objective
        aux2 = wmmse_update(sc.channel.h, v1, digital_factor(res.r_single), sc.noise_comm)
        v2, st2 = fpp_sca_vrf(sc, a_tilde, [res.r_single], [aux2], _vec(v1), max_iters=6)
        o1 = np.real(np.vdot(_vec(v1), np.kron(res.r_single.T, a_tilde) @ _vec(v1)))
        o2 = np.real(np.vdot(_vec(v2), np.kron(res.r_single.T, a_tilde) @ _vec(v2)))
        assert o2 >= o1 - 1e-6 * abs(o1)
        assert st2.ok

    def test_objective_nondecreasing_and_rate_kept(self, rng):
        sc = feasible_rate_scenario(seed=4, n_tx=4, n_rf_tx=2)
        eng = PcrbEngine(sc)
        rx = RxPhases(random_phases(rng, 4))
        a_tilde = eng.a1(rx.matrix(sc.arrays))
        v = random_phases(rng, (4, 2))
        res = digital_stage(sc, a_tilde, v, sc.rate_target)
        aux = wmmse_update(sc.channel.h, v, digital_factor(res.r_single), sc.noise_comm)
        v_new, state = fpp_sca_vrf(sc, a_tilde, [res.r_single], [aux], _vec(v), max_iters=60)
        assert state.ok
        diffs = np.diff(state.objective_trace)
        assert np.all(diffs >= -1e-6 * max(1.0, max(map(abs, state.objective_trace))))
        # slacks collapse below 1e-7 when the run terminates successfully
        # (the zero-target test above exercises that branch); budget-capped
        # runs may stop while still moving, with modest residual slack
        if state.converged:
            assert state.slack_trace[-1] < 1e-7
        assert state.slack_trace[-1] < 1e-4
        des = HybridDesign(v_new, (res.r_single,), rx)
        assert achieved_rate(sc, des) >= sc.rate_target - 1e-6
        assert np.abs(np.abs(v_new) - 1).max() < 1e-15

    def test_vacuous_rate_matches_coordinate_oracle(self, rng):
        # single RF chain, zero rate target (constraint dropped): FPP-SCA
        # reaches the coordinate-ascent fixed point objective from the same
        # start
        sc = make_scenario(seed=5, n_tx=4, n_rf_tx=1, rate_target=0.0)
        eng = PcrbEngine(sc)
        rx = RxPhases(random_phases(rng, 4))
        a_tilde = eng.a1(rx.matrix(sc.arrays))
        r = np.array([[sc.power / 4]], dtype=complex)
        v0 = np.ones(4, dtype=complex)
        v_c = v0.copy()
        for _ in range(500):
            v_c = coordinate_update_transmit(v_c, a_tilde)
        obj_coord = np.real(v_c.conj() @ a_tilde @ v_c)
        aux = wmmse_update(sc.channel.h, v0[:, None], digital_factor(r), sc.noise_comm)
        v_new, state = fpp_sca_vrf(sc, a_tilde, [r], [aux], v0, max_iters=400)
        obj_sca = np.real(_vec(v_new).conj() @ np.kron(r.T, a_tilde) @ _vec(v_new)) / r[0, 0].real
        assert state.ok
        assert obj_sca >= obj_coord * (1 - 1e-6)

    def test_budget_capped_run_with_large_slack_is_ok(self):
        # a two-iteration run at the reference array scale stops while the
        # phases still move, with a final slack far above 5e-2; that is a
        # solved run whose projected point the AO accept test judges
        import isac_beamkit as bk

        sc = bk.default_scenario(rate_target_bits=2.0, quadrature_points=128)
        eng = PcrbEngine(sc)
        des = init_random_phase(sc, 4, seed=1, engine=eng)
        a_tilde = eng.a1(des.rx.matrix(sc.arrays))
        aux = wmmse_update(sc.channel.h, des.v_rf, digital_factor(des.r_bb[0]), sc.noise_comm)
        v_new, state = fpp_sca_vrf(sc, a_tilde, [des.r_bb[0]], [aux], _vec(des.v_rf), max_iters=2)
        assert state.slack_trace[-1] > 5e-2
        assert not state.converged
        assert state.ok
        assert v_new.shape == des.v_rf.shape
        assert np.abs(np.abs(v_new) - 1).max() < 1e-15

    def test_small_exhaustive_discrete_optimum(self, rng):
        # N_T=3, N_RF_T=1, 16-point alphabet, fixed fully-digital receiver
        sc = feasible_rate_scenario(
            seed=6, n_tx=3, n_rx=4, n_rf_tx=1, n_rf_rx=4,
            arch=RxArchitecture.FULLY_DIGITAL, frac=0.6,
        )
        eng = PcrbEngine(sc)
        a_tilde = eng.a1(np.eye(4))
        h = sc.channel.h
        r = np.array([[sc.power / 3]], dtype=complex)
        k = 16
        alphabet = np.exp(2j * np.pi * np.arange(k) / k)
        best = -np.inf
        import itertools

        for idx in itertools.product(range(k), repeat=3):
            v = alphabet[list(idx)]
            rate = np.linalg.slogdet(
                np.eye(2) + np.outer(h @ v, (h @ v).conj()) * r[0, 0].real / sc.noise_comm
            )[1]
            if rate >= sc.rate_target:
                best = max(best, np.real(v.conj() @ a_tilde @ v))
        assert best > 0
        # run the SCA from the best-of-8 random feasible starts
        best_sca = -np.inf
        for _ in range(8):
            v0 = random_phases(rng, 3)
            rate0 = np.linalg.slogdet(
                np.eye(2) + np.outer(h @ v0, (h @ v0).conj()) * r[0, 0].real / sc.noise_comm
            )[1]
            if rate0 < sc.rate_target:
                continue
            aux = wmmse_update(h, v0[:, None], digital_factor(r), sc.noise_comm)
            v_new, state = fpp_sca_vrf(sc, a_tilde, [r], [aux], v0, max_iters=25)
            if not state.ok:
                continue
            des_rate = np.linalg.slogdet(
                np.eye(2) + np.outer(h @ v_new[:, 0], (h @ v_new[:, 0]).conj()) * r[0, 0].real / sc.noise_comm
            )[1]
            if des_rate >= sc.rate_target - 1e-6:
                best_sca = max(best_sca, np.real(v_new[:, 0].conj() @ a_tilde @ v_new[:, 0]))
        assert best_sca >= best * 0.97


class TestInitRandomPhase:
    def test_zero_target_always_succeeds(self):
        sc = make_scenario(seed=7, rate_target=0.0)
        des = init_random_phase(sc, 4, seed=1)
        assert des.total_power() <= sc.power + 1e-8

    def test_deterministic(self):
        sc = feasible_rate_scenario(seed=8)
        d1 = init_random_phase(sc, 3, seed=5)
        d2 = init_random_phase(sc, 3, seed=5)
        np.testing.assert_array_equal(d1.v_rf, d2.v_rf)
        np.testing.assert_array_equal(d1.r_bb[0], d2.r_bb[0])

    def test_more_draws_never_worse(self):
        sc = feasible_rate_scenario(seed=9)
        eng = PcrbEngine(sc)
        for seed in range(3):
            few = init_random_phase(sc, 2, seed=seed, engine=eng)
            many = init_random_phase(sc, 10, seed=seed, engine=eng)
            assert eng.pcrb(many) <= eng.pcrb(few) * (1 + 1e-12)

    def test_infeasible_carries_best_rate(self):
        sc = make_scenario(seed=10, rate_target=50.0)
        with pytest.raises(RateInfeasibleError) as exc:
            init_random_phase(sc, 3, seed=0)
        assert 0 < exc.value.max_rate < 50.0


def solve_every_draw(sc, n_rand, seed, engine):
    """init_random_phase without the skip: every draw gets its digital stage."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x1A,)))
    best, best_pcrb, best_rate = None, np.inf, 0.0
    for _ in range(n_rand):
        cand = random_sensing_design(sc, rng)
        try:
            cand, res = _optimal_rbb_design(sc, cand, engine.a1(cand.rx.matrix(sc.arrays)))
        except RateInfeasibleError as exc:
            best_rate = max(best_rate, exc.max_rate)
            continue
        best_rate = max(best_rate, res.rate)
        pcrb = engine.pcrb(cand)
        if pcrb < best_pcrb:
            best, best_pcrb = cand, pcrb
    if best is None:
        raise RateInfeasibleError(sc.rate_target, best_rate)
    return best


def assert_same_design(got, ref):
    np.testing.assert_array_equal(got.v_rf, ref.v_rf)
    assert len(got.r_bb) == len(ref.r_bb)
    for r_got, r_ref in zip(got.r_bb, ref.r_bb):
        np.testing.assert_array_equal(r_got, r_ref)
    np.testing.assert_array_equal(got.rx.d, ref.rx.d)


class TestRandomPhaseSkip:
    """Draws whose sensing bound cannot beat the best feasible one are not
    solved; the chosen design must be the one solving every draw gives."""

    @pytest.mark.parametrize(
        "sc",
        [
            default_scenario(rate_target_bits=2.0, seed=5),
            default_scenario(rate_target_bits=3.5, seed=5),
            default_scenario(rate_target_bits=4.5, seed=5),
            default_ofdm_scenario(seed=11),
        ],
        ids=["nb-2.0", "nb-3.5", "nb-4.5", "ofdm-k16"],
    )
    def test_matches_solving_every_draw(self, sc):
        eng = PcrbEngine(sc)
        got = init_random_phase(sc, 48, sc.seed, eng)
        assert_same_design(got, solve_every_draw(sc, 48, sc.seed, eng))

    def test_zero_rate_scheme_matches_solving_every_draw(self):
        sc = default_scenario(rate_target_bits=0.0, seed=5)
        eng = PcrbEngine(sc)
        rep = bench.run_scheme(bench.Scheme.parse("random_phase:30"), sc, eng)
        ref = solve_every_draw(sc, 30, sc.seed, eng)
        assert_same_design(rep.design, ref)
        assert rep.final_pcrb == eng.pcrb(ref)

    def test_infeasible_target_reports_the_same_rate(self):
        sc = default_scenario(rate_target_bits=12.0, seed=5)
        eng = PcrbEngine(sc)
        with pytest.raises(RateInfeasibleError) as got:
            init_random_phase(sc, 20, sc.seed, eng)
        with pytest.raises(RateInfeasibleError) as ref:
            solve_every_draw(sc, 20, sc.seed, eng)
        assert got.value.max_rate == ref.value.max_rate

    @pytest.mark.parametrize(
        "sc",
        [default_scenario(rate_target_bits=3.5, seed=5), default_ofdm_scenario(seed=11)],
        ids=["nb-3.5", "ofdm-k16"],
    )
    def test_skipped_draws_are_not_solved(self, sc, monkeypatch):
        calls = []
        solve = isac_opt._optimal_rbb_design
        monkeypatch.setattr(
            isac_opt, "_optimal_rbb_design", lambda *a: calls.append(1) or solve(*a)
        )
        init_random_phase(sc, 48, sc.seed, PcrbEngine(sc))
        assert 1 <= len(calls) < 48

    def test_solver_objective_is_bounded_by_top_eigenvalue(self):
        # the skip's premise: dropping the rate floor, tr(A R) <= P lam_max(A, G),
        # with equality on the solver's sensing branch
        rng = np.random.default_rng(4)
        branches = set()
        for bits in (0.0, 2.0, 3.5, 4.5):
            sc = default_scenario(rate_target_bits=bits, seed=5)
            eng = PcrbEngine(sc)
            for _ in range(8):
                draw = random_sensing_design(sc, rng)
                v, a1 = draw.v_rf, eng.a1(draw.rx.matrix(sc.arrays))
                lam = top_generalized_eig(v.conj().T @ a1 @ v, v.conj().T @ v)[0]
                try:
                    res = _optimal_rbb_design(sc, draw, a1)[1]
                except RateInfeasibleError:
                    continue
                branches.add(res.branch)
                if res.branch == "sensing":
                    assert res.objective == pytest.approx(sc.power * lam, rel=1e-12)
                else:
                    assert res.objective <= sc.power * lam * (1 + 1e-12)
        assert branches == {"sensing", "dual"}


class TestAoP1:
    def test_zero_rate_target_delegates_to_sensing(self):
        # without a rate floor the default budget is 200 outer iterations;
        # at tol=1e-14 this scenario runs 28, more than the rate-floor 15
        sc = make_scenario(seed=11, rate_target=0.0)
        eng = PcrbEngine(sc)
        for tol in (1e-8, 1e-14):
            rep = ao_isac(sc, eng, tol=tol)
            ref = ao_isac(sc, eng, tol=tol, max_outer=200)
            assert rep.trace == ref.trace
            assert np.array_equal(rep.design.v_rf, ref.design.v_rf)
        assert len(rep.trace) - 1 > 15

    def test_zero_rate_target_forwards_sensing_options(self):
        # max_outer, tol and restarts act on the sensing loop, which runs 14
        # outer iterations on this scenario by default; n_init and sca_iters
        # tune the rate floor only
        for k in (1, 2):
            sc = make_scenario(seed=1, subcarriers=k)
            eng = PcrbEngine(sc)
            rep = ao_isac(sc, eng, max_outer=1)
            assert len(rep.trace) <= 2
            ref = ao_isac(sc, eng, max_outer=1, tol=1e-6, restarts=2)
            rep = ao_isac(sc, eng, max_outer=1, tol=1e-6, restarts=2, n_init=3, sca_iters=2)
            assert rep.trace == ref.trace
            assert rep.final_pcrb == ref.final_pcrb

    def test_zero_rate_target_honours_start_options(self):
        sc = make_scenario(seed=4)
        arrays = sc.arrays
        v = random_phases(np.random.default_rng(4), (arrays.n_tx, arrays.n_rf_tx))
        r0 = np.eye(arrays.n_rf_tx, dtype=complex) * sc.power / (arrays.n_tx * arrays.n_rf_tx)
        d = HybridDesign(v, (r0,), RxPhases(np.ones(arrays.n_rx, dtype=complex)))
        rep = ao_isac(sc, PcrbEngine(sc), init_design=d, fixed_v=True)
        assert np.array_equal(rep.design.v_rf, d.v_rf)
        assert rep.final_pcrb < PcrbEngine(sc).pcrb(d)

    def test_rate_floor_default_allows_15_outer_iterations(self):
        # under a rate floor, at K = 1 and K = 2 alike, the default budget is
        # 15 outer iterations of 5 SCA iterations each; these runs hit the cap
        for sc in (
            feasible_rate_scenario(seed=2, n_tx=4, n_rx=4, n_rf_tx=2, n_rf_rx=2),
            feasible_rate_scenario(seed=2, n_tx=4, n_rx=4, n_rf_tx=2, n_rf_rx=2, subcarriers=2),
        ):
            eng = PcrbEngine(sc)
            rep = ao_isac(sc, eng, n_init=4)
            ref = ao_isac(sc, eng, n_init=4, max_outer=15, sca_iters=5)
            assert rep.trace == ref.trace
            assert np.array_equal(rep.design.v_rf, ref.design.v_rf)
            assert len(rep.trace) - 1 == 15

    def test_restarts_refused_with_init_design(self):
        # restarts replace the start, so a given start cannot also be kept
        sc = make_scenario(seed=4)
        d = ao_isac(sc, max_outer=1).design
        with pytest.raises(ValueError, match="restarts"):
            ao_isac(sc, init_design=d, fixed_v=True, restarts=1)
        # without a given start each restart keeps its own analog matrix;
        # the all-ones start has a rank-1 Gram matrix with two chains
        sc = make_scenario(seed=4)
        rep = ao_isac(sc, fixed_v=True, restarts=2)
        rng = np.random.default_rng(np.random.SeedSequence(sc.seed, spawn_key=(0xA0,)))
        starts = [np.ones((4, 2), dtype=complex)] + [
            random_sensing_design(sc, rng).v_rf for _ in range(2)
        ]
        assert any(np.array_equal(rep.design.v_rf, v) for v in starts)

    def test_restarts_refused_under_rate_floor(self, monkeypatch):
        # random-phase restarts are rate-free starts; under a rate floor they
        # are refused before any digital solve, from the library and a scheme
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before refusing restarts")

        monkeypatch.setattr(isac_opt, "_optimal_rbb_design", no_solve)
        sc = default_scenario()
        assert sc.rate_target > 0
        with pytest.raises(ValueError, match="restarts"):
            ao_isac(sc, restarts=1)
        with pytest.raises(ValueError, match="restarts"):
            bench.run_scheme(bench.Scheme.parse("proposed"), sc, ao_options={"restarts": 1})

    def test_identities_match_convex_optimum(self):
        sc = feasible_rate_scenario(
            seed=12, n_tx=4, n_rx=4, n_rf_tx=4, n_rf_rx=4,
            arch=RxArchitecture.FULLY_DIGITAL,
        )
        eng = PcrbEngine(sc)
        init = HybridDesign(
            None, (np.eye(4, dtype=complex) * sc.power / 4,), RxIdentity()
        )
        rep = ao_isac(sc, eng, init_design=init)

        a_fd = eng.a1(np.eye(4))
        res = rate_constrained_trace_max_multi(
            a_fd, np.eye(4), [sc.channel.h], sc.power, sc.rate_target, sc.noise_comm
        )
        best = eng.pcrb_from_trace(1.0, res.objective)
        assert rep.final_pcrb == pytest.approx(best, rel=1e-6)

    def test_feasibility_and_monotonicity(self):
        for seed in range(3):
            sc = feasible_rate_scenario(seed=seed, n_tx=4, n_rx=4, n_rf_tx=2, n_rf_rx=2)
            rep = ao_isac(sc, n_init=6, max_outer=6)
            t = rep.trace
            assert all(t[i + 1] <= t[i] * (1 + 1e-10) for i in range(len(t) - 1))
            assert rep.feasible
            assert rep.final_rate >= sc.rate_target - 1e-6
            assert rep.power_used <= sc.power + 1e-8
            assert np.abs(np.abs(rep.design.v_rf) - 1).max() < 1e-12

    def test_scale_invariance_of_rate_and_pcrb(self):
        # scaling H and the comm noise std by the same factor changes nothing
        sc = feasible_rate_scenario(seed=13, n_tx=4, n_rf_tx=2)
        rep1 = ao_isac(sc, n_init=4, max_outer=4)
        from isac_beamkit.model import NarrowbandChannel

        c = 3.7
        sc2 = sc.replace(
            channel=NarrowbandChannel(sc.channel.h * c),
            noise_comm=sc.noise_comm * c * c,
        )
        rep2 = ao_isac(sc2, n_init=4, max_outer=4)
        assert rep2.final_rate == pytest.approx(rep1.final_rate, rel=1e-8, abs=1e-8)
        assert rep2.final_pcrb == pytest.approx(rep1.final_pcrb, rel=1e-8)

    def test_failed_analog_block_is_not_convergence(self, monkeypatch):
        import isac_beamkit.isac_opt as isac_opt

        def failing_sca(scenario, a_tilde, r_bb_list, aux_list, v_init, max_iters=30):
            v = isac_opt._unvec(v_init, scenario.arrays.n_tx, scenario.arrays.n_rf_tx)
            return v, isac_opt.FppScaState(v=v_init, ok=False)

        monkeypatch.setattr(isac_opt, "fpp_sca_vrf", failing_sca)
        sc = feasible_rate_scenario(seed=2, n_tx=4, n_rx=4, n_rf_tx=2, n_rf_rx=2)
        start = init_random_phase(sc, 3, sc.seed)
        rep = ao_isac(sc, n_init=3, max_outer=5)
        assert np.array_equal(rep.design.v_rf, start.v_rf)
        assert not rep.converged

    def test_infeasible_init_design_gets_digital_stage_first(self):
        # equal-power start below a rate its analog matrix supports: the
        # exact digital stage must be committed even though it raises the
        # PCRB of the (infeasible) start
        sc = make_scenario(seed=1, n_tx=4, n_rx=4, n_rf_tx=2, n_rf_rx=2, quadrature_points=256)
        v = random_phases(np.random.default_rng(78), (4, 2))
        h = sc.channel.h
        sc = sc.replace(rate_target=0.98 * mimo_capacity([h @ v], v.conj().T @ v, sc.power, sc.noise_comm))
        init = HybridDesign(v, (np.eye(2, dtype=complex) * sc.power / 8,), RxPhases(np.ones(4, dtype=complex)))
        assert achieved_rate(sc, init) < sc.rate_target
        rep = ao_isac(sc, init_design=init, fixed_v=True, max_outer=4)
        assert rep.feasible
        assert rep.final_rate >= sc.rate_target - 1e-6
        np.testing.assert_array_equal(rep.design.v_rf, v)
        t = rep.trace
        assert all(t[i + 1] <= t[i] * (1 + 1e-10) for i in range(len(t) - 1))

    def test_channel_phase_start_when_no_random_draw_meets_rate(self):
        sc = make_scenario(seed=0, n_tx=4, n_rx=4, n_rf_tx=2, n_rf_rx=2, quadrature_points=256)
        full = mimo_capacity([sc.channel.h], np.eye(4), sc.power, sc.noise_comm)
        sc = sc.replace(rate_target=0.9 * full)
        with pytest.raises(RateInfeasibleError):
            init_random_phase(sc, 2, sc.seed)
        rep = ao_isac(sc, n_init=2, max_outer=2)
        assert rep.feasible
        assert rep.final_rate >= sc.rate_target - 1e-6
        assert np.abs(np.abs(rep.design.v_rf) - 1).max() < 1e-12

    def test_rate_sweep_tradeoff(self):
        sc0 = make_scenario(seed=14, n_tx=4, n_rx=4, n_rf_tx=2, n_rf_rx=2)
        v = random_phases(np.random.default_rng(14), (4, 2))
        h = sc0.channel.h
        cap = mimo_capacity([h @ v], v.conj().T @ v, sc0.power, sc0.noise_comm)
        pcrbs = []
        for frac in (0.3, 0.9, 0.98):
            sc = sc0.replace(rate_target=frac * cap)
            pcrbs.append(ao_isac(sc, n_init=16, max_outer=8).final_pcrb)
        # weakly increasing up to the local-optimizer jitter; the high target
        # must cost the sensing objective visibly
        assert pcrbs[0] <= pcrbs[1] * (1 + 2e-3)
        assert pcrbs[1] <= pcrbs[2] * (1 + 2e-3)
        assert pcrbs[2] > pcrbs[0]
