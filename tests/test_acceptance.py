"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The trend criteria (9a-9d) work at the reference array scale and are
the slow part of the suite; criteria 4 and 6 take tens of seconds, and these
three carry the `slow` marker. Everything else is desk scale.
"""

import itertools
import math
import time

import numpy as np
import pytest

import isac_beamkit as bk
from isac_beamkit.bench import (
    Scheme,
    SchemeKind,
    SweepSpec,
    mc_average,
    pattern_mass_near_prior,
    power_pattern,
    run_scheme,
    sweep,
)
from isac_beamkit.cvxkit import mimo_capacity, rate_constrained_trace_max_multi
from isac_beamkit.designs import HybridDesign, RxPhases, dft_matrix
from isac_beamkit.isac_opt import ao_isac, ao_p0, ao_p1, ao_p2, wmmse_update
from isac_beamkit.model import GmmAnglePrior, RxArchitecture, steering_block
from isac_beamkit.pcrb import PcrbEngine, assemble_pfim, fim_oracle
from isac_beamkit.sensing_opt import dft_select_fc

from conftest import make_scenario, random_phases, random_psd
from test_cvxkit import dual_grid_oracle

LN2 = math.log(2.0)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


class TestCriterion1:
    def test_oracle_equivalence(self, rng):
        t0 = time.perf_counter()
        checked = 0
        for seed in range(3):
            sc = make_scenario(
                n_tx=4, n_rx=4, n_user=2, n_rf_tx=2, n_rf_rx=2, seed=seed, symbols=16
            )
            v = random_phases(rng, (4, 2))
            r = random_psd(rng, 2, 1.0 / 40)
            des = HybridDesign(v, (r,), RxPhases(random_phases(rng, 4)))
            pf = assemble_pfim(sc, des)
            orc = fim_oracle(sc, des, mc_samples=100_000, fd_step=1e-6, seed=seed + 40)
            assert abs(pf.j_theta_theta - orc.j_theta_theta) <= 3 * orc.se_theta_theta
            assert (
                abs(pf.j_alpha_alpha[0, 0] - orc.j_alpha_alpha)
                <= 3 * orc.se_alpha_alpha
            )
            assert np.all(np.abs(orc.j_theta_alpha) <= 4 * orc.se_theta_alpha)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0
        report(1, f"analytic FIM matches the MC oracle on {checked} instances "
                  f"within 3 SE, cross block consistent with 0 ({elapsed:.1f}s)")


class TestCriterion2:
    def test_rank1_splitting_reaches_convex_optimum(self, rng):
        t0 = time.perf_counter()
        for seed in range(50):
            local = np.random.default_rng(seed)
            n_comp = int(local.integers(1, 4))
            w = local.random(n_comp) + 0.1
            comps = [
                (wi / w.sum(), float(local.uniform(-1.2, 1.2)), float(local.uniform(5e-4, 1e-2)))
                for wi in w
            ]
            prior = GmmAnglePrior.from_components(comps)
            sc = make_scenario(
                n_tx=6, n_rx=4, n_user=2, n_rf_tx=2, n_rf_rx=4,
                arch=RxArchitecture.FULLY_DIGITAL, prior=prior, seed=seed,
                quadrature_points=512,
            )
            eng = PcrbEngine(sc)
            rep = ao_p0(sc, eng)
            lam = np.linalg.eigvalsh(eng.a1(np.eye(4)))[-1]
            best = 1.0 / (eng.f_p_theta + eng.info_coefficient(1.0) * sc.power * lam)
            assert abs(rep.final_pcrb - best) <= 1e-9 * best
        elapsed = time.perf_counter() - t0
        assert elapsed <= 30.0
        report(2, f"hybrid rank-1 splitting equals the fully-digital optimum "
                  f"on 50 seeded priors within 1e-9 ({elapsed:.1f}s)")


class TestCriterion3:
    def test_closed_form_phases_never_beaten_by_grid(self, rng):
        t0 = time.perf_counter()
        grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
        for case in range(1000):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = 0.5 * (x + x.conj().T)
            z = random_phases(rng, n)
            k = int(rng.integers(0, n))
            c = z @ m[:, k].conj() - z[k] * m[k, k].conj()
            z_opt = z.copy()
            z_opt[k] = 1.0 if c == 0 else c / abs(c)
            val = np.real(z_opt.conj() @ m @ z_opt)
            # grid over coordinate k, vectorized
            rest = np.delete(np.arange(n), k)
            cross = (z[rest].conj() @ m[rest][:, k])
            base = np.real(
                z[rest].conj() @ m[np.ix_(rest, rest)] @ z[rest]
            ) + m[k, k].real
            vals = base + 2 * np.real(grid * cross)
            assert val >= vals.max() - 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0
        report(3, f"1000 random single-coordinate updates all dominate the "
                  f"3600-point phase grid ({elapsed:.1f}s)")


@pytest.mark.slow
class TestCriterion4:
    def test_ao_traces_weakly_decreasing(self):
        t0 = time.perf_counter()

        def monotone(trace):
            return all(trace[i + 1] <= trace[i] * (1 + 1e-10) for i in range(len(trace) - 1))

        for seed in range(100):
            sc = make_scenario(
                n_tx=3, n_rx=4, n_rf_tx=1, n_rf_rx=2, seed=seed, quadrature_points=256
            )
            assert monotone(ao_p0(sc).trace)
        from test_isac_opt import feasible_rate_scenario

        for seed in range(100):
            sc = feasible_rate_scenario(
                seed=seed, n_tx=3, n_rx=2, n_user=2, n_rf_tx=2, n_rf_rx=2,
                frac=0.6, quadrature_points=256,
            )
            rep = ao_p1(sc, n_init=3, max_outer=3, wmmse_rounds=1, sca_iters=3)
            assert monotone(rep.trace)
        from test_ofdm_opt import ofdm_feasible_scenario

        for seed in range(100):
            sc = ofdm_feasible_scenario(
                seed=seed, k=2, n_tx=3, n_rx=2, n_user=2, n_rf_tx=2, n_rf_rx=2,
                frac=0.55, quadrature_points=256,
            )
            rep = ao_p2(sc, n_init=3, max_outer=3, wmmse_rounds=1, sca_iters=3)
            assert monotone(rep.trace)
        report(4, f"300 AO traces (sensing / narrowband / OFDM) weakly "
                  f"decreasing within 1e-10 ({time.perf_counter()-t0:.0f}s)")


class TestCriterion5:
    def test_wmmse_surrogate_tight(self, rng):
        for _ in range(1000):
            n_u = int(rng.integers(1, 5))
            n_s = int(rng.integers(1, 4))
            h = 1e-6 * (rng.standard_normal((n_u, 6)) + 1j * rng.standard_normal((n_u, 6)))
            v_bb = 0.3 * (rng.standard_normal((6, n_s)) + 1j * rng.standard_normal((6, n_s)))
            aux = wmmse_update(h, None, v_bb, 1e-12)
            direct = np.linalg.slogdet(
                np.eye(n_u) + h @ v_bb @ v_bb.conj().T @ h.conj().T / 1e-12
            )[1]
            assert abs(aux.xi - direct) <= 1e-8 * max(1.0, abs(direct))
        report(5, "WMMSE surrogate equals the log-det rate on 1000 instances within 1e-8")


@pytest.mark.slow
class TestCriterion6:
    def test_digital_solver_matches_dual_grid(self, rng):
        t0 = time.perf_counter()
        for case in range(100):
            n = int(rng.integers(2, 5))
            n_u = int(rng.integers(1, 4))
            a = random_psd(rng, n)
            g = np.eye(n) * n + 0.2 * random_psd(rng, n)
            h = 1e-6 * (rng.standard_normal((n_u, n)) + 1j * rng.standard_normal((n_u, n)))
            cap = mimo_capacity([h], g, 1.0, 1e-12)
            target = float(rng.uniform(0.5, 0.97)) * cap
            res = rate_constrained_trace_max_multi(a, g, [h], 1.0, target, 1e-12)
            assert abs((res.rate - target) * res.beta) <= 1e-6
            assert abs((1.0 - res.power) * res.mu) <= 1e-6
            if res.branch == "sensing":
                continue
            oracle = dual_grid_oracle(a, g, [h], 1.0, target, 1e-12, rounds=6, n=200)
            assert abs(res.objective - oracle) <= 1e-5 * max(abs(oracle), 1e-12)
        report(6, f"digital beamformer matches the 200x200 dual-grid oracle on "
                  f"100 instances within 1e-5; slackness residuals <= 1e-6 "
                  f"({time.perf_counter()-t0:.0f}s)")


class TestCriterion7:
    def test_dft_selection_exhaustive(self, rng):
        checked = 0
        for n_rx in range(2, 9):
            f = dft_matrix(n_rx)
            for _ in range(100 // 7 + 1):
                b = random_psd(rng, n_rx)
                diag = np.real(np.einsum("ji,jk,ki->i", f.conj(), b, f))
                for n_rf in range(1, n_rx + 1):
                    q = dft_select_fc(b, n_rf)
                    best = max(
                        sum(diag[list(idx)])
                        for idx in itertools.combinations(range(n_rx), n_rf)
                    )
                    assert sum(diag[q]) >= best - 1e-9 * max(best, 1.0)
                    checked += 1
        report(7, f"DFT-row selection matches exhaustive subsets ({checked} cases)")


class TestCriterion8:
    def test_sensing_small_instance(self):
        sc = make_scenario(
            n_tx=2, n_rx=4, n_rf_tx=1, n_rf_rx=2, seed=11, quadrature_points=512
        )
        eng = PcrbEngine(sc)
        rep = ao_p0(sc, eng, restarts=4)
        k = 12
        alphabet = np.exp(2j * np.pi * np.arange(k) / k)
        # node sums over the engine's grid
        a, da = steering_block(sc.arrays.n_tx, eng.grid.nodes)
        b, db = steering_block(sc.arrays.n_rx, eng.grid.nodes)
        wp = eng.grid.weights * sc.angle_prior.pdf(eng.grid.nodes)
        vs = alphabet[np.array(list(itertools.product(range(k), repeat=2)))]
        av = np.einsum("vi,ni->vn", vs, a.conj())
        dav = np.einsum("vi,ni->vn", vs, da.conj())
        x_all = av[:, :, None] * db[None, :, :] + dav[:, :, None] * b[None, :, :]
        b_all = np.einsum("n,vnr,vns->vrs", wp, x_all, x_all.conj()) * (sc.power / 2)
        ds = alphabet[np.array(list(itertools.product(range(k), repeat=4)))]
        obj = np.zeros((vs.shape[0], ds.shape[0]))
        for blk in range(2):
            s = slice(2 * blk, 2 * blk + 2)
            obj += np.real(
                np.einsum("dk,vkl,dl->vd", ds[:, s], b_all[:, s, s], ds[:, s].conj())
            )
        best_pcrb = eng.pcrb_from_trace(2.0, obj.max())
        assert rep.final_pcrb <= best_pcrb * 1.03
        report("8a", f"sensing AO within {100*(rep.final_pcrb/best_pcrb-1):.2f}% of the "
                     f"12-point exhaustive optimum (threshold 3%)")

    def test_isac_small_instance(self):
        from test_isac_opt import feasible_rate_scenario

        sc = feasible_rate_scenario(
            seed=6, n_tx=3, n_rx=4, n_rf_tx=1, n_rf_rx=4,
            arch=RxArchitecture.FULLY_DIGITAL, frac=0.6, quadrature_points=512,
        )
        eng = PcrbEngine(sc)
        a_tilde = eng.a1(np.eye(4))
        h = sc.channel.h
        r_scalar = sc.power / 3
        k = 16
        alphabet = np.exp(2j * np.pi * np.arange(k) / k)
        best = -np.inf
        for idx in itertools.product(range(k), repeat=3):
            v = alphabet[list(idx)]
            hv = h @ v
            rate = math.log1p(r_scalar * float(np.real(hv.conj() @ hv)) / sc.noise_comm)
            if rate >= sc.rate_target:
                best = max(best, float(np.real(v.conj() @ a_tilde @ v)))
        rep = ao_isac(sc, eng, n_init=8, max_outer=6, wmmse_rounds=2, sca_iters=8)
        achieved = float(
            np.real(np.trace(a_tilde @ rep.design.tx_covariances()[0]))
        ) / r_scalar
        assert rep.feasible
        assert achieved >= best * 0.97
        report("8b", f"ISAC AO within {100*(1-achieved/best):.2f}% of the 16-point "
                     f"rate-feasible exhaustive optimum (threshold 3%)")


AO_LIGHT = (("n_init", 48), ("max_outer", 4), ("wmmse_rounds", 2), ("sca_iters", 4))
N_TRIALS = 20


def reference_sweep_spec(**kw):
    sc = bk.default_scenario(quadrature_points=1024)
    defaults = dict(scenario=sc, trials=N_TRIALS, seed=777, ao_options=AO_LIGHT)
    defaults.update(kw)
    return SweepSpec(**defaults)


def paired_rows(rows, keys):
    """Group sweep rows by trial; keep trials feasible for every key.

    keys selects the pairing dimension: ('value', v) or ('scheme', s) tuples.
    Returns {key: [row per kept trial in trial order]}.
    """
    by_trial = {}
    for r in rows:
        by_trial.setdefault(r.trial, {})[(r.value, r.scheme)] = r
    kept = {k: [] for k in keys}
    n_pairs = 0
    for trial in sorted(by_trial):
        cells = by_trial[trial]
        if all(k in cells and cells[k].feasible for k in keys):
            n_pairs += 1
            for k in keys:
                kept[k].append(cells[k])
    return kept, n_pairs


@pytest.mark.slow
class TestCriterion9:
    def test_trend_suite(self):
        t0 = time.perf_counter()

        # (d) fully-digital receive + 2 transmit chains == fully-digital optimum
        sc_sense = bk.sensing_scenario(n_rf_tx=2, quadrature_points=1024)
        fd = run_scheme(Scheme(SchemeKind.FULLY_DIGITAL), sc_sense)
        fdr = run_scheme(Scheme(SchemeKind.FD_RECEIVE), sc_sense)
        assert abs(fdr.final_pcrb - fd.final_pcrb) <= 1e-6 * fd.final_pcrb
        report("9d", f"fd_receive(n_rf_tx=2) equals fully_digital on sensing "
                     f"(rel diff {abs(fdr.final_pcrb/fd.final_pcrb-1):.1e})")

        # (b1) sensing-only RF budget: smallest feasible transmit count wins
        budget = 8
        sense_pcrb = {}
        for n_tx_rf in (2, 4, 5, 6, 7):
            sc = bk.sensing_scenario(
                n_rf_tx=n_tx_rf, n_rf_rx=budget - n_tx_rf, quadrature_points=1024
            )
            sense_pcrb[n_tx_rf] = ao_p0(sc).final_pcrb
        best_alloc = min(sense_pcrb, key=sense_pcrb.get)
        assert best_alloc == 2
        report("9b-sensing", f"sensing-only optimum at n_rf_tx=2 "
                             f"(pcrbs {[f'{sense_pcrb[k]:.3e}' for k in (2,4,5,6,7)]})")

        # (a) PCRB versus rate target: paired over channel draws feasible at
        # every target (weak draws cannot support the top target at all)
        values_a = (2.0, 3.5, 4.5)
        spec_a = reference_sweep_spec(
            variable="rate_target_bits",
            values=values_a,
            schemes=(Scheme(SchemeKind.PROPOSED),),
        )
        rows_a = sweep(spec_a)
        keys = [(v, "proposed") for v in values_a]
        kept, n_pairs = paired_rows(rows_a, keys)
        assert n_pairs >= 12, f"only {n_pairs} channel draws support 4.5 bps"
        means_a = [float(np.mean([r.pcrb_theta for r in kept[k]])) for k in keys]
        assert means_a[0] <= means_a[1] * (1 + 1e-3)
        assert means_a[1] <= means_a[2] * (1 + 1e-3)
        report("9a", f"mean PCRB increases with the rate target over {n_pairs} "
                     f"paired channels: {['%.3e' % m for m in means_a]}")

        # (b2) best transmit allocation is non-decreasing in the rate target
        best_by_rate = []
        for rate_bits in (2.5, 4.0, 5.0):
            spec_b = reference_sweep_spec(
                variable="n_rf_tx",
                values=(2.0, 4.0, 5.0, 6.0, 7.0),
                schemes=(Scheme(SchemeKind.PROPOSED),),
                rf_budget=budget,
                scenario=bk.default_scenario(
                    rate_target_bits=rate_bits, quadrature_points=1024
                ),
            )
            agg_b = mc_average(spec_b)
            usable = [r for r in agg_b if r.n_feasible >= r.n_trials / 2]
            assert usable, f"no feasible allocation at {rate_bits} bits"
            best = min(usable, key=lambda r: r.pcrb_mean)
            best_by_rate.append(int(best.value))
        assert best_by_rate == sorted(best_by_rate)
        assert best_by_rate[0] == 2
        assert best_by_rate[-1] > 2
        report("9b-isac", f"best n_rf_tx per rate target {list((2.5, 4.0, 5.0))} "
                          f"= {best_by_rate} (non-decreasing)")

        # (c) proposed dominates the heuristic benchmarks in mean PCRB,
        # paired over channel draws feasible for every scheme
        schemes_c = (
            Scheme(SchemeKind.PROPOSED),
            Scheme(SchemeKind.RANDOM_PHASE, 100),
            Scheme(SchemeKind.DIRECTION_ALIGN),
            Scheme(SchemeKind.PARTIAL_PRIOR),
        )
        spec_c = reference_sweep_spec(
            variable="rate_target_bits",
            values=(4.5,),
            schemes=schemes_c,
        )
        rows_c = sweep(spec_c)
        keys_c = [(4.5, s.label()) for s in schemes_c]
        kept_c, n_pairs_c = paired_rows(rows_c, keys_c)
        assert n_pairs_c >= 12, f"only {n_pairs_c} commonly-feasible channels"
        means_c = {
            k[1]: float(np.mean([r.pcrb_theta for r in kept_c[k]])) for k in keys_c
        }
        prop = means_c["proposed"]
        for name in ("random_phase:100", "direction_align", "partial_prior"):
            assert prop <= means_c[name] * (1 + 1e-9), name
        report("9c", "proposed mean PCRB {:.3e} <= random {:.3e}, align {:.3e}, "
                     "partial-prior {:.3e} over {} paired channels".format(
                         prop,
                         means_c["random_phase:100"],
                         means_c["direction_align"],
                         means_c["partial_prior"],
                         n_pairs_c,
                     ))

        elapsed = time.perf_counter() - t0
        assert elapsed <= 1800.0
        print(f"\nACCEPTANCE 9: trend suite completed in {elapsed/60:.1f} min "
              f"(budget 30 min)")


class TestCriterion10:
    def test_power_focusing(self):
        sc = bk.sensing_scenario(quadrature_points=1024)
        rep = ao_p0(sc)
        thetas, power = power_pattern(sc, rep.design)
        mass = pattern_mass_near_prior(thetas, power, sc.angle_prior)
        # 0.6 is an artifact-defined operationalization of the focusing
        # effect, not a published number
        assert mass >= 0.6
        report(10, f"{100*mass:.1f}% of the optimized pattern mass lies within "
                   f"+-3 sigma of the prior means (threshold 60%)")


class TestCriterion11:
    def test_byte_identical_artifacts(self, tmp_path):
        import json as _json
        from isac_beamkit.cli import RunConfig, execute

        doc = {
            "arrays": {"n_tx": 4, "n_rx": 4, "n_user": 2, "n_rf_tx": 2, "n_rf_rx": 2,
                       "rx_architecture": "partially_connected"},
            "angle_prior": [
                {"weight": 0.6, "mean": -0.5, "variance": 3e-3},
                {"weight": 0.4, "mean": 0.7, "variance": 1e-3},
            ],
            "reflection_gamma": 2e-12,
            "channel": {"type": "rician", "theta_user": 0.3, "distance_m": 120.0,
                        "rician_factor_db": -7.0, "reference_gain_db": -30.0,
                        "path_exponent": 3.0},
            "power_dbm": 30.0,
            "noise_comm_dbm": -90.0,
            "noise_sense_dbm": -90.0,
            "symbols": 16,
            "rate_target_bits": 0.0,
            "subcarriers": 1,
            "quadrature_points": 512,
            "seed": 3,
        }
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(_json.dumps(doc))
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            cfg = RunConfig(
                "sweep", str(sc_path), str(out),
                sweep_var="power_dbm", values=(0.0, 10.0),
                schemes=("random_phase:3", "proposed"), seed=11, trials=2,
            )
            assert execute(cfg) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        report(11, f"repeated sweep runs produce byte-identical CSV artifacts "
                   f"({len(blobs[0])} bytes)")
