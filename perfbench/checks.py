"""Per-cell correctness checks that share no formula with the package.

Everything here is computed from the scenario's inputs (arrays, prior
parameters, channels, budgets) and the returned design alone:

  * the steering vectors, the receive combiner W and the prior density are
    rebuilt from their definitions;
  * the Fisher information is integrated on a uniform midpoint grid (the
    package uses a prior-adapted Gauss-Legendre grid), straight from
    U(theta) = W^H dM/dtheta with M = b a^H;
  * the rate is log det(I + H T H^H / sigma^2) per carrier, from eigenvalues.

``check_cell`` returns the names of the checks a report fails; an empty
list means the cell is correct.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

GRID_NODES = 8192
CHUNK = 1024

MODULUS_TOL = 1e-9
POWER_RTOL = 1e-8
PSD_RTOL = 1e-9
RATE_TOL = 1e-6          # nats, the optimisers' own feasibility tolerance
RATE_RTOL = 1e-8         # reported rate against the recomputed one
PCRB_RTOL = 1e-9         # both grids integrate to near machine precision
BOUND_RTOL = 1e-9
TRACE_RTOL = 1e-10


def _steering(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ULA rows exp(j pi m sin(theta)), m = -(n-1)/2 .. (n-1)/2, and d/dtheta."""
    m = np.arange(n) - (n - 1) / 2.0
    s = np.exp(1j * np.pi * np.sin(theta)[:, None] * m)
    return s, (1j * np.pi * m) * np.cos(theta)[:, None] * s


def receive_matrix(rx, arrays) -> np.ndarray:
    """W from the descriptor's data: phase blocks, DFT columns, or I.

    Partially connected: chain i combines antenna block i with the
    conjugated phases of that block.
    """
    n_rx = arrays.n_rx
    if hasattr(rx, "d"):
        d = np.asarray(rx.d)
        n_rf = arrays.n_rf_rx
        m = n_rx // n_rf
        w = np.zeros((n_rx, n_rf), dtype=complex)
        for i in range(n_rf):
            w[i * m : (i + 1) * m, i] = d[i * m : (i + 1) * m].conj()
        return w
    if hasattr(rx, "q"):
        rows = np.arange(n_rx)[:, None]
        return np.exp(-2j * np.pi * rows * np.asarray(rx.q)[None, :] / n_rx)
    return np.eye(n_rx, dtype=complex)


class Reference:
    """Prior information and integration nodes of one scenario's arrays and prior."""

    def __init__(self, scenario, n_nodes: int = GRID_NODES):
        self.scenario = scenario
        h = math.pi / n_nodes
        theta = -math.pi / 2 + (np.arange(n_nodes) + 0.5) * h
        prior = scenario.angle_prior
        w, mu, var = (
            np.asarray(x, dtype=float) for x in (prior.weights, prior.means, prior.variances)
        )
        z = theta[:, None] - mu
        comp = w * np.exp(-0.5 * z * z / var) / np.sqrt(2.0 * np.pi * var)
        p = comp.sum(axis=1)
        dp = (comp * (-z / var)).sum(axis=1)
        keep = p > 0.0
        # E[(d log p / d theta)^2] = integral of p'^2 / p
        self.prior_info = float(h * np.sum(dp[keep] ** 2 / p[keep]))
        self.theta = theta[keep]
        self.mass = h * p[keep]
        self._fd_lambda = None

    def _chunks(self, arrays):
        for lo in range(0, self.theta.size, CHUNK):
            th = self.theta[lo : lo + CHUNK]
            a, da = _steering(arrays.n_tx, th)
            b, db = _steering(arrays.n_rx, th)
            yield self.mass[lo : lo + CHUNK], a, da, b, db

    def angle_information(self, arrays, w: np.ndarray, t: np.ndarray) -> float:
        """Integral of p(theta) tr(U T U^H) with U = W^H (db a^H + b da^H)."""
        total = 0.0
        for mass, a, da, b, db in self._chunks(arrays):
            x = db @ w.conj()          # rows W^H db
            y = b @ w.conj()           # rows W^H b
            at = a.conj() @ t          # rows a^H T
            a_t_a = (at * a).sum(axis=1)
            a_t_d = (at * da).sum(axis=1)
            d_t_d = ((da.conj() @ t) * da).sum(axis=1)
            xx = (np.abs(x) ** 2).sum(axis=1)
            yy = (np.abs(y) ** 2).sum(axis=1)
            yx = (y.conj() * x).sum(axis=1)
            f = a_t_a * xx + 2.0 * (a_t_d * yx) + d_t_d * yy
            total += float(mass @ f.real)
        return total

    def fd_lambda(self) -> float:
        """Top eigenvalue of the integral of p dM^H dM (receiver W = I)."""
        if self._fd_lambda is None:
            arrays = self.scenario.arrays
            acc = np.zeros((arrays.n_tx, arrays.n_tx), dtype=complex)
            for mass, a, da, b, db in self._chunks(arrays):
                # dM^H dM = |db|^2 a a^H + (db^H b) a da^H + (b^H db) da a^H + |b|^2 da da^H
                s_dd = (np.abs(db) ** 2).sum(axis=1)
                s_db = (db.conj() * b).sum(axis=1)
                s_bb = (np.abs(b) ** 2).sum(axis=1)
                acc += (a.T * (mass * s_dd)) @ a.conj()
                acc += (a.T * (mass * s_db)) @ da.conj()
                acc += (da.T * (mass * s_db.conj())) @ a.conj()
                acc += (da.T * (mass * s_bb)) @ da.conj()
            self._fd_lambda = float(np.linalg.eigvalsh(0.5 * (acc + acc.conj().T))[-1])
        return self._fd_lambda

    def coefficient(self, kappa: float) -> float:
        sc = self.scenario
        return 2.0 * sc.symbols * sc.reflection.gamma / (kappa * sc.noise_sense)

    def pcrb_bounds(self) -> tuple[float, float]:
        """(fully-digital sensing optimum, prior-only bound 1/E[score^2])."""
        best_info = self.coefficient(1.0) * self.scenario.power * self.fd_lambda()
        return 1.0 / (self.prior_info + best_info), 1.0 / self.prior_info


def _transmit_covariances(design) -> list[np.ndarray]:
    v = design.v_rf
    return [np.asarray(r) if v is None else v @ np.asarray(r) @ v.conj().T for r in design.r_bb]


def check_cell(ref: Reference, scenario, report) -> list[str]:
    """Names of the checks the report of one cell fails."""
    fails = []
    design = report.design
    arrays = scenario.arrays

    pcrb = float(report.final_pcrb)
    if not math.isfinite(pcrb) or pcrb <= 0.0:
        return ["finite_pcrb"]
    if len(design.r_bb) != scenario.subcarriers:
        return ["carrier_count"]

    mods = [np.asarray(design.v_rf).ravel()] if design.v_rf is not None else []
    if hasattr(design.rx, "d"):
        mods.append(np.asarray(design.rx.d).ravel())
    if any(np.abs(np.abs(m) - 1.0).max() > MODULUS_TOL for m in mods):
        fails.append("unit_modulus")

    w = receive_matrix(design.rx, arrays)
    gram = w.conj().T @ w
    kappa = float(gram[0, 0].real)
    if np.abs(gram - kappa * np.eye(gram.shape[0])).max() > 1e-9 * kappa:
        fails.append("white_receive_noise")

    for r in design.r_bb:
        lam = np.linalg.eigvalsh(0.5 * (np.asarray(r) + np.asarray(r).conj().T))
        if lam[0] < -PSD_RTOL * max(lam[-1], 1e-300):
            fails.append("psd_covariance")
            break

    covs = _transmit_covariances(design)
    power = sum(float(np.trace(t).real) for t in covs)
    if power > scenario.power * (1.0 + POWER_RTOL):
        fails.append("power_budget")

    rate = 0.0
    for h, t in zip(scenario.channel.per_subcarrier(), covs):
        g = h @ t @ h.conj().T / scenario.noise_comm
        rate += float(np.log1p(np.linalg.eigvalsh(0.5 * (g + g.conj().T))).sum())
    rate /= len(covs)
    if scenario.rate_target > 0.0 and rate < scenario.rate_target - RATE_TOL:
        fails.append("rate_target")
    if abs(report.final_rate - rate) > RATE_RTOL * max(1.0, rate):
        fails.append("reported_rate")

    info = ref.angle_information(arrays, w, sum(covs))
    own = 1.0 / (ref.prior_info + ref.coefficient(kappa) * info)
    if abs(pcrb - own) > PCRB_RTOL * own:
        fails.append("pcrb_value")

    best, prior_only = ref.pcrb_bounds()
    if not best * (1.0 - BOUND_RTOL) <= pcrb <= prior_only * (1.0 + BOUND_RTOL):
        fails.append("pcrb_bounds")

    trace = np.asarray(report.trace, dtype=float)
    if np.any(trace[1:] > trace[:-1] * (1.0 + TRACE_RTOL)):
        fails.append("trace_monotone")
    return fails



def corruptions(report):
    """Corrupted copies of a hybrid report, each with the check it must trip."""
    design = report.design
    v = np.array(design.v_rf)
    v[0, 0] *= 1.01
    yield "unit_modulus", dataclasses.replace(report, design=dataclasses.replace(design, v_rf=v))
    r_bb = tuple(1.01 * np.asarray(r) for r in design.r_bb)
    yield "power_budget", dataclasses.replace(report, design=dataclasses.replace(design, r_bb=r_bb))
    yield "pcrb_value", dataclasses.replace(report, final_pcrb=report.final_pcrb * (1.0 + 1e-4))
    trace = list(report.trace) + [report.trace[-1] * 1.01]
    yield "trace_monotone", dataclasses.replace(report, trace=trace)


def corruption_results(ref: Reference, scenario, report) -> dict[str, list[str]]:
    """For each corruption of a correct report, the checks that rejected it."""
    return {
        expected: check_cell(ref, scenario, bad) for expected, bad in corruptions(report)
    }


def same_design(a, b) -> bool:
    """Bit-for-bit equality of two reports' PCRB and design."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return False
    da, db = a.design, b.design
    if a.final_pcrb != b.final_pcrb or type(da.rx) is not type(db.rx):
        return False
    if (da.v_rf is None) != (db.v_rf is None) or len(da.r_bb) != len(db.r_bb):
        return False
    pairs = list(zip(da.r_bb, db.r_bb))
    if da.v_rf is not None:
        pairs.append((da.v_rf, db.v_rf))
    pairs += [(getattr(da.rx, k), getattr(db.rx, k)) for k in ("d", "q") if hasattr(da.rx, k)]
    return all(np.array_equal(x, y) for x, y in pairs)


def _reference_key(sc):
    prior = sc.angle_prior
    return (
        sc.arrays.n_tx, sc.arrays.n_rx, sc.power, sc.symbols, sc.reflection.gamma,
        sc.noise_sense, tuple(prior.weights), tuple(prior.means), tuple(prior.variances),
    )


def check_rounds(cells, reports, log) -> tuple[int, bool]:
    """(failed cells, whether the checks proved sound) for whole rounds.

    The first round is checked against the independent recomputation and
    every later round must repeat it bit for bit; a cell that raised holds
    its exception. The checks must also reject corrupted copies of the
    first correct hybrid design.
    """
    refs, verdicts = {}, []
    for cell, rep in zip(cells, reports):
        if isinstance(rep, Exception):
            verdicts.append(False)
            continue
        key = _reference_key(cell.scenario)
        if key not in refs:
            refs[key] = Reference(cell.scenario)
        fails = check_cell(refs[key], cell.scenario, rep)
        if fails:
            log(f"cell {cell.label}: failed {fails}")
        verdicts.append(not fails)

    n = len(cells)
    failed = 0
    for i, rep in enumerate(reports):
        repeat_ok = i < n or same_design(rep, reports[i % n])
        if verdicts[i % n] and not repeat_ok:
            log(f"cell {cells[i % n].label}: round {i // n} differs from round 0")
        failed += not (verdicts[i % n] and repeat_ok)

    sound = True
    for cell, rep, ok in zip(cells, reports, verdicts):
        if ok and rep.design.v_rf is not None:
            ref = refs[_reference_key(cell.scenario)]
            for expected, caught in corruption_results(ref, cell.scenario, rep).items():
                verdict = "rejected" if expected in caught else "ACCEPTED"
                log(f"{cell.label} corrupted for {expected}: {verdict} by {caught}")
                sound = sound and expected in caught
            break
    return failed, sound
