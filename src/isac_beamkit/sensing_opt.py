"""Closed-form sensing blocks of the alternating optimization.

Without a rate floor the objective is the angle PCRB alone, and the blocks
that move an analog matrix have closed forms: two unit-modulus analog
columns realize the fully-digital optimum, rank one on the top eigenvector
of the prior-weighted matrix A1 (phase splitting), and each single entry of
either analog matrix has a closed-form phase-alignment optimum, swept
cyclically. isac_opt.ao_isac alternates them; it picks these transmit
blocks at a zero rate target when the analog matrix moves, and the receive
blocks at every rate target. The blocks take their integrals (A1, B~) as
arguments; the PCRB that judges them is PcrbEngine.pcrb.
"""

from __future__ import annotations

import numpy as np

from .designs import HybridDesign, RxDft, RxIdentity, RxPhases, dft_matrix
from .cvxkit import top_generalized_eig
from .model import RxArchitecture, Scenario


def hybrid_from_rank1(f: np.ndarray, n_rf_tx: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a rank-1 precoder f into two unit-modulus columns.

    Each entry f_m = c e^{j(phi+psi)} + c e^{j(phi-psi)} with c = max|f|/2,
    phi = arg f_m and cos(psi) = |f_m|/(2c), so V_rf @ v_bb reproduces f
    exactly. Extra RF chains beyond the two needed columns are filled with
    all-ones columns carrying zero digital weight.
    """
    f = np.asarray(f, dtype=complex)
    if n_rf_tx < 2:
        raise ValueError("phase splitting needs at least two RF chains")
    mag = np.abs(f)
    if mag.max() == 0.0:
        raise ValueError("cannot decompose the zero vector")
    c = mag.max() / 2.0
    phi = np.angle(f)
    psi = np.arccos(np.clip(mag / (2.0 * c), 0.0, 1.0))
    v_rf = np.ones((f.size, n_rf_tx), dtype=complex)
    v_rf[:, 0] = np.exp(1j * (phi + psi))
    v_rf[:, 1] = np.exp(1j * (phi - psi))
    v_bb = np.zeros(n_rf_tx, dtype=complex)
    v_bb[0] = v_bb[1] = c
    return v_rf, v_bb


def _phase_align_pass(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """One cyclic pass of the per-entry optimum of z^H M z over unit-modulus z.

    Coordinate n is set to the phase of sum_{i != n} z_i conj(M[i, n]) (or 1
    when that sum vanishes), which maximizes the quadratic form in that
    coordinate with the rest fixed.
    """
    z = np.array(z, dtype=complex)
    for n in range(z.size):
        c = z @ m[:, n].conj() - z[n] * m[n, n].conj()
        z[n] = 1.0 if c == 0 else c / abs(c)
    return z


def coordinate_update_receive(d: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Cyclic closed-form update of the receive phase vector against Pi."""
    return _phase_align_pass(d, pi)


def coordinate_update_transmit(v: np.ndarray, a_tilde: np.ndarray) -> np.ndarray:
    """Cyclic closed-form update of the single-chain transmit phase vector."""
    return _phase_align_pass(v, a_tilde)


def receive_quadratic(b_tilde: np.ndarray, n_rf_rx: int) -> np.ndarray:
    """Block-diagonal matrix Pi with d^H Pi d = tr(Btilde W W^H).

    Pi keeps the diagonal blocks of Btilde^T corresponding to the antenna
    block of each RF chain; the cross blocks do not couple into the
    partially-connected combiner.
    """
    n_rx = b_tilde.shape[0]
    m = n_rx // n_rf_rx
    pi = np.zeros_like(b_tilde)
    bt = b_tilde.T
    for i in range(n_rf_rx):
        s = slice(i * m, (i + 1) * m)
        pi[s, s] = bt[s, s]
    return pi


def dft_select_fc(b_tilde: np.ndarray, n_rf_rx: int) -> np.ndarray:
    """Best DFT-codebook rows for the fully-connected receiver.

    Returns the 0-based indices of the n_rf_rx largest diagonal entries of
    F^H Btilde F (stable sort, so ties go to the lowest index). Because the
    objective is separable over selected columns, this is the exhaustive
    optimum over all index subsets.
    """
    n_rx = b_tilde.shape[0]
    f = dft_matrix(n_rx)
    diag = np.einsum("ji,jk,ki->i", f.conj(), b_tilde, f, optimize=True).real
    order = np.argsort(-diag, kind="stable")
    return order[:n_rf_rx].astype(int)


def _initial_r_bb(scenario: Scenario, n_cols: int) -> list[np.ndarray]:
    """Equal-power digital start; exact power for any unit-modulus analog."""
    k = scenario.subcarriers
    scale = scenario.power / (scenario.arrays.n_tx * n_cols * k)
    return [scale * np.eye(n_cols, dtype=complex) for _ in range(k)]


def _sensing_tx_update(
    scenario: Scenario, a_tilde: np.ndarray, design: HybridDesign
) -> HybridDesign:
    """Optimal transmit block for the trace objective with W fixed and a
    moving analog matrix: phase alignment of one chain, else phase
    splitting of the fully-digital optimum."""
    arrays = scenario.arrays
    power = scenario.power
    if arrays.n_rf_tx == 1:
        v = coordinate_update_transmit(design.v_rf[:, 0], a_tilde)
        r = np.array([[power / arrays.n_tx]], dtype=complex)
        return HybridDesign(v[:, None], (r,) + (np.zeros_like(r),) * (design.n_subcarriers - 1), design.rx)
    # two or more chains realize the fully-digital rank-1 optimum exactly
    _, q1 = top_generalized_eig(a_tilde, np.eye(arrays.n_tx))
    v_rf, v_bb = hybrid_from_rank1(np.sqrt(power) * q1, arrays.n_rf_tx)
    r = np.outer(v_bb, v_bb.conj())
    zeros = np.zeros_like(r)
    return HybridDesign(v_rf, (r,) + (zeros,) * (design.n_subcarriers - 1), design.rx)


def _rx_update(
    scenario: Scenario, design: HybridDesign, b_tilde: np.ndarray
):
    arrays = scenario.arrays
    if isinstance(design.rx, RxIdentity):
        return design.rx
    if isinstance(design.rx, RxDft):
        return RxDft(dft_select_fc(b_tilde, arrays.n_rf_rx))
    pi = receive_quadratic(b_tilde, arrays.n_rf_rx)
    return RxPhases(coordinate_update_receive(design.rx.d, pi))


def random_sensing_design(scenario: Scenario, rng: np.random.Generator) -> HybridDesign:
    """Uniform-phase analog matrices with the equal-power digital start."""
    arrays = scenario.arrays
    v = np.exp(2j * np.pi * rng.random((arrays.n_tx, arrays.n_rf_tx)))
    if arrays.rx_architecture is RxArchitecture.FULLY_DIGITAL:
        rx = RxIdentity()
    elif arrays.rx_architecture is RxArchitecture.FULLY_CONNECTED:
        rx = RxDft(rng.permutation(arrays.n_rx)[: arrays.n_rf_rx])
    else:
        rx = RxPhases(np.exp(2j * np.pi * rng.random(arrays.n_rx)))
    return HybridDesign(v, tuple(_initial_r_bb(scenario, arrays.n_rf_tx)), rx)
