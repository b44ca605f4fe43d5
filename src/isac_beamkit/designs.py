"""Transceiver design containers: analog/digital beamforming and receive combiners.

A design always carries one digital covariance per sub-carrier (a single
entry for narrowband). The receive side is one of three descriptors, each of
which expands to an explicit combining matrix W (n_rx x n_rf_rx) whose Gram
W^H W = kappa * I; kappa is the per-chain noise-scaling factor that enters
the Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import ArrayConfig, ModelError, RxArchitecture, Scenario

MODULUS_TOL = 1e-12
PSD_TOL = 1e-10
POWER_TOL = 1e-8
RATE_TOL = 1e-6


def dft_matrix(n: int) -> np.ndarray:
    """Unit-modulus DFT matrix, column i = [exp(-2j*pi*i*j/n)]_j."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


@dataclass(frozen=True)
class RxIdentity:
    """Fully-digital receiver: W = I, no analog combining loss."""

    def matrix(self, arrays: ArrayConfig) -> np.ndarray:
        return np.eye(arrays.n_rx, dtype=complex)

    def kappa(self, arrays: ArrayConfig) -> float:
        return 1.0


@dataclass(frozen=True)
class RxPhases:
    """Partially-connected receiver described by its unit-modulus phase vector.

    Entry block i of d holds the conjugated weights of RF chain i, i.e. row i
    of W^H equals d[block_i]^T on its antenna block and zero elsewhere.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=complex)
        if np.any(np.abs(np.abs(d) - 1.0) > MODULUS_TOL):
            raise ModelError("receive phase entries must be unit modulus")
        object.__setattr__(self, "d", d)

    def matrix(self, arrays: ArrayConfig) -> np.ndarray:
        if self.d.size != arrays.n_rx:
            raise ModelError(f"phase vector length {self.d.size} != n_rx {arrays.n_rx}")
        m = arrays.rx_block
        w = np.zeros((arrays.n_rx, arrays.n_rf_rx), dtype=complex)
        for i in range(arrays.n_rf_rx):
            w[i * m : (i + 1) * m, i] = self.d[i * m : (i + 1) * m].conj()
        return w

    def kappa(self, arrays: ArrayConfig) -> float:
        return arrays.rx_block


@dataclass(frozen=True)
class RxDft:
    """Fully-connected receiver with rows drawn from the DFT codebook.

    q holds 0-based, distinct column indices into the n_rx-point DFT matrix.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=int)
        if len(set(q.tolist())) != q.size:
            raise ModelError("DFT indices must be distinct")
        object.__setattr__(self, "q", q)

    def matrix(self, arrays: ArrayConfig) -> np.ndarray:
        if np.any(self.q < 0) or np.any(self.q >= arrays.n_rx):
            raise ModelError("DFT index out of range")
        if self.q.size != arrays.n_rf_rx:
            raise ModelError(f"need {arrays.n_rf_rx} DFT indices, got {self.q.size}")
        return dft_matrix(arrays.n_rx)[:, self.q]

    def kappa(self, arrays: ArrayConfig) -> float:
        return float(arrays.n_rx)


RxDescriptor = Union[RxIdentity, RxPhases, RxDft]


def default_rx(arrays: ArrayConfig) -> RxDescriptor:
    """Deterministic all-ones / leading-index receive initialization."""
    if arrays.rx_architecture is RxArchitecture.FULLY_DIGITAL:
        return RxIdentity()
    if arrays.rx_architecture is RxArchitecture.FULLY_CONNECTED:
        return RxDft(np.arange(arrays.n_rf_rx))
    return RxPhases(np.ones(arrays.n_rx, dtype=complex))


@dataclass(frozen=True)
class HybridDesign:
    """Transmit analog matrix, per-subcarrier digital covariances, receive side.

    v_rf is None for a fully-digital transmitter (identity analog stage);
    otherwise an n_tx x n_rf_tx unit-modulus matrix. r_bb holds one PSD
    matrix per sub-carrier; for a fully-digital transmitter these are
    n_tx x n_tx.
    """

    v_rf: Optional[np.ndarray]
    r_bb: tuple
    rx: RxDescriptor

    @classmethod
    def create(cls, v_rf, r_bb, rx) -> "HybridDesign":
        if v_rf is not None:
            v_rf = np.asarray(v_rf, dtype=complex)
            if np.any(np.abs(np.abs(v_rf) - 1.0) > MODULUS_TOL):
                raise ModelError("transmit analog entries must be unit modulus")
        if isinstance(r_bb, np.ndarray) and r_bb.ndim == 2:
            r_bb = [r_bb]
        r_list = []
        for r in r_bb:
            r = np.asarray(r, dtype=complex)
            r = 0.5 * (r + r.conj().T)
            lam = np.linalg.eigvalsh(r)
            if lam.size and lam[0] < -PSD_TOL * max(1.0, lam[-1]):
                raise ModelError("digital covariance is not PSD")
            r_list.append(r)
        return cls(v_rf, tuple(r_list), rx)

    @property
    def n_subcarriers(self) -> int:
        return len(self.r_bb)

    def tx_covariances(self) -> list[np.ndarray]:
        """Per-subcarrier transmit covariances V R_k V^H."""
        if self.v_rf is None:
            return [np.asarray(r) for r in self.r_bb]
        v = self.v_rf
        return [v @ r @ v.conj().T for r in self.r_bb]

    def total_power(self) -> float:
        return float(sum(np.trace(t).real for t in self.tx_covariances()))


def digital_factor(r_bb: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Thin factor V_bb with V_bb V_bb^H = r_bb, columns sqrt(eig)*vec.

    The stream count is the number of eigenvalues above rel_tol * trace;
    a zero covariance yields a single all-zero column so downstream shapes
    stay valid.
    """
    r = np.asarray(r_bb, dtype=complex)
    lam, vec = np.linalg.eigh(0.5 * (r + r.conj().T))
    thresh = rel_tol * max(np.trace(r).real, 0.0)
    keep = np.where(lam > max(thresh, 0.0))[0][::-1]  # descending eigenvalues
    if keep.size == 0:
        return np.zeros((r.shape[0], 1), dtype=complex)
    return vec[:, keep] * np.sqrt(lam[keep])


def achieved_rate(scenario: Scenario, design: HybridDesign) -> float:
    """Communication rate of a design in nats/s/Hz.

    Narrowband: log det(I + H T H^H / sigma^2). OFDM: the average of the
    per-subcarrier log-dets.
    """
    channels = scenario.channel.per_subcarrier()
    covs = design.tx_covariances()
    if len(channels) != len(covs):
        raise ModelError(
            f"design has {len(covs)} sub-carriers, channel has {len(channels)}"
        )
    total = 0.0
    n_u = scenario.arrays.n_user
    for h, t in zip(channels, covs):
        g = np.eye(n_u) + h @ t @ h.conj().T / scenario.noise_comm
        sign, logdet = np.linalg.slogdet(g)
        total += logdet
    return total / len(channels)


def feasible(scenario: Scenario, design: HybridDesign) -> bool:
    """Power within POWER_TOL of the budget and, under a rate floor, the rate
    within RATE_TOL of the target."""
    if design.total_power() > scenario.power + POWER_TOL:
        return False
    if scenario.rate_target > 0:
        return bool(achieved_rate(scenario, design) >= scenario.rate_target - RATE_TOL)
    return True


@dataclass
class AoReport:
    """Outcome of one alternating-optimization run.

    trace[i] is the objective after outer iteration i (trace[0] is the
    starting point); it is weakly decreasing for every proposed algorithm.
    """

    trace: list[float]
    design: HybridDesign
    converged: bool
    wall_time: float
    final_pcrb: float
    final_rate: float
    power_used: float
    feasible: bool

    @property
    def iterations(self) -> int:
        return max(len(self.trace) - 1, 0)
