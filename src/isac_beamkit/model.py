"""Domain model: array geometry, angle/reflection priors, channels, steering vectors.

Conventions used throughout the package:
  * angles are radians, antennas form a half-wavelength ULA with symmetric
    element indexing m = -(n-1)/2, ..., (n-1)/2, entry m of the steering
    vector equal to exp(j*pi*m*sin(theta));
  * every power-like quantity is linear (watts), dB/dBm appear only at
    configuration ingestion;
  * randomness always flows through an explicit seed (numpy SeedSequence),
    so every draw is reproducible and splittable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

HALF_PI = math.pi / 2.0
# Tolerance for the closed angle domain [-pi/2, pi/2]; the upper endpoint is
# accepted so that inclusive angle grids remain valid.
_ANGLE_TOL = 1e-12


class ModelError(ValueError):
    """Invalid domain object (bad dimensions, invariant violation, ...)."""


class RxArchitecture(enum.Enum):
    """How the receive RF chains connect to the receive antennas."""

    PARTIALLY_CONNECTED = "partially_connected"
    FULLY_CONNECTED = "fully_connected"
    FULLY_DIGITAL = "fully_digital"


@dataclass(frozen=True)
class ArrayConfig:
    """Antenna/RF-chain counts for the transceiver and the user terminal."""

    n_tx: int
    n_rx: int
    n_user: int
    n_rf_tx: int
    n_rf_rx: int
    rx_architecture: RxArchitecture = RxArchitecture.PARTIALLY_CONNECTED

    def __post_init__(self):
        for name in ("n_tx", "n_rx", "n_user", "n_rf_tx", "n_rf_rx"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ModelError(f"{name} must be a positive integer, got {v!r}")
        if self.n_rf_tx > self.n_tx:
            raise ModelError(f"n_rf_tx={self.n_rf_tx} exceeds n_tx={self.n_tx}")
        if self.n_rf_rx > self.n_rx:
            raise ModelError(f"n_rf_rx={self.n_rf_rx} exceeds n_rx={self.n_rx}")
        if (
            self.rx_architecture is RxArchitecture.PARTIALLY_CONNECTED
            and self.n_rx % self.n_rf_rx != 0
        ):
            raise ModelError(
                "partially-connected receiver requires n_rx divisible by "
                f"n_rf_rx (got n_rx={self.n_rx}, n_rf_rx={self.n_rf_rx})"
            )
        if (
            self.rx_architecture is RxArchitecture.FULLY_DIGITAL
            and self.n_rf_rx != self.n_rx
        ):
            raise ModelError("fully-digital receiver requires n_rf_rx == n_rx")

    @property
    def rx_block(self) -> int:
        """Antennas per receive RF chain in the partially-connected layout."""
        return self.n_rx // self.n_rf_rx


def _check_angle(theta: float) -> None:
    if not (-HALF_PI - _ANGLE_TOL <= theta <= HALF_PI + _ANGLE_TOL):
        raise ModelError(f"angle {theta} outside [-pi/2, pi/2]")


def element_positions(n: int) -> np.ndarray:
    """Symmetric ULA element indices m = -(n-1)/2, ..., (n-1)/2 in half wavelengths.

    The single definition of the array geometry: the steering functions below
    and the lag-moment Fisher integrals in :mod:`quadrature` both read it.
    """
    return np.arange(n) - (n - 1) / 2.0


def steering_vector(n: int, theta: float) -> np.ndarray:
    """ULA steering vector with symmetric indexing, entries exp(j*pi*m*sin(theta)).

    m runs over -(n-1)/2 ... (n-1)/2 (half-integers for even n), so the vector
    is conjugate-symmetric and every entry has unit modulus.
    """
    if n < 1:
        raise ModelError("antenna count must be >= 1")
    _check_angle(theta)
    m = element_positions(n)
    return np.exp(1j * np.pi * m * np.sin(theta))


def steering_derivative(n: int, theta: float) -> np.ndarray:
    """Entry-wise derivative of :func:`steering_vector` with respect to theta."""
    if n < 1:
        raise ModelError("antenna count must be >= 1")
    _check_angle(theta)
    m = element_positions(n)
    phase = 1j * np.pi * m
    return phase * np.cos(theta) * np.exp(phase * np.sin(theta))


def steering_block(n: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steering vectors and derivatives for a batch of angles.

    Returns (S, dS), each of shape (len(thetas), n). Used by the
    Monte-Carlo and pattern paths, where per-angle python calls would
    dominate.
    """
    thetas = np.asarray(thetas, dtype=float)
    m = element_positions(n)
    phase = 1j * np.pi * np.outer(np.sin(thetas), m)
    s = np.exp(phase)
    ds = (1j * np.pi * m) * np.cos(thetas)[:, None] * s
    return s, ds


@dataclass(frozen=True)
class GmmAnglePrior:
    """Gaussian-mixture density of the target angle theta (radians).

    components: sequence of (weight, mean, variance). Weights must sum to 1,
    variances must be positive, means must lie in [-pi/2, pi/2).
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @classmethod
    def from_components(
        cls, components: Sequence[tuple[float, float, float]]
    ) -> "GmmAnglePrior":
        w, mu, var = (np.array(x, dtype=float) for x in zip(*components))
        return cls(w, mu, var)

    def __post_init__(self):
        w, mu, var = (np.asarray(x, dtype=float) for x in (self.weights, self.means, self.variances))
        if not (w.shape == mu.shape == var.shape) or w.ndim != 1 or w.size == 0:
            raise ModelError("prior components must be parallel 1-d arrays")
        if not (np.isfinite(w).all() and np.isfinite(mu).all() and np.isfinite(var).all()):
            raise ModelError("prior components must be finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ModelError(f"mixture weights sum to {w.sum()!r}, expected 1")
        if np.any(w < 0):
            raise ModelError("mixture weights must be nonnegative")
        if np.any(var <= 0):
            raise ModelError("mixture variances must be positive")
        if np.any(mu < -HALF_PI) or np.any(mu >= HALF_PI):
            raise ModelError("mixture means must lie in [-pi/2, pi/2)")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def n_components(self) -> int:
        return self.weights.size

    def pdf(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        z = theta[..., None] - self.means
        comp = np.exp(-0.5 * z * z / self.variances) / np.sqrt(2 * np.pi * self.variances)
        return comp @ self.weights

    def _log_components(self, theta: np.ndarray) -> np.ndarray:
        z = theta[..., None] - self.means
        return (
            np.log(self.weights)
            - 0.5 * np.log(2 * np.pi * self.variances)
            - 0.5 * z * z / self.variances
        )

    def score(self, theta) -> np.ndarray:
        """d/dtheta log p(theta), computed stably via per-component softmax."""
        theta = np.asarray(theta, dtype=float)
        logc = self._log_components(theta)
        logc -= logc.max(axis=-1, keepdims=True)
        resp = np.exp(logc)
        resp /= resp.sum(axis=-1, keepdims=True)
        slope = -(theta[..., None] - self.means) / self.variances
        return (resp * slope).sum(axis=-1)

    def sample(self, rng: np.random.Generator, n: int, truncate: bool = True) -> np.ndarray:
        """Draw n angles; with truncate=True, rejection-resample into the domain.

        The mass outside [-pi/2, pi/2] is negligible for the priors of
        interest, so rejection terminates essentially immediately.
        """
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        out = rng.normal(self.means[idx], np.sqrt(self.variances[idx]))
        if truncate:
            for _ in range(100):
                bad = (out < -HALF_PI) | (out > HALF_PI)
                if not bad.any():
                    break
                k = int(bad.sum())
                idx = rng.choice(self.n_components, size=k, p=self.weights)
                out[bad] = rng.normal(self.means[idx], np.sqrt(self.variances[idx]))
        return out

    def most_probable_angle(self, grid_points: int = 8192) -> float:
        """argmax of the density over [-pi/2, pi/2] (grid scan + Newton polish)."""
        grid = np.linspace(-HALF_PI, HALF_PI, grid_points)
        theta = float(grid[np.argmax(self.pdf(grid))])
        for _ in range(50):
            s = float(self.score(np.array([theta]))[0])
            # curvature of log p via finite difference of the score
            h = 1e-7
            sp = float(self.score(np.array([theta + h]))[0])
            sm = float(self.score(np.array([theta - h]))[0])
            curv = (sp - sm) / (2 * h)
            if curv >= 0:
                break
            step = s / curv
            theta_new = float(np.clip(theta - step, -HALF_PI, HALF_PI))
            if abs(theta_new - theta) < 1e-14:
                theta = theta_new
                break
            theta = theta_new
        return theta


@dataclass(frozen=True)
class ReflectionPrior:
    """Zero-mean prior of the complex reflection coefficient.

    gamma is the second moment E[|alpha|^2] in linear power units. The prior
    is modelled as circularly-symmetric Gaussian CN(0, gamma).
    """

    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ModelError("gamma must be finite and nonnegative")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        s = math.sqrt(self.gamma / 2.0)
        return rng.normal(0.0, s, n) + 1j * rng.normal(0.0, s, n)


@dataclass(frozen=True)
class NarrowbandChannel:
    """Frequency-flat user channel, h of shape (n_user, n_tx)."""

    h: np.ndarray

    @property
    def n_subcarriers(self) -> int:
        return 1

    def per_subcarrier(self) -> list[np.ndarray]:
        return [self.h]


@dataclass(frozen=True)
class WidebandChannel:
    """Frequency-selective user channel given per sub-carrier.

    h_k[k] is the frequency response at sub-carrier k (DFT of the time taps).
    """

    h_k: tuple

    @property
    def n_subcarriers(self) -> int:
        return len(self.h_k)

    def per_subcarrier(self) -> list[np.ndarray]:
        return list(self.h_k)


CommChannel = Union[NarrowbandChannel, WidebandChannel]


@dataclass(frozen=True)
class RicianChannelSpec:
    """Recipe for re-drawing a narrowband Rician channel realization."""

    theta_user: float
    distance_m: float
    rician_factor: float      # linear
    reference_gain: float     # linear, at 1 m
    path_exponent: float


@dataclass(frozen=True)
class WidebandChannelSpec:
    """Recipe for re-drawing a wideband multi-tap channel realization."""

    n_taps: int
    distance_m: float
    reference_gain: float
    path_exponent: float

    @property
    def gain(self) -> float:
        return self.reference_gain / self.distance_m**self.path_exponent


def gen_rician_channel(
    arrays: ArrayConfig,
    theta_user: float,
    distance_m: float,
    rician_factor: float,
    reference_gain: float,
    path_exponent: float,
    seed,
) -> np.ndarray:
    """Draw a Rician-fading user channel H (n_user x n_tx).

    H = sqrt(beta/(K+1)) * (sqrt(K) * b_u(theta_u) a(theta_u)^H + H_nlos)
    with beta = reference_gain / distance^path_exponent and H_nlos i.i.d.
    CN(0, 1). The user array is a half-wavelength ULA of n_user elements.
    Deterministic for a fixed seed.
    """
    if distance_m <= 0 or reference_gain <= 0:
        raise ModelError("distance and reference gain must be positive")
    rng = np.random.default_rng(seed)
    beta = reference_gain / distance_m**path_exponent
    b_u = steering_vector(arrays.n_user, theta_user)
    a_t = steering_vector(arrays.n_tx, theta_user)
    h_los = np.outer(b_u, a_t.conj())
    h_nlos = (
        rng.standard_normal((arrays.n_user, arrays.n_tx))
        + 1j * rng.standard_normal((arrays.n_user, arrays.n_tx))
    ) / math.sqrt(2.0)
    return math.sqrt(beta / (rician_factor + 1.0)) * (
        math.sqrt(rician_factor) * h_los + h_nlos
    )


def gen_wideband_channel(
    arrays: ArrayConfig,
    n_taps: int,
    n_subcarriers: int,
    gain: float,
    seed,
) -> list[np.ndarray]:
    """Draw per-subcarrier channels H_k from a random multi-tap impulse response.

    Tap entries are i.i.d. CN(0, gain/n_taps); H_k = sum_l taps[l] *
    exp(-2j*pi*(k-1)*l/K) for k = 1..K. Deterministic for a fixed seed.
    """
    if not (1 <= n_taps <= n_subcarriers):
        raise ModelError(
            f"tap count must satisfy 1 <= n_taps <= n_subcarriers, got {n_taps}"
        )
    rng = np.random.default_rng(seed)
    scale = math.sqrt(gain / n_taps / 2.0)
    taps = scale * (
        rng.standard_normal((n_taps, arrays.n_user, arrays.n_tx))
        + 1j * rng.standard_normal((n_taps, arrays.n_user, arrays.n_tx))
    )
    k = np.arange(n_subcarriers)
    l = np.arange(n_taps)
    twiddle = np.exp(-2j * np.pi * np.outer(k, l) / n_subcarriers)  # (K, L_D)
    h_k = np.einsum("kl,lut->kut", twiddle, taps)
    return [h_k[i] for i in range(n_subcarriers)]


ChannelSpec = Union[RicianChannelSpec, WidebandChannelSpec]


def realize_channel(arrays: ArrayConfig, spec: ChannelSpec, n_subcarriers: int, seed) -> CommChannel:
    """Materialize a channel from its recipe (used for per-trial re-draws)."""
    if isinstance(spec, RicianChannelSpec):
        h = gen_rician_channel(
            arrays,
            spec.theta_user,
            spec.distance_m,
            spec.rician_factor,
            spec.reference_gain,
            spec.path_exponent,
            seed,
        )
        return NarrowbandChannel(h)
    if isinstance(spec, WidebandChannelSpec):
        h_k = gen_wideband_channel(arrays, spec.n_taps, n_subcarriers, spec.gain, seed)
        return WidebandChannel(tuple(h_k))
    raise ModelError(f"unknown channel spec {type(spec).__name__}")


@dataclass(frozen=True)
class Scenario:
    """Everything one experiment needs: arrays, priors, channel, budgets."""

    arrays: ArrayConfig
    angle_prior: GmmAnglePrior
    reflection: ReflectionPrior
    channel: CommChannel
    power: float                 # transmit budget, watts
    noise_comm: float            # per-subcarrier user noise, watts
    noise_sense: float           # per-subcarrier sensing noise, watts
    symbols: int                 # coherent symbol intervals L
    rate_target: float           # nats/s/Hz (0 disables the rate constraint)
    subcarriers: int = 1
    quadrature_points: int = 2048
    seed: int = 0
    channel_spec: Optional[ChannelSpec] = field(default=None)

    def __post_init__(self):
        for name in ("power", "noise_comm", "noise_sense", "rate_target"):
            if not math.isfinite(getattr(self, name)):
                raise ModelError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.power < 0:
            raise ModelError("power must be nonnegative")
        if self.noise_comm <= 0 or self.noise_sense <= 0:
            raise ModelError("noise powers must be positive")
        if self.rate_target < 0:
            raise ModelError("rate target must be nonnegative")
        if self.symbols < 1:
            raise ModelError("symbols must be >= 1")
        if self.subcarriers < 1:
            raise ModelError("subcarriers must be >= 1")
        if self.quadrature_points < 1:
            raise ModelError("quadrature_points must be >= 1")
        if self.channel.n_subcarriers != self.subcarriers:
            raise ModelError(
                f"channel has {self.channel.n_subcarriers} sub-carriers, "
                f"scenario declares {self.subcarriers}"
            )
        if not all(np.isfinite(h).all() for h in self.channel.per_subcarrier()):
            raise ModelError("channel entries must be finite")
        n_user, n_tx = self.channel.per_subcarrier()[0].shape
        if (n_user, n_tx) != (self.arrays.n_user, self.arrays.n_tx):
            raise ModelError(
                f"channel shape {(n_user, n_tx)} does not match arrays "
                f"({self.arrays.n_user}, {self.arrays.n_tx})"
            )

    def replace(self, **kw) -> "Scenario":
        from dataclasses import replace as _replace

        return _replace(self, **kw)
