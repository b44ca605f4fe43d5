"""Prior-weighted integration over the target angle.

The integrands (steering outer products weighted by a Gaussian-mixture
density) are sharply peaked around the mixture means, so a uniform rule
wastes nodes. The grid here is composite Gauss-Legendre: breakpoints are
placed at +-{1,2,4,8} sigma around every component mean, panels inside the
+-8 sigma "hot" zones receive a much higher node density than the rest of
the domain, and all panels together tile [-pi/2, pi/2] exactly (so weights
sum to the domain length and constants integrate exactly).

The Fisher integrals A1(W), A2(W) and B~(V R V^H) never touch the nodes
after set-up. For the symmetric half-wavelength ULA of
:func:`model.steering_block`, a_m(theta) = exp(j pi m sin theta) and
da_m/dtheta = j pi m cos(theta) a_m, with m the element positions of
:func:`model.element_positions`. Every integrand term is then
cos^2(theta) exp(j pi l sin theta) times a polynomial in the positions, with
an integer lag l, so the integrals are fixed by the prior moments

    M_l = sum_n wp_n cos^2(theta_n) exp(j pi l sin theta_n)   (A1 and B~)
    N_l = sum_n wp_n exp(j pi l sin theta_n)                  (A2)

for |l| <= n_tx + n_rx - 2, with M_{-l} = conj(M_l); wp_n is the quadrature
weight times the prior density. :class:`LagMoments` computes them once. A
call then

  1. sums the input Gram G (receive Gram W W^H for A1 and A2, transmit
     covariance for B~) along its diagonals d = q - p: sum G_pq, weighted
     by the input positions r_p r_q (both), r_p (row), r_q (col) and by 1
     (none);
  2. multiplies those lag sums by the Hankel matrix M[d + e], which gives
     Q_both, Q_row, Q_col and Q_none at every output lag e = i - k;
  3. expands the result Toeplitz in the output positions t_i, t_k:

         A1_ik = pi^2 (Q_both - t_k Q_row - t_i Q_col + t_i t_k Q_none)[i - k].

B~ is the same map with the transmit and receive roles swapped, and A2 is
the Toeplitz expansion of the unweighted lag sums against N. For a ULA the
prior-weighted integral of a(theta) a(theta)^H is Toeplitz (Stoica & Moses,
Spectral Analysis of Signals, ch. 6). The operator holds for that array model
only; another geometry needs its own operator.

The moments take any angles and weights. The prior-weighted grid gives the
PCRB integrals; one angle with weight 1 gives the point (classical CRB)
integrands at that angle, the partial-prior benchmark's objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ArrayConfig, GmmAnglePrior, HALF_PI, element_positions

DEFAULT_POINTS = 2048
# hot/cold node-density ratio inside +-8 sigma of a mixture component
_HOT_DENSITY = 8.0
_PANEL_ORDER = 12


class QuadratureError(ValueError):
    """Ill-formed grid or non-finite integrand."""


@dataclass(eq=False)
class QuadratureGrid:
    """Nodes/weights of a composite rule over domain = (lo, hi)."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise QuadratureError("quadrature weights must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise QuadratureError("quadrature nodes must be strictly increasing")
        lo, hi = self.domain
        if self.nodes[0] <= lo or self.nodes[-1] >= hi:
            if self.nodes[0] < lo - 1e-12 or self.nodes[-1] > hi + 1e-12:
                raise QuadratureError("nodes outside the domain")
        if abs(self.weights.sum() - (hi - lo)) > 1e-10 * max(1.0, hi - lo):
            raise QuadratureError("weights do not sum to the domain length")

    @property
    def size(self) -> int:
        return self.nodes.size


def build_grid(
    prior: GmmAnglePrior,
    n_points: int = DEFAULT_POINTS,
    domain: tuple[float, float] = (-HALF_PI, HALF_PI),
) -> QuadratureGrid:
    """Composite Gauss-Legendre grid adapted to the mixture components."""
    lo, hi = domain
    sig = np.sqrt(prior.variances)
    breaks = {lo, hi}
    for mu, s in zip(prior.means, sig):
        for m in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0):
            x = mu + m * s
            if lo < x < hi:
                breaks.add(float(x))
    edges = np.array(sorted(breaks))
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    hot = np.zeros_like(mids, dtype=bool)
    for mu, s in zip(prior.means, sig):
        hot |= np.abs(mids - mu) <= 8.0 * s
    density = np.where(hot, _HOT_DENSITY, 1.0)
    mass = widths * density
    alloc = np.maximum(6, np.rint(n_points * mass / mass.sum()).astype(int))

    ref_x, ref_w = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    nodes, weights = [], []
    for a, b, n in zip(edges[:-1], edges[1:], alloc):
        n_panels = max(1, int(np.ceil(n / _PANEL_ORDER)))
        panel_edges = np.linspace(a, b, n_panels + 1)
        for pa, pb in zip(panel_edges[:-1], panel_edges[1:]):
            half = 0.5 * (pb - pa)
            nodes.append(0.5 * (pa + pb) + half * ref_x)
            weights.append(half * ref_w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    order = np.argsort(nodes)
    return QuadratureGrid(nodes[order], weights[order], (lo, hi))


def prior_fisher_theta(prior: GmmAnglePrior, grid: QuadratureGrid) -> float:
    """E_theta[(d log p / d theta)^2], the prior information about the angle."""
    p = prior.pdf(grid.nodes)
    s = prior.score(grid.nodes)
    integrand = s * s * p
    if not np.all(np.isfinite(integrand)):
        raise QuadratureError("non-finite prior-Fisher integrand (degenerate variance?)")
    return float(grid.weights @ integrand)


class LagMoments:
    """Weighted moments of the ULA phase lags and the Fisher integrals built on them.

    weights[n] is the weight of the angle nodes[n]: the quadrature weight
    times the prior density (wp_n above), or 1 for a single angle. Holds the (2 n_tx - 1) x (2 n_rx - 1) Hankel
    matrices of the moments with and without cos^2 (the former scaled by
    pi^2): entry [e + n_tx - 1, d + n_rx - 1] is M[d + e] for a transmit lag
    e and a receive lag d. Valid only for the symmetric half-wavelength ULA
    of :func:`model.steering_block`.
    """

    def __init__(self, arrays: ArrayConfig, nodes: np.ndarray, weights: np.ndarray):
        n_tx, n_rx = arrays.n_tx, arrays.n_rx
        self.tx_pos = element_positions(n_tx)
        self.rx_pos = element_positions(n_rx)
        weights = np.stack([np.pi**2 * weights * np.cos(nodes) ** 2, weights], axis=1)
        phase = np.pi * np.outer(np.arange(n_tx + n_rx - 1), np.sin(nodes))
        half = np.cos(phase) @ weights + 1j * (np.sin(phase) @ weights)
        # lags -(n_tx + n_rx - 2) .. n_tx + n_rx - 2, using M_{-l} = conj(M_l)
        full = np.concatenate([half[:0:-1].conj(), half])
        lag = np.add.outer(np.arange(2 * n_tx - 1), np.arange(2 * n_rx - 1))
        self.hankel_cos2 = full[lag, 0]
        self.hankel = full[lag, 1]

    def a1(self, w_gram: np.ndarray) -> np.ndarray:
        """Integral of Mdot^H (W W^H) Mdot weighted by the prior (n_tx x n_tx)."""
        _check_gram(w_gram, self.rx_pos, "receive Gram W W^H")
        return _lag_form(w_gram, self.rx_pos, self.tx_pos, self.hankel_cos2)

    def a2(self, w_gram: np.ndarray) -> np.ndarray:
        """Integral of M^H (W W^H) M weighted by the prior (n_tx x n_tx)."""
        _check_gram(w_gram, self.rx_pos, "receive Gram W W^H")
        return _hermitian(_toeplitz(_lag_sums(w_gram) @ self.hankel.T))

    def b_tilde(self, tx_cov: np.ndarray) -> np.ndarray:
        """Integral of Mdot (tx_cov) Mdot^H weighted by the prior (n_rx x n_rx).

        tx_cov is the transmit covariance V R V^H (n_tx x n_tx); for OFDM pass
        the sum over sub-carriers (the integral is linear in tx_cov).
        """
        _check_gram(tx_cov, self.tx_pos, "transmit covariance")
        return _lag_form(tx_cov, self.tx_pos, self.rx_pos, self.hankel_cos2.T)


def _check_gram(x: np.ndarray, positions: np.ndarray, what: str) -> None:
    n = positions.size
    if x.shape != (n, n):
        raise QuadratureError(f"{what} has shape {x.shape}, expected {(n, n)}")


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _lag_sums(x: np.ndarray) -> np.ndarray:
    """Sums of x[..., p, q] along each diagonal q - p = d, at index d + n - 1."""
    *lead, n, _ = x.shape
    skew = np.zeros((*lead, n, 2 * n), dtype=complex)
    skew[..., :n] = x[..., ::-1, :]
    # rows of width 2n - 1 shift row r of skew right by r, so column
    # c = q - p + n - 1 collects x[p, q] with p = n - 1 - r
    flat = skew.reshape(*lead, 2 * n * n)[..., : n * (2 * n - 1)]
    return flat.reshape(*lead, n, 2 * n - 1).sum(axis=-2)


def _toeplitz(lag_values: np.ndarray) -> np.ndarray:
    """out[..., i, k] = lag_values[..., i - k + n - 1] for i, k < n."""
    n = (lag_values.shape[-1] + 1) // 2
    return lag_values[..., np.subtract.outer(np.arange(n), np.arange(n)) + n - 1]


def _lag_form(
    x: np.ndarray, in_pos: np.ndarray, out_pos: np.ndarray, hankel: np.ndarray
) -> np.ndarray:
    """sum_pq x_pq (in_p - out_i)(in_q - out_k) M[q - p + i - k] for all (i, k).

    hankel[e, d] = M[d + e] with d = q - p + n_in - 1, e = i - k + n_out - 1.
    """
    row, col = in_pos[:, None], in_pos[None, :]
    sums = _lag_sums(np.stack([row * x * col, row * x, x * col, x]))
    q_both, q_row, q_col, q_none = _toeplitz(sums @ hankel.T)
    i, k = out_pos[:, None], out_pos[None, :]
    return _hermitian(q_both - k * q_row - i * q_col + i * k * q_none)
