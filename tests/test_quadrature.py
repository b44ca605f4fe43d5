import numpy as np
import pytest

from isac_beamkit.model import (
    ArrayConfig,
    GmmAnglePrior,
    RxArchitecture,
    steering_block,
    steering_derivative,
    steering_vector,
)
from isac_beamkit.quadrature import (
    LagMoments,
    QuadratureError,
    QuadratureGrid,
    build_grid,
    prior_fisher_theta,
)

from conftest import make_prior, random_phases, random_psd

ARR = ArrayConfig(2, 2, 2, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)
REF_PRIOR = GmmAnglePrior.from_components(
    [
        (0.31, -0.74, 10**-2.5),
        (0.24, -0.54, 10**-2.0),
        (0.28, -0.75, 10**-2.0),
        (0.17, 0.95, 10**-2.5),
    ]
)


def prior_moments(arrays, prior, grid):
    """The lag moments of the prior on the grid, as PcrbEngine builds them."""
    return LagMoments(arrays, grid.nodes, grid.weights * prior.pdf(grid.nodes))


def a_matrices(arrays, prior, w, grid):
    """Prior-weighted (A1, A2) of a receive matrix W."""
    moments = prior_moments(arrays, prior, grid)
    g = w @ w.conj().T
    return moments.a1(g), moments.a2(g)


def b_matrix(arrays, prior, v, r_list, grid):
    """Prior-weighted B~ of the transmit covariance summed over sub-carriers."""
    return prior_moments(arrays, prior, grid).b_tilde(sum(v @ r @ v.conj().T for r in r_list))


def mc_a_matrices(arrays, prior, w, n_samples, seed):
    """Monte-Carlo estimate of the prior-weighted integrals (oracle path)."""
    rng = np.random.default_rng(seed)
    thetas = prior.sample(rng, n_samples)
    a, da = steering_block(arrays.n_tx, thetas)
    b, db = steering_block(arrays.n_rx, thetas)
    g = w @ w.conj().T
    s_dd = np.einsum("ni,ij,nj->n", db.conj(), g, db)
    s_db = np.einsum("ni,ij,nj->n", db.conj(), g, b)
    s_bb = np.einsum("ni,ij,nj->n", b.conj(), g, b)
    terms = (
        np.einsum("n,ni,nj->nij", s_dd, a, a.conj())
        + np.einsum("n,ni,nj->nij", s_db, a, da.conj())
        + np.einsum("n,ni,nj->nij", s_db.conj(), da, a.conj())
        + np.einsum("n,ni,nj->nij", s_bb, da, da.conj())
    )
    a1 = terms.mean(axis=0)
    a1_se = terms.std(axis=0, ddof=1) / np.sqrt(n_samples)
    terms2 = np.einsum("n,ni,nj->nij", s_bb, a, a.conj())
    a2 = terms2.mean(axis=0)
    a2_se = terms2.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return a1, a1_se, a2, a2_se


def node_sum_integrals(arrays, prior, grid, w_gram, tx_cov):
    """A1, A2 and B~ as direct prior-weighted sums over the grid nodes."""
    wp = grid.weights * prior.pdf(grid.nodes)
    a, da = steering_block(arrays.n_tx, grid.nodes)
    b, db = steering_block(arrays.n_rx, grid.nodes)
    m = np.einsum("nr,nt->nrt", b, a.conj())
    m_dot = np.einsum("nr,nt->nrt", db, a.conj()) + np.einsum("nr,nt->nrt", b, da.conj())
    a1 = np.einsum("n,nri,rs,nsk->ik", wp, m_dot.conj(), w_gram, m_dot, optimize=True)
    a2 = np.einsum("n,nri,rs,nsk->ik", wp, m.conj(), w_gram, m, optimize=True)
    b_t = np.einsum("n,nit,tu,nku->ik", wp, m_dot, tx_cov, m_dot.conj(), optimize=True)
    return a1, a2, b_t


def random_gram(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x @ x.conj().T


class TestGrid:
    def test_grid_invariants(self):
        grid = build_grid(REF_PRIOR, 2048)
        assert np.all(grid.weights > 0)
        assert np.all(np.diff(grid.nodes) > 0)
        assert abs(grid.weights.sum() - np.pi) < 1e-12 * np.pi

    def test_bad_grid_rejected(self):
        with pytest.raises(QuadratureError):
            QuadratureGrid(np.array([0.0, 0.1]), np.array([1.0, -0.1]), (-1.0, 1.0))

    def test_doubling_converged(self):
        w = random_phases(np.random.default_rng(0), (2, 1))
        arrays = ArrayConfig(4, 2, 2, 2, 1, RxArchitecture.PARTIALLY_CONNECTED)
        vals = []
        for n in (2048, 4096):
            grid = build_grid(REF_PRIOR, n)
            a1, a2 = a_matrices(arrays, REF_PRIOR, w, grid)
            f_p = prior_fisher_theta(REF_PRIOR, grid)
            vals.append((a1, a2, f_p))
        rel_a1 = np.abs(vals[0][0] - vals[1][0]).max() / np.abs(vals[1][0]).max()
        rel_fp = abs(vals[0][2] - vals[1][2]) / vals[1][2]
        assert rel_a1 < 1e-8
        assert rel_fp < 1e-8


class TestPriorFisher:
    @pytest.mark.parametrize("var,expect", [(1e-2, 100.0), (1e-3, 1000.0)])
    def test_single_gaussian(self, var, expect):
        prior = GmmAnglePrior.from_components([(1.0, 0.0, var)])
        grid = build_grid(prior, 2048)
        val = prior_fisher_theta(prior, grid)
        assert abs(val - expect) / expect < 1e-6

    def test_reference_mixture_against_mc(self):
        rng = np.random.default_rng(99)
        thetas = REF_PRIOR.sample(rng, 10_000_000)
        scores = REF_PRIOR.score(thetas) ** 2
        mc, se = scores.mean(), scores.std(ddof=1) / np.sqrt(thetas.size)
        grid = build_grid(REF_PRIOR, 2048)
        val = prior_fisher_theta(REF_PRIOR, grid)
        assert abs(val - mc) < 3 * se


class TestAMatrices:
    def test_single_antennas_zero_information(self):
        arrays = ArrayConfig(1, 1, 1, 1, 1, RxArchitecture.FULLY_DIGITAL)
        grid = build_grid(make_prior(), 512)
        a1, a2 = a_matrices(arrays, make_prior(), np.eye(1), grid)
        assert abs(a1[0, 0]) < 1e-12
        assert a2[0, 0].real > 0

    def test_point_mass_limit(self):
        theta0 = 0.4
        prior = GmmAnglePrior.from_components([(1.0, theta0, 1e-10)])
        arrays = ArrayConfig(3, 2, 2, 2, 1, RxArchitecture.PARTIALLY_CONNECTED)
        w = random_phases(np.random.default_rng(3), (2, 1))
        grid = build_grid(prior, 1024)
        a1, _ = a_matrices(arrays, prior, w, grid)
        a = steering_vector(3, theta0)
        da = steering_derivative(3, theta0)
        b = steering_vector(2, theta0)
        db = steering_derivative(2, theta0)
        m_dot = np.outer(db, a.conj()) + np.outer(b, da.conj())
        expect = m_dot.conj().T @ (w @ w.conj().T) @ m_dot
        assert np.abs(a1 - expect).max() / np.abs(expect).max() < 1e-3

    def test_matches_monte_carlo(self):
        arrays = ArrayConfig(2, 2, 2, 2, 1, RxArchitecture.PARTIALLY_CONNECTED)
        prior = make_prior()
        w = random_phases(np.random.default_rng(1), (2, 1))
        grid = build_grid(prior, 1024)
        a1, a2 = a_matrices(arrays, prior, w, grid)
        m1, se1, m2, se2 = mc_a_matrices(arrays, prior, w, 1_000_000, seed=4)
        assert np.all(np.abs(a1 - m1) <= 3 * se1 + 1e-12)
        assert np.all(np.abs(a2 - m2) <= 3 * se2 + 1e-12)

    def test_psd_outputs(self):
        arrays = ArrayConfig(5, 4, 2, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)
        w = random_phases(np.random.default_rng(2), (4, 2)) * 0  # start zero
        w = np.zeros((4, 2), dtype=complex)
        w[:2, 0] = random_phases(np.random.default_rng(2), 2)
        w[2:, 1] = random_phases(np.random.default_rng(3), 2)
        grid = build_grid(make_prior(), 768)
        a1, a2 = a_matrices(arrays, make_prior(), w, grid)
        for m in (a1, a2):
            assert np.abs(m - m.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(m).min() > -1e-10


class TestBMatrix:
    def test_zero_covariance(self):
        arrays = ArrayConfig(3, 4, 2, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)
        grid = build_grid(make_prior(), 512)
        v = random_phases(np.random.default_rng(5), (3, 2))
        b = b_matrix(arrays, make_prior(), v, [np.zeros((2, 2))], grid)
        assert np.abs(b).max() == 0.0

    def test_additivity_over_subcarriers(self):
        arrays = ArrayConfig(3, 4, 2, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)
        grid = build_grid(make_prior(), 512)
        rng = np.random.default_rng(6)
        v = random_phases(rng, (3, 2))
        r1 = random_psd(rng, 2)
        single = b_matrix(arrays, make_prior(), v, [r1], grid)
        padded = b_matrix(arrays, make_prior(), v, [r1, np.zeros((2, 2))], grid)
        np.testing.assert_allclose(single, padded, atol=1e-15)

    def test_trace_identity_links_sides(self):
        # tr(A1(W) V R V^H) == tr(B(V,R) W W^H): same integral, two orders
        arrays = ArrayConfig(3, 4, 2, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)
        prior = make_prior()
        grid = build_grid(prior, 1024)
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = random_phases(rng, (3, 2))
            r = random_psd(rng, 2)
            w = np.zeros((4, 2), dtype=complex)
            w[:2, 0] = random_phases(rng, 2)
            w[2:, 1] = random_phases(rng, 2)
            a1, _ = a_matrices(arrays, prior, w, grid)
            b = b_matrix(arrays, prior, v, [r], grid)
            lhs = np.trace(a1 @ v @ r @ v.conj().T).real
            rhs = np.trace(b @ w @ w.conj().T).real
            assert abs(lhs - rhs) / abs(rhs) < 1e-9

    def test_component_additivity_is_psd_monotone(self):
        arrays = ArrayConfig(3, 4, 2, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)
        rng = np.random.default_rng(8)
        w = np.zeros((4, 2), dtype=complex)
        w[:2, 0] = random_phases(rng, 2)
        w[2:, 1] = random_phases(rng, 2)
        one = GmmAnglePrior.from_components([(1.0, -0.5, 3e-3)])
        two = GmmAnglePrior.from_components([(0.5, -0.5, 3e-3), (0.5, 0.7, 1e-3)])
        a1_one, _ = a_matrices(arrays, one, w, build_grid(one, 1024))
        a1_two, _ = a_matrices(arrays, two, w, build_grid(two, 1024))
        # A1(mixture) - weight * A1(component) is PSD
        diff = a1_two - 0.5 * a1_one
        assert np.linalg.eigvalsh(diff).min() > -1e-10 * np.abs(a1_two).max()


class TestLagMoments:
    @pytest.mark.parametrize(
        "n_tx,n_rx", [(1, 1), (1, 4), (2, 3), (3, 2), (5, 8), (7, 7), (8, 12), (64, 64)]
    )
    def test_matches_node_sum(self, n_tx, n_rx):
        arrays = ArrayConfig(n_tx, n_rx, 1, 1, 1, RxArchitecture.FULLY_CONNECTED)
        grid = build_grid(REF_PRIOR, 256)
        rng = np.random.default_rng(n_tx * 100 + n_rx)
        w_gram, tx_cov = random_gram(rng, n_rx), random_gram(rng, n_tx)
        moments = prior_moments(arrays, REF_PRIOR, grid)
        got = (moments.a1(w_gram), moments.a2(w_gram), moments.b_tilde(tx_cov))
        for g, ref in zip(got, node_sum_integrals(arrays, REF_PRIOR, grid, w_gram, tx_cov)):
            assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
            np.testing.assert_array_equal(g, g.conj().T)

    def test_btilde_linear_in_transmit_covariance(self):
        # the OFDM receive-side matrix is B~ of the covariance summed over carriers
        arrays = ArrayConfig(8, 12, 1, 1, 1, RxArchitecture.FULLY_CONNECTED)
        moments = prior_moments(arrays, REF_PRIOR, build_grid(REF_PRIOR, 512))
        rng = np.random.default_rng(12)
        covs = [random_gram(rng, 8) for _ in range(3)]
        summed = moments.b_tilde(sum(covs))
        parts = sum(moments.b_tilde(t) for t in covs)
        assert np.abs(summed - parts).max() <= 1e-13 * np.abs(summed).max()

    def test_one_node_is_the_point_integrand(self):
        # the prior collapsed onto one angle: A1 and B~ are the integrands there
        theta = 0.4
        arrays = ArrayConfig(8, 12, 1, 1, 1, RxArchitecture.FULLY_CONNECTED)
        moments = LagMoments(arrays, np.array([theta]), np.ones(1))
        a, da = steering_vector(8, theta), steering_derivative(8, theta)
        b, db = steering_vector(12, theta), steering_derivative(12, theta)
        m_dot = np.outer(db, a.conj()) + np.outer(b, da.conj())
        rng = np.random.default_rng(13)
        w_gram, tx_cov = random_gram(rng, 12), random_gram(rng, 8)
        for got, ref in (
            (moments.a1(w_gram), m_dot.conj().T @ w_gram @ m_dot),
            (moments.b_tilde(tx_cov), m_dot @ tx_cov @ m_dot.conj().T),
        ):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_wrong_sized_gram_rejected(self):
        arrays = ArrayConfig(3, 4, 1, 1, 1, RxArchitecture.FULLY_CONNECTED)
        moments = prior_moments(arrays, REF_PRIOR, build_grid(REF_PRIOR, 256))
        for call, n in ((moments.a1, 3), (moments.a2, 5), (moments.b_tilde, 4)):
            with pytest.raises(QuadratureError):
                call(np.eye(n))
        with pytest.raises(QuadratureError):
            moments.a1(np.ones((4, 3)))
