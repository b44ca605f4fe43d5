import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isac_beamkit.model import (
    ArrayConfig,
    GmmAnglePrior,
    ModelError,
    NarrowbandChannel,
    ReflectionPrior,
    RxArchitecture,
    gen_rician_channel,
    gen_wideband_channel,
    steering_derivative,
    steering_vector,
)

from conftest import make_scenario


class TestSteering:
    def test_two_antennas_broadside(self):
        np.testing.assert_allclose(steering_vector(2, 0.0), [1, 1])
        np.testing.assert_allclose(steering_vector(3, 0.0), [1, 1, 1])

    def test_half_integer_indexing(self):
        # n=2, theta=pi/6: m = -1/2, +1/2 and sin = 1/2
        expect = [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]
        np.testing.assert_allclose(steering_vector(2, np.pi / 6), expect, atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(ModelError):
            steering_vector(4, 2.0)
        with pytest.raises(ModelError):
            steering_derivative(4, -2.0)

    def test_derivative_examples(self):
        np.testing.assert_allclose(steering_derivative(1, 0.7), [0.0])
        np.testing.assert_allclose(
            steering_derivative(2, 0.0), [-1j * np.pi / 2, 1j * np.pi / 2], atol=1e-15
        )

    @given(
        n=st.integers(min_value=1, max_value=16),
        theta=st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_modulus_and_conjugate_symmetry(self, n, theta):
        a = steering_vector(n, theta)
        assert np.abs(np.abs(a) - 1.0).max() < 1e-12
        np.testing.assert_allclose(a, a[::-1].conj(), atol=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=12),
        theta=st.floats(min_value=-1.4, max_value=1.4),
    )
    @settings(max_examples=40, deadline=None)
    def test_derivative_matches_finite_difference(self, n, theta):
        h = 1e-6
        fd = (steering_vector(n, theta + h) - steering_vector(n, theta - h)) / (2 * h)
        da = steering_derivative(n, theta)
        scale = max(np.abs(da).max(), 1.0)
        assert np.abs(da - fd).max() <= 1e-6 * scale


class TestArrayConfig:
    def test_divisibility(self):
        with pytest.raises(ModelError):
            ArrayConfig(8, 12, 4, 2, 5, RxArchitecture.PARTIALLY_CONNECTED)
        ArrayConfig(8, 12, 4, 2, 6, RxArchitecture.PARTIALLY_CONNECTED)

    def test_rf_bounds(self):
        with pytest.raises(ModelError):
            ArrayConfig(4, 8, 2, 5, 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_count_rejected(self, value):
        with pytest.raises(ModelError):
            ArrayConfig(4, 8, 2, value, 2)


class TestGmmPrior:
    def test_weight_validation(self):
        with pytest.raises(ModelError):
            GmmAnglePrior.from_components([(0.5, 0.0, 1e-2), (0.4, 0.5, 1e-2)])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_non_finite_component_rejected(self, field, value):
        comp = [0.6, 0.0, 1e-2]
        comp[field] = value
        with pytest.raises(ModelError):
            GmmAnglePrior.from_components([tuple(comp), (0.4, 0.5, 1e-2)])

    def test_density_normalization(self):
        prior = GmmAnglePrior.from_components(
            [
                (0.31, -0.74, 10**-2.5),
                (0.24, -0.54, 10**-2.0),
                (0.28, -0.75, 10**-2.0),
                (0.17, 0.95, 10**-2.5),
            ]
        )
        theta = np.linspace(-np.pi / 2, np.pi / 2, 200001)
        mass = np.trapezoid(prior.pdf(theta), theta)
        assert mass >= 1 - 1e-6
        assert mass <= 1 + 1e-9

    def test_score_matches_log_pdf_gradient(self, rng):
        prior = GmmAnglePrior.from_components([(0.7, -0.3, 2e-3), (0.3, 0.4, 8e-3)])
        thetas = rng.uniform(-1.2, 1.2, 50)
        h = 1e-7
        fd = (np.log(prior.pdf(thetas + h)) - np.log(prior.pdf(thetas - h))) / (2 * h)
        np.testing.assert_allclose(prior.score(thetas), fd, rtol=1e-5, atol=1e-4)

    def test_mode_single_component(self):
        prior = GmmAnglePrior.from_components([(1.0, 0.41, 1e-3)])
        assert abs(prior.most_probable_angle() - 0.41) < 1e-8


class TestRicianChannel:
    ARR = ArrayConfig(4, 6, 3, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)

    def test_los_limit(self):
        h = gen_rician_channel(self.ARR, 0.3, 100.0, 1e12, 1e-3, 3.5, seed=7)
        beta = 1e-3 / 100.0**3.5
        from isac_beamkit.model import steering_vector as sv

        expect = math.sqrt(beta) * np.outer(sv(3, 0.3), sv(4, 0.3).conj())
        assert np.abs(h - expect).max() / np.abs(expect).max() < 1e-5

    def test_determinism(self):
        a = gen_rician_channel(self.ARR, 0.3, 200.0, 0.2, 1e-3, 3.5, seed=3)
        b = gen_rician_channel(self.ARR, 0.3, 200.0, 0.2, 1e-3, 3.5, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_mean_power(self):
        # E ||H||_F^2 / (N_U N_T) = beta for any Rician factor
        beta = 1e-3 / 400.0**3.5
        acc = 0.0
        n = 10_000
        for seed in range(n):
            h = gen_rician_channel(self.ARR, 0.36, 400.0, 0.158, 1e-3, 3.5, seed=seed)
            acc += (np.abs(h) ** 2).sum()
        mean = acc / (n * 3 * 4)
        assert abs(mean - beta) / beta < 0.10


class TestWidebandChannel:
    ARR = ArrayConfig(4, 6, 3, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)

    def test_single_tap_flat(self):
        hk = gen_wideband_channel(self.ARR, 1, 8, 1e-9, seed=5)
        for h in hk[1:]:
            np.testing.assert_allclose(h, hk[0], atol=1e-18)

    def test_two_point_dft(self):
        hk = gen_wideband_channel(self.ARR, 2, 2, 1e-9, seed=11)
        # reconstruct taps from the 2-point DFT: H1 = A+B, H2 = A-B
        a = (hk[0] + hk[1]) / 2
        b = (hk[0] - hk[1]) / 2
        np.testing.assert_allclose(hk[0], a + b, atol=1e-18)
        np.testing.assert_allclose(hk[1], a - b, atol=1e-18)

    def test_parseval(self):
        for seed in range(5):
            hk = gen_wideband_channel(self.ARR, 5, 16, 1e-9, seed=seed)
            freq = sum((np.abs(h) ** 2).sum() for h in hk)
            # recover taps by inverse DFT to evaluate the identity
            stack = np.stack(hk)
            taps = np.fft.ifft(stack, axis=0)[:5]
            time_e = 16 * (np.abs(taps) ** 2).sum()
            assert abs(freq - time_e) / freq < 1e-9

    def test_invalid_taps(self):
        with pytest.raises(ModelError):
            gen_wideband_channel(self.ARR, 9, 8, 1e-9, seed=0)


class TestScenario:
    def test_channel_shape_checked(self):
        with pytest.raises(ModelError):
            make_scenario(n_user=3).replace(
                arrays=ArrayConfig(4, 4, 2, 2, 2, RxArchitecture.PARTIALLY_CONNECTED)
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["power", "noise_comm", "noise_sense", "rate_target"])
    def test_non_finite_budget_rejected(self, field, value):
        with pytest.raises(ModelError):
            make_scenario().replace(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_reflection_and_channel_rejected(self, value):
        sc = make_scenario()
        with pytest.raises(ModelError):
            ReflectionPrior(value)
        h = sc.channel.h.copy()
        h[0, 0] = value
        with pytest.raises(ModelError):
            sc.replace(channel=NarrowbandChannel(h))

    def test_subcarrier_match(self):
        sc = make_scenario(subcarriers=4)
        assert sc.channel.n_subcarriers == 4
        with pytest.raises(ModelError):
            sc.replace(subcarriers=2)
