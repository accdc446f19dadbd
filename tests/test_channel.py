"""Channel assembly, small-scale dressing and the sub-band grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from debrisense.channel import (apply_rician_smallscale, assemble_subband,
                                steering_matrix, steering_vector, subband_grid)
from debrisense.propagation import doppler_factor, los_response


def los_term(n, gain=1.0 + 0j):
    return gain, steering_matrix(n, 0.5, 0.0, 0.0)


def debris_term(n, gain, el_t=0.2, el_r=-0.1):
    return gain, steering_matrix(n, 0.5, el_t, el_r)


class TestSteering:
    def test_broadside_all_ones(self):
        v = steering_vector(8, 0.5, 0.0, 0.0)
        assert np.allclose(v, np.ones(8))

    def test_endfire_alternating_signs(self):
        v = steering_vector(4, 0.5, math.pi / 2, 0.0)
        assert np.allclose(v, [1, -1, 1, -1], atol=1e-12)

    @given(st.integers(1, 64), st.floats(-math.pi / 2, math.pi / 2),
           st.floats(0, 2 * math.pi))
    @settings(max_examples=80)
    def test_unit_modulus_and_leading_one(self, n, theta, phi):
        v = steering_vector(n, 0.5, theta, phi)
        assert v[0] == 1.0 + 0.0j
        assert np.allclose(np.abs(v), 1.0, atol=1e-12)

    def test_rank_one_outer_products(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sr = steering_vector(16, 0.5, rng.uniform(-1, 1), rng.uniform(0, 6))
            st_ = steering_vector(16, 0.5, rng.uniform(-1, 1), rng.uniform(0, 6))
            sv = np.linalg.svd(np.outer(sr, st_), compute_uv=False)
            assert sv[1] < 1e-12 * sv[0]


class TestAssembly:
    def test_empty_paths_zero_matrix(self):
        h = assemble_subband([], 4, 1e12, 0.0)
        assert h.shape == (4, 4)
        assert np.all(h == 0)

    def test_single_los_scalar_channel(self):
        f, v = 1e12, 7e3
        gain = los_response(f, 5e5)
        h = assemble_subband([los_term(1, gain)], 1, f, v)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(gain * doppler_factor(f, v), rel=1e-12)

    def test_rank_bounded_by_path_count(self):
        rng = np.random.default_rng(3)
        for n_paths in (1, 2, 3, 5):
            terms = [los_term(16)] + [
                debris_term(16, rng.normal() + 1j * rng.normal(),
                            rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                for _ in range(n_paths - 1)]
            h = assemble_subband(terms, 16, 3e12, 7e3)
            sv = np.linalg.svd(h, compute_uv=False)
            assert np.sum(sv > 1e-12 * sv[0]) <= n_paths

    def test_linear_in_gains(self):
        terms = [los_term(8, 0.3 + 0.1j), debris_term(8, 0.05 - 0.02j)]
        scaled = [(2.5 * gain, steering) for gain, steering in terms]
        h1 = assemble_subband(terms, 8, 3e12, 7e3)
        h2 = assemble_subband(scaled, 8, 3e12, 7e3)
        assert np.allclose(h2, 2.5 * h1, rtol=1e-12)


class TestAssemblyMatchesReference:
    """Steering and assembly equal the angle-pair path records bit for bit."""

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_steering_matrix(self, n):
        rng = np.random.default_rng(n)
        array = ref.ArrayConfig(n, n)
        for el_t, el_r in [(0.0, 0.0), *rng.uniform(-1.5, 1.5, size=(20, 2))]:
            got = steering_matrix(n, 0.5, el_t, el_r)
            want = ref.steering_matrix(array, (0.0, el_t), (0.0, el_r))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_subbands_with_a_failed_gain(self, n):
        # a line of sight plus four debris paths over eight sub-bands; the
        # second debris path's gain failed at sub-band 5 and is left out there
        rng = np.random.default_rng(100 + n)
        grid = subband_grid(3e12, 8, 10e9)
        angles = [(0.0, 0.0), *rng.uniform(-1.5, 1.5, size=(4, 2))]
        gains = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        gains = [list(row) for row in gains]
        gains[2][5] = None
        array = ref.ArrayConfig(n, n)
        steering = [steering_matrix(n, 0.5, el_t, el_r) for el_t, el_r in angles]
        for k, f_k in enumerate(grid):
            present = [p for p in range(5) if gains[p][k] is not None]
            assert len(present) == (4 if k == 5 else 5)
            got = assemble_subband([(gains[p][k], steering[p]) for p in present],
                                   n, float(f_k), 7e3)
            want = ref.assemble_subband(
                [ref.PathContribution(gains[p][k], (0.0, angles[p][0]),
                                      (0.0, angles[p][1])) for p in present],
                array, float(f_k), 7e3)
            assert np.array_equal(got, want)


class TestRician:
    def test_large_k_returns_deterministic_part(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        out = apply_rician_smallscale(h, 300.0, np.random.default_rng(1))
        assert np.allclose(out, h, rtol=0, atol=1e-12 * np.abs(h).max())

    def test_energy_preserved_in_expectation(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        target = np.linalg.norm(h) ** 2
        draws = 3000
        total = 0.0
        gen = np.random.default_rng(17)
        for _ in range(draws):
            total += np.linalg.norm(apply_rician_smallscale(h, 3.0, gen)) ** 2
        assert total / draws == pytest.approx(target, rel=0.05)

    def test_same_seed_same_dressing(self):
        h = np.ones((4, 4), dtype=complex)
        a = apply_rician_smallscale(h, 10.0, np.random.default_rng(9))
        b = apply_rician_smallscale(h, 10.0, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_infinite_k_rejected(self):
        with pytest.raises(ValueError):
            apply_rician_smallscale(np.ones((2, 2), dtype=complex),
                                    float("inf"), np.random.default_rng(0))


class TestSubbandGrid:
    def test_single_band_is_carrier(self):
        assert np.array_equal(subband_grid(3e12, 1, 10e9), [3e12])

    def test_four_band_spacing(self):
        grid = subband_grid(3e12, 4, 4e9)
        assert np.allclose(np.diff(grid), 1e9)
        assert np.allclose(grid, [3e12 - 1.5e9, 3e12 - 0.5e9,
                                  3e12 + 0.5e9, 3e12 + 1.5e9])

    @given(st.integers(1, 33), st.floats(0, 2e10), st.floats(1e10, 5e12))
    @settings(max_examples=60)
    def test_mean_is_carrier(self, n, bw, center):
        grid = subband_grid(center, n, bw)
        assert np.mean(grid) == pytest.approx(center, rel=1e-12)
