"""Channel assembly, small-scale dressing and the sub-band grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debrisense.channel import (ArrayConfig, PathContribution,
                                apply_rician_smallscale, assemble_subband,
                                steering_vector, subband_grid)
from debrisense.propagation import doppler_factor, los_response
from debrisense.scene import Mechanism


def los_path(gain=1.0 + 0j):
    return PathContribution(mechanism=Mechanism.LOS, gain=gain,
                            aod=(0.0, 0.0), aoa=(0.0, 0.0))


def debris_path(gain, el_t=0.2, el_r=-0.1):
    return PathContribution(mechanism=Mechanism.REFLECTION, gain=gain,
                            aod=(0.0, el_t), aoa=(0.0, el_r))


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
        sb = assemble_subband([], ArrayConfig(4, 4), 1e12, 0.0)
        assert np.all(sb.matrix == 0)

    def test_single_los_scalar_channel(self):
        f, v = 1e12, 7e3
        gain = los_response(f, 5e5)
        sb = assemble_subband([los_path(gain)], ArrayConfig(1, 1), f, v)
        assert sb.matrix.shape == (1, 1)
        assert sb.matrix[0, 0] == pytest.approx(gain * doppler_factor(f, v),
                                                rel=1e-12)

    def test_rank_bounded_by_path_count(self):
        rng = np.random.default_rng(3)
        cfg = ArrayConfig(16, 16)
        for n_paths in (1, 2, 3, 5):
            paths = [los_path()] + [
                debris_path(rng.normal() + 1j * rng.normal(),
                            rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                for _ in range(n_paths - 1)]
            sb = assemble_subband(paths, cfg, 3e12, 7e3)
            sv = np.linalg.svd(sb.matrix, compute_uv=False)
            assert np.sum(sv > 1e-12 * sv[0]) <= n_paths

    def test_linear_in_gains(self):
        cfg = ArrayConfig(8, 8)
        paths = [los_path(0.3 + 0.1j), debris_path(0.05 - 0.02j)]
        scaled = [PathContribution(p.mechanism, 2.5 * p.gain, p.aod, p.aoa)
                  for p in paths]
        h1 = assemble_subband(paths, cfg, 3e12, 7e3).matrix
        h2 = assemble_subband(scaled, cfg, 3e12, 7e3).matrix
        assert np.allclose(h2, 2.5 * h1, rtol=1e-12)

    def test_los_indicator_removes_rank_one_term(self):
        cfg = ArrayConfig(8, 8)
        paths = [los_path(0.3 + 0.1j), debris_path(0.05 - 0.02j)]
        h_on = assemble_subband(paths, cfg, 3e12, 7e3, los_indicator=1).matrix
        h_off = assemble_subband(paths, cfg, 3e12, 7e3, los_indicator=0).matrix
        delta = h_on - h_off
        sv = np.linalg.svd(delta, compute_uv=False)
        assert np.sum(sv > 1e-12 * sv[0]) == 1
        only_los = assemble_subband([paths[0]], cfg, 3e12, 7e3).matrix
        assert np.allclose(delta, only_los, rtol=1e-12)


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
