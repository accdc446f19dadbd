"""QPSK link: modulation, SNR calibration, CSI estimation, ZF, BER."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from debrisense.errors import ConfigError, EqualizationError
from debrisense.linksim import (ZF_RANK_TOL, CsiEstimate, CsiMethod,
                                complex_normal, compute_ber, estimate_csi,
                                fill_complex_normal, qpsk_demodulate,
                                qpsk_modulate, transmit, zf_equalize)


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2))


class TestQpsk:
    def test_zero_pair_maps_to_first_quadrant(self):
        sym = qpsk_modulate(np.array([0, 0]))
        assert sym[0] == pytest.approx((1 + 1j) / math.sqrt(2), rel=1e-15)

    def test_mapping_table(self):
        syms = qpsk_modulate(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
        s = 1 / math.sqrt(2)
        assert np.allclose(syms, [s + 1j * s, s - 1j * s, -s + 1j * s,
                                  -s - 1j * s])

    @given(st.integers(1, 200))
    @settings(max_examples=40)
    def test_round_trip(self, n_pairs):
        rng = np.random.default_rng(n_pairs)
        bits = rng.integers(0, 2, size=2 * n_pairs)
        assert np.array_equal(qpsk_demodulate(qpsk_modulate(bits)), bits)

    def test_unit_symbol_energy(self):
        bits = np.random.default_rng(1).integers(0, 2, size=2000)
        syms = qpsk_modulate(bits)
        assert np.allclose(np.abs(syms) ** 2, 1.0, atol=1e-12)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError):
            qpsk_modulate(np.array([0, 1, 0]))

    @pytest.mark.parametrize("bits", [[0, 2], [-1, 0], [1, 0, 0, 3],
                                      [0.5, 1.0]],
                             ids=["two", "minus_one", "three", "half"])
    def test_non_binary_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            qpsk_modulate(np.array(bits))

    def test_every_pair_matches_formula_bit_for_bit(self):
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.int8)
        assert qpsk_modulate(bits).tobytes() == ref.qpsk_modulate(bits).tobytes()

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
    def test_random_frames_match_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        for size in (2, 64, 2 * 16 * 63, 2 * 64 * 62):
            bits = rng.integers(0, 2, size=size).astype(dtype)
            got = qpsk_modulate(bits)
            assert got.dtype == np.complex128
            assert got.tobytes() == ref.qpsk_modulate(bits).tobytes()


class TestComplexNormal:
    @pytest.mark.parametrize("n,length,pad", [
        (4, 63, 0), (16, 62, 0), (64, 63, 0), (1, 1, 0), (16, 62, 1), (4, 1, 3)],
        ids=["4-63", "16-62", "64-63", "1-1", "16-62-padded", "4-1-padded"])
    def test_blocks_match_two_calls_each(self, n, length, pad):
        # one generator call per sub-band yields the noise and CSI-error
        # blocks of two complex_normal calls each, and the draw after them
        # is the same.  The noise block may be a strided view, the unpadded
        # columns of a zero-padded row of a stack, whose pad stays zero
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        padded = np.zeros((n, length + pad), complex)
        noise, error = padded[:, :length], np.empty((n, n), complex)
        fill_complex_normal(a, (noise, error))
        assert noise.tobytes() == ref.complex_normal(b, (n, length)).tobytes()
        assert error.tobytes() == ref.complex_normal(b, (n, n)).tobytes()
        assert not padded[:, length:].any()
        assert a.standard_normal() == b.standard_normal()

    @pytest.mark.parametrize("shape", [200, (3, 5), (2, 3, 4)])
    def test_single_block_matches_formula(self, shape):
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        assert complex_normal(a, shape).tobytes() == \
            ref.complex_normal(b, shape).tobytes()
        assert a.integers(0, 2 ** 62) == b.integers(0, 2 ** 62)


class TestTransmit:
    def test_infinite_snr_is_exact(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        frame = qpsk_modulate(rng.integers(0, 2, size=2 * 4 * 10)).reshape(4, 10)
        y = transmit(h, frame, 400.0, np.random.default_rng(1))
        assert np.allclose(y, h @ frame / 2.0, rtol=1e-9)

    def test_empirical_snr_calibration(self):
        # measured per-antenna SNR within 0.1 dB of configured
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        n_sym = 250_000
        frame = qpsk_modulate(rng.integers(0, 2, size=2 * 4 * n_sym)).reshape(4, n_sym)
        snr_db = 10.0
        gamma = 0.5
        signal = gamma * (h @ frame)
        y = transmit(h, frame, snr_db, np.random.default_rng(5))
        noise = y - signal
        measured = np.mean(np.abs(signal) ** 2) / np.mean(np.abs(noise) ** 2)
        assert 10 * math.log10(measured) == pytest.approx(snr_db, abs=0.1)

    def test_same_seed_same_noise(self):
        h = np.eye(2, dtype=complex)
        frame = np.ones((2, 5), dtype=complex)
        a = transmit(h, frame, 10.0, np.random.default_rng(3))
        b = transmit(h, frame, 10.0, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_frame_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transmit(np.eye(4, dtype=complex), np.ones((3, 5)), 10.0,
                     np.random.default_rng(0))


class TestZeroForcing:
    def test_noiseless_perfect_csi_recovers_frame(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        frame = qpsk_modulate(rng.integers(0, 2, size=2 * 4 * 50)).reshape(4, 50)
        y = transmit(h, frame, 500.0, np.random.default_rng(0))
        est = zf_equalize(y, CsiEstimate(matrix=h, method=CsiMethod.PERFECT))
        assert np.allclose(est, frame / 2.0, atol=1e-10)

    def test_identity_channel_passthrough(self):
        y = np.ones((3, 4), dtype=complex)
        est = zf_equalize(y, CsiEstimate(matrix=np.eye(3, dtype=complex),
                                         method=CsiMethod.PERFECT))
        assert np.allclose(est, y)

    @pytest.mark.parametrize("shape", [(4, 4), (16, 16), (64, 64), (8, 8)])
    def test_matches_pinv(self, shape):
        # the LU inverse gives pinv(H) @ y up to rounding: a few ulps times
        # the condition number of H
        rng = np.random.default_rng(shape[0])
        for _ in range(5):
            h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            y = rng.normal(size=(shape[0], 9)) + 1j * rng.normal(size=(shape[0], 9))
            est = zf_equalize(y, CsiEstimate(matrix=h, method=CsiMethod.PERFECT))
            np.testing.assert_allclose(est, np.linalg.pinv(h) @ y, rtol=1e-9)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_decisions_match_pinv_on_ls_csi(self, n):
        # campaign outputs see ZF only through hard QPSK decisions, which
        # must not differ from the pseudo-inverse path
        rng = np.random.default_rng(100 + n)
        for snr_db in (5.0, 10.0, 15.0, 20.0):
            for _ in range(3):
                h = complex_normal(rng, (n, n))
                frame = qpsk_modulate(rng.integers(0, 2, size=2 * n * 40)).reshape(n, 40)
                y = transmit(h, frame, snr_db, rng)
                csi = estimate_csi(h, 2 * n, snr_db, rng)
                est = zf_equalize(y, csi)
                assert np.array_equal(
                    qpsk_demodulate(est), qpsk_demodulate(np.linalg.pinv(csi.matrix) @ y))

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_stack_matches_per_matrix_calls_bit_for_bit(self, n):
        # a stack of 4 LS estimates equalizes to the same bytes as four
        # separate calls
        rng = np.random.default_rng(200 + n)
        ys, csis = [], []
        for snr_db in (5.0, 10.0, 15.0, 20.0):
            h = complex_normal(rng, (n, n))
            frame = qpsk_modulate(rng.integers(0, 2, size=2 * n * 63)).reshape(n, 63)
            ys.append(transmit(h, frame, snr_db, rng))
            csis.append(estimate_csi(h, 2 * n, snr_db, rng).matrix)
        stacked = zf_equalize(np.stack(ys), CsiEstimate(
            matrix=np.stack(csis), method=CsiMethod.LEAST_SQUARES))
        assert stacked.shape == (4, n, 63)
        for k in range(4):
            alone = zf_equalize(ys[k], CsiEstimate(
                matrix=csis[k], method=CsiMethod.LEAST_SQUARES))
            assert stacked[k].tobytes() == alone.tobytes()

    def test_stack_with_one_exactly_singular_matrix_rejected(self):
        rng = np.random.default_rng(6)
        h = complex_normal(rng, (4, 16, 16))
        h[2][:, 5] = 0.0
        with pytest.raises(EqualizationError):
            zf_equalize(complex_normal(rng, (4, 16, 63)),
                        CsiEstimate(matrix=h, method=CsiMethod.PERFECT))

    def test_rank_deficient_rejected(self):
        h = np.outer(np.ones(4), np.ones(4)).astype(complex)  # rank 1
        with pytest.raises(EqualizationError):
            zf_equalize(np.ones((4, 5), dtype=complex),
                        CsiEstimate(matrix=h, method=CsiMethod.PERFECT))

    @pytest.mark.parametrize("h", [
        # non-square, wide (Nr < Nt): more streams than receive antennas
        np.random.default_rng(3).normal(size=(4, 6)) + 0j,
        # non-square, tall (Nr > Nt); rank 1, which is not reached
        np.outer(np.arange(1, 7), np.ones(4)) + 0j,
    ], ids=["wide", "tall_rank1"])
    def test_without_full_column_rank_rejected(self, h):
        with pytest.raises(EqualizationError, match="not square"):
            zf_equalize(np.ones((h.shape[0], 5), dtype=complex),
                        CsiEstimate(matrix=h, method=CsiMethod.PERFECT))

    @pytest.mark.parametrize("kappa", [1e11, 1e13])
    def test_ill_conditioned_verdict_is_the_svd_rule(self, kappa, monkeypatch):
        # kappa_F >= kappa_2 is far above the certified range, so the SVD
        # rule decides: full rank at 1e11, rank-deficient at 1e13
        rng = np.random.default_rng(int(math.log10(kappa)))
        u, _ = np.linalg.qr(complex_normal(rng, (16, 16)))
        v, _ = np.linalg.qr(complex_normal(rng, (16, 16)))
        h = (u * np.geomspace(1.0, 1.0 / kappa, 16)) @ v.conj().T
        s = np.linalg.svd(h, compute_uv=False)
        deficient = s[-1] <= ZF_RANK_TOL * s[0]
        assert deficient == (kappa > 1.0 / ZF_RANK_TOL)
        svd_calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            svd_calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        csi = CsiEstimate(matrix=h, method=CsiMethod.PERFECT)
        y = complex_normal(rng, (16, 5))
        if deficient:
            with pytest.raises(EqualizationError):
                zf_equalize(y, csi)
        else:
            assert np.all(np.isfinite(zf_equalize(y, csi)))
        assert svd_calls == [1]

    @pytest.mark.parametrize("kappa", [1e11, 1e13])
    def test_stack_runs_the_svd_on_uncertified_matrices_only(self, kappa,
                                                              monkeypatch):
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(complex_normal(rng, (16, 16)))
        h = complex_normal(rng, (4, 16, 16))
        h[1] = (u * np.geomspace(1.0, 1.0 / kappa, 16)) @ u.conj().T
        svd_rows = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svd_rows.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        csi = CsiEstimate(matrix=h, method=CsiMethod.PERFECT)
        y = complex_normal(rng, (4, 16, 5))
        if kappa > 1.0 / ZF_RANK_TOL:
            with pytest.raises(EqualizationError):
                zf_equalize(y, csi)
        else:
            assert np.all(np.isfinite(zf_equalize(y, csi)))
        assert svd_rows == [1]

    def test_well_conditioned_rank_certified_without_svd(self, monkeypatch):
        rng = np.random.default_rng(64)
        h = complex_normal(rng, (64, 64))
        y = complex_normal(rng, (64, 63))
        expected = np.linalg.pinv(h) @ y

        def no_svd(*args, **kwargs):
            raise AssertionError("the Frobenius bound should certify the rank")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        est = zf_equalize(y, CsiEstimate(matrix=h, method=CsiMethod.PERFECT))
        np.testing.assert_allclose(est, expected, rtol=1e-9)

    def test_exactly_singular_square_rejected(self):
        # the LU inverse meets an exact zero pivot and raises LinAlgError
        h = complex_normal(np.random.default_rng(5), (4, 4))
        h[:, 2] = 0.0
        with pytest.raises(EqualizationError):
            zf_equalize(np.ones((4, 5), dtype=complex),
                        CsiEstimate(matrix=h, method=CsiMethod.PERFECT))

    def test_infinite_entry_rejected(self):
        # the inverse is NaN, so kappa_F is not finite and the SVD decides;
        # its singular values are NaN, which fails the rank rule
        h = np.eye(4, dtype=complex)
        h[1, 2] = np.inf
        with pytest.raises(EqualizationError):
            zf_equalize(np.ones((4, 5), dtype=complex),
                        CsiEstimate(matrix=h, method=CsiMethod.PERFECT))

    @pytest.mark.parametrize("shape", [(4, 4), (6, 4)], ids=["square", "tall"])
    def test_nan_entry_rejected(self, shape):
        # square: the inverse is NaN, so the SVD decides, and LAPACK's SVD
        # does not converge on NaN input; tall: non-square CSI is rejected
        # before any factorization
        h = np.eye(*shape, dtype=complex)
        h[1, 2] = np.nan
        with pytest.raises(EqualizationError):
            zf_equalize(np.ones((shape[0], 5), dtype=complex),
                        CsiEstimate(matrix=h, method=CsiMethod.PERFECT))

    def test_frozen_ber_on_fixed_channel_at_10db(self):
        # regression golden: 4x4 i.i.d. Gaussian channel, perfect CSI ZF,
        # value frozen after validating the chain against the AWGN bound
        rng = np.random.default_rng(2718)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        bits = np.random.default_rng(42).integers(0, 2, size=2 * 4 * 50_000)
        frame = qpsk_modulate(bits).reshape(4, -1)
        y = transmit(h, frame, 10.0, np.random.default_rng(137))
        est = zf_equalize(y, CsiEstimate(matrix=h, method=CsiMethod.PERFECT))
        ber = compute_ber(bits, qpsk_demodulate(est.ravel()))
        assert ber == pytest.approx(0.1140225, abs=1e-7)


class TestCsiEstimation:
    def test_perfect_mode_returns_truth(self):
        h = np.arange(4, dtype=complex).reshape(2, 2)
        est = estimate_csi(h, 4, 10.0, np.random.default_rng(0),
                           CsiMethod.PERFECT)
        assert np.array_equal(est.matrix, h)

    def test_pilot_shorter_than_streams_rejected(self):
        with pytest.raises(ConfigError):
            estimate_csi(np.eye(4, dtype=complex), 3, 10.0,
                         np.random.default_rng(0))

    def test_error_variance_halves_with_pilot_doubling(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        trials = 8000

        def mean_err_var(pilot_len, seed):
            gen = np.random.default_rng(seed)
            total = 0.0
            for _ in range(trials):
                est = estimate_csi(h, pilot_len, 10.0, gen)
                total += np.mean(np.abs(est.matrix - h) ** 2)
            return total / trials

        v8 = mean_err_var(8, 11)
        v16 = mean_err_var(16, 12)
        assert v8 / v16 == pytest.approx(2.0, rel=0.1)

    def test_high_snr_estimate_approaches_truth(self):
        h = np.eye(3, dtype=complex)
        est = estimate_csi(h, 6, 300.0, np.random.default_rng(1))
        assert np.allclose(est.matrix, h, atol=1e-10)

    def test_reported_variance_matches_formula(self):
        # the LS error is the given unit draw scaled to the variance
        # sigma_n^2 * Nt / pilot_length
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unit = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        snr_db, pilot = 12.0, 8
        est = estimate_csi(h, pilot, snr_db, None, error_unit=unit)
        sigma_sq = (np.linalg.norm(h) ** 2 / 4 / 4) / 10 ** (snr_db / 10)
        assert np.allclose(est.matrix - h, math.sqrt(sigma_sq * 4 / pilot) * unit,
                           rtol=1e-12, atol=0.0)


class TestBer:
    def test_identical_streams(self):
        assert compute_ber(np.array([0, 1, 1]), np.array([0, 1, 1])) == 0.0

    def test_complementary_streams(self):
        assert compute_ber(np.array([0, 1, 0]), np.array([1, 0, 1])) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_ber(np.zeros(4), np.zeros(5))

    def test_siso_awgn_matches_q_function(self):
        # quick 1e5-bit check at Eb/N0 = 4 dB; the acceptance suite runs
        # the full four-point 1e6-bit sweep
        ebn0_db = 4.0
        snr_db = ebn0_db + 10 * math.log10(2)
        n_bits = 100_000
        rng = np.random.default_rng(42)
        bits = rng.integers(0, 2, size=n_bits)
        frame = qpsk_modulate(bits).reshape(1, -1)
        h = np.eye(1, dtype=complex)
        y = transmit(h, frame, snr_db, np.random.default_rng(43))
        est = zf_equalize(y, CsiEstimate(matrix=h, method=CsiMethod.PERFECT))
        ber = compute_ber(bits, qpsk_demodulate(est.ravel()))
        p = q_function(math.sqrt(2 * 10 ** (ebn0_db / 10)))
        sigma = math.sqrt(p * (1 - p) / n_bits)
        assert abs(ber - p) < 3 * sigma


def test_complex_normal_unit_variance():
    rng = np.random.default_rng(0)
    z = complex_normal(rng, 200_000)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
