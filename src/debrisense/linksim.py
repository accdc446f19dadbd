"""QPSK MIMO link simulation: modulation, AWGN, CSI estimation, ZF, BER.

The transmit convention normalizes total power across the Nt streams
(per-stream scale 1/sqrt(Nt)); SNR is defined post-channel as the average
per-receive-antenna signal-to-noise ratio for the realized channel, which
keeps SNR sweeps meaningful independent of absolute path-loss levels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EqualizationError, ConfigError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Rank tolerance for the zero-forcing precondition.
ZF_RANK_TOL = 1e-12
# Factor by which the Frobenius condition bound must clear 1/ZF_RANK_TOL
# before zero-forcing skips the SVD rank check.
_ZF_BOUND_MARGIN = 1e3


class CsiMethod(enum.Enum):
    PERFECT = "perfect"
    LEAST_SQUARES = "least_squares"


@dataclass(frozen=True)
class CsiEstimate:
    matrix: np.ndarray
    method: CsiMethod


def qpsk_modulate(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gray-mapped unit-energy QPSK: bit pair (b0, b1) -> ((1-2b0)+j(1-2b1))/sqrt(2).

    The all-zeros pair maps to (1+1j)/sqrt(2); adjacent constellation
    points differ in exactly one bit.  Bits must be 0 or 1.  The symbols
    come back flat, or written into ``out``, a C-contiguous complex array
    of one element per bit pair, which is returned in its own shape.
    """
    bits = np.asarray(bits)
    if bits.size % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.size}")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1")
    pairs = bits.reshape(-1, 2)
    # (b0 + j b1) * (-2/sqrt(2)) + (1 + j)/sqrt(2), built in the output with
    # no index temporaries; every step is exact, so each symbol is the
    # formula's value bit for bit
    if out is None:
        symbols = np.empty(len(pairs), dtype=complex)
    elif out.flags.c_contiguous:
        symbols = out.reshape(-1)  # a view: writing it writes out
    else:
        raise ValueError("out must be C-contiguous")
    symbols.real = pairs[:, 0]
    symbols.imag = pairs[:, 1]
    symbols *= -2.0 * _INV_SQRT2
    symbols += (1 + 1j) * _INV_SQRT2
    return symbols if out is None else out


def qpsk_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard-decision inverse of :func:`qpsk_modulate`."""
    symbols = np.asarray(symbols).ravel()
    bits = np.empty((symbols.size, 2), dtype=np.int8)
    bits[:, 0] = symbols.real < 0
    bits[:, 1] = symbols.imag < 0
    return bits.ravel()


def signal_power(h: np.ndarray) -> float:
    """Average per-receive-antenna power of the noiseless output gamma H x.

    Unit-energy symbols sent at gamma = 1/sqrt(Nt) give ||H||_F^2 / (Nt Nr).
    """
    n_rx, n_tx = np.shape(h)
    return (1.0 / n_tx) * float(np.linalg.norm(h) ** 2) / n_rx


def noise_variance(power, snr_db: float):
    """Complex noise variance that puts a signal of ``power`` at ``snr_db``.

    ``power`` may be one value per sub-band.
    """
    return power / 10.0 ** (snr_db / 10.0)


def csi_error_variance(noise_var, n_tx: int, pilot_length: int):
    """Per-entry variance of the LS channel estimate from an orthogonal
    unit-modulus pilot block: sigma_n^2 / (gamma^2 * pilot_length)."""
    if pilot_length < n_tx:
        raise ConfigError(f"pilot length {pilot_length} shorter than Nt={n_tx}")
    return noise_var * n_tx / pilot_length  # gamma^2 = 1/Nt


def add_noise(signal: np.ndarray, variance, unit: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """signal + sqrt(variance) * unit for complex CN(0, 1) ``unit`` of the
    same shape, into ``out`` if given.

    On a stack of matrices, ``variance`` may hold one value per matrix.
    """
    scale = np.sqrt(variance)
    if np.ndim(scale):
        scale = scale[..., None, None]
    out = np.multiply(scale, unit, out=out)
    out += signal  # addition commutes bit for bit: no second temporary
    return out


def noiseless_output(h: np.ndarray, frame: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The noiseless received block gamma * (H @ x), gamma = 1/sqrt(Nt),
    into ``out`` if given.

    ``h`` and ``frame`` may carry matching leading stack axes.  The product
    is scaled in place.
    """
    out = np.matmul(h, frame, out=out)
    out *= 1.0 / math.sqrt(h.shape[-1])
    return out


def transmit(h: np.ndarray, frame: np.ndarray, snr_db: float,
             rng: np.random.Generator | None,
             noise_unit: np.ndarray | None = None) -> np.ndarray:
    """Send a symbol frame through y = H x / sqrt(Nt) + n.

    ``noise_unit`` may provide a pre-drawn CN(0,1) block of the output
    shape; otherwise the generator supplies it.
    """
    h = np.asarray(h)
    frame = np.asarray(frame)
    n_rx, n_tx = h.shape
    if frame.ndim != 2 or frame.shape[0] != n_tx:
        raise ValueError(f"frame shape {frame.shape} does not match Nt={n_tx}")
    if noise_unit is None:
        if rng is None:
            raise ValueError("provide either rng or noise_unit")
        noise_unit = complex_normal(rng, (n_rx, frame.shape[1]))
    return add_noise(noiseless_output(h, frame),
                     noise_variance(signal_power(h), snr_db), noise_unit)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) samples."""
    block = np.empty(shape, dtype=complex)
    fill_complex_normal(rng, (block,))
    return block


def fill_complex_normal(rng: np.random.Generator, blocks) -> None:
    """Fill complex arrays with CN(0, 1) from one generator call.

    Each block takes its real and then its imaginary parts, in C order,
    from consecutive normals and is scaled by 1/sqrt(2), so the blocks and
    the generator's state after them equal those of one two-call draw
    ``(re + 1j*im) / sqrt(2)`` per block, in order.  A block may be any
    view into a larger array, such as the unpadded columns of one sub-band
    of a stack.
    """
    normals = rng.standard_normal(2 * sum(block.size for block in blocks))
    start = 0
    for block in blocks:
        block.real = normals[start:start + block.size].reshape(block.shape)
        block.imag = normals[start + block.size:
                             start + 2 * block.size].reshape(block.shape)
        block *= _INV_SQRT2
        start += 2 * block.size


def estimate_csi(h_true: np.ndarray, pilot_length: int, snr_db: float,
                 rng: np.random.Generator | None,
                 method: CsiMethod = CsiMethod.LEAST_SQUARES,
                 error_unit: np.ndarray | None = None) -> CsiEstimate:
    """Channel estimate from an orthogonal pilot block.

    Perfect mode returns the truth.  Least-squares mode adds the exact LS
    error of an orthogonal unit-modulus pilot block of ``pilot_length``
    columns: i.i.d. complex Gaussian with per-entry variance
    :func:`csi_error_variance`.
    """
    h_true = np.asarray(h_true)
    n_rx, n_tx = h_true.shape
    if method is CsiMethod.PERFECT:
        return CsiEstimate(matrix=h_true.copy(), method=method)
    err_var = csi_error_variance(noise_variance(signal_power(h_true), snr_db),
                                 n_tx, pilot_length)
    if error_unit is None:
        if rng is None:
            raise ValueError("provide either rng or error_unit")
        error_unit = complex_normal(rng, (n_rx, n_tx))
    return CsiEstimate(matrix=add_noise(h_true, err_var, error_unit),
                       method=method)


def _squared_frobenius(a: np.ndarray) -> np.ndarray:
    """||A||_F^2 of each matrix of a stack."""
    parts = np.ascontiguousarray(a, dtype=complex).view(np.float64)  # re, im pairs
    return np.einsum("...ij,...ij->...", parts, parts)


def zf_equalize(y: np.ndarray, csi: CsiEstimate,
                out: np.ndarray | None = None) -> np.ndarray:
    """Zero-forcing equalization: pinv(H) @ y, from one LU inverse, into
    ``out`` if given.

    ``csi.matrix`` and ``y`` may carry leading stack axes; each matrix of
    the stack equalizes its own block, and the stack raises if any matrix
    fails.  The estimate is H^-1 @ y.  Raises EqualizationError unless the
    estimate is square (Nr = Nt, as every campaign's N x N arrays are) and
    has full rank (smallest singular value above ZF_RANK_TOL of the
    largest); callers record such samples at BER 0.5 with a flag.

    The values-only SVD that applies that rule runs only on the matrices
    whose Frobenius bound kappa_2 <= kappa_F = ||H||_F ||H^-1||_F cannot
    certify the rank: where kappa_F * _ZF_BOUND_MARGIN >= 1 / ZF_RANK_TOL
    or kappa_F is not finite.  The margin covers the rounding of the
    computed inverse, norms and singular values, so a skipped SVD could
    not have found the estimate rank-deficient (Golub & Van Loan, Matrix
    Computations, section 2.3).
    """
    h, y = np.asarray(csi.matrix), np.asarray(y)
    n_rx, n_tx = h.shape[-2:]
    if n_rx != n_tx:
        raise EqualizationError(
            f"{n_rx}x{n_tx} CSI is not square; zero-forcing needs an N x N estimate")
    try:
        h_inv = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        raise EqualizationError(
            f"{n_rx}x{n_tx} CSI is exactly singular; "
            f"zero-forcing needs full column rank") from None
    # an inverse too large to square reads inf, and inf * 0 NaN: both
    # leave the rank uncertified
    with np.errstate(over="ignore", invalid="ignore"):
        kappa_f = np.sqrt(_squared_frobenius(h) * _squared_frobenius(h_inv))
    uncertified = ~(kappa_f * _ZF_BOUND_MARGIN < 1.0 / ZF_RANK_TOL)
    if uncertified.any():
        try:
            s = np.linalg.svd(h[uncertified], compute_uv=False)
        except np.linalg.LinAlgError:  # e.g. NaN entries
            raise EqualizationError(
                f"{n_rx}x{n_tx} CSI has no SVD; zero-forcing needs full "
                f"column rank") from None
        deficient = ~(s[..., -1] > ZF_RANK_TOL * s[..., 0])  # NaN values fail too
        if deficient.any():
            worst = s[deficient][0]
            raise EqualizationError(
                f"{n_rx}x{n_tx} CSI has singular values "
                f"{worst[0]:.3e}..{worst[-1]:.3e}; zero-forcing needs full "
                f"column rank")
    return np.matmul(h_inv, y, out=out)


def compute_ber(tx_bits: np.ndarray, rx_bits: np.ndarray) -> float:
    """Fraction of bit positions that differ."""
    tx_bits = np.asarray(tx_bits).ravel()
    rx_bits = np.asarray(rx_bits).ravel()
    if tx_bits.size != rx_bits.size:
        raise ValueError(f"bit streams differ in length: {tx_bits.size} vs {rx_bits.size}")
    if tx_bits.size == 0:
        raise ValueError("empty bit streams")
    return float(np.mean(tx_bits != rx_bits))
