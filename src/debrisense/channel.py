"""MIMO channel assembly from per-path contributions.

Channels are built per frequency sub-band as a sum of rank-1 terms:
path gain x Doppler phasor x receive/transmit steering outer product.
A hybrid small-scale step can dress the deterministic matrix with a
Rician diffuse component while preserving expected Frobenius energy.
"""

from __future__ import annotations

import math

import numpy as np

from .linksim import complex_normal
from .propagation import doppler_factor


def steering_vector(n: int, spacing: float, theta: float, phi: float) -> np.ndarray:
    """ULA steering vector for directional cosine sin(theta)*cos(phi).

    Entries are exp(-2j*pi*spacing*k*Omega) for k = 0..n-1; the first is
    exactly 1 and all have unit modulus.
    """
    if n < 1:
        raise ValueError("array size must be >= 1")
    omega = math.sin(theta) * math.cos(phi)
    k = np.arange(n)
    return np.exp(-2j * math.pi * spacing * omega * k)


def steering_matrix(n: int, spacing: float, el_tx: float, el_rx: float) -> np.ndarray:
    """Rank-1 receive x transmit steering outer product of one path.

    Both ends are n-element ULAs with the same spacing; a path leaves and
    arrives at elevations ``el_tx`` and ``el_rx`` (azimuth 0).  Spacings
    are in wavelengths, so the matrix does not depend on frequency and
    serves every sub-band of the path.
    """
    return np.outer(steering_vector(n, spacing, el_rx, 0.0),
                    steering_vector(n, spacing, el_tx, 0.0))


def assemble_subband(terms, n: int, f_hz: float, v_m_s: float) -> np.ndarray:
    """Sum a sub-band's rank-1 terms into its n x n channel matrix.

    ``terms`` holds one (gain, steering matrix) pair per path present in
    the sub-band; every path picks up the common Doppler phasor of the
    link velocity.
    """
    h = np.zeros((n, n), dtype=np.complex128)
    dop = doppler_factor(f_hz, v_m_s)
    for gain, steering in terms:
        h += gain * dop * steering
    return h


def apply_rician_smallscale(h_det: np.ndarray, k_factor_db: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Dress a deterministic channel with an i.i.d. Rician diffuse term.

    H = sqrt(K/(K+1)) * H_det + sqrt(1/(K+1)) * ||H_det||_F/sqrt(Nr*Nt) * W
    with W ~ CN(0, 1) entries, so E||H||_F^2 = ||H_det||_F^2 and the
    K -> infinity limit returns H_det unchanged.
    """
    if not math.isfinite(k_factor_db):
        raise ValueError("K-factor must be finite (in dB)")
    k = 10.0 ** (k_factor_db / 10.0)
    n_rx, n_tx = h_det.shape
    w = complex_normal(rng, (n_rx, n_tx))
    scale = np.linalg.norm(h_det) / math.sqrt(n_rx * n_tx)
    return (math.sqrt(k / (k + 1.0)) * h_det
            + math.sqrt(1.0 / (k + 1.0)) * scale * w)


def subband_grid(center_hz: float, n_subbands: int, bandwidth_hz: float) -> np.ndarray:
    """Sub-band centre frequencies tiling [center - B/2, center + B/2].

    The band is cut into ``n_subbands`` equal slices and each slice is
    represented by its midpoint, so the grid mean equals the carrier.
    """
    if n_subbands < 1:
        raise ValueError("need at least one sub-band")
    if bandwidth_hz < 0:
        raise ValueError("bandwidth must be >= 0")
    width = bandwidth_hz / n_subbands
    offsets = -bandwidth_hz / 2.0 + width * (np.arange(n_subbands) + 0.5)
    return center_hz + offsets
