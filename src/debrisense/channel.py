"""MIMO channel assembly from per-path contributions.

Channels are built per frequency sub-band as a sum of rank-1 terms:
path gain x Doppler phasor x receive/transmit steering outer product.
A hybrid small-scale step can dress the deterministic matrix with a
Rician diffuse component while preserving expected Frobenius energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .propagation import doppler_factor
from .scene import Mechanism


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear arrays at both ends, spacings in wavelengths."""

    n_tx: int
    n_rx: int
    spacing_tx: float = 0.5
    spacing_rx: float = 0.5

    def __post_init__(self):
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("array sizes must be >= 1")
        if self.spacing_tx <= 0 or self.spacing_rx <= 0:
            raise ValueError("element spacings must be > 0")


@dataclass(frozen=True)
class PathContribution:
    """One resolved propagation path feeding the channel assembly.

    Angles are (azimuth, elevation) pairs in the local array frames;
    the steering response depends on them through the directional cosine
    sin(elevation) * cos(azimuth).  ``steering`` may carry the path's
    :func:`steering_matrix`, built once by a caller that assembles many
    sub-bands from the same path; it is built from the angles otherwise.
    """

    mechanism: Mechanism
    gain: complex
    aod: tuple[float, float]
    aoa: tuple[float, float]
    steering: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SubbandChannel:
    """Channel matrix of one sub-band."""

    center_frequency_hz: float
    matrix: np.ndarray


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


def steering_matrix(config: ArrayConfig, aod, aoa) -> np.ndarray:
    """Rank-1 receive x transmit steering outer product of one path.

    Element spacings are in wavelengths, so it does not depend on
    frequency and serves every sub-band of the path.
    """
    sr = steering_vector(config.n_rx, config.spacing_rx, aoa[1], aoa[0])
    st = steering_vector(config.n_tx, config.spacing_tx, aod[1], aod[0])
    return np.outer(sr, st)


def assemble_subband(paths, config: ArrayConfig, f_hz: float, v_m_s: float,
                     los_indicator: int = 1) -> SubbandChannel:
    """Sum per-path rank-1 outer products into the sub-band channel matrix.

    The line-of-sight term is multiplied by ``los_indicator``; every path
    picks up the common Doppler phasor of the link velocity.
    """
    h = np.zeros((config.n_rx, config.n_tx), dtype=np.complex128)
    dop = doppler_factor(f_hz, v_m_s)
    for path in paths:
        if path.mechanism is Mechanism.LOS and los_indicator == 0:
            continue
        steering = path.steering
        if steering is None:
            steering = steering_matrix(config, path.aod, path.aoa)
        h += path.gain * dop * steering
    return SubbandChannel(center_frequency_hz=f_hz, matrix=h)


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
    w = (rng.standard_normal((n_rx, n_tx)) +
         1j * rng.standard_normal((n_rx, n_tx))) / math.sqrt(2.0)
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
