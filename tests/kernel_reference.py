"""Per-sample kernels as they were before their cheaper forms replaced them.

The QPSK mapper evaluated its formula per bit pair, CN(0, 1) blocks came
from two generator calls each, the unnormalized sinc was ``np.sinc``, the
scattering series recomputed ``lgamma(m + 1)`` and ``log(m)`` for every
term and took both exponentials of each log-sum-exp step (and stopped at its
term cap with a warning), every Fresnel evaluation re-read the material
tables, a sub-band channel was summed from per-sub-band path records
carrying (azimuth, elevation) angle pairs, and each path response wrote out
its own FSPL x coefficient x delay-phase product and Rayleigh exponent, with
reflection resolving its incidence angle from the legs at every call.
The current kernels must return bit-identical values and leave the
generator in the same state.
"""

import cmath
import math
import warnings
from collections import namedtuple

import numpy as np

from debrisense.channel import steering_vector
from debrisense.constants import (FREE_SPACE_IMPEDANCE, SPEED_OF_LIGHT,
                                  VACUUM_PERMEABILITY, VACUUM_PERMITTIVITY)
from debrisense.errors import ConvergenceWarning
from debrisense.propagation import (SERIES_MAX_TERMS, SERIES_REL_TOL, Polarization,
                                    diffraction_loss, doppler_factor,
                                    fresnel_kirchhoff_parameter, fspl_amplitude,
                                    wrapped_phase_factor)
from debrisense.scene import diffraction_excess_path, incidence_angle

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SERIES_WARN_TOL = 1e-6  # the cap warned when its last term added more


def qpsk_modulate(bits):
    pairs = np.asarray(bits).reshape(-1, 2)
    return ((1.0 - 2.0 * pairs[:, 0]) + 1j * (1.0 - 2.0 * pairs[:, 1])) * INV_SQRT2


def complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * INV_SQRT2


def scattering_series_sum(g_sca, vxy_sq_lcorr_sq, max_terms=SERIES_MAX_TERMS):
    if g_sca == 0.0:
        return 0.0
    log_g = math.log(g_sca)
    log_sum = None
    last_rel = math.inf
    for m in range(1, max_terms + 1):
        log_term = (m * log_g - math.lgamma(m + 1) - math.log(m)
                    - vxy_sq_lcorr_sq / (4.0 * m))
        if log_sum is None:
            log_sum = log_term
        else:
            hi = max(log_sum, log_term)
            log_sum = hi + math.log(math.exp(log_sum - hi) + math.exp(log_term - hi))
        last_rel = math.exp(log_term - log_sum)
        if last_rel < SERIES_REL_TOL:
            break
    else:
        if last_rel > SERIES_WARN_TOL:
            warnings.warn("scattering series hit the term cap", ConvergenceWarning)
    return math.exp(log_sum)


def complex_refractive_index(f_hz, material):
    n = material.refractive_index(f_hz)
    kappa = material.absorption(f_hz) * SPEED_OF_LIGHT / (4.0 * math.pi * f_hz)
    return complex(n, -kappa)


def wave_impedance(f_hz, material):
    n = material.refractive_index(f_hz)
    alpha = material.absorption(f_hz)
    k = alpha * SPEED_OF_LIGHT / (4.0 * math.pi * f_hz)
    eps_rel = complex(n * n - k * k, -2.0 * n * k)
    return cmath.sqrt(VACUUM_PERMEABILITY / (VACUUM_PERMITTIVITY * eps_rel))


def fresnel_coefficients(f_hz, theta_i, material):
    n_c = complex_refractive_index(f_hz, material)
    z1 = FREE_SPACE_IMPEDANCE
    z2 = wave_impedance(f_hz, material)
    cos_i = math.cos(theta_i)
    sin_t = math.sin(theta_i) / n_c
    cos_t = cmath.sqrt(1.0 - sin_t * sin_t)
    gamma_te = (z2 * cos_i - z1 * cos_t) / (z2 * cos_i + z1 * cos_t)
    gamma_tm = (z2 * cos_t - z1 * cos_i) / (z2 * cos_t + z1 * cos_i)
    return gamma_te, gamma_tm


ArrayConfig = namedtuple("ArrayConfig", "n_tx n_rx spacing_tx spacing_rx",
                         defaults=(0.5, 0.5))
PathContribution = namedtuple("PathContribution", "gain aod aoa")


def steering_matrix(config, aod, aoa):
    sr = steering_vector(config.n_rx, config.spacing_rx, aoa[1], aoa[0])
    st = steering_vector(config.n_tx, config.spacing_tx, aod[1], aod[0])
    return np.outer(sr, st)


def assemble_subband(paths, config, f_hz, v_m_s):
    h = np.zeros((config.n_rx, config.n_tx), dtype=np.complex128)
    dop = doppler_factor(f_hz, v_m_s)
    for path in paths:
        h += path.gain * dop * steering_matrix(config, path.aod, path.aoa)
    return h


def los_response(f_hz, distance_m):
    amp = fspl_amplitude(f_hz, distance_m)
    tau = distance_m / SPEED_OF_LIGHT
    return amp * wrapped_phase_factor(f_hz * tau)


def _gamma(f_hz, theta_i, material, pol):
    return fresnel_coefficients(f_hz, theta_i, material)[
        0 if pol is Polarization.TE else 1]


def reflected_response(f_hz, s1_m, s2_m, d_m, material, pol):
    total = s1_m + s2_m
    amp = fspl_amplitude(f_hz, total)
    theta_i = incidence_angle(s1_m, s2_m, d_m)
    lam = SPEED_OF_LIGHT / f_hz
    g = (4.0 * math.pi * material.roughness_sigma_m * math.cos(theta_i) / lam) ** 2
    r = math.exp(-0.5 * g) * _gamma(f_hz, theta_i, material, pol)
    tau = total / SPEED_OF_LIGHT
    return amp * r * wrapped_phase_factor(f_hz * tau)


def scattering_coefficient(f_hz, geom, material, pol):
    lam = SPEED_OF_LIGHT / f_hz
    k = 2.0 * math.pi / lam
    c1, c2 = math.cos(geom.theta1), math.cos(geom.theta2)
    s1, s2 = math.sin(geom.theta1), math.sin(geom.theta2)
    f_geom = (1.0 + c1 * c2 - s1 * s2 * math.cos(geom.theta3)) / (c2 * (c1 + c2))
    vx = k * (s1 - s2 * math.cos(geom.theta3))
    vy = k * (-s2 * math.sin(geom.theta3))
    vxy_sq = vx * vx + vy * vy
    rho0 = float(np.sinc(vx * material.facet_lx_m / math.pi)) * \
        float(np.sinc(vy * material.facet_ly_m / math.pi))
    sigma = material.roughness_sigma_m
    g_sca = (k * sigma * (c1 + c2)) ** 2
    lcorr = material.correlation_length_m
    series = scattering_series_sum(g_sca, vxy_sq * lcorr * lcorr)
    diffuse = math.pi * lcorr * lcorr * f_geom * f_geom / material.facet_area_m2 * series
    g_rayleigh = (4.0 * math.pi * sigma * c1 / lam) ** 2
    bracket = (rho0 * rho0 + diffuse) * math.exp(-g_rayleigh)
    return _gamma(f_hz, geom.theta1, material, pol) * math.sqrt(bracket)


def scattered_response(f_hz, s1_m, s2_m, d_m, geom, material, pol):
    total = s1_m + s2_m
    amp = fspl_amplitude(f_hz, total)
    s = scattering_coefficient(f_hz, geom, material, pol)
    tau = total / SPEED_OF_LIGHT
    return amp * s * wrapped_phase_factor(f_hz * tau)


def diffracted_response(f_hz, s1_m, s2_m, h_d_m):
    total = s1_m + s2_m
    amp = fspl_amplitude(f_hz, total)
    v = fresnel_kirchhoff_parameter(h_d_m, f_hz, s1_m, s2_m)
    loss = diffraction_loss(v)
    delta_m = diffraction_excess_path(h_d_m, s1_m * 1e-3, s2_m * 1e-3)
    tau = (total + delta_m) / SPEED_OF_LIGHT
    return amp * loss * wrapped_phase_factor(f_hz * tau)
