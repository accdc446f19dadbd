"""Per-mechanism complex transfer functions of the inter-satellite channel.

Implements the free-space line-of-sight response, specular reflection with
a Rayleigh roughness factor, Beckmann-Kirchhoff rough-surface scattering,
piecewise knife-edge diffraction and the Doppler phase factor.  Molecular
absorption is taken as unity: at LEO altitudes the water/oxygen content is
negligible across the band of interest.

Every path's transfer function has one form: the free-space amplitude
c/(4*pi*f*L) of its unfolded length L, times its interaction coefficient
(1 for the line of sight, the roughness-damped Fresnel coefficient for
reflection, the Beckmann-Kirchhoff coefficient for scattering, the
knife-edge loss for diffraction), times the phase exp(-2j*pi*f*tau) of its
delay tau = (L + excess)/c, where only diffraction has an excess path.
Reflection and scattering damp with one Rayleigh exponent
g = (4*pi*sigma*cos(theta)/lambda)^2, and take the path's unfolded length
and incidence angle as given: the caller resolves both once per path.

All functions are pure; phases of delay and Doppler terms are wrapped to
the principal value before exponentiation so that multi-gigacycle phase
arguments do not lose the complex value to floating-point cancellation.

Reflection, scattering and the Fresnel coefficients read a material at one
frequency through a :class:`Medium`: its complex index n - j*kappa, of
refractive index n and extinction coefficient kappa = alpha*c/(4*pi*f),
and its wave impedance.  :func:`medium` resolves it from the material
tables once per (material, frequency) and memoizes it, so a campaign
interpolates each material at each sub-band centre once, not once per path.
A frequency the tables do not cover raises MaterialError from every lookup
at it.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (FREE_SPACE_IMPEDANCE, SPEED_OF_LIGHT,
                        VACUUM_PERMEABILITY, VACUUM_PERMITTIVITY)
from .errors import GrazingGeometryError
from .materials import MaterialProperties
from .scene import diffraction_excess_path


class Polarization(enum.Enum):
    TE = "te"
    TM = "tm"


@dataclass(frozen=True)
class ScatterGeometry:
    """Bistatic scattering angles: incidence, scatter elevation, azimuth."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        if not (0.0 <= self.theta1 < math.pi / 2 and 0.0 <= self.theta2 < math.pi / 2):
            raise ValueError("theta1/theta2 must lie in [0, pi/2)")
        if not (0.0 <= self.theta3 < 2 * math.pi):
            raise ValueError("theta3 must lie in [0, 2*pi)")


def wrapped_phase_factor(cycles: float) -> complex:
    """exp(-2j*pi*cycles) with the cycle count reduced to [-1/2, 1/2].

    Raw phase arguments at THz reach 1e9+ cycles; reducing first keeps the
    complex value exact instead of evaluating sin/cos of a huge argument.
    """
    frac = math.remainder(cycles, 1.0)
    return cmath.exp(-2j * math.pi * frac)


def fspl_amplitude(f_hz: float, r_m: float) -> float:
    """Free-space amplitude factor c / (4*pi*f*r)."""
    if f_hz <= 0 or r_m <= 0:
        raise ValueError(f"frequency and range must be > 0, got f={f_hz}, r={r_m}")
    return SPEED_OF_LIGHT / (4.0 * math.pi * f_hz * r_m)


def doppler_factor(f_hz: float, v_m_s: float) -> complex:
    """Unit-modulus Doppler phasor for the link's relative radial velocity."""
    if f_hz <= 0:
        raise ValueError(f"frequency must be > 0, got {f_hz}")
    return wrapped_phase_factor(f_hz * v_m_s / SPEED_OF_LIGHT)


def _path_transfer(f_hz: float, length_m: float, interaction) -> complex:
    """FSPL of the unfolded ``length_m`` x coefficient x phase of the delay over
    ``length_m`` + excess, with (coefficient, excess in m) = ``interaction()``
    evaluated once ``fspl_amplitude`` has checked the frequency and length."""
    amp = fspl_amplitude(f_hz, length_m)
    coefficient, excess_m = interaction()
    tau = (length_m + excess_m) / SPEED_OF_LIGHT
    return amp * coefficient * wrapped_phase_factor(f_hz * tau)


def los_response(f_hz: float, distance_m: float) -> complex:
    """Direct-path transfer function: FSPL amplitude and delay phase."""
    return _path_transfer(f_hz, distance_m, lambda: (1.0, 0.0))


# ---------------------------------------------------------------------------
# Reflection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Medium:
    """A material's electromagnetic constants at one frequency.

    ``n_c`` is the complex index n - j*kappa of the refractive index n and
    the extinction coefficient kappa = alpha*c/(4*pi*f), and ``z`` the
    intrinsic wave impedance in ohms.
    """

    n_c: complex
    z: complex


@functools.lru_cache(maxsize=1024)
def medium(material: MaterialProperties, f_hz: float) -> Medium:
    """Resolve ``material`` at ``f_hz`` (memoized per material and frequency).

    Raises MaterialError where the material's tables do not cover ``f_hz``.
    """
    n = material.refractive_index(f_hz)
    kappa = material.absorption(f_hz) * SPEED_OF_LIGHT / (4.0 * math.pi * f_hz)
    eps_rel = complex(n * n - kappa * kappa, -2.0 * n * kappa)
    return Medium(n_c=complex(n, -kappa),
                  z=cmath.sqrt(VACUUM_PERMEABILITY / (VACUUM_PERMITTIVITY * eps_rel)))


def wave_impedance(f_hz: float, material: MaterialProperties) -> complex:
    """Intrinsic wave impedance of the (lossy) reflecting medium, ohms."""
    if f_hz <= 0:
        raise ValueError(f"frequency must be > 0, got {f_hz}")
    return medium(material, f_hz).z


def _fresnel(f_hz: float, theta_i: float, material: MaterialProperties,
             pol: Polarization) -> complex:
    """Gamma_pol for a vacuum / material planar interface.

    Uses the impedance-ratio form with the transmission angle from Snell's
    law evaluated with the complex refractive index.
    """
    if not (0.0 <= theta_i < math.pi / 2):
        raise ValueError(f"incidence angle must lie in [0, pi/2), got {theta_i}")
    med = medium(material, f_hz)
    z1 = FREE_SPACE_IMPEDANCE
    z2 = med.z
    cos_i = math.cos(theta_i)
    sin_t = math.sin(theta_i) / med.n_c
    cos_t = cmath.sqrt(1.0 - sin_t * sin_t)
    if pol is Polarization.TE:
        return (z2 * cos_i - z1 * cos_t) / (z2 * cos_i + z1 * cos_t)
    return (z2 * cos_t - z1 * cos_i) / (z2 * cos_t + z1 * cos_i)


def fresnel_coefficients(f_hz: float, theta_i: float,
                         material: MaterialProperties) -> tuple[complex, complex]:
    """(Gamma_TE, Gamma_TM) for a vacuum / material planar interface."""
    return (_fresnel(f_hz, theta_i, material, Polarization.TE),
            _fresnel(f_hz, theta_i, material, Polarization.TM))


def _rayleigh_exponent(f_hz: float, sigma_m: float, theta_i: float) -> float:
    """Rayleigh roughness exponent g = (4*pi*sigma*cos(theta)/lambda)^2."""
    lam = SPEED_OF_LIGHT / f_hz
    return (4.0 * math.pi * sigma_m * math.cos(theta_i) / lam) ** 2


def roughness_coefficient(f_hz: float, sigma_m: float, theta_i: float) -> float:
    """Rayleigh roughness attenuation exp(-g/2)."""
    if sigma_m < 0:
        raise ValueError(f"surface sigma must be >= 0, got {sigma_m}")
    return math.exp(-0.5 * _rayleigh_exponent(f_hz, sigma_m, theta_i))


def reflection_coefficient(f_hz: float, theta_i: float,
                           material: MaterialProperties,
                           pol: Polarization) -> complex:
    """Roughness-modified reflection coefficient rho(f) * Gamma_p."""
    gamma = _fresnel(f_hz, theta_i, material, pol)
    return roughness_coefficient(f_hz, material.roughness_sigma_m, theta_i) * gamma


def reflected_response(f_hz: float, length_m: float, theta_i: float,
                       material: MaterialProperties, pol: Polarization) -> complex:
    """Reflected-path transfer function over the unfolded ``length_m``.

    Magnitude is the FSPL of the unfolded path times |R| at the incidence
    angle ``theta_i``; the delay is that of the unfolded path.
    """
    return _path_transfer(f_hz, length_m, lambda: (reflection_coefficient(
        f_hz, theta_i, material, pol), 0.0))


# ---------------------------------------------------------------------------
# Beckmann-Kirchhoff scattering
# ---------------------------------------------------------------------------

SERIES_MAX_TERMS = 200
SERIES_REL_TOL = 1e-10


@functools.lru_cache(maxsize=16)
def _series_constants(max_terms: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """lgamma(m + 1) and log(m) at index m = 1..max_terms (index 0 unused)."""
    ms = range(1, max_terms + 1)
    return ((0.0, *(math.lgamma(m + 1) for m in ms)),
            (0.0, *(math.log(m) for m in ms)))


def _log_series_window(g_sca: float, vxy_sq_lcorr_sq: float) -> float:
    """Log of the diffuse-lobe series, summed about its largest term.

    The terms are Poisson-shaped in m about m ~ g, so the sum is taken over
    a window m in g +- c*sqrt(g): from the largest term, found by stepping
    from m = round(g), outwards each way until the terms no longer change
    the sum.
    """
    log_g = math.log(g_sca)

    def log_term(m: int) -> float:
        return (m * log_g - math.lgamma(m + 1) - math.log(m)
                - vxy_sq_lcorr_sq / (4.0 * m))

    peak = max(1, round(g_sca))
    while log_term(peak + 1) > log_term(peak):
        peak += 1
    while peak > 1 and log_term(peak - 1) > log_term(peak):
        peak -= 1
    top = log_term(peak)
    total = 1.0  # the sum over the terms, relative to the largest
    for step in (-1, 1):
        m = peak + step
        while m >= 1:
            rel = math.exp(log_term(m) - top)
            if total + rel == total:
                break
            total += rel
            m += step
    return top + math.log(total)


def _log_series_sum(g_sca: float, vxy_sq_lcorr_sq: float, max_terms: int) -> float:
    """Log of ``scattering_series_sum`` (-inf at g = 0), which stays finite
    where the sum itself overflows a float."""
    if not 0.0 <= g_sca < math.inf:
        raise ValueError(f"roughness factor must be finite and >= 0, got {g_sca}")
    if g_sca == 0.0:
        return -math.inf
    lgamma_m1, log_m = _series_constants(max_terms)
    exp, log = math.exp, math.log
    log_g = log(g_sca)
    log_sum = None
    for m in range(1, max_terms + 1):
        log_term = (m * log_g - lgamma_m1[m] - log_m[m]
                    - vxy_sq_lcorr_sq / (4.0 * m))
        # log(e^log_sum + e^log_term) about the larger exponent, whose own
        # exp(0) term is written as the exact 1.0 it evaluates to
        if log_sum is None:
            log_sum = log_term
        elif log_term > log_sum:
            log_sum = log_term + log(exp(log_sum - log_term) + 1.0)
        else:
            log_sum = log_sum + log(1.0 + exp(log_term - log_sum))
        if exp(log_term - log_sum) < SERIES_REL_TOL:
            return log_sum
    # the cap came first: sum again over the window about the largest term
    return _log_series_window(g_sca, vxy_sq_lcorr_sq)


def scattering_series_sum(g_sca: float, vxy_sq_lcorr_sq: float,
                          max_terms: int = SERIES_MAX_TERMS) -> float:
    """Diffuse-lobe series  sum_m g^m/(m!*m) * exp(-vxy^2*lcorr^2/(4m)).

    Evaluated in log space (terms overflow float64 long before convergence
    for rough surfaces).  Summed forward from m = 1, truncated once the
    next term's relative contribution drops below SERIES_REL_TOL; a series
    that reaches ``max_terms`` first is summed again over the window about
    its largest term.  A sum beyond the float range (from g of about 700)
    raises OverflowError; ``scattering_coefficient`` reads its log instead.
    """
    return math.exp(_log_series_sum(g_sca, vxy_sq_lcorr_sq, max_terms))


def _sinc(t: float) -> float:
    """np.sinc(t) of a float: sin(pi*t)/(pi*t), with the same np.sin ufunc."""
    y = math.pi * (1e-20 if t == 0 else t)
    return float(np.sin(y)) / y


def scattering_coefficient(f_hz: float, geom: ScatterGeometry,
                           material: MaterialProperties, pol: Polarization) -> complex:
    """Beckmann-Kirchhoff bistatic scattering coefficient.

    Combines the specular reflectance ``rho0`` with the diffuse-lobe series
    and applies the Rayleigh attenuation exp(-g) of the incidence angle to
    the bracket (the growing-exponential variant is unphysical: it diverges
    for rough surfaces).
    """
    material.check_facets(f_hz)
    lam = SPEED_OF_LIGHT / f_hz
    k = 2.0 * math.pi / lam
    c1, c2 = math.cos(geom.theta1), math.cos(geom.theta2)
    s1, s2 = math.sin(geom.theta1), math.sin(geom.theta2)
    denom = c2 * (c1 + c2)
    if abs(denom) < 1e-12:
        raise GrazingGeometryError(
            f"geometrical factor denominator {denom} too close to zero")
    f_geom = (1.0 + c1 * c2 - s1 * s2 * math.cos(geom.theta3)) / denom

    vx = k * (s1 - s2 * math.cos(geom.theta3))
    vy = k * (-s2 * math.sin(geom.theta3))
    vxy_sq = vx * vx + vy * vy
    # unnormalized sinc: sin(x)/x
    rho0 = _sinc(vx * material.facet_lx_m / math.pi) * \
        _sinc(vy * material.facet_ly_m / math.pi)

    sigma = material.roughness_sigma_m
    g_sca = (k * sigma * (c1 + c2)) ** 2
    lcorr = material.correlation_length_m
    log_series = _log_series_sum(g_sca, vxy_sq * lcorr * lcorr, SERIES_MAX_TERMS)
    weight = math.pi * lcorr * lcorr * f_geom * f_geom / material.facet_area_m2
    g_rayleigh = _rayleigh_exponent(f_hz, sigma, geom.theta1)
    try:
        bracket = (rho0 * rho0 + weight * math.exp(log_series)) * math.exp(-g_rayleigh)
    except OverflowError:  # the series overflows a float; its attenuation brings it back
        bracket = ((rho0 * rho0 * math.exp(-log_series) + weight)
                   * math.exp(log_series - g_rayleigh))

    gamma = _fresnel(f_hz, geom.theta1, material, pol)
    return gamma * math.sqrt(bracket)


def scattered_response(f_hz: float, length_m: float, geom: ScatterGeometry,
                       material: MaterialProperties, pol: Polarization) -> complex:
    """Scattered-path transfer function; same FSPL/delay structure as reflection."""
    return _path_transfer(f_hz, length_m, lambda: (
        scattering_coefficient(f_hz, geom, material, pol), 0.0))


# ---------------------------------------------------------------------------
# Knife-edge diffraction
# ---------------------------------------------------------------------------

def fresnel_kirchhoff_parameter(h_d_m: float, f_hz: float,
                                s1_m: float, s2_m: float) -> float:
    """Dimensionless knife-edge obstruction parameter
    v = h * sqrt(2*(s1+s2) / (lambda*s1*s2))."""
    if s1_m <= 0 or s2_m <= 0:
        raise ValueError("path legs must be > 0")
    lam = SPEED_OF_LIGHT / f_hz
    return h_d_m * math.sqrt(2.0 * (s1_m + s2_m) / (lam * s1_m * s2_m))


def diffraction_loss(v: float) -> float:
    """Piecewise empirical knife-edge loss coefficient.

    The v = 2.4 branch boundary is discontinuous by construction; it is a
    property of the fitted model, not smoothed here.
    """
    if v <= 0:
        raise ValueError(f"diffraction parameter must be > 0, got {v}")
    if v <= 1.0:
        return 0.5 * math.exp(-0.95 * v)
    if v <= 2.4:
        return 0.4 - math.sqrt(0.12 - (0.38 - 0.1 * v) ** 2)
    return 0.225 / v


def diffracted_response(f_hz: float, s1_m: float, s2_m: float,
                        h_d_m: float) -> complex:
    """Diffracted-path transfer function.

    ``s1``/``s2`` are the along-axis splits of the direct path at the
    obstruction, so the baseline delay is (s1+s2)/c and the detour adds
    the quadratic excess of the clearance.
    """
    return _path_transfer(f_hz, s1_m + s2_m, lambda: (
        diffraction_loss(fresnel_kirchhoff_parameter(h_d_m, f_hz, s1_m, s2_m)),
        diffraction_excess_path(h_d_m, s1_m * 1e-3, s2_m * 1e-3)))
