"""Surface material definitions for debris interaction modelling.

A material carries a frequency-tabulated refractive index and absorption
coefficient (linearly interpolated between breakpoints, error outside the
tabulated range) plus the surface-roughness statistics used by the
reflection and scattering models.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, MaterialError


def check_breakpoints(table: str, freqs) -> None:
    """Raise ConfigError naming ``table`` unless its breakpoint frequencies
    are finite, > 0, sorted and non-empty."""
    if not (freqs and all(0.0 < f < math.inf for f in freqs)
            and sorted(freqs) == list(freqs)):
        raise ConfigError(f"{table} breakpoints must be finite, > 0, sorted and "
                          f"non-empty, got {freqs}")


def _interp_table(table: tuple[tuple[float, float], ...], f: float, what: str,
                  name: str) -> float:
    freqs = [p[0] for p in table]
    vals = [p[1] for p in table]
    if not (freqs[0] <= f <= freqs[-1]):
        raise MaterialError(
            f"material '{name}': {what} not tabulated at {f:.4g} Hz "
            f"(range {freqs[0]:.4g}..{freqs[-1]:.4g} Hz)")
    return float(np.interp(f, freqs, vals))


@dataclass(frozen=True)
class MaterialProperties:
    """Electromagnetic and roughness description of a debris surface.

    Attributes
    ----------
    name : str
        Material identifier (also the config section name).
    n_table, alpha_table : tuple of (frequency_hz, value)
        Breakpoints of the refractive index (>= 1) and absorption
        coefficient (1/m, >= 0), at finite, positive and sorted frequencies.
    roughness_sigma_m : float
        Standard deviation of the Gaussian surface height, metres.
    correlation_length_m : float
        Correlation length of the surface roughness, metres.
    facet_lx_m, facet_ly_m : float
        Lateral dimensions of the illuminated facet; the scattering model
        requires both to be large against the wavelength.
    """

    name: str
    n_table: tuple[tuple[float, float], ...]
    alpha_table: tuple[tuple[float, float], ...]
    roughness_sigma_m: float
    correlation_length_m: float
    facet_lx_m: float
    facet_ly_m: float

    def __post_init__(self):
        for key, table in (("n", self.n_table), ("alpha_per_m", self.alpha_table)):
            check_breakpoints(f"material '{self.name}': {key}", [f for f, _ in table])
            if not all(math.isfinite(v) for _, v in table):
                raise ConfigError(f"material '{self.name}': non-finite {key} value")
        if any(v < 1.0 for _, v in self.n_table):
            raise ConfigError(f"material '{self.name}': refractive index < 1")
        if any(v < 0.0 for _, v in self.alpha_table):
            raise ConfigError(f"material '{self.name}': alpha_per_m must be >= 0 "
                              "(a negative absorption is a gain medium)")
        if not 0 <= self.roughness_sigma_m < np.inf:
            raise ConfigError(f"material '{self.name}': roughness sigma not in [0, inf)")
        if not 0 < self.correlation_length_m < np.inf:
            raise ConfigError(f"material '{self.name}': correlation length not in (0, inf)")
        if not (0 < self.facet_lx_m < np.inf and 0 < self.facet_ly_m < np.inf):
            raise ConfigError(f"material '{self.name}': facet dimensions not in (0, inf)")

    def refractive_index(self, f_hz: float) -> float:
        return _interp_table(self.n_table, f_hz, "refractive index", self.name)

    def absorption(self, f_hz: float) -> float:
        return _interp_table(self.alpha_table, f_hz, "absorption", self.name)

    def check_facets(self, f_hz: float) -> None:
        """Raise MaterialError unless both facet dimensions are at least 10
        wavelengths at ``f_hz``, as the physical-optics scattering model needs."""
        lam = SPEED_OF_LIGHT / f_hz
        if self.facet_lx_m < 10 * lam or self.facet_ly_m < 10 * lam:
            raise MaterialError(
                f"material '{self.name}': facet dims ({self.facet_lx_m}, "
                f"{self.facet_ly_m}) m must be >= 10 wavelengths ({10 * lam:.4g} m) "
                f"at {f_hz:.4g} Hz for the physical-optics model")

    @property
    def facet_area_m2(self) -> float:
        return self.facet_lx_m * self.facet_ly_m


# ---------------------------------------------------------------------------
# Shipped defaults
# ---------------------------------------------------------------------------
# Smooth glass: low-loss dielectric; rough metal: high-loss conductor-like
# medium.  Tables span 20 GHz .. 6 THz so every sub-band of the campaign
# grids stays inside the interpolation range.

DEFAULT_MATERIALS_TEXT = """\
# Material definitions: one section per material.
# n / alpha_per_m are breakpoint tables "f_hz:value, f_hz:value, ..."
# interpolated linearly in frequency; lookups outside the range error out.

[smooth_glass]
n = 20e9:1.95, 6e12:1.95
alpha_per_m = 20e9:200.0, 6e12:200.0
roughness_sigma_m = 5e-6
correlation_length_m = 500e-6
facet_lx_m = 0.15
facet_ly_m = 0.15

[rough_metal]
n = 20e9:300.0, 6e12:300.0
alpha_per_m = 20e9:4e7, 6e12:4e7
roughness_sigma_m = 100e-6
correlation_length_m = 500e-6
facet_lx_m = 0.15
facet_ly_m = 0.15
"""


def _parse_breakpoints(raw: str, section: str, key: str):
    points = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            f_str, v_str = chunk.split(":")
            points.append((float(f_str), float(v_str)))
        except ValueError as exc:
            raise ConfigError(
                f"material '{section}': cannot parse {key} entry '{chunk}'") from exc
    return tuple(points)


def _parse_scalar(sec: dict, section: str, key: str) -> float:
    raw = sec.pop(key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(
            f"material '{section}': cannot parse {key} value '{raw}'") from exc


def parse_materials(text: str) -> dict[str, MaterialProperties]:
    """Parse material definitions from INI-style text.

    Values are read as written: a ``%`` is a character of the value, not
    the start of an interpolation.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad material file: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] keys {sorted(parser.defaults())} are not supported")
    materials = {}
    for section in parser.sections():
        sec = dict(parser[section])
        try:
            materials[section] = MaterialProperties(
                name=section,
                n_table=_parse_breakpoints(sec.pop("n"), section, "n"),
                alpha_table=_parse_breakpoints(sec.pop("alpha_per_m"), section,
                                               "alpha_per_m"),
                roughness_sigma_m=_parse_scalar(sec, section, "roughness_sigma_m"),
                correlation_length_m=_parse_scalar(sec, section, "correlation_length_m"),
                facet_lx_m=_parse_scalar(sec, section, "facet_lx_m"),
                facet_ly_m=_parse_scalar(sec, section, "facet_ly_m"),
            )
        except KeyError as exc:
            raise ConfigError(f"material '{section}': missing key {exc}") from exc
        if sec:
            raise ConfigError(f"material '{section}': unknown keys {sorted(sec)}")
    if not materials:
        raise ConfigError("material file defines no materials")
    return materials


def load_materials(path) -> dict[str, MaterialProperties]:
    """Load material definitions from an INI file on disk; a file that
    cannot be read raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read material file {path}: "
                          f"{exc.strerror or exc}") from exc
    return parse_materials(text)


def default_materials() -> dict[str, MaterialProperties]:
    """Return the shipped default material set."""
    return parse_materials(DEFAULT_MATERIALS_TEXT)
