"""Debris scenes and inter-satellite path geometry.

The scenario is a transmitter at the origin and a receiver on the +x axis,
with debris objects drawn uniformly inside a prolate ellipsoid spanning the
link (major semi-axis = half the link distance, configurable minor axes).
All geometry helpers work on that frame.  Distances are kilometres at the
scene level; helpers that feed the propagation layer convert to metres.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, GeometryError

# Relative tolerance for near-degenerate triangle geometry.
GEOMETRY_EPS = 1e-9


class DebrisClass:
    """The shipped debris classes; any material's name is a debris class."""

    SMOOTH_GLASS = "smooth_glass"
    ROUGH_METAL = "rough_metal"


class Mechanism(enum.Enum):
    REFLECTION = "reflection"
    SCATTERING = "scattering"
    DIFFRACTION = "diffraction"


# in the column order of interaction_draws' uniforms
DEBRIS_MECHANISMS = (Mechanism.REFLECTION, Mechanism.SCATTERING,
                     Mechanism.DIFFRACTION)


@dataclass(frozen=True)
class LinkGeometry:
    """Inter-satellite link state at one snapshot."""

    distance_km: float
    velocity_km_s: float

    def __post_init__(self):
        if not (math.isfinite(self.distance_km) and self.distance_km > 0):
            raise ConfigError(f"link distance must be > 0, got {self.distance_km}")
        if not (math.isfinite(self.velocity_km_s) and self.velocity_km_s >= 0):
            raise ConfigError(f"link velocity must be >= 0, got {self.velocity_km_s}")

    @property
    def distance_m(self) -> float:
        return self.distance_km * 1e3

    @property
    def velocity_m_s(self) -> float:
        return self.velocity_km_s * 1e3


@dataclass(frozen=True)
class DebrisObject:
    """One piece of debris: a point, positioned relative to the transmitter
    (km), with a class that names its material."""

    position_km: tuple[float, float, float]
    debris_class: str

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.position_km):
            raise ConfigError("debris position must be finite")


@dataclass(frozen=True)
class SceneConfig:
    """Inputs for debris field generation."""

    geometry: LinkGeometry
    density_per_km3: float
    semi_axes_km: tuple[float, float, float]
    debris_class: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.density_per_km3) or self.density_per_km3 < 0:
            raise ConfigError(f"debris density must be >= 0, got {self.density_per_km3}")
        if self.density_per_km3 > 0 and self.debris_class is None:
            raise ConfigError("debris_class required when density > 0")
        if not all(a > 0 for a in self.semi_axes_km):
            raise ConfigError("ellipsoid semi-axes must be > 0")


@dataclass(frozen=True)
class DebrisScene:
    """A realized debris field between the two satellites."""

    geometry: LinkGeometry
    semi_axes_km: tuple[float, float, float]
    density_per_km3: float
    objects: tuple[DebrisObject, ...]
    seed: int

    @property
    def tx_position_km(self) -> np.ndarray:
        return np.zeros(3)

    @property
    def rx_position_km(self) -> np.ndarray:
        return np.array([self.geometry.distance_km, 0.0, 0.0])


def ellipsoid_volume_km3(semi_axes_km) -> float:
    a, b, c = semi_axes_km
    return 4.0 / 3.0 * math.pi * a * b * c


def generate_scene(config: SceneConfig, seed: int) -> DebrisScene:
    """Draw a debris field: Poisson object count, uniform positions.

    Positions are sampled by rejection from the ellipsoid's bounding box;
    regeneration with the same (config, seed) reproduces the object list
    exactly.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    semi = config.semi_axes_km
    volume = ellipsoid_volume_km3(semi)
    count = int(rng.poisson(config.density_per_km3 * volume)) if config.density_per_km3 > 0 else 0

    centre = np.array([config.geometry.distance_km / 2.0, 0.0, 0.0])
    axes = np.asarray(semi, dtype=float)
    objects = []
    while len(objects) < count:
        u = rng.uniform(-1.0, 1.0, size=3)
        if float(np.sum(u * u)) > 1.0:
            continue
        pos = centre + u * axes
        objects.append(DebrisObject(
            position_km=tuple(float(x) for x in pos),
            debris_class=config.debris_class,
        ))
    return DebrisScene(
        geometry=config.geometry,
        semi_axes_km=tuple(float(a) for a in semi),
        density_per_km3=config.density_per_km3,
        objects=tuple(objects),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Path geometry
# ---------------------------------------------------------------------------

def path_lengths(tx_pos, rx_pos, debris_pos) -> tuple[float, float, float]:
    """Return (s1, s2, d): tx->debris, debris->rx and direct distances."""
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    p = np.asarray(debris_pos, dtype=float)
    if not (np.all(np.isfinite(tx)) and np.all(np.isfinite(rx)) and np.all(np.isfinite(p))):
        raise ValueError("positions must be finite")
    d = float(np.linalg.norm(rx - tx))
    if d == 0.0:
        raise GeometryError("transmitter and receiver positions coincide")
    s1 = float(np.linalg.norm(p - tx))
    s2 = float(np.linalg.norm(rx - p))
    if s1 == 0.0 or s2 == 0.0:
        raise GeometryError("debris coincides with a link endpoint")
    return s1, s2, d


def incidence_angle(s1: float, s2: float, d: float) -> float:
    """Incidence angle of the relay path: half the tx-debris-rx apex angle.

    The arccos argument is clamped to [-1, 1]; violations of the triangle
    inequalities beyond GEOMETRY_EPS (relative) raise GeometryError.
    """
    if s1 <= 0 or s2 <= 0:
        raise GeometryError("path legs must be positive")
    arg = (s1 * s1 + s2 * s2 - d * d) / (2.0 * s1 * s2)
    if abs(arg) > 1.0 + GEOMETRY_EPS:
        raise GeometryError(
            f"triangle inequality violated: cos argument {arg!r} for "
            f"s1={s1!r}, s2={s2!r}, d={d!r}")
    arg = min(1.0, max(-1.0, arg))
    return 0.5 * math.acos(arg)


def excess_delay(s1_km: float, s2_km: float, d_km: float) -> float:
    """Extra propagation delay of the relay path over the direct one, seconds."""
    excess_m = (s1_km + s2_km - d_km) * 1e3
    if excess_m < 0.0:
        if excess_m < -GEOMETRY_EPS * d_km * 1e3:
            raise GeometryError(
                f"negative path excess {excess_m} m beyond tolerance")
        excess_m = 0.0
    return excess_m / SPEED_OF_LIGHT


def diffraction_excess_path(h_d_m: float, s1_km: float, s2_km: float) -> float:
    """Extra path length (m) of a knife-edge detour at clearance h_d."""
    if s1_km <= 0 or s2_km <= 0:
        raise GeometryError("path legs must be positive")
    if h_d_m < 0:
        raise ValueError("clearance must be >= 0")
    s1 = s1_km * 1e3
    s2 = s2_km * 1e3
    return h_d_m * h_d_m * (s1 + s2) / (2.0 * s1 * s2)


def perpendicular_clearance(tx_pos, rx_pos, debris_pos):
    """Perpendicular distance (m) from debris to the tx-rx segment plus the
    axial split (s1_proj, s2_proj) in km.

    Returns None when the debris projects outside the segment (no
    knife-edge geometry).
    """
    tx = np.asarray(tx_pos, dtype=float)
    rx = np.asarray(rx_pos, dtype=float)
    p = np.asarray(debris_pos, dtype=float)
    axis = rx - tx
    d = float(np.linalg.norm(axis))
    if d == 0.0:
        raise GeometryError("transmitter and receiver positions coincide")
    u = axis / d
    t = float(np.dot(p - tx, u))
    if t <= 0.0 or t >= d:
        return None
    h_km = float(np.linalg.norm((p - tx) - t * u))
    return h_km * 1e3, t, d - t


# ---------------------------------------------------------------------------
# Line-oriented scene export
# ---------------------------------------------------------------------------

def scene_to_text(scene: DebrisScene) -> str:
    """Serialize a scene: one key=value header line, one CSV line per object."""
    a, b, c = scene.semi_axes_km
    lines = [
        f"d_km={scene.geometry.distance_km!r} "
        f"v_kms={scene.geometry.velocity_km_s!r} "
        f"density={scene.density_per_km3!r} "
        f"semi_axes={a!r},{b!r},{c!r} "
        f"seed={scene.seed}"
    ]
    for obj in scene.objects:
        x, y, z = obj.position_km
        lines.append(f"{x!r},{y!r},{z!r},{obj.debris_class}")
    return "\n".join(lines) + "\n"

