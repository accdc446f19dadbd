"""Simulation configuration: defaults, INI parsing, reference generation.

Config files are INI text with sections [link], [scene], [materials],
[interactions], [channel], [svm], [campaign], read by
``materials.read_ini`` as material files are.  Every value has a shipped
default; a user file only overrides what it names.  ``_KEYS`` declares each
INI key once; parsing, the unknown-key check and ``reference_text`` (the
fully commented default file) all read it.  ``validate_config`` holds the
checks that read more than one section; ``parse_config`` and
``experiments.run_campaign`` both call it, so a config built in code is
checked as a file is, before its campaign draws a sample.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .channel import subband_grid
from .errors import ConfigError, MaterialError
from .materials import check_breakpoints, default_materials, load_materials, read_ini
from .propagation import Polarization
from .scene import DEBRIS_MECHANISMS, LinkGeometry, Mechanism
from .svm import DEFAULT_TOL, KERNEL_KINDS

# The class label of a sample without debris; every other label names a material.
NO_DEBRIS_LABEL = "none"
# Campaign kind -> its tag in condition ids and seed streams.
CAMPAIGN_KINDS = {"density_frequency": 1, "frequency_snr": 2, "mimo_frequency": 3,
                  "trend": 7}
# Campaign kind -> the CampaignGrid lists it sweeps; every other list holds
# exactly one value.
CAMPAIGN_SWEEPS = {"density_frequency": ("frequencies_hz", "densities_per_km3"),
                   "frequency_snr": ("frequencies_hz", "snr_values_db"),
                   "mimo_frequency": ("frequencies_hz", "mimo_sizes"),
                   "trend": ("frequencies_hz", "snr_values_db", "densities_per_km3")}
MECHANISM_KEYS = tuple(mech.value for mech in DEBRIS_MECHANISMS)


def _check_choice(name: str, value: str, allowed) -> None:
    if value not in allowed:
        raise ConfigError(f"{name} must be {'|'.join(allowed)}, got {value!r}")


def _check_log_f_table(table: str, freqs, rows: dict,
                       probabilities: bool = False) -> None:
    """Check a per-class table over log-frequency breakpoints: the
    breakpoints as ``check_breakpoints`` requires, and one finite value per
    breakpoint in each row, a probability in [0, 1] if ``probabilities``."""
    check_breakpoints(table, freqs)
    for key, row in rows.items():
        if len(row) != len(freqs) or not all(
                0.0 <= v <= 1.0 if probabilities else math.isfinite(v) for v in row):
            raise ConfigError(f"{table} row {key} needs one finite "
                              f"{'probability in [0, 1]' if probabilities else 'value'}"
                              f" per breakpoint, got {row}")


def _interp_log_f(table: str, freqs, values, f_hz: float) -> float:
    """Linear interpolation in log-frequency between sorted breakpoints;
    a query outside them raises ConfigError naming ``table``."""
    if not (freqs[0] <= f_hz <= freqs[-1]):
        raise ConfigError(f"{table} does not cover {f_hz:.4g} Hz "
                          f"(range {freqs[0]:.4g}..{freqs[-1]:.4g})")
    return float(np.interp(math.log10(f_hz), [math.log10(f) for f in freqs],
                           values))


@dataclass(frozen=True)
class SceneSettings:
    # Major semi-axis defaults to distance/2; minors keep debris near the link.
    minor_semi_axes_km: tuple[float, float] = (50.0, 50.0)

    def __post_init__(self):
        if not all(0.0 < a < math.inf for a in self.minor_semi_axes_km):
            raise ConfigError(f"minor_semi_axes_km must be finite and > 0, "
                              f"got {self.minor_semi_axes_km}")

    def semi_axes(self, distance_km: float) -> tuple[float, float, float]:
        return (distance_km / 2.0, *self.minor_semi_axes_km)


@dataclass(frozen=True)
class InteractionTable:
    """Per-class, per-mechanism activation probabilities vs frequency.

    Probabilities are interpolated linearly in log-frequency between the
    breakpoints; queries outside the tabulated range raise ConfigError.
    """

    frequencies_hz: tuple[float, ...]
    probabilities: dict  # (class, mechanism value) -> tuple[float, ...]

    def __post_init__(self):
        _check_log_f_table("interaction table", self.frequencies_hz,
                           self.probabilities, probabilities=True)

    def probability(self, debris_class: str, mechanism: Mechanism,
                    f_hz: float) -> float:
        key = (debris_class, mechanism.value)
        if key not in self.probabilities:
            raise ConfigError(f"no interaction probabilities for {key}")
        return _interp_log_f("interaction table", self.frequencies_hz,
                             self.probabilities[key], f_hz)


@dataclass(frozen=True)
class ChannelConfig:
    """Sub-band layout, array spacing and the hybrid small-scale model.

    The Rician dressing is applied when the assembled channel carries
    debris paths; its K-factor depends on debris class and frequency
    (rough surfaces turn diffuse as the wavelength shrinks), interpolated
    in log-frequency like the interaction table.
    """

    n_subbands: int = 8
    bandwidth_hz: float = 10e9
    spacing: float = 0.5
    polarization: Polarization = Polarization.TE
    k_factor_frequencies_hz: tuple[float, ...] = (30e9, 300e9, 3e12, 5e12)
    k_factor_db: dict = field(default_factory=lambda: {
        "smooth_glass": (11.5, 13.0, 21.0, 21.0),
        "rough_metal": (10.5, 11.0, 11.0, 11.0)})

    def __post_init__(self):
        if not self.n_subbands >= 1:
            raise ConfigError(f"n_subbands must be >= 1, got {self.n_subbands}")
        if not 0.0 <= self.bandwidth_hz < math.inf:
            raise ConfigError(f"bandwidth_hz must be finite and >= 0, "
                              f"got {self.bandwidth_hz}")
        if not 0.0 < self.spacing < math.inf:
            raise ConfigError(f"spacing must be finite and > 0, got {self.spacing}")
        _check_log_f_table("K-factor table", self.k_factor_frequencies_hz,
                           self.k_factor_db)

    def k_factor(self, debris_class: str, f_hz: float) -> float:
        if debris_class not in self.k_factor_db:
            raise ConfigError(f"no K-factor for class {debris_class!r}")
        return _interp_log_f("K-factor table", self.k_factor_frequencies_hz,
                             self.k_factor_db[debris_class], f_hz)


@dataclass(frozen=True)
class SvmSettings:
    """SVM training settings; a bad value raises ConfigError on construction."""

    kernel: str = "rbf"
    c: float = 1.0
    tol: float = DEFAULT_TOL
    gamma: float | None = None     # None: 1/(n_features * var)
    train_fraction: float = 0.7

    def __post_init__(self):
        _check_choice("kernel", self.kernel, KERNEL_KINDS)
        if not 0.0 < self.c < math.inf:
            raise ConfigError(f"svm c must be finite and > 0, got {self.c}")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"svm tolerance must be finite and > 0, "
                              f"got {self.tol}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise ConfigError(f"svm gamma must be auto or finite and > 0, "
                              f"got {self.gamma}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class CampaignGrid:
    kind: str = "frequency_snr"
    frequencies_hz: tuple[float, ...] = (30e9, 3e12, 5e12)
    snr_values_db: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0)
    mimo_sizes: tuple[int, ...] = (16,)
    densities_per_km3: tuple[float, ...] = (1e-6,)
    classes: tuple[str, ...] = (NO_DEBRIS_LABEL, "smooth_glass", "rough_metal")
    samples_per_condition: int = 200

    def __post_init__(self):
        _check_choice("campaign kind", self.kind, CAMPAIGN_KINDS)
        for name in ("frequencies_hz", "snr_values_db", "mimo_sizes",
                     "densities_per_km3"):
            values = getattr(self, name)
            key = _ini_key("campaign", name)
            if not values:
                raise ConfigError(f"campaign list {key} must be non-empty")
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"campaign list {key} must hold finite values, "
                                  f"got {values}")
            # condition and group ids print each value in :g form
            if len({f"{v:g}" for v in values}) != len(values):
                raise ConfigError(f"campaign list {key} repeats a value, got {values}")
            if len(values) != 1 and name not in CAMPAIGN_SWEEPS[self.kind]:
                raise ConfigError(f"campaign kind {self.kind} does not sweep {key}, "
                                  f"so it must hold one value, got {values}")
        if any(n < 1 for n in self.mimo_sizes):
            raise ConfigError(f"mimo sizes must be positive, got {self.mimo_sizes}")
        if any(d < 0.0 for d in self.densities_per_km3):
            raise ConfigError(f"densities must be >= 0, got {self.densities_per_km3}")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError(f"campaign classes repeat a name: {', '.join(self.classes)}")
        if NO_DEBRIS_LABEL not in self.classes:
            raise ConfigError(f"campaign classes must include {NO_DEBRIS_LABEL!r}")
        if len(self.classes) < 2:
            raise ConfigError("campaign classes need at least one debris class")
        if self.samples_per_condition < 2 * len(self.classes):
            raise ConfigError("need >= 2 samples per class per condition")


# Activation probabilities rise with frequency (shorter wavelengths make
# debris surfaces electrically rough and interactions more likely); rough
# metal leans on scattering, smooth glass keeps a specular component.
DEFAULT_INTERACTIONS = InteractionTable(
    frequencies_hz=(30e9, 300e9, 3e12, 5e12),
    probabilities={
        ("smooth_glass", "reflection"): (0.05, 0.12, 0.55, 0.80),
        ("smooth_glass", "scattering"): (0.35, 0.40, 0.65, 0.90),
        ("smooth_glass", "diffraction"): (0.15, 0.18, 0.45, 0.60),
        ("rough_metal", "reflection"): (0.05, 0.06, 0.06, 0.07),
        ("rough_metal", "scattering"): (0.35, 0.45, 0.85, 0.95),
        ("rough_metal", "diffraction"): (0.15, 0.18, 0.50, 0.65),
    })


@dataclass(frozen=True)
class SimulationConfig:
    link: LinkGeometry = LinkGeometry(distance_km=500.0, velocity_km_s=7.0)
    scene: SceneSettings = field(default_factory=SceneSettings)
    materials: dict = field(default_factory=default_materials)
    interactions: InteractionTable = DEFAULT_INTERACTIONS
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    svm: SvmSettings = field(default_factory=SvmSettings)
    campaign: CampaignGrid = field(default_factory=CampaignGrid)


def default_config() -> SimulationConfig:
    return SimulationConfig()


# ---------------------------------------------------------------------------
# The key table
# ---------------------------------------------------------------------------

def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(",") if v.strip())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(",") if v.strip())


def _strings(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _pair(raw: str) -> tuple[float, ...]:
    values = _floats(raw)
    if len(values) != 2:
        raise ValueError(f"needs two values, got {len(values)}")
    return values


def _gamma(raw: str) -> float | None:
    return None if raw.strip() in ("", "auto") else float(raw)


class _Key(NamedTuple):
    parse: Callable[[str], object]
    note: str = ""
    attr: str | None = None   # the dataclass field, when not named as the key


# Section -> INI key -> how it is parsed, in reference order.  Each section
# is the SimulationConfig field of the same name.  Besides these keys,
# [interactions] takes <class>_<mechanism> rows, [channel] takes
# k_factor_db_<class> rows and [materials] takes ``file``.
_KEYS = {
    "link": {
        "distance_km": _Key(float, "tx-rx separation"),
        "velocity_km_s": _Key(float, "relative velocity (Doppler)"),
    },
    "scene": {
        "minor_semi_axes_km": _Key(_pair, "ellipsoid minors; the major is distance/2"),
    },
    "materials": {},
    "interactions": {
        "frequencies_hz": _Key(_floats, "log-f breakpoints of the activation rows below"),
    },
    "channel": {
        "n_subbands": _Key(int),
        "bandwidth_hz": _Key(float),
        "spacing": _Key(float, "element spacing / wavelength"),
        "polarization": _Key(Polarization, " | ".join(p.value for p in Polarization)),
        "k_factor_frequencies_hz": _Key(_floats, "log-f breakpoints of the Rician K (dB) "
                                                 "rows below"),
    },
    "svm": {
        "kernel": _Key(str, " | ".join(KERNEL_KINDS)),
        "c": _Key(float),
        "tolerance": _Key(float, attr="tol"),
        "gamma": _Key(_gamma, "rbf width; auto = 1/(n_features*var)"),
        "train_fraction": _Key(float),
    },
    "campaign": {
        "kind": _Key(str, " | ".join(CAMPAIGN_KINDS)),
        "frequencies_hz": _Key(_floats),
        "snr_db": _Key(_floats, attr="snr_values_db"),
        "mimo": _Key(_ints, attr="mimo_sizes"),
        "densities_per_km3": _Key(_floats),
        "classes": _Key(_strings),
        "samples_per_condition": _Key(int),
    },
}


def _ini_key(section: str, attr: str) -> str:
    """The INI key of ``section`` that sets the dataclass field ``attr``."""
    return next(key for key, spec in _KEYS[section].items()
                if (spec.attr or key) == attr)


def parse_config(text: str, config_dir=None) -> SimulationConfig:
    """Parse an INI config, overriding the shipped defaults.

    A section or key that nothing parses raises ConfigError, so a typo
    fails loudly.
    """
    cfg = default_config()
    for name, sec in read_ini(text, "config file").items():
        if name not in _KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        keys, changes = _KEYS[name], {}
        for key, raw in sec.items():
            try:
                if key in keys:
                    changes[keys[key].attr or key] = keys[key].parse(raw)
                elif name == "interactions" and key.rpartition("_")[2] in MECHANISM_KEYS:
                    rows = changes.setdefault("probabilities",
                                              dict(cfg.interactions.probabilities))
                    cls, _, mech = key.rpartition("_")
                    rows[(cls, mech)] = _floats(raw)
                elif name == "channel" and key.startswith("k_factor_db_"):
                    rows = changes.setdefault("k_factor_db", dict(cfg.channel.k_factor_db))
                    rows[key[len("k_factor_db_"):]] = _floats(raw)
                elif name == "materials" and key == "file":
                    cfg = replace(cfg, materials=load_materials(
                        Path(config_dir or ".") / raw))
                else:
                    raise ConfigError(f"unknown config key {key!r} in [{name}]")
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in [{name}]: {exc}") from exc
        if changes:
            cfg = replace(cfg, **{name: replace(getattr(cfg, name), **changes)})
    validate_config(cfg)
    return cfg


def load_config(path) -> SimulationConfig:
    p = Path(path)
    return parse_config(p.read_text(encoding="utf-8"), config_dir=p.parent)


def validate_config(cfg: SimulationConfig) -> None:
    """The checks that read more than one section, raising ConfigError;
    every section's dataclass checks its own fields on construction.

    Every debris material must cover every sub-band centre, so a path's
    transfer can then fail only for its geometry, at all of its sub-bands.
    """
    # a sample's features are moments over its sub-band CSI entries
    entries = cfg.channel.n_subbands * min(cfg.campaign.mimo_sizes) ** 2
    if entries < 2:
        raise ConfigError(f"a sample needs at least 2 CSI entries for its features, "
                          f"got {entries} (n_subbands x mimo^2)")
    # a sample evaluates its paths at each sub-band centre of its carrier
    centres = [float(f) for carrier in cfg.campaign.frequencies_hz
               for f in subband_grid(carrier, cfg.channel.n_subbands,
                                     cfg.channel.bandwidth_hz)]
    if not min(centres) > 0.0:
        raise ConfigError(f"sub-band centres must be > 0 Hz, got {min(centres):.4g} Hz "
                          f"(bandwidth_hz = {cfg.channel.bandwidth_hz:g} is too wide "
                          "for the lowest carrier)")
    for cls in cfg.campaign.classes:
        if cls == NO_DEBRIS_LABEL:
            continue
        if cls not in cfg.materials:
            raise ConfigError(f"class {cls!r} has no material definition")
        if cls not in cfg.channel.k_factor_db:
            raise ConfigError(f"class {cls!r} has no K-factor row")
        for mech in MECHANISM_KEYS:
            if (cls, mech) not in cfg.interactions.probabilities:
                raise ConfigError(f"class {cls!r} missing interaction row {mech}")
        # a sample reads both tables at its carrier; these raise outside them
        for f_hz in cfg.campaign.frequencies_hz:
            cfg.interactions.probability(cls, DEBRIS_MECHANISMS[0], f_hz)
            cfg.channel.k_factor(cls, f_hz)
        material = cfg.materials[cls]
        for f_hz in centres:
            try:
                material.refractive_index(f_hz)
                material.absorption(f_hz)
                material.check_facets(f_hz)
            except MaterialError as exc:
                raise ConfigError(f"sub-band centre {f_hz:.4g} Hz: {exc}") from exc


# ---------------------------------------------------------------------------
# Generated reference
# ---------------------------------------------------------------------------

def _text(value) -> str:
    """A value as the reference prints it: an int in full, an enum as its
    value, a float in ``:g`` form when that parses back exactly, otherwise
    its ``repr``."""
    if isinstance(value, (str, int)):
        return str(value)
    if isinstance(value, enum.Enum):
        return value.value
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ", ".join(_text(v) for v in value)
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def reference_text() -> str:
    """Emit the default configuration as a fully commented INI file."""
    cfg = default_config()
    lines = ["# debrisense configuration reference (generated; all values are defaults)"]
    for name, keys in _KEYS.items():
        section = getattr(cfg, name)
        lines += ["", f"[{name}]"]
        for key, spec in keys.items():
            note = f"   # {spec.note}" if spec.note else ""
            lines.append(f"{key} = {_text(getattr(section, spec.attr or key))}{note}")
        if name == "materials":
            lines.append("# file = materials.ini   # external material table; "
                         "omit for built-ins")
        elif name == "interactions":
            lines += [f"{cls}_{mech} = {_text(probs)}"
                      for (cls, mech), probs in sorted(section.probabilities.items())]
        elif name == "channel":
            lines += [f"k_factor_db_{cls} = {_text(kdb)}"
                      for cls, kdb in sorted(section.k_factor_db.items())]
    return "\n".join(lines) + "\n"
