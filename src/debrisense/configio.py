"""Simulation configuration: defaults, INI parsing, reference generation.

Config files are INI text with sections [link], [scene], [materials],
[interactions], [channel], [svm], [campaign].  Every value has a shipped
default; a user file only overrides what it names.  ``reference_text``
emits the fully commented default file.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .materials import default_materials, load_materials
from .scene import DebrisClass, Mechanism
from .svm import KERNEL_KINDS

MECHANISM_KEYS = ("reflection", "scattering", "diffraction")


def _interp_log_f(table: str, freqs, values, f_hz: float) -> float:
    """Linear interpolation in log-frequency between sorted breakpoints;
    a query outside them raises ConfigError naming ``table``."""
    if not (freqs[0] <= f_hz <= freqs[-1]):
        raise ConfigError(f"{table} does not cover {f_hz:.4g} Hz "
                          f"(range {freqs[0]:.4g}..{freqs[-1]:.4g})")
    return float(np.interp(math.log10(f_hz), [math.log10(f) for f in freqs],
                           values))


@dataclass(frozen=True)
class LinkConfig:
    distance_km: float = 500.0
    velocity_km_s: float = 7.0


@dataclass(frozen=True)
class SceneSettings:
    # Major semi-axis defaults to distance/2; minors keep debris near the link.
    minor_semi_axes_km: tuple[float, float] = (50.0, 50.0)
    debris_size_m: float = 0.5

    def semi_axes(self, distance_km: float) -> tuple[float, float, float]:
        return (distance_km / 2.0, *self.minor_semi_axes_km)


@dataclass(frozen=True)
class InteractionTable:
    """Per-class, per-mechanism activation probabilities vs frequency.

    Probabilities are interpolated linearly in log-frequency between the
    breakpoints; queries outside the tabulated range raise ConfigError.
    """

    frequencies_hz: tuple[float, ...]
    probabilities: dict  # (class_value, mechanism_value) -> tuple[float, ...]

    def __post_init__(self):
        freqs = list(self.frequencies_hz)
        if sorted(freqs) != freqs or len(freqs) < 1:
            raise ConfigError("interaction frequencies must be sorted and non-empty")
        for key, probs in self.probabilities.items():
            if len(probs) != len(freqs):
                raise ConfigError(f"interaction row {key} has {len(probs)} entries, "
                                  f"expected {len(freqs)}")
            if any(not (0.0 <= p <= 1.0) for p in probs):
                raise ConfigError(f"interaction row {key} has probabilities outside [0,1]")

    def probability(self, debris_class: DebrisClass, mechanism: Mechanism,
                    f_hz: float) -> float:
        key = (debris_class.value, mechanism.value)
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
    polarization: str = "te"
    k_factor_frequencies_hz: tuple[float, ...] = (30e9, 300e9, 3e12, 5e12)
    k_factor_db: dict = field(default_factory=lambda: {
        "smooth_glass": (11.5, 13.0, 21.0, 21.0),
        "rough_metal": (10.5, 11.0, 11.0, 11.0)})

    def k_factor(self, debris_class: str, f_hz: float) -> float:
        if debris_class not in self.k_factor_db:
            raise ConfigError(f"no K-factor for class {debris_class!r}")
        return _interp_log_f("K-factor table", self.k_factor_frequencies_hz,
                             self.k_factor_db[debris_class], f_hz)


@dataclass(frozen=True)
class LinkSimConfig:
    frame_symbols: int = 500       # QPSK symbols per antenna per sample
    pilot_factor: int = 2          # pilot length = factor * Nt
    csi_method: str = "least_squares"


@dataclass(frozen=True)
class SvmSettings:
    kernel: str = "rbf"
    c: float = 1.0
    tol: float = 1e-3
    gamma: float | None = None     # None: 1/(n_features * var)
    train_fraction: float = 0.7


@dataclass(frozen=True)
class CampaignGrid:
    kind: str = "frequency_snr"
    frequencies_hz: tuple[float, ...] = (30e9, 3e12, 5e12)
    snr_values_db: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0)
    mimo_sizes: tuple[int, ...] = (16,)
    densities_per_km3: tuple[float, ...] = (1e-6,)
    classes: tuple[str, ...] = ("none", "smooth_glass", "rough_metal")
    samples_per_condition: int = 200

    def __post_init__(self):
        for name in ("frequencies_hz", "snr_values_db", "mimo_sizes",
                     "densities_per_km3", "classes"):
            if not getattr(self, name):
                raise ConfigError(f"campaign list {name} must be non-empty")
        if self.samples_per_condition < 2 * len(self.classes):
            raise ConfigError("need >= 2 samples per class per condition")
        if self.kind not in ("density_frequency", "frequency_snr",
                             "mimo_frequency", "trend"):
            raise ConfigError(f"unknown campaign kind {self.kind!r}")


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
    link: LinkConfig = field(default_factory=LinkConfig)
    scene: SceneSettings = field(default_factory=SceneSettings)
    materials: dict = field(default_factory=default_materials)
    interactions: InteractionTable = DEFAULT_INTERACTIONS
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    linksim: LinkSimConfig = field(default_factory=LinkSimConfig)
    svm: SvmSettings = field(default_factory=SvmSettings)
    campaign: CampaignGrid = field(default_factory=CampaignGrid)


def default_config() -> SimulationConfig:
    return SimulationConfig()


# ---------------------------------------------------------------------------
# INI parsing
# ---------------------------------------------------------------------------

def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(",") if v.strip())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(float(v)) for v in raw.split(",") if v.strip())


def _strings(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


# Keys each section parses; [interactions] also takes <class>_<mechanism>
# rows and [channel] takes k_factor_db_<class> rows.
_SECTION_KEYS = {
    "link": ("distance_km", "velocity_km_s"),
    "scene": ("minor_semi_axes_km", "debris_size_m"),
    "materials": ("file",),
    "interactions": ("frequencies_hz",),
    "channel": ("n_subbands", "bandwidth_hz", "spacing", "polarization",
                "k_factor_frequencies_hz"),
    "svm": ("kernel", "c", "tolerance", "gamma", "train_fraction"),
    "campaign": ("kind", "frequencies_hz", "snr_db", "mimo",
                 "densities_per_km3", "classes", "samples_per_condition"),
}


def _known_key(section: str, key: str) -> bool:
    if key in _SECTION_KEYS[section]:
        return True
    if section == "interactions":
        return key.rpartition("_")[2] in MECHANISM_KEYS
    return section == "channel" and key.startswith("k_factor_db_")


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Reject sections and keys that nothing parses, so a typo fails loudly."""
    if parser.defaults():
        raise ConfigError("the [DEFAULT] section is not supported, got keys "
                          + ", ".join(sorted(parser.defaults())))
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if not _known_key(section, key):
                raise ConfigError(f"unknown config key {key!r} in [{section}]")


def parse_config(text: str, base: SimulationConfig | None = None,
                 config_dir=None) -> SimulationConfig:
    """Parse an INI config, overriding the shipped defaults."""
    cfg = base or default_config()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from exc
    _check_keys(parser)

    try:
        if parser.has_section("link"):
            sec = parser["link"]
            cfg = replace(cfg, link=LinkConfig(
                distance_km=sec.getfloat("distance_km", cfg.link.distance_km),
                velocity_km_s=sec.getfloat("velocity_km_s", cfg.link.velocity_km_s)))
        if parser.has_section("scene"):
            sec = parser["scene"]
            minors = cfg.scene.minor_semi_axes_km
            if "minor_semi_axes_km" in sec:
                values = _floats(sec["minor_semi_axes_km"])
                if len(values) != 2:
                    raise ConfigError("minor_semi_axes_km needs two values")
                minors = values
            cfg = replace(cfg, scene=SceneSettings(
                minor_semi_axes_km=minors,
                debris_size_m=sec.getfloat("debris_size_m", cfg.scene.debris_size_m)))
        if parser.has_section("materials"):
            sec = parser["materials"]
            if "file" in sec:
                path = sec["file"]
                if config_dir is not None:
                    path = str(Path(config_dir) / path)
                cfg = replace(cfg, materials=load_materials(path))
        if parser.has_section("interactions"):
            sec = parser["interactions"]
            freqs = (_floats(sec["frequencies_hz"])
                     if "frequencies_hz" in sec else cfg.interactions.frequencies_hz)
            probs = dict(cfg.interactions.probabilities)
            for key in sec:
                if key != "frequencies_hz":
                    cls, _, mech = key.rpartition("_")
                    probs[(cls, mech)] = _floats(sec[key])
            cfg = replace(cfg, interactions=InteractionTable(
                frequencies_hz=freqs, probabilities=probs))
        if parser.has_section("channel"):
            sec = parser["channel"]
            kf = dict(cfg.channel.k_factor_db)
            for key in sec:
                if key.startswith("k_factor_db_"):
                    kf[key[len("k_factor_db_"):]] = _floats(sec[key])
            k_freqs = (_floats(sec["k_factor_frequencies_hz"])
                       if "k_factor_frequencies_hz" in sec
                       else cfg.channel.k_factor_frequencies_hz)
            cfg = replace(cfg, channel=ChannelConfig(
                n_subbands=sec.getint("n_subbands", cfg.channel.n_subbands),
                bandwidth_hz=sec.getfloat("bandwidth_hz", cfg.channel.bandwidth_hz),
                spacing=sec.getfloat("spacing", cfg.channel.spacing),
                polarization=sec.get("polarization", cfg.channel.polarization),
                k_factor_frequencies_hz=k_freqs,
                k_factor_db=kf))
        if parser.has_section("svm"):
            sec = parser["svm"]
            gamma = cfg.svm.gamma
            if "gamma" in sec:
                raw = sec["gamma"].strip()
                gamma = None if raw in ("", "auto") else float(raw)
            cfg = replace(cfg, svm=SvmSettings(
                kernel=sec.get("kernel", cfg.svm.kernel),
                c=sec.getfloat("c", cfg.svm.c),
                tol=sec.getfloat("tolerance", cfg.svm.tol),
                gamma=gamma,
                train_fraction=sec.getfloat("train_fraction",
                                            cfg.svm.train_fraction)))
        if parser.has_section("campaign"):
            sec = parser["campaign"]
            grid = cfg.campaign
            cfg = replace(cfg, campaign=CampaignGrid(
                kind=sec.get("kind", grid.kind),
                frequencies_hz=(_floats(sec["frequencies_hz"])
                                if "frequencies_hz" in sec else grid.frequencies_hz),
                snr_values_db=(_floats(sec["snr_db"])
                               if "snr_db" in sec else grid.snr_values_db),
                mimo_sizes=(_ints(sec["mimo"]) if "mimo" in sec else grid.mimo_sizes),
                densities_per_km3=(_floats(sec["densities_per_km3"])
                                   if "densities_per_km3" in sec
                                   else grid.densities_per_km3),
                classes=(_strings(sec["classes"])
                         if "classes" in sec else grid.classes),
                samples_per_condition=sec.getint("samples_per_condition",
                                                 grid.samples_per_condition)))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc

    _validate(cfg)
    return cfg


def load_config(path) -> SimulationConfig:
    p = Path(path)
    return parse_config(p.read_text(encoding="utf-8"), config_dir=p.parent)


def _validate(cfg: SimulationConfig) -> None:
    if cfg.channel.n_subbands < 1:
        raise ConfigError(f"n_subbands must be >= 1, got {cfg.channel.n_subbands}")
    if not 0.0 <= cfg.channel.bandwidth_hz < math.inf:
        raise ConfigError(f"bandwidth_hz must be finite and >= 0, "
                          f"got {cfg.channel.bandwidth_hz}")
    if not 0.0 < cfg.channel.spacing < math.inf:
        raise ConfigError(f"spacing must be finite and > 0, got {cfg.channel.spacing}")
    k_freqs = list(cfg.channel.k_factor_frequencies_hz)
    if not k_freqs or sorted(k_freqs) != k_freqs:
        raise ConfigError("k_factor_frequencies_hz must be sorted and non-empty")
    if any(n < 1 for n in cfg.campaign.mimo_sizes):
        raise ConfigError(f"mimo sizes must be positive, got {cfg.campaign.mimo_sizes}")
    if cfg.channel.polarization not in ("te", "tm"):
        raise ConfigError(f"polarization must be te|tm, got {cfg.channel.polarization!r}")
    if cfg.linksim.csi_method not in ("least_squares", "perfect"):
        raise ConfigError(f"unknown CSI method {cfg.linksim.csi_method!r}")
    if cfg.svm.kernel not in KERNEL_KINDS:
        raise ConfigError(f"kernel must be {'|'.join(KERNEL_KINDS)}, "
                          f"got {cfg.svm.kernel!r}")
    if not 0.0 < cfg.svm.c < math.inf:
        raise ConfigError(f"svm c must be finite and > 0, got {cfg.svm.c}")
    if cfg.svm.gamma is not None and not 0.0 < cfg.svm.gamma < math.inf:
        raise ConfigError(f"svm gamma must be auto or finite and > 0, "
                          f"got {cfg.svm.gamma}")
    if not (0.0 < cfg.svm.train_fraction < 1.0):
        raise ConfigError("train_fraction must lie in (0, 1)")
    for cls in cfg.campaign.classes:
        if cls == "none":
            continue
        if cls not in cfg.materials:
            raise ConfigError(f"class {cls!r} has no material definition")
        if cls not in cfg.channel.k_factor_db:
            raise ConfigError(f"class {cls!r} has no K-factor row")
        if len(cfg.channel.k_factor_db[cls]) != len(cfg.channel.k_factor_frequencies_hz):
            raise ConfigError(f"K-factor row for {cls!r} does not match its "
                              "frequency breakpoints")
        for mech in MECHANISM_KEYS:
            if (cls, mech) not in cfg.interactions.probabilities:
                raise ConfigError(f"class {cls!r} missing interaction row {mech}")


# ---------------------------------------------------------------------------
# Generated reference
# ---------------------------------------------------------------------------

def reference_text() -> str:
    """Emit the default configuration as a fully commented INI file."""
    cfg = default_config()
    lines = [
        "# debrisense configuration reference (generated; all values are defaults)",
        "",
        "[link]",
        f"distance_km = {cfg.link.distance_km}        # tx-rx separation",
        f"velocity_km_s = {cfg.link.velocity_km_s}        # relative velocity (Doppler)",
        "",
        "[scene]",
        "# ellipsoid major semi-axis is distance/2; minors below",
        "minor_semi_axes_km = " + ", ".join(str(v) for v in cfg.scene.minor_semi_axes_km),
        f"debris_size_m = {cfg.scene.debris_size_m}",
        "",
        "[materials]",
        "# file = materials.ini   # external material table; omit for built-ins",
        "",
        "[interactions]",
        "# activation probability per object per mechanism, log-f interpolated",
        "frequencies_hz = " + ", ".join(f"{f:g}" for f in
                                        cfg.interactions.frequencies_hz),
    ]
    for (cls, mech), probs in sorted(cfg.interactions.probabilities.items()):
        lines.append(f"{cls}_{mech} = " + ", ".join(str(p) for p in probs))
    lines += [
        "",
        "[channel]",
        f"n_subbands = {cfg.channel.n_subbands}",
        f"bandwidth_hz = {cfg.channel.bandwidth_hz:g}",
        f"spacing = {cfg.channel.spacing}          # element spacing / wavelength",
        f"polarization = {cfg.channel.polarization}",
        "# Rician K (dB) applied when the channel carries debris paths,",
        "# per class, log-f interpolated over the breakpoints below:",
        "k_factor_frequencies_hz = " + ", ".join(
            f"{f:g}" for f in cfg.channel.k_factor_frequencies_hz),
    ]
    for cls, kdb in sorted(cfg.channel.k_factor_db.items()):
        lines.append(f"k_factor_db_{cls} = " + ", ".join(str(v) for v in kdb))
    lines += [
        "",
        "[svm]",
        f"kernel = {cfg.svm.kernel}             # linear | rbf",
        f"c = {cfg.svm.c}",
        f"tolerance = {cfg.svm.tol}",
        "gamma = auto             # rbf width; auto = 1/(n_features*var)",
        f"train_fraction = {cfg.svm.train_fraction}",
        "",
        "[campaign]",
        f"kind = {cfg.campaign.kind}   # density_frequency | frequency_snr | mimo_frequency",
        "frequencies_hz = " + ", ".join(f"{f:g}" for f in cfg.campaign.frequencies_hz),
        "snr_db = " + ", ".join(f"{v:g}" for v in cfg.campaign.snr_values_db),
        "mimo = " + ", ".join(str(v) for v in cfg.campaign.mimo_sizes),
        "densities_per_km3 = " + ", ".join(f"{v:g}" for v in
                                           cfg.campaign.densities_per_km3),
        "classes = " + ", ".join(cfg.campaign.classes),
        f"samples_per_condition = {cfg.campaign.samples_per_condition}",
        "",
    ]
    return "\n".join(lines)
