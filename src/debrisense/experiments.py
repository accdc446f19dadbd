"""Simulation campaigns: condition grids, end-to-end sample generation,
train/evaluate splits and result files.

A campaign is a grid of conditions; each condition generates a fixed
number of samples balanced across its labels.  Per-sample randomness is
derived from the master seed by counter-based stream splitting so that a
campaign is a pure function of (config, seed), samples stay paired across
SNR sweeps (same scenes/channels, rescaled noise), and debris-interaction
draws nest across frequencies (activation probabilities rise with f).

The unit of work is an SNR family: the conditions that differ only in SNR.
None of the seed streams depends on SNR, so the siblings of a family share
one draw per sample: scene, interactions, paths, the sub-band channel
matrices, the payload and unit-noise draws, and the SNR-independent link
terms (the noiseless received blocks and each sub-band's signal power).
Each sibling then only scales the noise to its SNR, equalizes and counts
bit errors, and extracts the features, on stacks of sub-bands rather than
one matrix at a time.  Within a sample, each path's geometry, angles and
steering are resolved once; only its gain is evaluated per sub-band.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import (apply_rician_smallscale, assemble_subband,
                      steering_matrix, subband_grid)
from .configio import (CAMPAIGN_KINDS, NO_DEBRIS_LABEL, CampaignGrid,
                       SimulationConfig, default_config)
from .errors import ConfigError, DebrisenseError, EqualizationError, TrainingError
# transmit and estimate_csi are the per-matrix form of the link that
# simulate_sample runs on stacks; perfbench's layer tracer patches both names
# on this module
from .linksim import (CsiEstimate, CsiMethod, add_noise, csi_error_variance,
                      estimate_csi, fill_complex_normal, noise_variance,
                      noiseless_output, qpsk_demodulate, qpsk_modulate,
                      signal_power, transmit, zf_equalize)
from .propagation import (Polarization, ScatterGeometry, diffracted_response,
                          los_response, reflected_response, scattered_response)
from .scene import (DEBRIS_MECHANISMS, DebrisScene, Mechanism, PathGeometry,
                    SceneConfig, generate_scene, incidence_angle, path_lengths,
                    perpendicular_clearance)
from .sensing import (FeatureVector, LabeledDataset, SvmModel, extract_features,
                      svm_train)

DEBRIS_LABEL = "debris"

# Stream tags for counter-based seed derivation.
_STREAM_SCENE = 11
_STREAM_INTERACT = 12
_STREAM_FADING = 13
_STREAM_NOISE = 14
_STREAM_SPLIT = 15


# ---------------------------------------------------------------------------
# Conditions and campaign grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionSpec:
    condition_id: str
    table_tag: int
    f_idx: int
    frequency_hz: float
    snr_db: float
    mimo_idx: int
    n_antennas: int
    density_idx: int
    density_per_km3: float
    labels: tuple[str, ...]
    samples: int


@dataclass(frozen=True)
class EvaluationGroup:
    """Conditions pooled into one train/evaluate unit."""
    group_id: str
    condition_ids: tuple[str, ...]
    frequency_hz: float
    axis_value: float  # density / snr / mimo, depending on the campaign


@dataclass(frozen=True)
class SampleRecord:
    condition_id: str
    sample_idx: int
    label: str
    ber: float
    features: FeatureVector
    det_value: float | None = None
    pred_label: str | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class MetricsSummary:
    mean_ber: float
    det_acc: float
    cls_acc: float
    detection_model: SvmModel
    classification_model: SvmModel | None
    records: tuple[SampleRecord, ...]  # the input, annotated


def detection_labels(labels) -> tuple[str, ...]:
    """The detection task's labels: every debris class becomes ``debris``."""
    return tuple(lab if lab == NO_DEBRIS_LABEL else DEBRIS_LABEL for lab in labels)


def balanced_partition(total: int, classes) -> dict:
    """Exact floor/ceil split of ``total`` across classes in fixed order."""
    base, extra = divmod(total, len(classes))
    return {cls: base + (1 if i < extra else 0) for i, cls in enumerate(classes)}


def _cond_id(tag, f, snr, mimo, density, labels) -> str:
    label_part = labels[0] if len(labels) == 1 else "all"
    return (f"t{tag}-f{f:g}-snr{snr:g}-m{mimo}-rho{density:g}-{label_part}")


def enumerate_conditions(cfg: SimulationConfig):
    """Expand the campaign grid into conditions plus evaluation groups."""
    grid = cfg.campaign
    tag = CAMPAIGN_KINDS[grid.kind]
    debris_classes = tuple(c for c in grid.classes if c != NO_DEBRIS_LABEL)
    conditions: list[ConditionSpec] = []
    groups: list[EvaluationGroup] = []

    def add(f_idx, s_idx, mimo_idx, density_idx, labels, density):
        cid = _cond_id(tag, grid.frequencies_hz[f_idx],
                       grid.snr_values_db[s_idx], grid.mimo_sizes[mimo_idx],
                       density, labels)
        conditions.append(ConditionSpec(
            condition_id=cid, table_tag=tag,
            f_idx=f_idx, frequency_hz=grid.frequencies_hz[f_idx],
            snr_db=grid.snr_values_db[s_idx],
            mimo_idx=mimo_idx, n_antennas=grid.mimo_sizes[mimo_idx],
            density_idx=density_idx, density_per_km3=density,
            labels=labels, samples=grid.samples_per_condition))
        return cid

    if grid.kind == "density_frequency":
        # one no-debris cell per frequency, shared by every density group
        for f_idx in range(len(grid.frequencies_hz)):
            none_id = add(f_idx, 0, 0, 0, (NO_DEBRIS_LABEL,), 0.0)
            per_density_members = {d: [none_id] for d in range(len(grid.densities_per_km3))}
            for cls in debris_classes:
                for d_idx, density in enumerate(grid.densities_per_km3):
                    cid = add(f_idx, 0, 0, d_idx, (cls,), density)
                    per_density_members[d_idx].append(cid)
            for d_idx, density in enumerate(grid.densities_per_km3):
                groups.append(EvaluationGroup(
                    group_id=f"g-f{grid.frequencies_hz[f_idx]:g}-rho{density:g}",
                    condition_ids=tuple(per_density_members[d_idx]),
                    frequency_hz=grid.frequencies_hz[f_idx],
                    axis_value=density))
    else:
        if grid.kind == "frequency_snr" or grid.kind == "trend":
            axes = [(f_idx, s_idx, 0, 0)
                    for f_idx in range(len(grid.frequencies_hz))
                    for s_idx in range(len(grid.snr_values_db))]
            if grid.kind == "trend":
                # density comparison leg at the lowest frequency, highest SNR
                axes += [(0, len(grid.snr_values_db) - 1, 0, d_idx)
                         for d_idx in range(1, len(grid.densities_per_km3))]
        else:  # mimo_frequency
            axes = [(f_idx, 0, m_idx, 0)
                    for f_idx in range(len(grid.frequencies_hz))
                    for m_idx in range(len(grid.mimo_sizes))]
        for f_idx, s_idx, mimo_idx, d_idx in axes:
            density = grid.densities_per_km3[d_idx]
            cid = add(f_idx, s_idx, mimo_idx, d_idx, grid.classes, density)
            if grid.kind == "mimo_frequency":
                axis = float(grid.mimo_sizes[mimo_idx])
            elif d_idx > 0:
                axis = density
            else:
                axis = grid.snr_values_db[s_idx]
            groups.append(EvaluationGroup(
                group_id=f"g-{cid}", condition_ids=(cid,),
                frequency_hz=grid.frequencies_hz[f_idx], axis_value=axis))

    return conditions, groups


def table_config(which: int, samples: int | None = None) -> SimulationConfig:
    """Campaign configuration for the three headline experiment tables."""
    cfg = default_config()
    if samples is None:
        samples = 200
    if which == 1:
        grid = CampaignGrid(
            kind="density_frequency",
            frequencies_hz=(30e9, 300e9, 3e12, 5e12),
            snr_values_db=(15.0,),
            mimo_sizes=(16,),
            densities_per_km3=(1e-7, 5e-7, 1e-6),
            samples_per_condition=samples)
    elif which == 2:
        grid = CampaignGrid(
            kind="frequency_snr",
            frequencies_hz=(30e9, 3e12, 5e12),
            snr_values_db=(5.0, 10.0, 15.0, 20.0),
            mimo_sizes=(16,),
            densities_per_km3=(1e-6,),
            samples_per_condition=samples)
    elif which == 3:
        grid = CampaignGrid(
            kind="mimo_frequency",
            frequencies_hz=(30e9, 300e9, 3e12, 5e12),
            snr_values_db=(20.0,),
            mimo_sizes=(4, 16, 64),
            densities_per_km3=(1e-6,),
            samples_per_condition=samples)
    else:
        raise ConfigError(f"table must be 1, 2 or 3, got {which}")
    return replace(cfg, campaign=grid)


def trend_config(samples: int = 100) -> SimulationConfig:
    """Reduced-scale campaign covering the headline frequency/SNR/density trends."""
    cfg = default_config()
    grid = CampaignGrid(
        kind="trend",
        frequencies_hz=(30e9, 3e12, 5e12),
        snr_values_db=(5.0, 10.0, 15.0, 20.0),
        mimo_sizes=(16,),
        densities_per_km3=(1e-6, 1e-7),
        samples_per_condition=samples)
    return replace(cfg, campaign=grid)


# ---------------------------------------------------------------------------
# Seed streams
# ---------------------------------------------------------------------------

def _rng(master_seed: int, stream: int, *key) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(stream),
                                *(int(k) for k in key)]))


# ---------------------------------------------------------------------------
# Interactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interaction:
    object_index: int
    mechanism: Mechanism
    scatter_azimuth: float


def draw_interactions(scene: DebrisScene, f_hz: float, table,
                      rng: np.random.Generator) -> list[Interaction]:
    """Independently activate each (object, mechanism) with its table probability.

    One uniform draw per (object, mechanism) is consumed in a fixed order,
    so activation sets are nested across frequencies whenever the table is
    monotone in frequency.  Scatter azimuths are drawn for every object up
    front for the same reason.
    """
    n, k = len(scene.objects), len(DEBRIS_MECHANISMS)
    draws = rng.random((n, k)) if n else np.zeros((0, k))
    azimuths = rng.uniform(0.0, 2.0 * math.pi, size=n) if n else np.zeros(0)
    out = []
    for i, obj in enumerate(scene.objects):
        for m_idx, mech in enumerate(DEBRIS_MECHANISMS):
            p = table.probability(obj.debris_class, mech, f_hz)
            if draws[i, m_idx] < p:
                out.append(Interaction(object_index=i, mechanism=mech,
                                       scatter_azimuth=float(azimuths[i])))
    return out


def _angles(scene: DebrisScene, position_km) -> tuple[float, float]:
    """Departure and arrival elevations of a debris relay; arrays are ULAs
    along the y axis."""
    tx = scene.tx_position_km
    rx = scene.rx_position_km
    p = np.asarray(position_km)
    u_t = (p - tx) / np.linalg.norm(p - tx)
    u_r = (p - rx) / np.linalg.norm(p - rx)
    el_t = math.asin(float(np.clip(u_t[1], -1.0, 1.0)))
    el_r = math.asin(float(np.clip(u_r[1], -1.0, 1.0)))
    return el_t, el_r


def interaction_geometry(scene: DebrisScene, object_index: int,
                         mechanism: Mechanism) -> PathGeometry | None:
    """Resolve one activated interaction into its path geometry.

    Reflection and scattering use the slant legs of the relay triangle;
    diffraction uses the along-axis split at the obstruction and needs the
    debris to project onto the open segment (returns None otherwise).
    """
    obj = scene.objects[object_index]
    tx = scene.tx_position_km
    rx = scene.rx_position_km
    clearance = perpendicular_clearance(tx, rx, obj.position_km)
    if mechanism is Mechanism.DIFFRACTION:
        if clearance is None or clearance[0] == 0.0:
            return None
        h_m, s1_km, s2_km = clearance
        return PathGeometry(s1_km=s1_km, s2_km=s2_km,
                            d_km=scene.geometry.distance_km,
                            incidence_angle_rad=0.0, clearance_m=h_m,
                            mechanism=mechanism)
    s1_km, s2_km, d_km = path_lengths(tx, rx, obj.position_km)
    theta = min(incidence_angle(s1_km, s2_km, d_km), math.pi / 2 - 1e-9)
    return PathGeometry(s1_km=s1_km, s2_km=s2_km, d_km=d_km,
                        incidence_angle_rad=theta,
                        clearance_m=clearance[0] if clearance else 0.0,
                        mechanism=mechanism)


def _path_gain(geom: PathGeometry, f_hz: float, material, pol: Polarization,
               scatter_azimuth: float) -> complex:
    s1_m, s2_m = geom.s1_km * 1e3, geom.s2_km * 1e3
    if geom.mechanism is Mechanism.REFLECTION:
        return reflected_response(f_hz, s1_m, s2_m, geom.d_km * 1e3, material, pol)
    if geom.mechanism is Mechanism.SCATTERING:
        sgeom = ScatterGeometry(theta1=geom.incidence_angle_rad,
                                theta2=geom.incidence_angle_rad,
                                theta3=scatter_azimuth)
        return scattered_response(f_hz, s1_m, s2_m, geom.d_km * 1e3, sgeom,
                                  material, pol)
    return diffracted_response(f_hz, s1_m, s2_m, geom.clearance_m)


@dataclass(frozen=True)
class SamplePath:
    """One path of a sample, resolved once for all of its sub-bands.

    ``gains`` holds the path's transfer function at each sub-band, or None
    where evaluating it raised.
    """
    mechanism: Mechanism
    steering: np.ndarray
    gains: tuple


def build_paths(scene: DebrisScene, interactions, grid, cfg: SimulationConfig,
                flags: list, n_antennas: int) -> list[SamplePath]:
    """Resolve the line of sight and every activated interaction into paths.

    Both ends are ``n_antennas``-element ULAs with the configured spacing.
    Geometry, angles and steering do not depend on frequency and are
    resolved once; gains are evaluated at each sub-band centre of ``grid``.
    Geometry failures (grazing scattering, no knife-edge projection) skip
    the path, and a gain that raises skips it at that sub-band only; both
    append a flag instead of aborting the sample.
    """
    pol = cfg.channel.polarization
    spacing = cfg.channel.spacing
    freqs = [float(f) for f in grid]
    paths = [SamplePath(
        mechanism=Mechanism.LOS,
        steering=steering_matrix(n_antennas, spacing, 0.0, 0.0),
        gains=tuple(los_response(f, scene.geometry.distance_m) for f in freqs))]
    for inter in interactions:
        obj = scene.objects[inter.object_index]
        material = cfg.materials[obj.debris_class]
        error_flag = f"path_error:{inter.mechanism.value}"
        try:
            geom = interaction_geometry(scene, inter.object_index,
                                        inter.mechanism)
        except DebrisenseError:
            flags.append(error_flag)
            continue
        if geom is None:
            flags.append("diff_skip")
            continue
        gains = []
        for f in freqs:
            try:
                gains.append(_path_gain(geom, f, material, pol,
                                        inter.scatter_azimuth))
            except DebrisenseError:
                gains.append(None)
                flags.append(error_flag)
        el_tx, el_rx = _angles(scene, obj.position_km)
        paths.append(SamplePath(
            mechanism=inter.mechanism,
            steering=steering_matrix(n_antennas, spacing, el_tx, el_rx),
            gains=tuple(gains)))
    return paths


# ---------------------------------------------------------------------------
# Per-sample simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameStack:
    """The frames of consecutive sub-bands that carry the same symbol count L.

    ``subbands`` selects those sub-bands on the sample's sub-band axis.
    ``signal`` is their noiseless received blocks gamma H x, (k, N, L);
    ``noise`` the CN(0, 1) units each SNR sibling scales, of the same
    shape; ``bits`` the payload, (k, 2 N L).
    """
    subbands: slice
    signal: np.ndarray
    noise: np.ndarray
    bits: np.ndarray


@dataclass(frozen=True)
class SampleDraw:
    """The SNR-independent part of one sample, shared by its SNR siblings.

    The sub-band arrays are stacks along a leading sub-band axis:
    ``channel`` holds the S channel matrices, (S, N, N), ``csi_error`` the
    CN(0, 1) units of the LS channel-estimate error, of the same shape, and
    ``power`` the signal power of each sub-band (linksim.signal_power).
    The frame's symbols are split over the sub-bands as evenly as they go
    (500 over 8 gives 63 on sub-bands 0-3 and 62 on 4-7), so ``frames``
    holds one unpadded FrameStack per run of equal lengths.
    """
    sample_idx: int
    label: str
    flags: tuple[str, ...]
    channel: np.ndarray
    csi_error: np.ndarray
    power: np.ndarray
    frames: tuple[FrameStack, ...]


def draw_sample(cond: ConditionSpec, label: str, sample_idx: int,
                cfg: SimulationConfig, master_seed: int,
                label_idx: int) -> SampleDraw:
    """Scene -> interactions -> paths -> sub-band channels and payload."""
    flags: list[str] = []
    scene_rng = _rng(master_seed, _STREAM_SCENE, cond.table_tag,
                     cond.density_idx, label_idx, sample_idx)
    inter_rng = _rng(master_seed, _STREAM_INTERACT, cond.table_tag,
                     cond.density_idx, label_idx, sample_idx)
    fading_rng = _rng(master_seed, _STREAM_FADING, cond.table_tag,
                      cond.density_idx, label_idx, sample_idx, cond.mimo_idx)
    noise_rng = _rng(master_seed, _STREAM_NOISE, cond.table_tag, cond.f_idx,
                     cond.density_idx, label_idx, sample_idx, cond.mimo_idx)

    debris = label != NO_DEBRIS_LABEL
    scene_cfg = SceneConfig(geometry=cfg.link,
                            density_per_km3=cond.density_per_km3 if debris else 0.0,
                            semi_axes_km=cfg.scene.semi_axes(cfg.link.distance_km),
                            debris_class=label if debris else None,
                            debris_size_m=cfg.scene.debris_size_m)
    scene = generate_scene(scene_cfg, seed=int(scene_rng.integers(0, 2 ** 63)))
    interactions = draw_interactions(scene, cond.frequency_hz,
                                     cfg.interactions, inter_rng)

    grid = subband_grid(cond.frequency_hz, cfg.channel.n_subbands,
                        cfg.channel.bandwidth_hz)
    # the paths (and their steering matrices) are freed before the payload
    # stacks are drawn
    channel = _subband_channels(
        build_paths(scene, interactions, grid, cfg, flags, cond.n_antennas),
        grid, cond.n_antennas, cfg.link.velocity_m_s,
        functools.partial(cfg.channel.k_factor, label, cond.frequency_hz),
        fading_rng)
    lengths = balanced_partition(cfg.linksim.frame_symbols,
                                 range(cfg.channel.n_subbands)).values()
    return draw_link(sample_idx, label, tuple(flags), channel, lengths, noise_rng)


def _subband_channels(paths, grid, n_antennas: int, velocity_m_s: float,
                      k_factor_db, fading_rng) -> np.ndarray:
    """The (S, N, N) stack of a sample's sub-band channel matrices.

    A sub-band that more than one path reaches gets Rician small-scale
    fading at the K-factor ``k_factor_db()``.
    """
    channel = np.empty((len(grid), n_antennas, n_antennas), dtype=complex)
    for k, f_k in enumerate(grid):
        terms = [(p.gains[k], p.steering) for p in paths
                 if p.gains[k] is not None]
        h = assemble_subband(terms, n_antennas, float(f_k), velocity_m_s)
        if len(terms) > 1:
            h = apply_rician_smallscale(h, k_factor_db(), fading_rng)
        channel[k] = h
    return channel


def draw_link(sample_idx: int, label: str, flags: tuple[str, ...],
              channel: np.ndarray, lengths, rng: np.random.Generator) -> SampleDraw:
    """Payload and unit noise of a sample's (S, N, N) sub-band channels.

    ``lengths`` gives each sub-band's frame length in symbols.  Per
    sub-band, in order, ``rng`` supplies the payload bits and then one
    block of noise and CSI-error units.  Every array is written in place
    into its stack.
    """
    n_antennas = channel.shape[-1]
    csi_error = np.empty_like(channel)
    frames = []
    start = 0
    for n_syms, run in itertools.groupby(lengths):
        count = len(tuple(run))
        frames.append(FrameStack(
            subbands=slice(start, start + count),
            signal=np.empty((count, n_antennas, n_syms), dtype=complex),
            noise=np.empty((count, n_antennas, n_syms), dtype=complex),
            bits=np.empty((count, 2 * n_antennas * n_syms), dtype=np.int8)))
        start += count
    for frame in frames:
        for j, k in enumerate(range(frame.subbands.start, frame.subbands.stop)):
            # drawn as int64, as the stream has always been consumed; stored as int8
            frame.bits[j] = rng.integers(0, 2, size=frame.bits.shape[1])
            fill_complex_normal(rng, (frame.noise[j], csi_error[k]))
            frame.signal[j] = noiseless_output(
                channel[k], qpsk_modulate(frame.bits[j]).reshape(frame.noise.shape[1:]))
    return SampleDraw(sample_idx=sample_idx, label=label, flags=flags,
                      channel=channel, csi_error=csi_error,
                      power=np.array([signal_power(h) for h in channel]),
                      frames=tuple(frames))


def _bit_errors(y: np.ndarray, csi: CsiEstimate, bits: np.ndarray,
                flags: list) -> float:
    """Bit errors of ZF and hard QPSK decisions on one sub-band or a stack.

    A stack that fails zero-forcing is equalized again one sub-band at a
    time; a sub-band that fails on its own books half its bits and the
    ``eq_error`` flag.
    """
    try:
        est = zf_equalize(y, csi)
    except EqualizationError:
        if csi.matrix.ndim == 2:
            flags.append("eq_error")
            return bits.size * 0.5
        return sum(_bit_errors(y_k, CsiEstimate(h_k, csi.method), bits_k, flags)
                   for y_k, h_k, bits_k in zip(y, csi.matrix, bits))
    return float(np.count_nonzero(qpsk_demodulate(est) != bits.ravel()))


def simulate_sample(cond: ConditionSpec, draw: SampleDraw,
                    cfg: SimulationConfig) -> SampleRecord:
    """Link and features of one drawn sample at the condition's SNR, run on
    the draw's sub-band stacks."""
    method = cfg.linksim.csi_method
    noise_var = noise_variance(draw.power, cond.snr_db)
    if method is CsiMethod.PERFECT:
        csi = draw.channel
    else:
        pilot_len = cfg.linksim.pilot_factor * cond.n_antennas
        csi = add_noise(draw.channel,
                        csi_error_variance(noise_var, cond.n_antennas, pilot_len),
                        draw.csi_error)
    flags = list(draw.flags)
    err_bits = 0.0
    total_bits = 0
    for frame in draw.frames:
        y = add_noise(frame.signal, noise_var[frame.subbands], frame.noise)
        err_bits += _bit_errors(y, CsiEstimate(csi[frame.subbands], method),
                                frame.bits, flags)
        total_bits += frame.bits.size

    features = extract_features(csi)
    return SampleRecord(condition_id=cond.condition_id,
                        sample_idx=draw.sample_idx, label=draw.label,
                        ber=err_bits / total_bits, features=features,
                        flags=tuple(sorted(set(flags))))


def _snr_free(cond: ConditionSpec) -> ConditionSpec:
    return replace(cond, condition_id="", snr_db=0.0)


def snr_families(conditions) -> list[tuple[ConditionSpec, ...]]:
    """Group conditions that differ only in SNR, in order of first appearance."""
    families: dict[ConditionSpec, list] = {}
    for cond in conditions:
        families.setdefault(_snr_free(cond), []).append(cond)
    return [tuple(family) for family in families.values()]


def run_condition(conds, cfg: SimulationConfig,
                  master_seed: int) -> list[SampleRecord]:
    """Generate all samples of one condition, balanced across its labels.

    ``conds`` is one condition or an SNR family: conditions that differ only
    in SNR.  Each sample is drawn once and simulated at every sibling's SNR;
    the records come back grouped by condition, in the order given.
    """
    family = (conds,) if isinstance(conds, ConditionSpec) else tuple(conds)
    head = family[0]
    if any(_snr_free(c) != _snr_free(head) for c in family[1:]):
        raise ValueError("conditions run together must differ only in SNR")
    counts = balanced_partition(head.samples, head.labels)
    class_order = list(cfg.campaign.classes)
    records: list[list[SampleRecord]] = [[] for _ in family]
    sample_idx = 0
    for label in head.labels:
        for _ in range(counts[label]):
            draw = draw_sample(head, label, sample_idx, cfg, master_seed,
                               label_idx=class_order.index(label))
            for cond, recs in zip(family, records):
                recs.append(simulate_sample(cond, draw, cfg))
            sample_idx += 1
    return [rec for recs in records for rec in recs]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def stratified_split(labels, train_fraction: float,
                     rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Per-class 70/30-style index split; errors name a degenerate class."""
    labels = list(labels)
    train, test = [], []
    for cls in sorted(set(labels)):
        idx = [i for i, lab in enumerate(labels) if lab == cls]
        n_train = int(round(train_fraction * len(idx)))
        if n_train < 1 or n_train >= len(idx):
            raise TrainingError(f"degenerate split for class {cls!r}: "
                                f"{len(idx)} rows at fraction {train_fraction}")
        perm = rng.permutation(len(idx))
        train.extend(idx[int(k)] for k in perm[:n_train])
        test.extend(idx[int(k)] for k in perm[n_train:])
    return sorted(train), sorted(test)


def evaluate_condition(records, split_seed: int,
                       cfg: SimulationConfig) -> MetricsSummary:
    """Train detection/classification machines and score the held-out split.

    Detection is trained on a binary relabelling (no-debris vs any debris)
    of every record; classification on debris rows only.  Both accuracies
    are computed exclusively on held-out rows.  The input records are left
    unchanged; the summary carries copies annotated with decision values,
    predicted labels and split membership.
    """
    records = list(records)
    if not records:
        raise TrainingError("no records to evaluate")
    features = np.array([r.features.as_array() for r in records])
    labels = [r.label for r in records]
    rng = np.random.default_rng(np.random.SeedSequence(split_seed))
    train_idx, test_idx = stratified_split(labels, cfg.svm.train_fraction, rng)

    binary = detection_labels(labels)
    if len(set(binary[i] for i in train_idx)) < 2:
        raise TrainingError("detection training split lacks both classes")
    det_model = svm_train(
        LabeledDataset(features=features[train_idx],
                       labels=tuple(binary[i] for i in train_idx),
                       classes=(NO_DEBRIS_LABEL, DEBRIS_LABEL)),
        kernel=cfg.svm.kernel, c=cfg.svm.c, tol=cfg.svm.tol,
        gamma=cfg.svm.gamma, positive_class=DEBRIS_LABEL)

    debris_classes = tuple(c for c in cfg.campaign.classes if c != NO_DEBRIS_LABEL)
    cls_train = [i for i in train_idx if labels[i] != NO_DEBRIS_LABEL]
    cls_model = None
    if len(set(labels[i] for i in cls_train)) >= 2:
        cls_model = svm_train(
            LabeledDataset(features=features[cls_train],
                           labels=tuple(labels[i] for i in cls_train),
                           classes=debris_classes),
            kernel=cfg.svm.kernel, c=cfg.svm.c, tol=cfg.svm.tol,
            gamma=cfg.svm.gamma,
            positive_class=debris_classes[-1] if len(debris_classes) == 2 else None)

    # annotate a copy of every record; accuracies use the held-out rows only
    test_set = set(test_idx)
    det_hits = 0
    cls_hits = 0
    cls_total = 0
    annotated = []
    for i, rec in enumerate(records):
        fv = rec.features
        value = det_model.decision_value(fv)
        detected = value >= 0.0
        pred = NO_DEBRIS_LABEL
        if detected and cls_model is not None:
            pred = cls_model.predict(fv)
        elif detected:
            pred = debris_classes[0] if debris_classes else DEBRIS_LABEL
        split = "test" if i in test_set else "train"
        annotated.append(replace(rec, det_value=value, pred_label=pred,
                                 flags=tuple(sorted({*rec.flags, split}))))
        if i in test_set:
            truth_detected = rec.label != NO_DEBRIS_LABEL
            det_hits += int(detected == truth_detected)
            if truth_detected and cls_model is not None:
                cls_total += 1
                cls_pred = pred if detected else cls_model.predict(fv)
                cls_hits += int(cls_pred == rec.label)

    return MetricsSummary(
        mean_ber=float(np.mean([r.ber for r in records])),
        det_acc=det_hits / len(test_idx),
        cls_acc=(cls_hits / cls_total) if cls_total else float("nan"),
        detection_model=det_model,
        classification_model=cls_model,
        records=tuple(annotated))


# ---------------------------------------------------------------------------
# Campaign driver and result files
# ---------------------------------------------------------------------------

# the FeatureVector fields in order, as sample-CSV columns
FEATURE_COLUMNS = ("f_mean", "f_var", "f_max", "f_min", "f_skew")
SAMPLE_CSV_HEADER = ",".join(("condition_id", "sample_idx", "label", "ber",
                              *FEATURE_COLUMNS, "det_value", "pred_label", "flags"))
METRICS_CSV_HEADER = ("condition_id,frequency_hz,mimo,snr_db,density,"
                      "mean_ber,ber_ci95,det_acc,cls_acc")


def _run_condition_worker(args):
    family, cfg, master_seed = args
    return run_condition(family, cfg, master_seed)


@dataclass
class CampaignResult:
    conditions: list
    groups: list
    records: dict          # condition_id -> list[SampleRecord]
    summaries: dict        # group_id -> MetricsSummary, records left empty
    cond_group_acc: dict   # condition_id -> (det_acc, cls_acc)


def run_campaign(cfg: SimulationConfig, master_seed: int,
                 threads: int = 1) -> CampaignResult:
    """Run every condition of the campaign grid and evaluate its groups.

    Each SNR family is one unit of work, for the serial loop and the pool.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    conditions, groups = enumerate_conditions(cfg)
    families = snr_families(conditions)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_condition_worker,
                                    [(f, cfg, master_seed) for f in families]))
    else:
        results = [run_condition(f, cfg, master_seed) for f in families]
    by_id: dict[str, list] = {}
    for recs in results:
        for rec in recs:
            by_id.setdefault(rec.condition_id, []).append(rec)

    # groups read the simulated records; a shared cell keeps the last group's copies
    annotated = {c.condition_id: by_id[c.condition_id] for c in conditions}
    summaries = {}
    acc_by_cond: dict[str, list] = {}
    for g_idx, group in enumerate(groups):
        pooled = [rec for cid in group.condition_ids for rec in by_id[cid]]
        split_seed = int(np.random.SeedSequence(
            [master_seed, _STREAM_SPLIT, g_idx]).generate_state(1)[0])
        summary = evaluate_condition(pooled, split_seed, cfg)
        # the copies live on in ``annotated`` only, and only the last group's
        summaries[group.group_id] = replace(summary, records=())
        copies = iter(summary.records)
        for cid in group.condition_ids:
            annotated[cid] = [next(copies) for _ in by_id[cid]]
            acc_by_cond.setdefault(cid, []).append(
                (summary.det_acc, summary.cls_acc))
    cond_group_acc = {}
    for cid, pairs in acc_by_cond.items():
        det = float(np.mean([p[0] for p in pairs]))
        cls_vals = [p[1] for p in pairs if not math.isnan(p[1])]
        cls = float(np.mean(cls_vals)) if cls_vals else float("nan")
        cond_group_acc[cid] = (det, cls)
    return CampaignResult(conditions=conditions, groups=groups, records=annotated,
                          summaries=summaries, cond_group_acc=cond_group_acc)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_campaign_outputs(result: CampaignResult, cfg: SimulationConfig,
                           out_dir) -> None:
    """Write per-condition sample CSVs, the metrics CSV and plot-data CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cond in result.conditions:
        lines = [SAMPLE_CSV_HEADER]
        for rec in result.records[cond.condition_id]:
            fv = rec.features
            lines.append(",".join([
                rec.condition_id, str(rec.sample_idx), rec.label, _fmt(rec.ber),
                _fmt(fv.mean), _fmt(fv.variance), _fmt(fv.maximum),
                _fmt(fv.minimum), _fmt(fv.skewness),
                _fmt(rec.det_value) if rec.det_value is not None else "",
                rec.pred_label or "", "|".join(rec.flags)]))
        (out / f"samples_{cond.condition_id}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")

    lines = [METRICS_CSV_HEADER]
    for cond in result.conditions:
        det, cls = result.cond_group_acc[cond.condition_id]
        recs = result.records[cond.condition_id]
        bers = np.array([r.ber for r in recs])
        ci = (1.96 * float(np.std(bers, ddof=1)) / math.sqrt(len(bers))
              if len(bers) > 1 else 0.0)
        lines.append(",".join([
            cond.condition_id, _fmt(cond.frequency_hz), str(cond.n_antennas),
            _fmt(cond.snr_db), _fmt(cond.density_per_km3),
            _fmt(float(np.mean(bers))), _fmt(ci), _fmt(det), _fmt(cls)]))
    (out / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    _write_plot_files(result, cfg, out)


def _write_plot_files(result: CampaignResult, cfg: SimulationConfig, out: Path):
    kind = cfg.campaign.kind
    ber_lines = ["x,series,value"]
    for cond in result.conditions:
        recs = result.records[cond.condition_id]
        by_label: dict[str, list] = {}
        for rec in recs:
            by_label.setdefault(rec.label, []).append(rec.ber)
        if kind == "frequency_snr" or kind == "trend":
            x = cond.snr_db
            series_base = f"f{cond.frequency_hz:g}"
        elif kind == "mimo_frequency":
            x = cond.frequency_hz
            series_base = f"m{cond.n_antennas}"
        else:
            x = cond.frequency_hz
            series_base = f"rho{cond.density_per_km3:g}"
        for label in sorted(by_label):
            ber_lines.append(f"{_fmt(float(x))},{series_base}|{label},"
                             f"{_fmt(float(np.mean(by_label[label])))}")
    (out / "plot_ber.csv").write_text("\n".join(ber_lines) + "\n", encoding="utf-8")

    det_lines = ["x,series,value"]
    cls_lines = ["x,series,value"]
    for group in result.groups:
        summary = result.summaries[group.group_id]
        det_lines.append(f"{_fmt(float(group.frequency_hz))},"
                         f"{_fmt(float(group.axis_value))},{_fmt(summary.det_acc)}")
        cls_lines.append(f"{_fmt(float(group.frequency_hz))},"
                         f"{_fmt(float(group.axis_value))},{_fmt(summary.cls_acc)}")
    (out / "plot_detection_accuracy.csv").write_text(
        "\n".join(det_lines) + "\n", encoding="utf-8")
    (out / "plot_classification_accuracy.csv").write_text(
        "\n".join(cls_lines) + "\n", encoding="utf-8")


def reproduce_table(which: int, master_seed: int, out_dir,
                    threads: int = 1, samples: int | None = None) -> CampaignResult:
    """Run one of the three headline campaigns and write its outputs."""
    cfg = table_config(which, samples=samples)
    result = run_campaign(cfg, master_seed, threads=threads)
    write_campaign_outputs(result, cfg, out_dir)
    return result
