"""Simulation campaigns: condition grids, end-to-end sample generation,
train/evaluate splits and result files.

A campaign is a grid of conditions; each condition generates a fixed
number of samples balanced across its labels.  Per-sample randomness is
derived from the master seed by counter-based stream splitting so that a
campaign is a pure function of (config, seed), samples stay paired across
SNR sweeps (same scenes/channels, rescaled noise), and debris-interaction
draws nest across frequencies (activation probabilities rise with f).

A campaign runs in two phases, serially or on a process pool through the
same mapper.  The work of the first is organised by scene family: the
conditions that differ only in SNR, carrier frequency and MIMO size.  The
scene and interaction seed streams depend on none of the three, so a
family's conditions share one debris field per sample.  Per sample, the
scene and the interaction uniforms are drawn once; interactions are
activated and path gains evaluated once per carrier, at each of its
sub-band centres; each path's geometry (its unfolded length and one
incidence angle) is resolved once, in ``path_transfer``, and its steering
once per array size.  The SNR siblings of a (carrier, array size) share
its sub-band channel matrices, payload and unit-noise draws and the
SNR-independent link terms (the noiseless received blocks and each
sub-band's signal power).  Each sibling then scales the noise to its SNR,
zero-forces and counts bit errors once, on one zero-padded stack of the
sub-bands' frames (a zero pad column adds no bit error), and extracts the
features.  A unit of work is a contiguous block of one family's sample
indices.  The unit of work of the second phase is an evaluation group: its
machines are trained and scored on the pooled records of its conditions,
and it returns its accuracies and one annotation per pooled row (decision
value, predicted label, split).  The records stay as simulated; the result
writer resolves the annotations and accuracies onto conditions.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import (apply_rician_smallscale, assemble_subband,
                      steering_matrix, subband_grid)
from .configio import (CAMPAIGN_KINDS, NO_DEBRIS_LABEL, CampaignGrid,
                       SimulationConfig, default_config, validate_config)
from .errors import (BlasThreadsWarning, ConfigError, DebrisenseError,
                     EqualizationError, TrainingError)
# transmit and estimate_csi are the per-matrix form of the link that
# simulate_sample runs on stacks; perfbench's layer tracer patches both names
# on this module
from .linksim import (CsiEstimate, CsiMethod, add_noise, csi_error_variance,
                      estimate_csi, fill_complex_normal, noise_variance,
                      noiseless_output, qpsk_demodulate, qpsk_modulate,
                      signal_power, transmit, zf_equalize)
from .propagation import (Polarization, ScatterGeometry, diffracted_response,
                          los_response, reflected_response, scattered_response)
from .scene import (DEBRIS_MECHANISMS, DebrisScene, Mechanism, SceneConfig,
                    generate_scene, incidence_angle, path_lengths,
                    perpendicular_clearance)
from .sensing import (FeatureVector, LabeledDataset, SvmModel, extract_features,
                      svm_train)

DEBRIS_LABEL = "debris"
# The detection task's classes; a two-class model is positive for its later
# class, so this order makes debris the positive (decision >= 0) class.
DETECTION_CLASSES = (NO_DEBRIS_LABEL, DEBRIS_LABEL)

# QPSK symbols per antenna in a sample's frame, split over its sub-bands.
FRAME_SYMBOLS = 500
# LS pilot length per transmit antenna.
PILOT_FACTOR = 2

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
    flags: tuple[str, ...] = ()  # what happened while simulating the sample


class RowAnnotation(NamedTuple):
    """What evaluating a group says about one of its pooled rows."""
    det_value: float
    pred_label: str
    split: str  # "train" or "test"


@dataclass(frozen=True)
class MetricsSummary:
    mean_ber: float
    det_acc: float
    cls_acc: float
    detection_model: SvmModel
    classification_model: SvmModel | None
    annotations: tuple[RowAnnotation, ...]  # one per pooled row, in its order


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
        # one condition per grid point; the unswept lists hold one value each
        axes = [(f_idx, s_idx, m_idx, 0) for f_idx, s_idx, m_idx in itertools.product(
            range(len(grid.frequencies_hz)), range(len(grid.snr_values_db)),
            range(len(grid.mimo_sizes)))]
        if grid.kind == "trend":
            # density comparison leg at the lowest frequency, highest SNR
            axes += [(0, len(grid.snr_values_db) - 1, 0, d_idx)
                     for d_idx in range(1, len(grid.densities_per_km3))]
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


# The grids of the three headline experiment tables, at 200 samples per
# condition; table 2's is the reference [campaign] default.
TABLE_GRIDS = {
    1: CampaignGrid(kind="density_frequency",
                    frequencies_hz=(30e9, 300e9, 3e12, 5e12),
                    snr_values_db=(15.0,),
                    densities_per_km3=(1e-7, 5e-7, 1e-6)),
    2: CampaignGrid(),
    3: CampaignGrid(kind="mimo_frequency",
                    frequencies_hz=(30e9, 300e9, 3e12, 5e12),
                    snr_values_db=(20.0,),
                    mimo_sizes=(4, 16, 64)),
}


def table_config(which: int, samples: int | None = None) -> SimulationConfig:
    """The default configuration with the grid of headline table ``which``
    (a key of ``TABLE_GRIDS``), at ``samples`` per condition if given."""
    if which not in TABLE_GRIDS:
        raise ConfigError(f"table must be one of {tuple(TABLE_GRIDS)}, got {which}")
    grid = TABLE_GRIDS[which]
    if samples is not None:
        grid = replace(grid, samples_per_condition=samples)
    return replace(default_config(), campaign=grid)


def trend_config(samples: int = 100) -> SimulationConfig:
    """Reduced-scale campaign covering the headline frequency/SNR/density
    trends: table 2's grid, plus a density leg at 1e-7 per km^3."""
    return replace(default_config(), campaign=replace(
        TABLE_GRIDS[2], kind="trend", densities_per_km3=(1e-6, 1e-7),
        samples_per_condition=samples))


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


class InteractionDraws(NamedTuple):
    """A scene's interaction uniforms, shared by every carrier."""
    activation: np.ndarray  # (objects, mechanisms) uniforms on [0, 1)
    azimuths: np.ndarray    # one scatter azimuth per object


def interaction_draws(scene: DebrisScene,
                      rng: np.random.Generator) -> InteractionDraws:
    """One uniform per (object, mechanism), in a fixed order, then one
    scatter azimuth per object."""
    n, k = len(scene.objects), len(DEBRIS_MECHANISMS)
    return InteractionDraws(
        activation=rng.random((n, k)) if n else np.zeros((0, k)),
        azimuths=rng.uniform(0.0, 2.0 * math.pi, size=n) if n else np.zeros(0))


def draw_interactions(scene: DebrisScene, f_hz: float, table,
                      draws: InteractionDraws) -> list[Interaction]:
    """Independently activate each (object, mechanism) with its table probability.

    An interaction is active at ``f_hz`` when its uniform lies below its
    probability there.  Every carrier reads the same uniforms, so
    activation sets are nested across frequencies whenever the table is
    monotone in frequency.  Each (class, mechanism) probability is read once.
    """
    probabilities = {
        cls: [table.probability(cls, mech, f_hz) for mech in DEBRIS_MECHANISMS]
        for cls in dict.fromkeys(obj.debris_class for obj in scene.objects)}
    out = []
    for i, obj in enumerate(scene.objects):
        for m_idx, mech in enumerate(DEBRIS_MECHANISMS):
            if draws.activation[i, m_idx] < probabilities[obj.debris_class][m_idx]:
                out.append(Interaction(object_index=i, mechanism=mech,
                                       scatter_azimuth=float(draws.azimuths[i])))
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


def path_transfer(scene: DebrisScene, inter: Interaction, material,
                  pol: Polarization):
    """The transfer function of frequency of one activated interaction's
    path, with its geometry resolved once for all of its sub-bands, or None
    where a knife edge has no projection.

    Reflection and scattering run over the unfolded slant legs of the relay
    triangle, at one incidence angle from the legs in km, clamped below
    grazing.  Diffraction runs over the along-axis split at the obstruction
    and needs the debris to project onto the open segment at a nonzero
    clearance.  The response functions are looked up in this module when
    the path is evaluated.
    """
    tx = scene.tx_position_km
    rx = scene.rx_position_km
    position = scene.objects[inter.object_index].position_km
    if inter.mechanism is Mechanism.DIFFRACTION:
        clearance = perpendicular_clearance(tx, rx, position)
        if clearance is None or clearance[0] == 0.0:
            return None
        h_m, s1_km, s2_km = clearance
        s1_m, s2_m = s1_km * 1e3, s2_km * 1e3
        return lambda f: diffracted_response(f, s1_m, s2_m, h_m)
    s1_km, s2_km, d_km = path_lengths(tx, rx, position)
    length_m = s1_km * 1e3 + s2_km * 1e3
    theta = min(incidence_angle(s1_km, s2_km, d_km), math.pi / 2 - 1e-9)
    if inter.mechanism is Mechanism.REFLECTION:
        return lambda f: reflected_response(f, length_m, theta, material, pol)
    sgeom = ScatterGeometry(theta, theta, inter.scatter_azimuth)
    return lambda f: scattered_response(f, length_m, sgeom, material, pol)


class ScenePaths:
    """One sample's scene and the parts of its paths that no carrier or
    array size changes.

    Each activated (object, mechanism) gets its transfer function once,
    each object its departure and arrival angles once, and its steering
    matrix once per array size, all on first use, so every condition of a
    scene family reads the same ones.  Both ends are ULAs with ``cfg``'s
    element spacing (in wavelengths).  The line of sight is object ``None``.
    """

    def __init__(self, scene: DebrisScene, cfg: SimulationConfig):
        self.scene = scene
        self.cfg = cfg
        self._transfers: dict = {}
        self._angles: dict = {None: (0.0, 0.0)}
        self._steering: dict = {}

    def transfer(self, inter: Interaction):
        """``path_transfer`` of the interaction at its object's material and
        the configured polarization; a failure raises again at every call."""
        key = (inter.object_index, inter.mechanism)
        if key not in self._transfers:
            material = self.cfg.materials[
                self.scene.objects[inter.object_index].debris_class]
            self._transfers[key] = path_transfer(
                self.scene, inter, material, self.cfg.channel.polarization)
        return self._transfers[key]

    def steering(self, object_index: int | None, n: int) -> np.ndarray:
        """The n x n steering matrix of the object's paths."""
        key = (object_index, n)
        if key not in self._steering:
            if object_index not in self._angles:
                self._angles[object_index] = _angles(
                    self.scene, self.scene.objects[object_index].position_km)
            self._steering[key] = steering_matrix(
                n, self.cfg.channel.spacing, *self._angles[object_index])
        return self._steering[key]


@dataclass(frozen=True)
class SamplePath:
    """One path of a sample at one carrier, resolved once for all of its
    sub-bands and array sizes.

    ``object_index`` names the debris object it goes through (None for the
    line of sight), whose steering ``ScenePaths.steering`` holds.
    ``gains`` holds the path's transfer function at each sub-band.
    """
    object_index: int | None
    gains: tuple


def build_paths(scene_paths: ScenePaths, interactions, grid,
                cfg: SimulationConfig, flags: list) -> list[SamplePath]:
    """Resolve the line of sight over ``cfg``'s link and every activated
    interaction into paths.

    Each debris path's transfer function comes from ``scene_paths``,
    resolved once for every carrier, and is evaluated at each sub-band
    centre of ``grid``.  A path gets a gain at every sub-band or is
    skipped with one flag: ``diff_skip`` for a knife edge with no
    projection, ``path_error:<mechanism>`` where its transfer raises.  On
    a config that ``validate_config`` accepts, every material covers every
    sub-band centre, so only a geometry outcome that holds at every
    frequency raises, such as grazing scattering.  It appends only the skip
    reasons to ``flags``, one per skipped interaction, in interaction order.
    """
    freqs = [float(f) for f in grid]
    paths = [SamplePath(object_index=None, gains=tuple(
        los_response(f, cfg.link.distance_m) for f in freqs))]
    for inter in interactions:
        try:
            transfer = scene_paths.transfer(inter)
            if transfer is None:
                flags.append("diff_skip")
                continue
            gains = tuple(transfer(f) for f in freqs)
        except DebrisenseError:
            flags.append(f"path_error:{inter.mechanism.value}")
            continue
        paths.append(SamplePath(object_index=inter.object_index, gains=gains))
    return paths


# ---------------------------------------------------------------------------
# Per-sample simulation
# ---------------------------------------------------------------------------

class LinkStacks:
    """The arrays that one array size's link is drawn and simulated in.

    ``run_condition`` allocates one per array size of its family, and every
    sample at that size refills it in place.  ``draw_sample`` and
    ``draw_link`` write the draw (see SampleDraw) and the QPSK
    ``symbols``; each SNR sibling's ``simulate_sample`` writes its scratch:
    the LS estimate ``csi`` and its ``magnitudes``, (S, N, N), and the
    ``received`` blocks and their zero-forced ``estimate``, (S, N, L).
    ``FRAME_SYMBOLS`` is split over the S sub-bands as evenly as it goes
    (500 over 8 gives 63 on sub-bands 0-3 and 62 on 4-7), and sub-band k's
    frame fills the first ``lengths[k]`` columns of the padded stacks;
    nothing writes the pad columns of ``noise`` and ``bits``, so they stay
    zero.
    """

    def __init__(self, n_antennas: int, n_subbands: int):
        self.lengths = tuple(balanced_partition(FRAME_SYMBOLS,
                                                range(n_subbands)).values())
        matrices = (n_subbands, n_antennas, n_antennas)
        frames = (n_subbands, n_antennas, max(self.lengths))
        self.channel = np.empty(matrices, dtype=complex)
        self.csi_error = np.empty(matrices, dtype=complex)
        self.csi = np.empty(matrices, dtype=complex)
        self.magnitudes = np.empty(matrices)
        self.noise = np.zeros(frames, dtype=complex)
        self.bits = np.zeros((*frames, 2), dtype=np.int8)
        self.symbols = np.empty(frames, dtype=complex)
        self.signal = np.empty(frames, dtype=complex)
        self.received = np.empty(frames, dtype=complex)
        self.estimate = np.empty(frames, dtype=complex)


@dataclass(frozen=True)
class SampleDraw:
    """The SNR-independent part of one sample, shared by its SNR siblings.

    Its arrays are those of the LinkStacks it was drawn into, so they hold
    the draw only until the next draw into those stacks; run_condition's
    loop (sample, then carrier, array size and SNR sibling) uses each draw
    up before the next one at its array size.  The sub-band arrays are
    stacks along a leading sub-band axis: ``channel`` holds the S channel
    matrices, (S, N, N), ``csi_error`` the CN(0, 1) units of the LS
    channel-estimate error, of the same shape, and ``power`` the signal
    power of each sub-band (linksim.signal_power).  Sub-band k's
    ``lengths[k]`` symbols fill the first columns of three zero-padded
    stacks: ``signal``, the noiseless received blocks gamma H x, (S, N, L)
    for L = max(lengths), ``noise``, the CN(0, 1) units each SNR sibling
    scales, of the same shape, and ``bits``, the payload, (S, N, L, 2).
    """
    sample_idx: int
    label: str
    flags: tuple[str, ...]
    channel: np.ndarray
    csi_error: np.ndarray
    power: np.ndarray
    signal: np.ndarray
    noise: np.ndarray
    bits: np.ndarray
    lengths: tuple[int, ...]


def draw_sample(cond: ConditionSpec, label: str, sample_key: tuple,
                scene_paths: ScenePaths, paths, flags, grid,
                cfg: SimulationConfig, master_seed: int,
                stacks: LinkStacks) -> SampleDraw:
    """Sub-band channels and payload of one sample at ``cond``'s carrier and
    array size, from the ``paths`` built at that carrier, each of which
    reaches every sub-band, drawn into ``stacks`` (of the array size).
    When there is more than the line of sight, every sub-band gets Rician
    small-scale fading at the label's K-factor at the carrier, read once,
    so the no-debris label reads no K-factor row.

    ``sample_key`` is the sample's (table tag, density index, label index,
    sample index); the fading and noise streams add the array size, and
    the noise stream the carrier, to it.
    """
    tag, density_idx, label_idx, sample_idx = sample_key
    n = cond.n_antennas
    fading_rng = _rng(master_seed, _STREAM_FADING, *sample_key, cond.mimo_idx)
    noise_rng = _rng(master_seed, _STREAM_NOISE, tag, cond.f_idx, density_idx,
                     label_idx, sample_idx, cond.mimo_idx)
    steering = [scene_paths.steering(p.object_index, n) for p in paths]
    fading = len(paths) > 1
    k_factor = cfg.channel.k_factor(label, cond.frequency_hz) if fading else None
    for k, f_k in enumerate(grid):
        h = assemble_subband([(p.gains[k], a) for p, a in zip(paths, steering)],
                             n, float(f_k), cfg.link.velocity_m_s)
        if fading:
            h = apply_rician_smallscale(h, k_factor, fading_rng)
        stacks.channel[k] = h
    return draw_link(sample_idx, label, tuple(flags), stacks, noise_rng)


def draw_link(sample_idx: int, label: str, flags: tuple[str, ...],
              stacks: LinkStacks, rng: np.random.Generator) -> SampleDraw:
    """Payload and unit noise of the (S, N, N) sub-band channels in
    ``stacks.channel``, drawn into ``stacks``.

    ``stacks.lengths`` gives each sub-band's frame length in symbols.  Per
    sub-band, in order, ``rng`` supplies the payload bits and then one
    block of noise and CSI-error units, written in place into the
    unpadded columns of its stacks (see SampleDraw).  gamma H x is one
    product over the stack, after the draws, with the pad symbols zeroed,
    since QPSK maps zero bits to (1+j)/sqrt(2).
    """
    n_antennas = stacks.channel.shape[-1]
    for k, length in enumerate(stacks.lengths):
        # drawn as int64, as the stream has always been consumed; stored as int8
        stacks.bits[k, :, :length] = rng.integers(0, 2, size=(n_antennas, length, 2))
        fill_complex_normal(rng, (stacks.noise[k, :, :length], stacks.csi_error[k]))
    symbols = qpsk_modulate(stacks.bits, out=stacks.symbols)
    for k, length in enumerate(stacks.lengths):
        symbols[k, :, length:] = 0
    return SampleDraw(sample_idx=sample_idx, label=label, flags=flags,
                      channel=stacks.channel, csi_error=stacks.csi_error,
                      power=np.array([signal_power(h) for h in stacks.channel]),
                      signal=noiseless_output(stacks.channel, symbols,
                                              out=stacks.signal),
                      noise=stacks.noise, bits=stacks.bits, lengths=stacks.lengths)


def _bit_errors(y: np.ndarray, csi: CsiEstimate, bits: np.ndarray, lengths,
                flags: list, out: np.ndarray) -> float:
    """Bit errors of ZF and hard QPSK decisions on a padded sub-band stack,
    or on one sub-band of ``lengths`` symbols; ``out``, of ``y``'s shape,
    receives the ZF estimate.

    A pad column of ``y`` is zero: it equalizes to zero and decides as its
    stored zero bits, so it adds no error.  A stack that fails zero-forcing
    is equalized again one sub-band at a time; a sub-band that fails on its
    own books half of its unpadded bits and the ``eq_error`` flag.
    """
    try:
        est = zf_equalize(y, csi, out=out)
    except EqualizationError:
        if csi.matrix.ndim == 2:
            flags.append("eq_error")
            return bits[:, :lengths].size * 0.5
        return sum(_bit_errors(y_k, CsiEstimate(h_k, csi.method), bits_k, n_k,
                               flags, out_k)
                   for y_k, h_k, bits_k, n_k, out_k
                   in zip(y, csi.matrix, bits, lengths, out))
    return float(np.count_nonzero(qpsk_demodulate(est) != bits.ravel()))


def simulate_sample(cond: ConditionSpec, draw: SampleDraw,
                    stacks: LinkStacks) -> SampleRecord:
    """Link and features of one drawn sample at the condition's SNR, from
    the least-squares channel estimate, with ``stacks`` (those the draw
    was drawn into) as scratch.  The noise is added, and the sub-bands
    zero-forced and their bit errors counted, once on the draw's padded
    stack; the pad adds no bit error (``_bit_errors``)."""
    noise_var = noise_variance(draw.power, cond.snr_db)
    csi = add_noise(draw.channel,
                    csi_error_variance(noise_var, cond.n_antennas,
                                       PILOT_FACTOR * cond.n_antennas),
                    draw.csi_error, out=stacks.csi)
    flags = list(draw.flags)
    err_bits = _bit_errors(add_noise(draw.signal, noise_var, draw.noise,
                                     out=stacks.received),
                           CsiEstimate(csi, CsiMethod.LEAST_SQUARES),
                           draw.bits, draw.lengths, flags, stacks.estimate)
    return SampleRecord(condition_id=cond.condition_id,
                        sample_idx=draw.sample_idx, label=draw.label,
                        ber=err_bits / (2 * cond.n_antennas * sum(draw.lengths)),
                        features=extract_features(csi, out=stacks.magnitudes),
                        flags=tuple(sorted(set(flags))))


def _scene_key(cond: ConditionSpec) -> ConditionSpec:
    """What the conditions of a scene family share: all but SNR, carrier
    and array size."""
    return replace(cond, condition_id="", snr_db=0.0, f_idx=0,
                   frequency_hz=0.0, mimo_idx=0, n_antennas=0)


def scene_families(conditions) -> list[tuple[ConditionSpec, ...]]:
    """Group conditions that differ only in SNR, carrier and array size, in
    order of first appearance."""
    families: dict[ConditionSpec, list] = {}
    for cond in conditions:
        families.setdefault(_scene_key(cond), []).append(cond)
    return [tuple(family) for family in families.values()]


def sample_blocks(total: int, count: int) -> list[range]:
    """Sample indices 0 .. total-1 cut into ``count`` contiguous blocks
    (``total`` of them if fewer), of sizes as even as they go."""
    sizes = list(balanced_partition(total, range(min(count, total))).values())
    return [range(end - size, end)
            for size, end in zip(sizes, itertools.accumulate(sizes))]


def run_condition(conds, cfg: SimulationConfig, master_seed: int,
                  block: range | None = None) -> list[SampleRecord]:
    """Generate the samples of one condition, balanced across its labels.

    ``conds`` is one condition or a scene family: conditions that differ
    only in SNR, carrier and array size.  ``block`` selects which of the
    family's sample indices to generate, all of them by default; a sample's
    records do not depend on the block it is generated in.  Per sample, the
    scene and its interaction uniforms are drawn once, and the paths are
    built once per carrier (``ScenePaths`` shares their transfer functions
    and steering); the channel and payload are drawn once per (carrier, array
    size) and simulated at each SNR sibling's SNR.  Each array size's link
    runs in one LinkStacks, allocated here and refilled by every sample at
    that size.  The records come back grouped by condition, in the order
    given.
    """
    family = (conds,) if isinstance(conds, ConditionSpec) else tuple(conds)
    head = family[0]
    if any(_scene_key(c) != _scene_key(head) for c in family[1:]):
        raise ValueError("conditions run together must differ only in SNR, "
                         "carrier and array size")
    counts = balanced_partition(head.samples, head.labels)
    labels = [label for label in head.labels for _ in range(counts[label])]
    scene_cfgs = {label: SceneConfig(
        geometry=cfg.link,
        density_per_km3=0.0 if label == NO_DEBRIS_LABEL else head.density_per_km3,
        semi_axes_km=cfg.scene.semi_axes(cfg.link.distance_km),
        debris_class=None if label == NO_DEBRIS_LABEL else label)
        for label in head.labels}
    # family positions by carrier, then by array size: the SNR siblings
    siblings: dict[int, dict[int, list[int]]] = {}
    for pos, cond in enumerate(family):
        siblings.setdefault(cond.f_idx, {}).setdefault(cond.mimo_idx, []).append(pos)
    stacks = {n: LinkStacks(n, cfg.channel.n_subbands)
              for n in {cond.n_antennas for cond in family}}
    records: list[list[SampleRecord]] = [[] for _ in family]
    for sample_idx in range(head.samples) if block is None else block:
        label = labels[sample_idx]
        key = (head.table_tag, head.density_idx,
               cfg.campaign.classes.index(label), sample_idx)
        scene = generate_scene(scene_cfgs[label], seed=int(
            _rng(master_seed, _STREAM_SCENE, *key).integers(0, 2 ** 63)))
        draws = interaction_draws(scene, _rng(master_seed, _STREAM_INTERACT, *key))
        scene_paths = ScenePaths(scene, cfg)
        for by_size in siblings.values():
            carrier = family[next(iter(by_size.values()))[0]]
            grid = subband_grid(carrier.frequency_hz, cfg.channel.n_subbands,
                                cfg.channel.bandwidth_hz)
            flags: list[str] = []
            paths = build_paths(
                scene_paths, draw_interactions(scene, carrier.frequency_hz,
                                               cfg.interactions, draws),
                grid, cfg, flags)
            for positions in by_size.values():
                link = stacks[family[positions[0]].n_antennas]
                draw = draw_sample(family[positions[0]], label, key, scene_paths,
                                   paths, flags, grid, cfg, master_seed, link)
                for pos in positions:
                    records[pos].append(simulate_sample(family[pos], draw, link))
    return [rec for recs in records for rec in recs]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def train_rows(rows: int, train_fraction: float) -> int:
    """How many of a class's ``rows`` a split trains on; the rest are held
    out.  A split needs 1 <= train_rows < rows for every class."""
    return int(round(train_fraction * rows))


def check_splits(conditions, groups, train_fraction: float) -> None:
    """Raise ConfigError, before any sample is drawn, if some evaluation
    group could not be split: the rows each class would pool come from
    ``balanced_partition`` over each of the group's conditions."""
    by_id = {cond.condition_id: cond for cond in conditions}
    for group in groups:
        rows: Counter = Counter()
        for cid in group.condition_ids:
            cond = by_id[cid]
            rows.update(balanced_partition(cond.samples, cond.labels))
        for cls, n in rows.items():
            if n and not 1 <= train_rows(n, train_fraction) < n:
                raise ConfigError(
                    f"evaluation group {group.group_id} cannot be split: class "
                    f"{cls!r} has {n} rows, and train_fraction {train_fraction} "
                    f"trains on {train_rows(n, train_fraction)} of them")


def stratified_split(labels, train_fraction: float,
                     rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Per-class 70/30-style index split; errors name a degenerate class."""
    labels = list(labels)
    train, test = [], []
    for cls in sorted(set(labels)):
        idx = [i for i, lab in enumerate(labels) if lab == cls]
        n_train = train_rows(len(idx), train_fraction)
        if not 1 <= n_train < len(idx):
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
    unchanged; the summary annotates each of them, in order, with its
    decision value, predicted label and split.
    """
    records = list(records)
    if not records:
        raise TrainingError("no records to evaluate")
    features = np.array([r.features.as_array() for r in records])
    labels = [r.label for r in records]
    rng = np.random.default_rng(np.random.SeedSequence(split_seed))
    train_idx, test_idx = stratified_split(labels, cfg.svm.train_fraction, rng)

    binary = detection_labels(labels)
    det_model = svm_train(
        LabeledDataset(features=features[train_idx],
                       labels=tuple(binary[i] for i in train_idx),
                       classes=DETECTION_CLASSES),
        cfg.svm)

    debris_classes = tuple(c for c in cfg.campaign.classes if c != NO_DEBRIS_LABEL)
    cls_train = [i for i in train_idx if labels[i] != NO_DEBRIS_LABEL]
    cls_model = None
    if len(set(labels[i] for i in cls_train)) >= 2:
        cls_model = svm_train(
            LabeledDataset(features=features[cls_train],
                           labels=tuple(labels[i] for i in cls_train),
                           classes=debris_classes),
            cfg.svm)

    # annotate every record; accuracies use the held-out rows only.  Each
    # machine scores all rows in one call; a row's scores do not depend on
    # the batch.
    values = det_model.decision_value(features).tolist()
    cls_preds = None if cls_model is None else cls_model.predict(features)
    test_set = set(test_idx)
    det_hits = 0
    cls_hits = 0
    cls_total = 0
    annotations = []
    for i, rec in enumerate(records):
        detected = values[i] >= 0.0
        pred = NO_DEBRIS_LABEL
        if detected:
            pred = debris_classes[0] if cls_preds is None else cls_preds[i]
        annotations.append(RowAnnotation(
            values[i], pred, "test" if i in test_set else "train"))
        if i in test_set:
            truth_detected = rec.label != NO_DEBRIS_LABEL
            det_hits += int(detected == truth_detected)
            if truth_detected and cls_preds is not None:
                cls_total += 1
                cls_hits += int(cls_preds[i] == rec.label)

    return MetricsSummary(
        mean_ber=float(np.mean([r.ber for r in records])),
        det_acc=det_hits / len(test_idx),
        cls_acc=(cls_hits / cls_total) if cls_total else float("nan"),
        detection_model=det_model,
        classification_model=cls_model,
        annotations=tuple(annotations))


# ---------------------------------------------------------------------------
# Campaign driver and result files
# ---------------------------------------------------------------------------

# the FeatureVector fields in order, as sample-CSV columns
FEATURE_COLUMNS = ("f_mean", "f_var", "f_max", "f_min", "f_skew")
SAMPLE_CSV_HEADER = ",".join(("condition_id", "sample_idx", "label", "ber",
                              *FEATURE_COLUMNS, "det_value", "pred_label", "flags"))
METRICS_CSV_HEADER = ("condition_id,frequency_hz,mimo,snr_db,density,"
                      "mean_ber,ber_ci95,det_acc,cls_acc")


# Simulation units per pool worker: with one block per family, a few
# large families leave a worker idle at the end of the phase.
_BLOCKS_PER_WORKER = 2


def _blas_thread_setter():
    """The thread-count setter of the OpenBLAS that numpy's wheels bundle
    (``numpy.libs/libscipy_openblas64_-*.so``), or None if there is none.

    ctypes is imported here, so that importing this module does not load
    it.
    """
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    # the library numpy has loaded: dlopen of the same path returns it
    setter = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_set_num_threads64_",
                     None)
    if setter is not None:
        setter.argtypes, setter.restype = (ctypes.c_int,), None
    return setter


def one_blas_thread() -> None:
    """Run this process's BLAS on one thread, if its setter is found.

    Each pool worker runs this first: two workers whose BLAS each start a
    thread per core oversubscribe the cores on the N = 64 inverses and
    products.  A worker's results do not depend on it.
    """
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)


@dataclass
class CampaignResult:
    conditions: list
    groups: list
    records: dict          # condition_id -> list[SampleRecord], as simulated
    summaries: dict        # group_id -> MetricsSummary


def run_campaign(cfg: SimulationConfig, master_seed: int,
                 threads: int = 1) -> CampaignResult:
    """Run every condition of the campaign grid and evaluate its groups.

    The config is first checked (``validate_config``, as ``parse_config``
    checks a file), and every evaluation group to be splittable
    (``check_splits``), so a bad campaign fails before its first sample.
    The campaign then runs in two phases through one mapper: a process
    pool's ``map`` when ``threads > 1``, the builtin ``map`` otherwise.
    Each pool worker runs its BLAS on one thread
    (``one_blas_thread``); if no control for that is found, a
    BlasThreadsWarning says so.  First the scene families are simulated,
    one block of a family's samples per unit of work: the whole family when
    serial, ``_BLOCKS_PER_WORKER`` blocks per worker when pooled, so that
    both workers stay busy to the end.  Then each evaluation group is one unit,
    and trains and scores its machines on the pooled records of its
    conditions.  Results are taken in the order the work was given, so a
    condition's records arrive in sample order and the outputs do not
    depend on ``threads``.  The records come back as simulated and the
    summaries as evaluated.

    An error in a pool worker is raised again in the caller, with its type
    and message, for the first failing unit in that order.  It is pickled on
    the way, so its attributes, such as ``TrainingError.diagnostics``, arrive
    as copies; no campaign reads them.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    validate_config(cfg)
    conditions, groups = enumerate_conditions(cfg)
    check_splits(conditions, groups, cfg.svm.train_fraction)
    blocks = 1 if threads == 1 else _BLOCKS_PER_WORKER * threads
    families, family_blocks = zip(*[
        (family, block) for family in scene_families(conditions)
        for block in sample_blocks(family[0].samples, blocks)])
    records: dict[str, list] = {c.condition_id: [] for c in conditions}
    if threads > 1 and _blas_thread_setter() is None:
        import warnings
        warnings.warn("no BLAS thread control found, so each pool worker's BLAS "
                      "may start a thread per core", BlasThreadsWarning)
    with (ProcessPoolExecutor(max_workers=threads, initializer=one_blas_thread)
          if threads > 1 else contextlib.nullcontext()) as pool:
        mapper = map if pool is None else pool.map
        for recs in mapper(run_condition, families, itertools.repeat(cfg),
                           itertools.repeat(master_seed), family_blocks):
            for rec in recs:
                records[rec.condition_id].append(rec)
        summaries = dict(zip([group.group_id for group in groups], mapper(
            evaluate_condition,
            [[rec for cid in group.condition_ids for rec in records[cid]]
             for group in groups],
            [int(np.random.SeedSequence([master_seed, _STREAM_SPLIT, g_idx])
                 .generate_state(1)[0]) for g_idx in range(len(groups))],
            itertools.repeat(cfg))))
    return CampaignResult(conditions=conditions, groups=groups, records=records,
                          summaries=summaries)


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``header`` and one line per row, its values joined by commas in
    their ``str`` form (a float's shortest round-trip text)."""
    path.write_text("\n".join([header, *(",".join(map(str, row)) for row in rows)])
                    + "\n", encoding="utf-8")


def write_campaign_outputs(result: CampaignResult, cfg: SimulationConfig,
                           out_dir) -> None:
    """Write per-condition sample CSVs, the metrics CSV and plot-data CSVs.

    A sample row carries the annotations of the last group that pools its
    condition; a condition's accuracies are the means over the groups that
    pool it, skipping a NaN cls_acc.  A BER plot point is the mean BER of
    one label of one condition, on the axes that ``cfg``'s campaign kind
    sweeps; an accuracy plot point is one group's accuracy at its
    frequency and axis value.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    annotations: dict[str, list] = {}
    pooled_by: dict[str, list] = {}
    for group in result.groups:
        summary = result.summaries[group.group_id]
        rows = iter(summary.annotations)
        for cid in group.condition_ids:
            annotations[cid] = [next(rows) for _ in result.records[cid]]
            pooled_by.setdefault(cid, []).append(summary)

    kind = cfg.campaign.kind
    metrics_rows = []
    ber_rows = []
    for cond in result.conditions:
        recs = result.records[cond.condition_id]
        _write_csv(out / f"samples_{cond.condition_id}.csv", SAMPLE_CSV_HEADER, [
            (rec.condition_id, rec.sample_idx, rec.label, rec.ber,
             rec.features.mean, rec.features.variance, rec.features.maximum,
             rec.features.minimum, rec.features.skewness, note.det_value,
             note.pred_label, "|".join(sorted({*rec.flags, note.split})))
            for rec, note in zip(recs, annotations[cond.condition_id])])

        pooled = pooled_by[cond.condition_id]
        det = float(np.mean([s.det_acc for s in pooled]))
        cls_vals = [s.cls_acc for s in pooled if not math.isnan(s.cls_acc)]
        cls = float(np.mean(cls_vals)) if cls_vals else float("nan")
        bers = np.array([r.ber for r in recs])
        ci = (1.96 * float(np.std(bers, ddof=1)) / math.sqrt(len(bers))
              if len(bers) > 1 else 0.0)
        metrics_rows.append((cond.condition_id, cond.frequency_hz, cond.n_antennas,
                             cond.snr_db, cond.density_per_km3,
                             float(np.mean(bers)), ci, det, cls))

        by_label: dict[str, list] = {}
        for rec in recs:
            by_label.setdefault(rec.label, []).append(rec.ber)
        if kind == "frequency_snr" or kind == "trend":
            x = cond.snr_db
            series_base = f"f{cond.frequency_hz:g}"
            if cond.density_idx > 0:  # the trend's density-comparison leg
                series_base += f"-rho{cond.density_per_km3:g}"
        elif kind == "mimo_frequency":
            x = cond.frequency_hz
            series_base = f"m{cond.n_antennas}"
        else:
            x = cond.frequency_hz
            series_base = f"rho{cond.density_per_km3:g}"
        ber_rows += [(float(x), f"{series_base}|{label}",
                      float(np.mean(by_label[label]))) for label in sorted(by_label)]
    _write_csv(out / "metrics.csv", METRICS_CSV_HEADER, metrics_rows)
    _write_csv(out / "plot_ber.csv", "x,series,value", ber_rows)
    for task, metric in (("detection", "det_acc"), ("classification", "cls_acc")):
        _write_csv(out / f"plot_{task}_accuracy.csv", "x,series,value", [
            (float(group.frequency_hz), float(group.axis_value),
             getattr(result.summaries[group.group_id], metric))
            for group in result.groups])


def reproduce_table(which: int, master_seed: int, out_dir,
                    threads: int = 1, samples: int | None = None) -> CampaignResult:
    """Run one of the three headline campaigns and write its outputs."""
    cfg = table_config(which, samples=samples)
    result = run_campaign(cfg, master_seed, threads=threads)
    write_campaign_outputs(result, cfg, out_dir)
    return result
