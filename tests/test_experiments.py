"""Campaign grids, interaction draws, per-sample pipeline and outputs."""

import copy
import csv
import itertools
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from debrisense.channel import subband_grid
from debrisense.configio import (CAMPAIGN_KINDS, CAMPAIGN_SWEEPS, CampaignGrid,
                                 ChannelConfig, InteractionTable,
                                 default_config, parse_config, reference_text)
from debrisense import experiments
from debrisense.errors import (BlasThreadsWarning, ConfigError, EqualizationError,
                               TrainingError)
from debrisense.experiments import (_STREAM_SPLIT, FRAME_SYMBOLS, PILOT_FACTOR,
                                    Interaction, ScenePaths,
                                    balanced_partition, build_paths,
                                    draw_interactions, draw_link,
                                    enumerate_conditions, evaluate_condition,
                                    interaction_draws, run_campaign,
                                    run_condition, sample_blocks,
                                    scene_families, simulate_sample,
                                    table_config, trend_config,
                                    write_campaign_outputs,
                                    SAMPLE_CSV_HEADER, METRICS_CSV_HEADER)
from debrisense.linksim import (complex_normal, estimate_csi,
                                qpsk_demodulate, qpsk_modulate, transmit,
                                zf_equalize)
from debrisense.propagation import (Polarization, ScatterGeometry,
                                    diffracted_response, reflected_response,
                                    scattered_response)
from debrisense.scene import (DEBRIS_MECHANISMS, DebrisClass, DebrisObject,
                              DebrisScene, LinkGeometry, Mechanism,
                              SceneConfig, generate_scene, incidence_angle,
                              path_lengths, perpendicular_clearance)


def tiny_cfg(samples=12, kind="frequency_snr"):
    cfg = default_config()
    grid = CampaignGrid(kind=kind,
                        frequencies_hz=(30e9, 3e12),
                        snr_values_db=(15.0,),
                        mimo_sizes=(4,),
                        densities_per_km3=(1e-6,),
                        samples_per_condition=samples)
    return replace(cfg, campaign=grid)


class TestGrids:
    def test_table1_condition_count(self):
        # 4 frequencies x (1 no-debris + 2 classes x 3 densities)
        conds, groups = enumerate_conditions(table_config(1))
        assert len(conds) == 28
        assert len(groups) == 12  # per (frequency, density)

    def test_table2_condition_count(self):
        conds, groups = enumerate_conditions(table_config(2))
        assert len(conds) == 12
        assert len(groups) == 12

    def test_table3_condition_count(self):
        conds, groups = enumerate_conditions(table_config(3))
        assert len(conds) == 12

    def test_table2_grid_is_the_reference_campaign(self):
        assert parse_config(reference_text()).campaign == table_config(2).campaign

    def test_trend_grid_is_table2_with_a_density_leg(self):
        assert trend_config().campaign == replace(
            table_config(2).campaign, kind="trend",
            densities_per_km3=(1e-6, 1e-7), samples_per_condition=100)

    def test_unknown_table_is_a_config_error(self):
        with pytest.raises(ConfigError, match="table must be"):
            table_config(4)

    def test_trend_adds_density_leg(self):
        conds, _ = enumerate_conditions(trend_config())
        low_density = [c for c in conds if c.density_per_km3 == 1e-7]
        assert len(low_density) == 1
        assert low_density[0].frequency_hz == 30e9
        assert low_density[0].snr_db == 20.0

    def test_balanced_partition_200_over_3(self):
        counts = balanced_partition(200, ("none", "smooth_glass", "rough_metal"))
        assert counts == {"none": 67, "smooth_glass": 67, "rough_metal": 66}


class TestInteractions:
    def scene(self, density=1e-5, seed=0):
        geom = LinkGeometry(distance_km=500.0, velocity_km_s=7.0)
        return generate_scene(SceneConfig(
            geometry=geom, density_per_km3=density,
            debris_class=DebrisClass.SMOOTH_GLASS,
            semi_axes_km=(250.0, 50.0, 50.0)), seed=seed)

    def test_zero_probability_means_los_only(self):
        cfg = default_config()
        table = replace(cfg.interactions, probabilities={
            key: tuple(0.0 for _ in probs)
            for key, probs in cfg.interactions.probabilities.items()})
        scene = self.scene()
        out = draw_interactions(scene, 3e12, table, interaction_draws(
            scene, np.random.default_rng(0)))
        assert out == []

    def test_unit_probability_activates_every_mechanism(self):
        cfg = default_config()
        table = replace(cfg.interactions, probabilities={
            key: tuple(1.0 for _ in probs)
            for key, probs in cfg.interactions.probabilities.items()})
        scene = self.scene()
        out = draw_interactions(scene, 3e12, table, interaction_draws(
            scene, np.random.default_rng(0)))
        assert len(out) == 3 * len(scene.objects)

    def test_empirical_rates_match_table(self):
        cfg = default_config()
        scene = self.scene(density=2e-5, seed=3)
        n = len(scene.objects)
        f = 3e12
        p = cfg.interactions.probability(DebrisClass.SMOOTH_GLASS,
                                         Mechanism.REFLECTION, f)
        trials = 400
        hits = 0
        for s in range(trials):
            out = draw_interactions(scene, f, cfg.interactions, interaction_draws(
                scene, np.random.default_rng(s)))
            hits += sum(1 for i in out if i.mechanism is Mechanism.REFLECTION)
        total = trials * n
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(hits - total * p) < 3 * sigma

    def test_activation_nests_across_frequency(self):
        # shared uniforms + monotone probabilities: the low-frequency
        # activation set is a subset of the high-frequency one
        cfg = default_config()
        scene = self.scene(density=2e-5, seed=4)
        for seed in range(10):
            draws = interaction_draws(scene, np.random.default_rng(seed))
            low = {(i.object_index, i.mechanism) for i in draw_interactions(
                scene, 30e9, cfg.interactions, draws)}
            high = {(i.object_index, i.mechanism) for i in draw_interactions(
                scene, 5e12, cfg.interactions, draws)}
            assert low <= high


class TestRunCondition:
    def test_deterministic_records(self):
        cfg = tiny_cfg()
        conds, _ = enumerate_conditions(cfg)
        a = run_condition(conds[0], cfg, master_seed=5)
        b = run_condition(conds[0], cfg, master_seed=5)
        assert len(a) == len(b) == cfg.campaign.samples_per_condition
        for ra, rb in zip(a, b):
            assert ra.label == rb.label
            assert ra.ber == rb.ber
            assert ra.features == rb.features

    def test_labels_balanced_in_fixed_order(self):
        cfg = tiny_cfg(samples=10)
        conds, _ = enumerate_conditions(cfg)
        recs = run_condition(conds[0], cfg, master_seed=1)
        labels = [r.label for r in recs]
        assert labels.count("none") == 4
        assert labels.count("smooth_glass") == 3
        assert labels.count("rough_metal") == 3
        assert labels[:4] == ["none"] * 4

    def test_none_label_has_empty_scene_ber_statistics(self):
        # no-debris rows carry finite BER and features like any other row
        cfg = tiny_cfg(samples=6)
        conds, _ = enumerate_conditions(cfg)
        recs = run_condition(conds[0], cfg, master_seed=2)
        for rec in recs:
            assert 0.0 <= rec.ber <= 1.0
            assert np.all(np.isfinite(rec.features.as_array()))

    def test_scene_and_bits_paired_across_snr(self):
        # conditions differing only in SNR share scenes and payload bits;
        # high-SNR BER beats low-SNR BER sample by sample on average
        cfg = tiny_cfg(samples=9)
        grid = replace(cfg.campaign, snr_values_db=(0.0, 25.0))
        cfg = replace(cfg, campaign=grid)
        conds, _ = enumerate_conditions(cfg)
        f30 = [c for c in conds if c.frequency_hz == 30e9]
        low = run_condition([c for c in f30 if c.snr_db == 0.0][0], cfg, 3)
        high = run_condition([c for c in f30 if c.snr_db == 25.0][0], cfg, 3)
        assert np.mean([r.ber for r in high]) < np.mean([r.ber for r in low])


class TestSceneFamilies:
    def test_families_differ_only_in_snr_carrier_and_size(self):
        # table 2 sweeps carrier and SNR, table 3 carrier and array size:
        # each is one family, in grid order
        for which in (2, 3):
            conds, _ = enumerate_conditions(table_config(which))
            assert scene_families(conds) == [tuple(conds)]
        # table 1: one family per (density, label) cell, one member per carrier
        conds, _ = enumerate_conditions(table_config(1))
        families = scene_families(conds)
        assert [len(f) for f in families] == [4] * 7
        assert sorted(c.condition_id for f in families for c in f) == \
            sorted(c.condition_id for c in conds)
        for family in families:
            assert [c.frequency_hz for c in family] == [30e9, 300e9, 3e12, 5e12]
            assert len({(c.density_per_km3, c.labels) for c in family}) == 1

    def test_family_members_must_share_density_and_labels(self):
        cfg = table_config(1, samples=6)
        conds, _ = enumerate_conditions(cfg)
        glass = [c for c in conds if c.labels == ("smooth_glass",)]
        metal = [c for c in conds if c.labels == ("rough_metal",)]
        mixed_density = (glass[0], next(c for c in glass
                                         if c.density_idx != glass[0].density_idx))
        for mixed in (mixed_density, (glass[0], metal[0])):
            with pytest.raises(ValueError, match="SNR, carrier and array size"):
                run_condition(mixed, cfg, master_seed=1)

    def test_records_do_not_depend_on_blocking(self):
        cfg = table_config(3, samples=6)
        (family,) = scene_families(enumerate_conditions(cfg)[0])
        whole = run_condition(family, cfg, master_seed=4)
        halves = [run_condition(family, cfg, 4, block)
                  for block in sample_blocks(6, 2)]
        assert [len(h) for h in halves] == [36, 36]
        by_condition = {}
        for half in halves:
            for rec in half:
                by_condition.setdefault(rec.condition_id, []).append(rec)
        assert [rec for recs in by_condition.values() for rec in recs] == whole

    def test_scene_drawn_once_per_sample_of_a_family(self, monkeypatch):
        # table 3's twelve conditions (4 carriers x 3 array sizes) share
        # one scene per sample
        scenes = []

        def counting(*args, **kwargs):
            scenes.append(1)
            return generate_scene(*args, **kwargs)

        monkeypatch.setattr(experiments, "generate_scene", counting)
        cfg = table_config(3, samples=6)
        records = {}
        for family in scene_families(enumerate_conditions(cfg)[0]):
            for rec in run_condition(family, cfg, master_seed=2):
                records.setdefault(rec.condition_id, []).append(rec)
        assert len(records) == 12
        assert all(len(recs) == 6 for recs in records.values())
        assert len(scenes) == 6

    def test_sample_blocks_are_contiguous_and_balanced(self):
        assert sample_blocks(10, 4) == [range(0, 3), range(3, 6),
                                        range(6, 8), range(8, 10)]
        assert sample_blocks(3, 4) == [range(0, 1), range(1, 2), range(2, 3)]
        assert sample_blocks(7, 1) == [range(0, 7)]


class TestSnrFamilies:
    @staticmethod
    def two_snr_cfg(samples):
        cfg = tiny_cfg(samples=samples)
        return replace(cfg, campaign=replace(cfg.campaign,
                                             snr_values_db=(5.0, 20.0)))

    def test_condition_alone_matches_its_family_in_a_campaign(self):
        cfg = self.two_snr_cfg(samples=9)
        result = run_campaign(cfg, master_seed=3)
        assert [len(f) for f in scene_families(result.conditions)] == [4]
        for cond in result.conditions:
            alone = run_condition(cond, cfg, master_seed=3)
            shared = result.records[cond.condition_id]
            assert len(alone) == len(shared) == 9
            for a, b in zip(alone, shared):
                assert (a.condition_id, a.sample_idx, a.label) == \
                    (b.condition_id, b.sample_idx, b.label)
                assert a.ber == b.ber
                assert a.features.as_array().tobytes() == \
                    b.features.as_array().tobytes()
                assert a.flags == b.flags

    def test_thread_pool_matches_serial_across_families(self, tmp_path):
        cfg = self.two_snr_cfg(samples=8)
        out_a, out_b = tmp_path / "serial", tmp_path / "pool"
        write_campaign_outputs(run_campaign(cfg, master_seed=2, threads=1),
                               cfg, out_a)
        write_campaign_outputs(run_campaign(cfg, master_seed=2, threads=2),
                               cfg, out_b)
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        assert sum(n.startswith("samples_") for n in names) == 4
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def bits(value: complex) -> bytes:
    return np.complex128(value).tobytes()


class TestPathGeometryFlow:
    def test_path_transfer_matches_responses_on_geometry(self):
        # each path's transfer function is its response function on the
        # path geometry: the unfolded legs in metres for reflection and
        # scattering, both at the one clamped incidence angle of the legs
        # in km, and the along-axis split at the clearance for diffraction,
        # which has no path exactly where the debris does not project onto
        # the link
        cfg = default_config()
        material = cfg.materials[DebrisClass.ROUGH_METAL]
        scene = generate_scene(SceneConfig(
            geometry=LinkGeometry(distance_km=500.0, velocity_km_s=7.0),
            density_per_km3=2e-5, debris_class=DebrisClass.ROUGH_METAL,
            semi_axes_km=(250.0, 50.0, 50.0)), seed=1)
        assert len(scene.objects) > 0
        # and one object beyond the receiver, with no knife-edge projection
        scene = replace(scene, objects=scene.objects + (
            DebrisObject((520.0, 10.0, 0.0), DebrisClass.ROUGH_METAL),))
        freqs = [float(f) for carrier in (30e9, 5e12)
                 for f in subband_grid(carrier, 8, cfg.channel.bandwidth_hz)]
        tx, rx = scene.tx_position_km, scene.rx_position_km
        skipped = 0
        for pol, (i, obj) in itertools.product(Polarization, enumerate(scene.objects)):
            s1, s2, d = path_lengths(tx, rx, obj.position_km)
            theta = min(incidence_angle(s1, s2, d), math.pi / 2 - 1e-9)
            sgeom = ScatterGeometry(theta1=theta, theta2=theta, theta3=0.5)
            clearance = perpendicular_clearance(tx, rx, obj.position_km)
            expected = {
                Mechanism.REFLECTION: lambda f: reflected_response(
                    f, s1 * 1e3 + s2 * 1e3, theta, material, pol),
                Mechanism.SCATTERING: lambda f: scattered_response(
                    f, s1 * 1e3 + s2 * 1e3, sgeom, material, pol),
            }
            if clearance is not None:
                h_m, a1, a2 = clearance
                expected[Mechanism.DIFFRACTION] = lambda f: diffracted_response(
                    f, a1 * 1e3, a2 * 1e3, h_m)
            for mech in DEBRIS_MECHANISMS:
                transfer = experiments.path_transfer(
                    scene, Interaction(i, mech, 0.5), material, pol)
                assert (transfer is None) == (mech not in expected)
                if transfer is None:
                    skipped += 1
                    continue
                for f in freqs:
                    assert bits(transfer(f)) == bits(expected[mech](f)), (i, mech, f)
        assert skipped == len(Polarization)

    def test_transfer_resolved_once_per_sample(self, monkeypatch):
        # a family of four carriers resolves each (object, mechanism) that
        # some carrier activates once per sample, not once per carrier
        calls, activated = [], {}
        path_transfer = experiments.path_transfer
        draw = experiments.draw_interactions

        def counted_transfer(scene, inter, material, pol):
            calls.append((scene.seed, inter.object_index, inter.mechanism))
            return path_transfer(scene, inter, material, pol)

        def recorded_draw(scene, f_hz, table, draws):
            out = draw(scene, f_hz, table, draws)
            activated.setdefault(scene.seed, set()).update(
                (inter.object_index, inter.mechanism) for inter in out)
            return out

        monkeypatch.setattr(experiments, "path_transfer", counted_transfer)
        monkeypatch.setattr(experiments, "draw_interactions", recorded_draw)
        cfg = default_config()
        cfg = replace(cfg, campaign=CampaignGrid(
            kind="density_frequency",
            frequencies_hz=(30e9, 300e9, 3e12, 5e12), snr_values_db=(15.0,),
            mimo_sizes=(4,), densities_per_km3=(1e-5,),
            classes=("none", "smooth_glass"), samples_per_condition=4))
        family = next(f for f in scene_families(enumerate_conditions(cfg)[0])
                      if f[0].labels == ("smooth_glass",))
        assert len({cond.frequency_hz for cond in family}) == 4
        run_condition(family, cfg, master_seed=3)
        assert len(activated) == 4 and sum(map(len, activated.values())) > 4
        assert len(calls) == len(set(calls))
        assert set(calls) == {(seed, *key) for seed, keys in activated.items()
                              for key in keys}

    def test_carrier_lookups_read_once(self, monkeypatch):
        # a draw reads the K-factor once when some sub-band fades and not at
        # all when none does, and a carrier reads each (class, mechanism)
        # activation probability once, however many objects share it
        log = []
        k_factor = ChannelConfig.k_factor
        probability = InteractionTable.probability
        rician = experiments.apply_rician_smallscale
        draw_sample = experiments.draw_sample
        interactions = experiments.draw_interactions

        def counted_k_factor(self, debris_class, f_hz):
            log.append("k_factor")
            return k_factor(self, debris_class, f_hz)

        def counted_probability(self, debris_class, mechanism, f_hz):
            log.append((debris_class, mechanism))
            return probability(self, debris_class, mechanism, f_hz)

        def counted_rician(h, k, rng):
            log.append("fade")
            return rician(h, k, rng)

        draws, carriers = [], []

        def logged_draw_sample(*args):
            start = len(log)
            out = draw_sample(*args)
            draws.append(log[start:])
            return out

        def logged_interactions(scene, f_hz, table, uniforms):
            start = len(log)
            out = interactions(scene, f_hz, table, uniforms)
            carriers.append((scene, log[start:]))
            return out

        monkeypatch.setattr(ChannelConfig, "k_factor", counted_k_factor)
        monkeypatch.setattr(InteractionTable, "probability", counted_probability)
        monkeypatch.setattr(experiments, "apply_rician_smallscale", counted_rician)
        monkeypatch.setattr(experiments, "draw_sample", logged_draw_sample)
        monkeypatch.setattr(experiments, "draw_interactions", logged_interactions)
        cfg = tiny_cfg(samples=6)
        cfg = replace(cfg, campaign=replace(cfg.campaign, densities_per_km3=(1e-5,)))
        for family in scene_families(enumerate_conditions(cfg)[0]):
            run_condition(family, cfg, master_seed=3)

        assert any(d.count("fade") > 1 for d in draws)
        assert any("fade" not in d for d in draws)
        for d in draws:
            assert d.count("k_factor") == ("fade" in d)
        assert any(len(scene.objects) > 1 for scene, _ in carriers)
        for scene, reads in carriers:
            classes = {obj.debris_class for obj in scene.objects}
            assert len(reads) == len(set(reads)) == 3 * len(classes)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_material_tables_short_of_a_subband_fail_before_any_sample(
            self, threads, monkeypatch):
        # the trend campaign with glass tables that end at 4 THz, below every
        # sub-band centre of its 5 THz carrier: run_campaign raises
        # parse_config's ConfigError before it builds the grid, serial or
        # pooled
        cfg = trend_config(samples=6)
        glass = cfg.materials["smooth_glass"]
        short = replace(glass, n_table=((20e9, 1.95), (4e12, 1.95)),
                        alpha_table=((20e9, 200.0), (4e12, 200.0)))
        cfg = replace(cfg, materials={**cfg.materials, "smooth_glass": short})

        def no_grid(*args):
            raise AssertionError("the campaign grid was built")

        monkeypatch.setattr(experiments, "enumerate_conditions", no_grid)
        with pytest.raises(ConfigError, match=r"^sub-band centre 4\.996e\+12 Hz: "
                           r"material 'smooth_glass': refractive index not "
                           r"tabulated"):
            run_campaign(cfg, master_seed=1, threads=threads)

        # build_paths on the unvalidated config skips each glass path whole,
        # with one flag, where its gains raise at the carrier's sub-bands
        grid = subband_grid(5e12, 8, cfg.channel.bandwidth_hz)
        scene = generate_scene(SceneConfig(
            geometry=LinkGeometry(distance_km=500.0, velocity_km_s=7.0),
            density_per_km3=2e-5, debris_class=DebrisClass.SMOOTH_GLASS,
            semi_axes_km=(250.0, 50.0, 50.0)), seed=1)
        interactions = [Interaction(object_index=0, mechanism=mech,
                                    scatter_azimuth=0.5)
                        for mech in (Mechanism.REFLECTION, Mechanism.SCATTERING)]
        flags = []
        paths = build_paths(ScenePaths(scene, cfg), interactions, grid, cfg, flags)
        assert [p.object_index for p in paths] == [None]
        assert flags == ["path_error:reflection", "path_error:scattering"]

    def test_on_axis_debris_reflects_below_grazing(self):
        # debris on the link axis closes a flat relay triangle: reflection
        # runs at the incidence angle clamped below grazing, scattering
        # fails its grazing check at every sub-band, so it is skipped, and
        # diffraction has no clearance to diffract over
        cfg = default_config()
        grid = subband_grid(3e12, 8, cfg.channel.bandwidth_hz)
        scene = DebrisScene(
            geometry=cfg.link, semi_axes_km=(250.0, 50.0, 50.0),
            density_per_km3=0.0, seed=0, objects=(
                DebrisObject((250.0, 0.0, 0.0), DebrisClass.SMOOTH_GLASS),))
        interactions = [Interaction(object_index=0, mechanism=mech,
                                    scatter_azimuth=0.5)
                        for mech in DEBRIS_MECHANISMS]
        flags = []
        paths = build_paths(ScenePaths(scene, cfg), interactions, grid, cfg, flags)
        assert [p.object_index for p in paths] == [None, 0]
        los, reflection = paths
        assert all(np.isfinite(g) and 0.0 < abs(g) < abs(g_los)
                   for g, g_los in zip(reflection.gains, los.gains))
        assert flags == ["path_error:scattering", "diff_skip"]

    @pytest.mark.parametrize("snr_db,bad", [
        (0.0, (5,)),
        (10.0, (5,)),
        # every sub-band singular: the sample books half of all its bits
        (10.0, tuple(range(8))),
    ], ids=["0.0", "10.0", "every_subband"])
    def test_one_singular_subband_fails_alone(self, snr_db, bad):
        # the channel and CSI-error unit of each sub-band in ``bad`` share a
        # zero column, so its LS estimate is exactly singular at every SNR:
        # the padded stack fails ZF, and only those sub-bands book half
        # their unpadded bits and one eq_error flag; the others count what
        # the per-matrix link counts
        cfg = tiny_cfg()
        cond = replace(enumerate_conditions(cfg)[0][0], snr_db=snr_db)
        n = cond.n_antennas
        channel = complex_normal(np.random.default_rng(4), (8, n, n))
        channel[list(bad), :, 2] = 0.0
        lengths = balanced_partition(FRAME_SYMBOLS, range(8)).values()
        draw = draw_link(0, "none", (), channel, lengths, np.random.default_rng(5))
        draw.csi_error[list(bad), :, 2] = 0.0

        errors, total, failed = per_matrix_link(draw, snr_db)
        assert failed == list(bad)
        if len(bad) == 8:
            assert errors == 0.5 * total
        else:  # not only the singular sub-band
            assert errors > 0.5 * 2 * n * draw.lengths[5]

        rec = simulate_sample(cond, draw)
        assert rec.ber == errors / total
        assert rec.flags.count("eq_error") == 1

    @pytest.mark.parametrize("n_subbands", [3, 5, 8])
    def test_padded_stack_counts_the_unpadded_frames(self, n_subbands):
        # 500 symbols over 3, 5 and 8 sub-bands: one short sub-band, none,
        # and four.  The pad holds zeros, and the stack's BER is the
        # per-matrix link's over the unpadded frames
        cond = enumerate_conditions(tiny_cfg())[0][0]
        n = cond.n_antennas
        channel = complex_normal(np.random.default_rng(6), (n_subbands, n, n))
        lengths = balanced_partition(FRAME_SYMBOLS, range(n_subbands)).values()
        draw = draw_link(0, "none", (), channel, lengths, np.random.default_rng(7))
        width = max(draw.lengths)
        assert draw.signal.shape == draw.noise.shape == (n_subbands, n, width)
        assert draw.bits.shape == (n_subbands, n, width, 2)
        for k, length in enumerate(draw.lengths):
            for stack in (draw.signal, draw.noise, draw.bits):
                assert not stack[k, :, length:].any()
            assert draw.noise[k, :, :length].all()

        errors, total, failed = per_matrix_link(draw, cond.snr_db)
        assert not failed and errors > 0
        rec = simulate_sample(cond, draw)
        assert rec.ber == errors / total
        assert "eq_error" not in rec.flags


def per_matrix_link(draw, snr_db):
    """Bit errors, bit count and zero-forcing failures of a draw's unpadded
    frames, one sub-band matrix at a time through transmit, estimate_csi and
    zf_equalize; a sub-band that fails zero-forcing books half its bits."""
    n = draw.channel.shape[-1]
    errors, total, failed = 0.0, 0, []
    for k, length in enumerate(draw.lengths):
        noise = draw.noise[k, :, :length]
        bits = draw.bits[k, :, :length].ravel()
        y = transmit(draw.channel[k], qpsk_modulate(bits).reshape(noise.shape),
                     snr_db, None, noise_unit=noise)
        csi = estimate_csi(draw.channel[k], PILOT_FACTOR * n, snr_db, None,
                           error_unit=draw.csi_error[k])
        total += bits.size
        try:
            est = zf_equalize(y, csi)
        except EqualizationError:
            failed.append(k)
            errors += bits.size * 0.5
            continue
        errors += np.count_nonzero(qpsk_demodulate(est) != bits)
    return errors, total, failed


class TestEvaluate:
    def test_cls_acc_is_hit_rate_on_held_out_debris_rows(self):
        cfg = tiny_cfg(samples=40)
        conds, _ = enumerate_conditions(cfg)
        recs = run_condition(conds[1], cfg, master_seed=7)
        summary = evaluate_condition(recs, split_seed=99, cfg=cfg)
        held_out = [r for r, note in zip(recs, summary.annotations)
                    if note.split == "test" and r.label != "none"]
        assert held_out
        hits = sum(summary.classification_model.predict(r.features.as_array())
                   == r.label for r in held_out)
        assert summary.cls_acc == hits / len(held_out)

    def test_input_records_left_unchanged(self):
        cfg = tiny_cfg(samples=20)
        conds, _ = enumerate_conditions(cfg)
        recs = run_condition(conds[1], cfg, master_seed=8)
        before = copy.deepcopy(recs)
        summary = evaluate_condition(recs, split_seed=3, cfg=cfg)
        assert recs == before
        assert len(summary.annotations) == len(recs)

    def test_split_membership_recorded(self):
        cfg = tiny_cfg(samples=20)
        conds, _ = enumerate_conditions(cfg)
        recs = run_condition(conds[0], cfg, master_seed=8)
        summary = evaluate_condition(recs, split_seed=3, cfg=cfg)
        splits = [note.split for note in summary.annotations]
        assert len(splits) == 20
        assert set(splits) == {"train", "test"}
        # 30% of 20, stratified
        assert splits.count("test") == 6

    def test_degenerate_split_names_class(self):
        cfg = tiny_cfg(samples=12)
        conds, _ = enumerate_conditions(cfg)
        recs = run_condition(conds[0], cfg, master_seed=9)
        solo = [r for r in recs if r.label == "none"][:1] + \
            [r for r in recs if r.label != "none"]
        with pytest.raises(TrainingError, match="none"):
            evaluate_condition(solo, split_seed=1, cfg=cfg)

    def test_per_record_predictions_filled(self):
        cfg = tiny_cfg(samples=20)
        conds, _ = enumerate_conditions(cfg)
        recs = run_condition(conds[1], cfg, master_seed=11)
        summary = evaluate_condition(recs, split_seed=5, cfg=cfg)
        assert len(summary.annotations) == len(recs)
        for note in summary.annotations:
            assert type(note.det_value) is float and math.isfinite(note.det_value)
            assert note.pred_label in ("none", "smooth_glass", "rough_metal")


def test_no_debris_rows_rarely_alert_at_high_frequency():
    # follows from the detection-accuracy band: at 5 THz / 20 dB the
    # pipeline stays quiet on at least 90% of debris-free samples
    cfg = trend_config(samples=60)
    conds, _ = enumerate_conditions(cfg)
    cond = next(c for c in conds if c.frequency_hz == 5e12
                and c.snr_db == 20.0 and c.density_per_km3 == 1e-6)
    recs = run_condition(cond, cfg, master_seed=1)
    summary = evaluate_condition(recs, split_seed=7, cfg=cfg)
    none_preds = [note.pred_label for r, note in zip(recs, summary.annotations)
                  if r.label == "none"]
    false_alarms = sum(pred != "none" for pred in none_preds)
    assert false_alarms <= 0.1 * len(none_preds)


@pytest.fixture(scope="module")
def table1_run(tmp_path_factory):
    """Table 1 at 9 samples per condition and seed 3, with its outputs
    written, run once per thread count asked for."""
    runs = {}

    def run(threads):
        if threads not in runs:
            cfg = table_config(1, samples=9)
            result = run_campaign(cfg, master_seed=3, threads=threads)
            out = tmp_path_factory.mktemp(f"table1-threads{threads}")
            write_campaign_outputs(result, cfg, out)
            runs[threads] = (cfg, result, out)
        return runs[threads]
    return run


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestCampaignOutputs:
    def test_files_headers_and_row_counts(self, tmp_path):
        cfg = tiny_cfg(samples=12)
        result = run_campaign(cfg, master_seed=4)
        write_campaign_outputs(result, cfg, tmp_path)
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert metrics[0] == METRICS_CSV_HEADER
        assert len(metrics) == 1 + len(result.conditions)
        for cond in result.conditions:
            lines = (tmp_path / f"samples_{cond.condition_id}.csv").read_text() \
                .splitlines()
            assert lines[0] == SAMPLE_CSV_HEADER
            assert len(lines) == 1 + cfg.campaign.samples_per_condition
        for name in ("plot_ber.csv", "plot_detection_accuracy.csv",
                     "plot_classification_accuracy.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "x,series,value"
            assert len(lines) > 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_cfg(samples=12)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_campaign_outputs(run_campaign(cfg, master_seed=6), cfg, out_a)
        write_campaign_outputs(run_campaign(cfg, master_seed=6), cfg, out_b)
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_thread_pool_matches_serial(self, tmp_path):
        cfg = tiny_cfg(samples=8)
        out_a, out_b = tmp_path / "serial", tmp_path / "pool"
        write_campaign_outputs(run_campaign(cfg, master_seed=2, threads=1),
                               cfg, out_a)
        write_campaign_outputs(run_campaign(cfg, master_seed=2, threads=2),
                               cfg, out_b)
        for path_a in sorted(out_a.iterdir()):
            assert path_a.read_bytes() == (out_b / path_a.name).read_bytes()

    def test_table1_metrics_row_count(self, tmp_path):
        cfg = table_config(1, samples=6)
        result = run_campaign(cfg, master_seed=1)
        write_campaign_outputs(result, cfg, tmp_path)
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 1 + 28

    def test_shared_no_debris_cell_keeps_exclusive_split_markers(self, table1_run):
        # the per-frequency no-debris cell is evaluated by every density
        # group; each sample row is marked train or test, never both
        _, result, out = table1_run(1)
        for cond in result.conditions:
            rows = read_csv(out / f"samples_{cond.condition_id}.csv")
            assert len(rows) == 9
            for row in rows:
                flags = row["flags"].split("|")
                assert ("train" in flags) != ("test" in flags)

    def test_metrics_accuracy_is_mean_over_pooling_groups(self, table1_run):
        # each frequency's no-debris cell is pooled by its three density
        # groups; its metrics row averages theirs, skipping a NaN cls_acc
        _, result, out = table1_run(1)
        metrics = {row["condition_id"]: row
                   for row in read_csv(out / "metrics.csv")}
        none_conds = [c for c in result.conditions if c.labels == ("none",)]
        assert len(none_conds) == 4
        for cond in none_conds:
            pooled = [result.summaries[g.group_id] for g in result.groups
                      if cond.condition_id in g.condition_ids]
            assert len(pooled) == 3
            cls_vals = [s.cls_acc for s in pooled if not math.isnan(s.cls_acc)]
            row = metrics[cond.condition_id]
            assert float(row["det_acc"]) == float(np.mean([s.det_acc for s in pooled]))
            if cls_vals:
                assert float(row["cls_acc"]) == float(np.mean(cls_vals))
            else:
                assert row["cls_acc"] == "nan"
        for cond in result.conditions:
            if cond.labels != ("none",):
                (group,) = [g for g in result.groups
                            if cond.condition_id in g.condition_ids]
                assert float(metrics[cond.condition_id]["det_acc"]) == \
                    result.summaries[group.group_id].det_acc

    @pytest.mark.parametrize("threads", [1, 2])
    def test_evaluation_error_names_its_class_at_any_thread_count(
            self, monkeypatch, threads):
        # at 6 rows per class a 0.95 split leaves no held-out row; the
        # campaign is refused before any sample is drawn, naming the class
        def sample_drawn(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(experiments, "run_condition", sample_drawn)
        cfg = table_config(1, samples=6)
        cfg = replace(cfg, svm=replace(cfg.svm, train_fraction=0.95))
        with pytest.raises(ConfigError, match="class 'none' has 6 rows"):
            run_campaign(cfg, master_seed=1, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_worker_error_keeps_its_message(self, threads):
        # a NaN K-factor table cannot be built, so one is set on a built
        # config; the first debris sample with more than one path raises, in
        # a pool worker when threads > 1, and the caller sees the same error
        cfg = tiny_cfg(samples=6)
        object.__setattr__(cfg.channel, "k_factor_db", {
            cls: tuple(math.nan for _ in row)
            for cls, row in cfg.channel.k_factor_db.items()})
        with pytest.raises(ValueError, match="K-factor must be finite"):
            run_campaign(cfg, master_seed=1, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_shared_no_debris_cell_carries_last_density_group(self, table1_run,
                                                              threads):
        # each frequency's no-debris cell is pooled by all three density
        # groups; its rows carry what a standalone evaluation of the last
        # (highest-density) group at that frequency gives them
        cfg, result, out = table1_run(threads)
        seed = 3
        last = {}
        for g_idx, group in enumerate(result.groups):
            for cid in group.condition_ids:
                last[cid] = (g_idx, group)
        conds = {c.condition_id: c for c in result.conditions}
        none_conds = [c for c in result.conditions if c.labels == ("none",)]
        assert len(none_conds) == 4
        for cond in none_conds:
            g_idx, group = last[cond.condition_id]
            assert group.axis_value == max(cfg.campaign.densities_per_km3)
            pooled = [rec for cid in group.condition_ids
                      for rec in run_condition(conds[cid], cfg, seed)]
            split_seed = int(np.random.SeedSequence(
                [seed, _STREAM_SPLIT, g_idx]).generate_state(1)[0])
            notes = evaluate_condition(pooled, split_seed, cfg).annotations
            alone = [(rec, note) for rec, note in zip(pooled, notes)
                     if rec.condition_id == cond.condition_id]
            shared = read_csv(out / f"samples_{cond.condition_id}.csv")
            assert len(shared) == len(alone) == 9
            for (rec, note), row in zip(alone, shared):
                assert (str(rec.sample_idx), repr(note.det_value), note.pred_label,
                        "|".join(sorted({*rec.flags, note.split}))) == \
                    (row["sample_idx"], row["det_value"], row["pred_label"],
                     row["flags"])

    @pytest.mark.parametrize("kind", sorted(CAMPAIGN_KINDS))
    def test_plot_rows_have_unique_keys(self, tmp_path, kind):
        # one value per (x, series) point: the trend's density-comparison
        # leg shares its frequency and SNR with a main-grid condition.  Each
        # list the kind sweeps holds two values, every other list one.
        two = {"snr_values_db": (15.0, 20.0), "mimo_sizes": (4, 2),
               "densities_per_km3": (1e-6, 1e-7)}
        cfg = tiny_cfg(samples=9, kind=kind)
        cfg = replace(cfg, campaign=replace(cfg.campaign, **{
            name: values for name, values in two.items()
            if name in CAMPAIGN_SWEEPS[kind]}))
        write_campaign_outputs(run_campaign(cfg, master_seed=5), cfg, tmp_path)
        for name in ("plot_ber.csv", "plot_detection_accuracy.csv",
                     "plot_classification_accuracy.csv"):
            keys = [(row["x"], row["series"]) for row in read_csv(tmp_path / name)]
            assert keys
            assert len(keys) == len(set(keys)), name


# Prints the OpenBLAS thread count that numpy's bundled library reports
# before and after one_blas_thread, in a fresh process.
_BLAS_PROBE = """
import ctypes
from pathlib import Path
import numpy as np
from debrisense.experiments import one_blas_thread
(lib,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
before = get()
one_blas_thread()
print(before, get())
"""


class TestPoolBlasThreads:
    def test_one_blas_thread_sets_the_bundled_blas_to_one_thread(self):
        if experiments._blas_thread_setter() is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.split()
        assert after == "1", f"{before} thread(s) before"

    def test_pool_workers_start_with_one_blas_thread(self, monkeypatch):
        initializers = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                initializers.append(kwargs.get("initializer"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        run_campaign(tiny_cfg(samples=6), master_seed=1, threads=2)
        assert initializers == [experiments.one_blas_thread]

    def test_missing_blas_control_warns_once_per_pooled_campaign(self, monkeypatch):
        monkeypatch.setattr(experiments, "_blas_thread_setter", lambda: None)
        with pytest.warns(BlasThreadsWarning) as caught:
            run_campaign(tiny_cfg(samples=6), master_seed=1, threads=2)
        assert len(caught) == 1
