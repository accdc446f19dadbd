"""Config parsing: overrides, interpolated tables, validation errors."""

import math

import pytest

from debrisense import configio
from debrisense.configio import (default_config, parse_config,
                                 reference_text, DEFAULT_INTERACTIONS)
from debrisense.errors import ConfigError
from debrisense.propagation import Polarization
from debrisense.scene import DebrisClass, Mechanism


class TestOverrides:
    def test_link_and_scene(self):
        cfg = parse_config("""
[link]
distance_km = 800
velocity_km_s = 6.5

[scene]
minor_semi_axes_km = 40, 60
debris_size_m = 0.25
""")
        assert cfg.link.distance_km == 800.0
        assert cfg.scene.semi_axes(800.0) == (400.0, 40.0, 60.0)
        assert cfg.scene.debris_size_m == 0.25

    def test_channel_k_factor_rows(self):
        cfg = parse_config("""
[channel]
n_subbands = 4
k_factor_frequencies_hz = 30e9, 5e12
k_factor_db_smooth_glass = 8, 18
k_factor_db_rough_metal = 7, 9
""")
        assert cfg.channel.n_subbands == 4
        assert cfg.channel.k_factor("smooth_glass", 30e9) == pytest.approx(8.0)
        assert cfg.channel.k_factor("rough_metal", 5e12) == pytest.approx(9.0)

    def test_partial_interaction_override(self):
        cfg = parse_config("""
[interactions]
smooth_glass_reflection = 0.5, 0.5, 0.5, 0.5
""")
        p = cfg.interactions.probability(DebrisClass.SMOOTH_GLASS,
                                         Mechanism.REFLECTION, 3e12)
        assert p == 0.5
        # untouched rows keep their defaults
        q = cfg.interactions.probability(DebrisClass.ROUGH_METAL,
                                         Mechanism.SCATTERING, 30e9)
        assert q == DEFAULT_INTERACTIONS.probabilities[
            ("rough_metal", "scattering")][0]

    def test_materials_file_reference(self, tmp_path):
        mats = tmp_path / "mats.ini"
        mats.write_text("""
[smooth_glass]
n = 20e9:1.5, 6e12:1.5
alpha_per_m = 20e9:0, 6e12:0
roughness_sigma_m = 1e-6
correlation_length_m = 1e-4
facet_lx_m = 0.2
facet_ly_m = 0.2

[rough_metal]
n = 20e9:100, 6e12:100
alpha_per_m = 20e9:1e6, 6e12:1e6
roughness_sigma_m = 2e-4
correlation_length_m = 1e-4
facet_lx_m = 0.2
facet_ly_m = 0.2
""", encoding="utf-8")
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[materials]\nfile = mats.ini\n", encoding="utf-8")
        from debrisense.configio import load_config
        cfg = load_config(cfg_file)
        assert cfg.materials["smooth_glass"].refractive_index(1e12) == 1.5


class TestTables:
    def test_interaction_probability_interpolates_in_log_f(self):
        table = DEFAULT_INTERACTIONS
        lo = table.probability(DebrisClass.SMOOTH_GLASS, Mechanism.SCATTERING,
                               300e9)
        hi = table.probability(DebrisClass.SMOOTH_GLASS, Mechanism.SCATTERING,
                               3e12)
        mid_f = 10 ** ((math.log10(300e9) + math.log10(3e12)) / 2)
        mid = table.probability(DebrisClass.SMOOTH_GLASS, Mechanism.SCATTERING,
                                mid_f)
        assert mid == pytest.approx((lo + hi) / 2, rel=1e-12)

    def test_out_of_range_frequency_rejected(self):
        with pytest.raises(ConfigError):
            DEFAULT_INTERACTIONS.probability(DebrisClass.SMOOTH_GLASS,
                                             Mechanism.REFLECTION, 1e9)

    def test_k_factor_out_of_range_rejected(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            cfg.channel.k_factor("smooth_glass", 1e9)

    def test_unknown_class_k_factor_rejected(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            cfg.channel.k_factor("ice", 3e12)


class TestValidation:
    @pytest.mark.parametrize("text", [
        "[campaign]\nkind = bogus\n",
        "[campaign]\nfrequencies_hz =\n",
        "[campaign]\nsamples_per_condition = 3\n",
        "[channel]\npolarization = circular\n",
        "[svm]\ntrain_fraction = 1.5\n",
        "[interactions]\nsmooth_glass_reflection = 0.1, 0.2\n",
        "[interactions]\nsmooth_glass_reflection = 0.1, 0.2, 0.3, 1.7\n",
        "[interactions]\nsmooth_glass_warp = 0.1, 0.2, 0.3, 0.4\n",
        "[channel]\nspacing = 0\n",
        "[channel]\nspacing = -0.5\n",
        "[channel]\nbandwidth_hz = -1e9\n",
        "[channel]\nk_factor_frequencies_hz = 30e9, 3e12, 300e9, 5e12\n",
        "[svm]\nkernel = poly\n",
        "[svm]\nc = 0\n",
        "[svm]\nc = -1\n",
        "[svm]\ngamma = 0\n",
        "[svm]\ngamma = -1\n",
        # keys and sections that nothing parses
        "[channel]\nn_subband = 4\n",
        "[channel]\nlos_indicator = 0\n",
        "[svm]\nkernal = linear\n",
        "[intractions]\nsmooth_glass_reflection = 0.1, 0.2, 0.3, 0.4\n",
        "[materials]\nfiles = mats.ini\n",
        "[DEFAULT]\nn_subbands = 4\n",
        # an antenna count is a whole number, not truncated
        "[campaign]\nmimo = 4.7\n",
        # the link settings are set from code only
        "[linksim]\ncsi_method = perfect\n",
        # a bare % is an interpolation error inside configparser
        "[link]\ndistance_km = 5%\n",
        # the link is checked when parsed, not at the first sample
        "[link]\ndistance_km = 0\n",
        "[link]\ndistance_km = nan\n",
        "[link]\nvelocity_km_s = -1\n",
        # a class list needs the no-debris label, a debris class and no repeats
        "[campaign]\nclasses = smooth_glass, rough_metal\n",
        "[campaign]\nclasses = none\n",
        "[campaign]\nclasses = none, smooth_glass, smooth_glass\n",
    ])
    def test_bad_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="los_indicator"):
            parse_config("[channel]\nlos_indicator = 1\n")

    def test_reference_text_parses_to_defaults(self):
        assert parse_config(reference_text()) == default_config()
        # an empty [DEFAULT] section passes no keys to the others
        assert parse_config("[DEFAULT]\n" + reference_text()) == default_config()

    def test_reference_names_each_table_key_once(self):
        section, written = None, []
        for line in reference_text().splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif line and not line.startswith("#"):
                written.append((section, line.split(" = ")[0]))
        for name, keys in configio._KEYS.items():
            for key in keys:
                assert written.count((name, key)) == 1, (name, key)

    def test_reference_values_in_shortest_exact_form(self):
        text = reference_text()
        assert "distance_km = 500   #" in text
        assert "bandwidth_hz = 1e+10\n" in text
        assert "densities_per_km3 = 1e-06\n" in text
        # a number whose :g form would round falls back to repr
        assert configio._text(1234567.0) == "1234567.0"
        # an int prints in full, so an int key parses it back
        assert configio._text(1000000) == "1000000"
        assert configio._text(Polarization.TM) == "tm"

    def test_campaign_class_without_material_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[campaign]\nclasses = none, ice\n"
                         "samples_per_condition = 10\n")
