"""Material table parsing and frequency interpolation."""

import pytest

from debrisense.errors import ConfigError, MaterialError
from debrisense.materials import (default_materials, load_materials,
                                  parse_materials)

GLASS_TEXT = """
[glassy]
n = 100e9:1.9, 1e12:2.1
alpha_per_m = 100e9:100, 1e12:300
roughness_sigma_m = 5e-6
correlation_length_m = 500e-6
facet_lx_m = 0.1
facet_ly_m = 0.1
"""


def test_defaults_contain_both_classes():
    mats = default_materials()
    assert set(mats) == {"smooth_glass", "rough_metal"}
    assert mats["smooth_glass"].roughness_sigma_m == pytest.approx(5e-6)
    assert mats["rough_metal"].roughness_sigma_m == pytest.approx(100e-6)


def test_interpolation_hits_breakpoints_and_midpoint():
    mat = parse_materials(GLASS_TEXT)["glassy"]
    assert mat.refractive_index(100e9) == pytest.approx(1.9)
    assert mat.refractive_index(1e12) == pytest.approx(2.1)
    mid = mat.refractive_index(550e9)
    assert 1.9 < mid < 2.1
    assert mat.absorption(550e9) == pytest.approx(100 + 200 * (550e9 - 100e9) /
                                                  (1e12 - 100e9))


def test_lookup_outside_range_errors():
    mat = parse_materials(GLASS_TEXT)["glassy"]
    with pytest.raises(MaterialError):
        mat.refractive_index(50e9)
    with pytest.raises(MaterialError):
        mat.absorption(2e12)


def test_unsorted_table_rejected():
    bad = GLASS_TEXT.replace("100e9:1.9, 1e12:2.1", "1e12:2.1, 100e9:1.9")
    with pytest.raises(ConfigError):
        parse_materials(bad)


def test_subunity_index_rejected():
    bad = GLASS_TEXT.replace("100e9:1.9", "100e9:0.5")
    with pytest.raises(ConfigError):
        parse_materials(bad)


def test_negative_roughness_rejected():
    bad = GLASS_TEXT.replace("roughness_sigma_m = 5e-6",
                             "roughness_sigma_m = -1e-6")
    with pytest.raises(ConfigError):
        parse_materials(bad)


@pytest.mark.parametrize("text", [
    GLASS_TEXT + "facet_lz_m = 9\n",
    "[DEFAULT]\nfacet_ly_m = 0.1\n" + GLASS_TEXT.replace("facet_ly_m = 0.1", ""),
    GLASS_TEXT.replace("roughness_sigma_m = 5e-6", "roughness_sigma_m = nan"),
    GLASS_TEXT.replace("facet_lx_m = 0.1", "facet_lx_m = inf"),
    GLASS_TEXT.replace("1e12:300", "1e12:nan"),
], ids=["unknown_key", "default_section", "nan_scalar", "inf_scalar",
        "nan_table"])
def test_unknown_key_default_section_and_non_finite_rejected(text):
    with pytest.raises(ConfigError):
        parse_materials(text)


@pytest.mark.parametrize("key,value", [("roughness_sigma_m", "5e-6"),
                                       ("correlation_length_m", "500e-6"),
                                       ("facet_lx_m", "0.1"),
                                       ("facet_ly_m", "0.1")])
def test_non_numeric_scalar_names_material_and_key(key, value):
    bad = GLASS_TEXT.replace(f"{key} = {value}", f"{key} = abc")
    with pytest.raises(ConfigError, match=f"'glassy'.*{key}"):
        parse_materials(bad)


@pytest.mark.parametrize("old,new,problem", [
    ("100e9:100, 1e12:300", "100e9:-100, 1e12:300", "alpha_per_m must be >= 0"),
    ("100e9:1.9, 1e12:2.1", "-100e9:1.9, 1e12:2.1", "n breakpoints must be"),
    ("100e9:1.9, 1e12:2.1", "0:1.9, 1e12:2.1", "n breakpoints must be"),
    ("100e9:100, 1e12:300", "0:100, 1e12:300", "alpha_per_m breakpoints must be"),
    ("100e9:100, 1e12:300", "100e9:100, inf:300", "alpha_per_m breakpoints must be"),
    ("100e9:1.9", "100e9:1.9%", "n entry"),
    ("roughness_sigma_m = 5e-6", "roughness_sigma_m = 5e-6%", "roughness_sigma_m value"),
], ids=["negative_absorption", "negative_breakpoint", "zero_breakpoint",
        "zero_alpha_breakpoint", "inf_breakpoint", "percent_in_table",
        "percent_in_scalar"])
def test_bad_table_or_value_names_material_and_key(old, new, problem):
    # the breakpoints follow the rule of the config's frequency tables, and
    # an absorption below zero would model a gain medium
    with pytest.raises(ConfigError, match=f"'glassy'.*{problem}"):
        parse_materials(GLASS_TEXT.replace(old, new))


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read material file .*nope.ini"):
        load_materials(tmp_path / "nope.ini")


def test_missing_key_rejected():
    bad = GLASS_TEXT.replace("facet_ly_m = 0.1", "")
    with pytest.raises(ConfigError):
        parse_materials(bad)


def test_load_from_file(tmp_path):
    path = tmp_path / "mats.ini"
    path.write_text(GLASS_TEXT, encoding="utf-8")
    mats = load_materials(path)
    assert "glassy" in mats
