"""CLI subcommands, config reference round-trip and exit codes."""

import numpy as np
import pytest

from debrisense import cli, experiments
from debrisense.cli import main
from debrisense.configio import default_config, parse_config
from debrisense.materials import DEFAULT_MATERIALS_TEXT
from debrisense.sensing import load_model


CUSTOM_CONFIG = """
[campaign]
kind = frequency_snr
frequencies_hz = 30e9
snr_db = 15
mimo = 4
densities_per_km3 = 1e-6
classes = none, smooth_glass, rough_metal
samples_per_condition = 12

[channel]
n_subbands = 4
"""


def test_reference_parses_back_to_defaults(capsys):
    assert main(["reference"]) == 0
    assert parse_config(capsys.readouterr().out) == default_config()


def test_reproduce_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["reproduce", "--table", "2", "--seed", "3",
                 "--out", str(out), "--samples", "12"])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert len(list(out.glob("samples_*.csv"))) == 12


def test_simulate_with_config_file(tmp_path):
    cfg_path = tmp_path / "campaign.ini"
    cfg_path.write_text(CUSTOM_CONFIG, encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--seed", "2",
                 "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 2  # header + single condition


def test_train_and_evaluate_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "campaign.ini"
    cfg_path.write_text(CUSTOM_CONFIG.replace("samples_per_condition = 12",
                                              "samples_per_condition = 30"),
                        encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--seed", "5",
                 "--out", str(out)]) == 0
    data = next(out.glob("samples_*.csv"))
    model_path = tmp_path / "det.json"
    assert main(["train", "--data", str(data), "--model", str(model_path),
                 "--kernel", "rbf", "--c", "1.0", "--binary"]) == 0
    model = load_model(model_path)
    assert model.kind == "binary"
    assert main(["evaluate", "--data", str(data),
                 "--model", str(model_path)]) == 0
    out_text = capsys.readouterr().out
    assert "accuracy:" in out_text


def test_multiclass_train(tmp_path):
    cfg_path = tmp_path / "campaign.ini"
    cfg_path.write_text(CUSTOM_CONFIG.replace("samples_per_condition = 12",
                                              "samples_per_condition = 24"),
                        encoding="utf-8")
    out = tmp_path / "sim"
    main(["simulate", "--config", str(cfg_path), "--seed", "6",
          "--out", str(out)])
    data = next(out.glob("samples_*.csv"))
    model_path = tmp_path / "cls.json"
    assert main(["train", "--data", str(data),
                 "--model", str(model_path)]) == 0
    assert load_model(model_path).kind == "multiclass"


def test_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text("[campaign]\nkind = bogus\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [("mimo = 4", "mimo = 0"),
                                     ("mimo = 4", "mimo = 4, -2"),
                                     ("mimo = 4", "mimo = 4.7"),
                                     ("n_subbands = 4", "n_subbands = 0"),
                                     ("n_subbands = 4", "spacing = 0"),
                                     ("n_subbands = 4", "bandwidth_hz = -1e9"),
                                     ("[channel]", "[svm]\nkernel = poly\n"
                                                   "[channel]"),
                                     ("[channel]", "[svm]\nc = 0\n[channel]")],
                         ids=["mimo_zero", "mimo_negative", "mimo_fractional",
                              "n_subbands_zero",
                              "spacing_zero", "bandwidth_negative",
                              "kernel_unknown", "c_zero"])
def test_bad_array_or_subband_setting_exits_2(tmp_path, capsys, setting):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(CUSTOM_CONFIG.replace(*setting), encoding="utf-8")
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting,problem", [
    (("[channel]", "[scene]\nminor_semi_axes_km = nan, 50\n[channel]"), ""),
    (("[channel]", "[scene]\ndebris_size_m = 0\n[channel]"),
     "unknown config key 'debris_size_m'"),
    (("[channel]", "[svm]\ntolerance = nan\n[channel]"), ""),
    (("frequencies_hz = 30e9", "frequencies_hz = 20e9"), ""),
    (("n_subbands = 4", "n_subbands = 4\nbandwidth_hz = 1e11"), ""),
    (("n_subbands = 4", "n_subbands = 4\nbandwidth_hz = 4e10"), ""),
    (("n_subbands = 4", "n_subbands = 4\nk_factor_db_smooth_glass = nan, 13, 21, 21"), ""),
    (("n_subbands = 4", "n_subbands = 4\nk_factor_db_smooth_glass = inf, 13, 21, 21"), ""),
    (("n_subbands = 4",
      "n_subbands = 4\nk_factor_frequencies_hz = 30e9, nan, 3e12, 5e12"), ""),
    (("[channel]", "[interactions]\nfrequencies_hz = 30e9, 300e9, nan, 5e12\n[channel]"),
     ""),
    (("snr_db = 15", "snr_db = 5, 5"), "campaign list snr_db repeats"),
    (("frequencies_hz = 30e9", "frequencies_hz = 3e12, 3e12"),
     "campaign list frequencies_hz repeats"),
    (("snr_db = 15", "snr_db = nan"), "campaign list snr_db must hold finite"),
    (("mimo = 4", "mimo = 4, 16"), "does not sweep mimo,"),
    (("kind = frequency_snr\nfrequencies_hz = 30e9\nsnr_db = 15",
      "kind = mimo_frequency\nfrequencies_hz = 30e9\nsnr_db = 15, 20"),
     "does not sweep snr_db,"),
], ids=["minor_axis_nan", "size_zero", "tolerance_nan", "frequency_uncovered",
        "subband_below_zero", "subband_below_tables", "k_factor_nan",
        "k_factor_inf", "k_factor_breakpoint_nan", "interaction_breakpoint_nan",
        "snr_repeated", "frequency_repeated", "snr_nan", "mimo_not_swept",
        "snr_not_swept"])
def test_bad_setting_exits_2_before_any_sample(tmp_path, capsys, monkeypatch,
                                               setting, problem):
    def campaign_started(*args, **kwargs):
        raise AssertionError("the campaign ran with a bad setting")

    monkeypatch.setattr(cli, "run_campaign", campaign_started)
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(CUSTOM_CONFIG.replace(*setting), encoding="utf-8")
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and problem in err
    assert not out.exists()


@pytest.mark.parametrize("classes,problem", [
    ("smooth_glass, rough_metal", "must include 'none'"),
    ("none", "at least one debris class"),
    ("none, smooth_glass, smooth_glass", "repeat"),
], ids=["no_none", "none_only", "repeated"])
def test_bad_class_list_exits_2(tmp_path, capsys, classes, problem):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(CUSTOM_CONFIG.replace(
        "classes = none, smooth_glass, rough_metal", f"classes = {classes}"),
        encoding="utf-8")
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and problem in err
    assert not out.exists()


PLASTIC_MATERIAL = """
[plastic]
n = 20e9:1.5, 6e12:1.5
alpha_per_m = 20e9:50.0, 6e12:50.0
roughness_sigma_m = 20e-6
correlation_length_m = 500e-6
facet_lx_m = 0.15
facet_ly_m = 0.15
"""

PLASTIC_ROWS = """k_factor_db_plastic = 9, 10, 12, 12

[interactions]
plastic_reflection = 0.05, 0.10, 0.40, 0.60
plastic_scattering = 0.30, 0.40, 0.70, 0.90
plastic_diffraction = 0.15, 0.18, 0.45, 0.60

[materials]
file = mats.ini
"""


def test_config_defined_debris_class_runs(tmp_path):
    # a third material with its K-factor and interaction rows is a class
    (tmp_path / "mats.ini").write_text(DEFAULT_MATERIALS_TEXT + PLASTIC_MATERIAL,
                                       encoding="utf-8")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(CUSTOM_CONFIG.replace("rough_metal", "rough_metal, plastic")
                        .replace("samples_per_condition = 12",
                                 "samples_per_condition = 16")
                        + PLASTIC_ROWS, encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--seed", "2",
                 "--out", str(out)]) == 0
    rows = next(out.glob("samples_*.csv")).read_text().splitlines()[1:]
    labels = [row.split(",")[2] for row in rows]
    assert labels.count("plastic") == 4
    assert set(labels) == {"none", "smooth_glass", "rough_metal", "plastic"}


@pytest.mark.parametrize("setting,problem", [
    (("[rough_metal]", "[rough_metal]\nfacet_lz_m = 9"), "facet_lz_m"),
    (("[smooth", "[DEFAULT]\nfacet_ly_m = 0.15\n[smooth"), "DEFAULT"),
    (("roughness_sigma_m = 5e-6", "roughness_sigma_m = nan"), "roughness sigma"),
    (("alpha_per_m = 20e9:200.0, 6e12:200.0", "alpha_per_m = 20e9:-2000, 6e12:-2000"),
     "'smooth_glass': alpha_per_m must be >= 0"),
    (("n = 20e9:1.95, 6e12:1.95", "n = -20e9:1.95, 6e12:1.95"),
     "'smooth_glass': n breakpoints"),
    (("n = 20e9:1.95", "n = 20e9:1.95%"), "'smooth_glass': cannot parse n entry"),
    (("file = mats.ini", "file = missing.ini"), "missing.ini"),
], ids=["unknown_key", "default_section", "nan_value", "negative_absorption",
        "negative_breakpoint", "percent_value", "missing_file"])
def test_bad_material_file_exits_2(tmp_path, capsys, setting, problem):
    (tmp_path / "mats.ini").write_text(
        DEFAULT_MATERIALS_TEXT.replace(*setting), encoding="utf-8")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text((CUSTOM_CONFIG + "\n[materials]\nfile = mats.ini\n")
                        .replace(*setting), encoding="utf-8")
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and problem in err
    assert not out.exists()


def _samples_lines():
    """A header and 30 rows of random features, alternating two labels."""
    rng = np.random.default_rng(0)
    lines = ["label,f_mean,f_var,f_max,f_min,f_skew"]
    for i in range(30):
        label = "none" if i % 2 else "smooth_glass"
        lines.append(",".join([label, *(f"{v:.6f}" for v in rng.normal(size=5))]))
    return lines


@pytest.mark.parametrize("flags", [["--gamma", "0"], ["--gamma", "-1"],
                                   ["--gamma", "nan"], ["--c", "0"],
                                   ["--c", "nan"]],
                         ids=["gamma_zero", "gamma_negative", "gamma_nan",
                              "c_zero", "c_nan"])
def test_bad_train_setting_exits_2(tmp_path, capsys, flags):
    data = tmp_path / "samples.csv"
    data.write_text("\n".join(_samples_lines()) + "\n", encoding="utf-8")
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--model", str(model_path),
                 *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize("flags", [["--samples", "0"],
                                   ["--samples", "6", "--threads", "0"],
                                   ["--samples", "6", "--threads", "-4"]])
def test_bad_reproduce_counts_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert main(["reproduce", "--table", "2", "--out", str(out), *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_infeasible_split_exits_2_before_any_sample(tmp_path, capsys,
                                                   monkeypatch, threads):
    # 6 samples over three classes give 2 rows per class, and a 0.9 split
    # of 2 rows trains on both: the config is refused before any sample is
    # drawn, at any thread count, and the error names the class
    def sample_drawn(*args, **kwargs):
        raise AssertionError("a sample was drawn for a campaign that cannot be split")

    monkeypatch.setattr(experiments, "run_condition", sample_drawn)
    cfg_path = tmp_path / "campaign.ini"
    cfg_path.write_text(CUSTOM_CONFIG.replace(
        "samples_per_condition = 12", "samples_per_condition = 6")
        + "\n[svm]\ntrain_fraction = 0.9\n", encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "class 'none' has 2 rows" in err
    assert not out.exists()


BAD_SAMPLES_ROWS = {"short_row": "smooth_glass,0.1,0.2,0.3",
                    "non_numeric": "smooth_glass,0.1,0.2,abc,0.4,0.5",
                    "nan_feature": "none,0.1,nan,0.3,0.4,0.5"}


@pytest.mark.parametrize("problem", list(BAD_SAMPLES_ROWS))
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_bad_samples_row_exits_2(tmp_path, capsys, command, problem):
    # a malformed row is a config error naming its file and line, in both
    # commands that read a samples file; line 6 is the fifth row
    good = tmp_path / "good.csv"
    good.write_text("\n".join(_samples_lines()) + "\n", encoding="utf-8")
    model_path = tmp_path / "det.json"
    assert main(["train", "--binary", "--data", str(good),
                 "--model", str(model_path)]) == 0
    lines = _samples_lines()
    lines.insert(5, BAD_SAMPLES_ROWS[problem])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_model = model_path if command == "evaluate" else tmp_path / "new.json"
    capsys.readouterr()
    assert main([command, "--data", str(bad), "--model", str(out_model)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{bad} line 6" in err
    assert not (tmp_path / "new.json").exists()


def test_incomplete_model_file_exits_3(tmp_path, capsys):
    data = tmp_path / "samples.csv"
    data.write_text("\n".join(_samples_lines()) + "\n", encoding="utf-8")
    model_path = tmp_path / "m.json"
    model_path.write_text('{"format_version": 1, "kind": "binary"}\n',
                          encoding="utf-8")
    assert main(["evaluate", "--data", str(data), "--model", str(model_path)]) == 3
    assert "'kernel'" in capsys.readouterr().err


@pytest.mark.parametrize("text,field", [
    ("[]", "file"),
    ('{"format_version": 1, "kind": "binary", "kernel": 5}', "'kernel'"),
], ids=["top_level_list", "kernel_number"])
def test_model_file_of_wrong_shape_exits_3(tmp_path, capsys, text, field):
    # a model file whose top level or kernel is not an object is named, not
    # a traceback
    data = tmp_path / "samples.csv"
    data.write_text("\n".join(_samples_lines()) + "\n", encoding="utf-8")
    model_path = tmp_path / "m.json"
    model_path.write_text(text + "\n", encoding="utf-8")
    assert main(["evaluate", "--data", str(data), "--model", str(model_path)]) == 3
    assert f"model {field} is not a JSON object" in capsys.readouterr().err


def test_missing_data_file_exits_3(tmp_path, capsys):
    assert main(["evaluate", "--data", str(tmp_path / "nope.csv"),
                 "--model", str(tmp_path / "nope.json")]) == 3


def test_unknown_table_rejected_by_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--table", "9", "--out", "x"])
    assert exc.value.code == 2
