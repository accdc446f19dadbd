"""Every config key reaches an output.

A tiny campaign runs once as written and once per key with that key set to
another valid value; every such change must move the SHA-256 of the output
files.  A setting that no output reads fails here.
"""

import hashlib

import pytest

from debrisense.configio import _KEYS, parse_config
from debrisense.experiments import run_campaign, write_campaign_outputs
from debrisense.materials import DEFAULT_MATERIALS_TEXT

BASE = {"campaign": {"kind": "frequency_snr", "frequencies_hz": "3e12",
                     "snr_db": "15", "mimo": "4", "densities_per_km3": "1e-6",
                     "classes": "none, smooth_glass",
                     "samples_per_condition": "6"}}

# (section, key) -> another valid value.  Besides every key of the key table:
# the material file, one interaction row and one K-factor row.  The K-factor
# breakpoints move the value at 3 THz, and the train fraction trains on one
# of the three rows per class, not two.
CHANGED = {
    ("link", "distance_km"): "400",
    ("link", "velocity_km_s"): "6",
    ("scene", "minor_semi_axes_km"): "30, 70",
    ("materials", "file"): "mats.ini",
    ("interactions", "frequencies_hz"): "30e9, 300e9, 5e12, 6e12",
    ("interactions", "smooth_glass_scattering"): "0.35, 0.40, 0.30, 0.90",
    ("channel", "n_subbands"): "4",
    ("channel", "bandwidth_hz"): "20e9",
    ("channel", "spacing"): "0.75",
    ("channel", "polarization"): "tm",
    ("channel", "k_factor_frequencies_hz"): "30e9, 300e9, 4e12, 5e12",
    ("channel", "k_factor_db_smooth_glass"): "11.5, 13, 15, 21",
    ("svm", "kernel"): "linear",
    ("svm", "c"): "10",
    ("svm", "tolerance"): "0.5",
    ("svm", "gamma"): "0.5",
    ("svm", "train_fraction"): "0.4",
    ("campaign", "kind"): "mimo_frequency",
    ("campaign", "frequencies_hz"): "300e9",
    ("campaign", "snr_db"): "5",
    ("campaign", "mimo"): "2",
    ("campaign", "densities_per_km3"): "5e-6",
    ("campaign", "classes"): "none, rough_metal",
    ("campaign", "samples_per_condition"): "8",
}


def outputs_digest(sections: dict, tmp_path) -> str:
    """SHA-256 over the output files of the campaign that ``sections``
    configures, in name order."""
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())
    (tmp_path / "mats.ini").write_text(
        DEFAULT_MATERIALS_TEXT.replace("n = 20e9:1.95, 6e12:1.95",
                                       "n = 20e9:2.5, 6e12:2.5"), encoding="utf-8")
    cfg = parse_config(text, config_dir=tmp_path)
    out = tmp_path / "out"
    write_campaign_outputs(run_campaign(cfg, master_seed=1), cfg, out)
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def base_digest(tmp_path_factory):
    return outputs_digest(BASE, tmp_path_factory.mktemp("base"))


def test_every_key_has_a_changed_value():
    keys = {(name, key) for name, section in _KEYS.items() for key in section}
    assert keys | {("materials", "file"),
                   ("interactions", "smooth_glass_scattering"),
                   ("channel", "k_factor_db_smooth_glass")} == set(CHANGED)


@pytest.mark.parametrize("section,key", sorted(CHANGED),
                         ids=[f"{s}.{k}" for s, k in sorted(CHANGED)])
def test_key_reaches_an_output(tmp_path, base_digest, section, key):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections.setdefault(section, {})[key] = CHANGED[section, key]
    assert outputs_digest(sections, tmp_path) != base_digest
