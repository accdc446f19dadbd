"""A config that parses, runs.

Property test over config files: whatever values a file holds, either
``parse_config`` refuses it, or ``check_splits`` refuses its campaign before
any sample, or every scene family simulates and every evaluation group can
be split.  Repeated values, NaN and +-inf are drawn on purpose.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debrisense.configio import CAMPAIGN_KINDS, parse_config
from debrisense.errors import ConfigError
from debrisense.experiments import (balanced_partition, check_splits,
                                    enumerate_conditions, run_condition,
                                    scene_families, stratified_split)


def pick(valid, invalid):
    """A value from ``valid``, or about one time in ten from ``invalid``."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(invalid if i == 7 else valid))


CONFIG = """
[campaign]
kind = {kind}
frequencies_hz = {frequencies}
snr_db = {snr}
mimo = {mimo}
densities_per_km3 = {densities}
samples_per_condition = {samples}

[channel]
n_subbands = {n_subbands}
bandwidth_hz = {bandwidth}
k_factor_frequencies_hz = {k_frequencies}
k_factor_db_smooth_glass = {k_row}

[interactions]
frequencies_hz = {interaction_frequencies}
rough_metal_scattering = {interaction_row}

[svm]
train_fraction = {train_fraction}
"""

DEFAULTS = dict(kind="frequency_snr", frequencies="30e9", snr="15", mimo="4",
                densities="1e-6", samples="6", n_subbands="8",
                bandwidth="1e10", k_frequencies="30e9, 300e9, 3e12, 5e12",
                k_row="11.5, 13, 21, 21",
                interaction_frequencies="30e9, 300e9, 3e12, 5e12",
                interaction_row="0.35, 0.45, 0.85, 0.95", train_fraction="0.5")


def probe(**changes):
    """An ``@example`` of the reference-like config with ``changes``."""
    return example(**{**DEFAULTS, **changes})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(CAMPAIGN_KINDS)),
       frequencies=pick(["30e9", "3e12", "30e9, 5e12", "300e9, 3e12"],
                        ["3e12, 3e12", "20e9", "6e12", "nan", "30e9, inf"]),
       snr=pick(["15", "5", "-5, 40", "5, 15"], ["5, 5", "nan", "inf", "-inf, 5"]),
       mimo=pick(["4", "2", "1", "2, 4"], ["4, 4", "0", "-4"]),
       densities=pick(["1e-6", "0", "1e-7, 5e-6"],
                      ["1e-6, 1e-6", "-1e-6", "nan", "inf"]),
       samples=pick(["6", "5", "9", "12"], ["2"]),
       n_subbands=pick(["8", "1", "2"], ["0"]),
       bandwidth=pick(["1e10", "0", "1e9"], ["4e10", "1e11", "nan", "inf", "-1e9"]),
       k_frequencies=pick(["30e9, 300e9, 3e12, 5e12"],
                          ["30e9, nan, 3e12, 5e12", "30e9, 3e12, 300e9, 5e12",
                           "0, 300e9, 3e12, 5e12"]),
       k_row=pick(["11.5, 13, 21, 21", "10, 10, 10, 10", "-3, 0, 5, 30"],
                  ["nan, 13, 21, 21", "inf, 13, 21, 21", "11.5, 13, 21"]),
       interaction_frequencies=pick(["30e9, 300e9, 3e12, 5e12"],
                                    ["30e9, 300e9, nan, 5e12",
                                     "30e9, 300e9, inf, 5e12"]),
       interaction_row=pick(["0.35, 0.45, 0.85, 0.95", "0, 0, 0, 0", "1, 1, 1, 1"],
                            ["0.1, 0.2, 0.3, 1.5", "0.1, nan, 0.3, 0.4"]),
       train_fraction=pick(["0.5", "0.3", "0.7", "0.9"], ["0", "1.5", "nan"]))
@probe(k_row="nan, 13, 21, 21")
@probe(k_row="inf, 13, 21, 21")
@probe(k_frequencies="30e9, nan, 3e12, 5e12")
@probe(interaction_frequencies="30e9, 300e9, nan, 5e12",
       frequencies="30e9, 300e9, 3e12, 5e12")
@probe(snr="5, 5", samples="12")
@probe(frequencies="3e12, 3e12")
@probe(snr="nan")
@probe(mimo="4, 16")
@probe(kind="mimo_frequency", mimo="4, 16", snr="15, 20")
@probe(kind="density_frequency", densities="1e-6, 1e-7", snr="15, 20")
@probe(kind="trend", mimo="4, 16", snr="15, 20")
@probe(mimo="1", n_subbands="1")
@probe(bandwidth="1e11")
@probe(bandwidth="4e10")
@probe(train_fraction="0.9")
def test_config_that_parses_runs(**fields):
    try:
        cfg = parse_config(CONFIG.format(**fields))
    except ConfigError:
        return
    conditions, groups = enumerate_conditions(cfg)
    try:
        check_splits(conditions, groups, cfg.svm.train_fraction)
    except ConfigError:
        return
    # each condition and group is one set of outputs, under its own id
    assert len({c.condition_id for c in conditions}) == len(conditions)
    assert len({g.group_id for g in groups}) == len(groups)
    for family in scene_families(conditions):
        last = family[0].samples - 1  # a debris sample, unless all are none
        records = run_condition(family, cfg, 1, block=range(last, last + 1))
        assert len(records) == len(family)
    by_id = {c.condition_id: c for c in conditions}
    for group in groups:
        labels = [label for cid in group.condition_ids
                  for label, n in balanced_partition(
                      by_id[cid].samples, by_id[cid].labels).items()
                  for _ in range(n)]
        stratified_split(labels, cfg.svm.train_fraction,
                         np.random.default_rng(0))
