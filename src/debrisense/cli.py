"""Command-line interface.

Subcommands:
  reproduce  run one of the three headline campaign tables
  simulate   run a campaign described by a config file
  train      fit an SVM from a samples CSV
  evaluate   score a model against a samples CSV
  reference  print the fully commented default configuration

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .configio import NO_DEBRIS_LABEL, SvmSettings, load_config, reference_text
from .errors import ConfigError, DebrisenseError
from .experiments import (DEBRIS_LABEL, FEATURE_COLUMNS, detection_labels,
                          reproduce_table, run_campaign, write_campaign_outputs)
from .sensing import (FeatureVector, LabeledDataset, load_model, save_model,
                      svm_train)
from .svm import KERNEL_KINDS


def _read_samples_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        needed = ("label", *FEATURE_COLUMNS)
        missing = [n for n in needed if n not in idx]
        if missing:
            raise ConfigError(f"samples CSV missing columns {missing}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            rows.append((parts[idx["label"]],
                         [float(parts[idx[k]]) for k in FEATURE_COLUMNS]))
    if not rows:
        raise ConfigError(f"no sample rows in {path}")
    labels = tuple(r[0] for r in rows)
    features = np.array([r[1] for r in rows])
    return features, labels


def _cmd_reproduce(args) -> int:
    reproduce_table(args.table, args.seed, args.out, threads=args.threads,
                    samples=args.samples)
    print(f"table {args.table} written to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    result = run_campaign(cfg, args.seed, threads=args.threads)
    write_campaign_outputs(result, cfg, args.out)
    print(f"campaign '{cfg.campaign.kind}' written to {args.out}")
    return 0


def _cmd_train(args) -> int:
    # ConfigError (exit 2) on a bad kernel, c or gamma, before any data is read
    svm = SvmSettings(kernel=args.kernel, c=args.c, gamma=args.gamma)
    features, labels = _read_samples_csv(args.data)
    if args.binary:
        labels = detection_labels(labels)
        classes = (NO_DEBRIS_LABEL, DEBRIS_LABEL)
    else:
        classes = tuple(sorted(set(labels)))
    # two classes: the later one in ``classes`` (debris, for --binary) is positive
    dataset = LabeledDataset(features=features, labels=labels, classes=classes)
    model = svm_train(dataset, kernel=svm.kernel, c=svm.c, gamma=svm.gamma)
    save_model(model, args.model)
    print(f"trained {model.kind} model on {len(labels)} rows -> {args.model}")
    return 0


def _cmd_evaluate(args) -> int:
    features, labels = _read_samples_csv(args.data)
    model = load_model(args.model)
    if model.kind == "binary" and model.positive_class == DEBRIS_LABEL:
        labels = detection_labels(labels)
    hits = 0
    confusion: dict = {}
    for row, truth in zip(features, labels):
        fv = FeatureVector(*row)
        pred = model.predict(fv)
        hits += int(pred == truth)
        confusion.setdefault(truth, {}).setdefault(pred, 0)
        confusion[truth][pred] += 1
    acc = hits / len(labels)
    print(f"accuracy: {acc:.4f} ({hits}/{len(labels)})")
    for truth in sorted(confusion):
        row = ", ".join(f"{p}={n}" for p, n in sorted(confusion[truth].items()))
        print(f"  true {truth}: {row}")
    return 0


def _cmd_reference(args) -> int:
    sys.stdout.write(reference_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debrisense",
        description="THz inter-satellite link and debris-sensing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run a headline campaign table")
    p.add_argument("--table", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--samples", type=int, default=None,
                   help="override samples per condition (default 200)")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("simulate", help="run a campaign from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train an SVM from a samples CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="rbf")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--binary", action="store_true",
                   help="collapse debris classes into one detection label")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a model against a samples CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("reference", help="print the default config reference")
    p.set_defaults(func=_cmd_reference)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DebrisenseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
