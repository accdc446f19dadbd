"""CSI-magnitude features and the models of the two-stage detection pipeline.

The sensing chain mirrors the on-board processing flow: estimate CSI,
reduce it to five magnitude statistics, standardize, run a binary
debris-presence machine and, on a positive, a multi-class type machine
(campaigns run the two stages in ``experiments.evaluate_condition``).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError
from .svm import (BinarySvm, KernelSpec, MultiClassSvm, _binary_from_dict,
                  _binary_to_dict, resolve_gamma, train_binary,
                  train_multiclass, FORMAT_VERSION, DEFAULT_TOL)


FEATURE_NAMES = ("mean", "variance", "maximum", "minimum", "skewness")


@dataclass(frozen=True)
class FeatureVector:
    """The five pooled statistics of the CSI magnitude."""

    mean: float
    variance: float
    maximum: float
    minimum: float
    skewness: float

    def as_array(self) -> np.ndarray:
        return np.array([self.mean, self.variance, self.maximum,
                         self.minimum, self.skewness])


def extract_features(csi) -> FeatureVector:
    """Population moments of |CSI| over all entries of the (stacked) matrix.

    Skewness is m3 / m2^1.5 with population moments; constant input maps
    to skewness 0 by convention.
    """
    mags = np.abs(np.asarray(csi)).ravel()
    if mags.size < 2:
        raise ValueError(f"need at least 2 CSI entries, got {mags.size}")
    if not np.all(np.isfinite(mags)):
        raise ValueError("CSI contains non-finite entries")
    mx = float(np.max(mags))
    mn = float(np.min(mags))
    # constant input can still leave the accumulated mean an ulp outside
    # [min, max] and m2 at rounding-noise level; clamp and zero the skew
    mu = min(max(float(np.mean(mags)), mn), mx)
    dev = mags - mu
    m2 = float(np.mean(dev * dev))
    m3 = float(np.mean(dev * dev * dev))
    constant = m2 <= (1e-14 * mu) ** 2
    skew = 0.0 if constant else m3 / m2 ** 1.5
    return FeatureVector(mean=mu, variance=m2, maximum=mx, minimum=mn,
                         skewness=skew)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature centring/scaling learned from a training split.

    Zero-variance features are dropped (recorded in ``kept``) with a
    warning; the transform then projects onto the retained columns.
    """

    mean: np.ndarray
    std: np.ndarray
    kept: tuple[int, ...]

    def transform(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != len(self.mean):
            raise ValueError(
                f"feature count {features.shape[1]} does not match scaler "
                f"({len(self.mean)})")
        z = (features - self.mean) / self.std
        return z[:, list(self.kept)]


def fit_standardizer(features: np.ndarray) -> StandardizationParams:
    """Fit per-feature mean/std; requires at least two rows."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] < 2:
        raise TrainingError("standardization needs at least 2 training rows")
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    kept = tuple(int(i) for i in range(features.shape[1]) if std[i] > 0.0)
    if not kept:
        raise TrainingError("every feature column has zero variance")
    if len(kept) < features.shape[1]:
        dropped = sorted(set(range(features.shape[1])) - set(kept))
        warnings.warn(f"dropping zero-variance feature columns {dropped}")
    std_safe = np.where(std > 0.0, std, 1.0)
    return StandardizationParams(mean=mean, std=std_safe, kept=kept)


def apply_standardizer(params: StandardizationParams, fv) -> np.ndarray:
    """Standardize one FeatureVector (or raw row) to the model's feature space."""
    row = fv.as_array() if isinstance(fv, FeatureVector) else np.asarray(fv)
    return params.transform(row.reshape(1, -1))[0]


# ---------------------------------------------------------------------------
# Labeled dataset + trained model container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with string labels, class order fixed by ``classes``."""

    features: np.ndarray
    labels: tuple[str, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.features):
            raise ValueError("labels/features length mismatch")
        if not np.all(np.isfinite(self.features)):
            raise TrainingError("dataset contains non-finite features")
        unknown = set(self.labels) - set(self.classes)
        if unknown:
            raise TrainingError(f"labels outside the class list: {sorted(unknown)}")


@dataclass
class SvmModel:
    """A trained kernel machine bundled with its feature scaler."""

    kind: str  # "binary" | "multiclass"
    kernel: KernelSpec
    c: float
    tol: float
    classes: tuple[str, ...]
    scaler: StandardizationParams
    binary: BinarySvm | None = None
    positive_class: str | None = None  # binary only: label of decision >= 0
    multi: MultiClassSvm | None = None

    def decision_value(self, fv) -> float:
        if self.kind != "binary":
            raise ValueError("decision_value applies to binary models")
        z = apply_standardizer(self.scaler, fv)
        return float(self.binary.decision(z.reshape(1, -1))[0])

    def predict(self, fv) -> str:
        z = apply_standardizer(self.scaler, fv).reshape(1, -1)
        if self.kind == "binary":
            d = float(self.binary.decision(z)[0])
            negative = [c for c in self.classes if c != self.positive_class][0]
            return self.positive_class if d >= 0.0 else negative
        return self.multi.predict(z)[0]


def svm_train(dataset: LabeledDataset, kernel: str = "rbf", c: float = 1.0,
              tol: float = DEFAULT_TOL, gamma: float | None = None,
              positive_class: str | None = None) -> SvmModel:
    """Standardize the training features and fit the kernel machine(s).

    Two classes yield a single binary machine (``positive_class`` picks
    the label mapped to decision >= 0; defaults to the later class in the
    fixed order).  Three or more classes train one-vs-one.
    """
    present = [cls for cls in dataset.classes if cls in set(dataset.labels)]
    if len(present) < 2:
        raise TrainingError(f"need >= 2 classes to train, got {present}")
    scaler = fit_standardizer(dataset.features)
    z = scaler.transform(dataset.features)
    spec = KernelSpec(kind=kernel, gamma=resolve_gamma(kernel, gamma, z))
    if len(present) == 2:
        if positive_class is None:
            positive_class = present[1]
        if positive_class not in present:
            raise TrainingError(f"positive class {positive_class!r} absent")
        y = np.where(np.asarray(dataset.labels) == positive_class, 1.0, -1.0)
        machine = train_binary(z, y, spec, c, tol)
        return SvmModel(kind="binary", kernel=spec, c=c, tol=tol,
                        classes=tuple(present), scaler=scaler, binary=machine,
                        positive_class=positive_class)
    multi = train_multiclass(z, dataset.labels, present, spec, c, tol)
    return SvmModel(kind="multiclass", kernel=spec, c=c, tol=tol,
                    classes=tuple(present), scaler=scaler, multi=multi)


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

def model_to_json(model: SvmModel) -> str:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "kernel": {"kind": model.kernel.kind, "gamma": model.kernel.gamma},
        "c": model.c,
        "tol": model.tol,
        "classes": list(model.classes),
        "scaler": {"mean": model.scaler.mean.tolist(),
                   "std": model.scaler.std.tolist(),
                   "kept": list(model.scaler.kept)},
    }
    if model.kind == "binary":
        payload["positive_class"] = model.positive_class
        payload["machine"] = _binary_to_dict(model.binary)
    else:
        payload["machines"] = [
            {"pair": list(pair), **_binary_to_dict(svm)}
            for pair, svm in sorted(model.multi.machines.items())
        ]
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> SvmModel:
    d = json.loads(text)
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {d.get('format_version')!r}")
    spec = KernelSpec(kind=d["kernel"]["kind"], gamma=d["kernel"]["gamma"])
    scaler = StandardizationParams(mean=np.asarray(d["scaler"]["mean"]),
                                   std=np.asarray(d["scaler"]["std"]),
                                   kept=tuple(d["scaler"]["kept"]))
    c, tol = d["c"], d["tol"]
    classes = tuple(d["classes"])
    if d["kind"] == "binary":
        return SvmModel(kind="binary", kernel=spec, c=c, tol=tol, classes=classes,
                        scaler=scaler,
                        binary=_binary_from_dict(d["machine"], spec, c, tol),
                        positive_class=d["positive_class"])
    machines = {}
    for item in d["machines"]:
        pair = tuple(item["pair"])
        machines[pair] = _binary_from_dict(item, spec, c, tol)
    return SvmModel(kind="multiclass", kernel=spec, c=c, tol=tol, classes=classes,
                    scaler=scaler,
                    multi=MultiClassSvm(classes=classes, machines=machines))


def save_model(model: SvmModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model) + "\n")


def load_model(path) -> SvmModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
