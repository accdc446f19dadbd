"""CSI-magnitude features, the models of the two-stage detection pipeline
and their model file.

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

from .configio import SvmSettings
from .errors import TrainingError
from .svm import (BinarySvm, KernelSpec, MultiClassSvm, resolve_gamma,
                  train_binary, train_multiclass)


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


def extract_features(csi, out: np.ndarray | None = None) -> FeatureVector:
    """Population moments of |CSI| over all entries of the (stacked) matrix.

    Skewness is m3 / m2^1.5 with population moments; constant input maps
    to skewness 0 by convention.  ``out``, a float array of the CSI's
    shape, receives |CSI| if given.
    """
    mags = np.abs(np.asarray(csi), out=out).ravel()
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
    """A trained kernel machine bundled with its feature scaler.

    A two-class model holds one binary machine, positive (decision >= 0)
    for its later class; three or more classes vote one-vs-one.  The
    kernel, C and tolerance live on the machines.
    """

    kind: str  # "binary" | "multiclass"
    classes: tuple[str, ...]
    scaler: StandardizationParams
    binary: BinarySvm | None = None
    multi: MultiClassSvm | None = None

    def decision_value(self, rows):
        """The binary machine's decision on raw feature rows: a float for one
        row (1-D), an array for a batch of rows (2-D).  A row's value is
        the same bits alone or in any batch."""
        if self.kind != "binary":
            raise ValueError("decision_value applies to binary models")
        values = self.binary.decision(self.scaler.transform(rows))
        return float(values[0]) if np.ndim(rows) == 1 else values

    def predict(self, rows):
        """The class of one raw feature row (1-D), or a list of the classes
        of a batch of rows (2-D)."""
        z = self.scaler.transform(rows)
        if self.kind == "binary":
            labels = [self.classes[int(v >= 0.0)] for v in self.binary.decision(z)]
        else:
            labels = self.multi.predict(z)
        return labels[0] if np.ndim(rows) == 1 else labels


def svm_train(dataset: LabeledDataset, settings: SvmSettings = SvmSettings()) -> SvmModel:
    """Standardize the training features and fit the kernel machine(s).

    Two present classes yield a single binary machine, positive for the
    later one in ``dataset.classes`` order; three or more train one-vs-one.
    """
    present = [cls for cls in dataset.classes if cls in set(dataset.labels)]
    if len(present) < 2:
        raise TrainingError(f"need >= 2 classes to train, got {present}")
    scaler = fit_standardizer(dataset.features)
    z = scaler.transform(dataset.features)
    spec = KernelSpec(kind=settings.kernel,
                      gamma=resolve_gamma(settings.kernel, settings.gamma, z))
    if len(present) == 2:
        y = np.where(np.asarray(dataset.labels) == present[1], 1.0, -1.0)
        machine = train_binary(z, y, spec, settings.c, settings.tol)
        return SvmModel(kind="binary", classes=tuple(present), scaler=scaler,
                        binary=machine)
    multi = train_multiclass(z, dataset.labels, present, spec, settings.c, settings.tol)
    return SvmModel(kind="multiclass", classes=tuple(present), scaler=scaler,
                    multi=multi)


# ---------------------------------------------------------------------------
# Model file (versioned JSON text)
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def _machine_to_dict(svm: BinarySvm) -> dict:
    return {
        "support_x": svm.support_x.tolist(),
        "support_y": svm.support_y.tolist(),
        "alpha": svm.alpha.tolist(),
        "bias": svm.bias,
    }


def model_to_json(model: SvmModel) -> str:
    """The model as JSON text; the machines share one kernel, C and
    tolerance, written once at the top level."""
    shared = (model.binary if model.kind == "binary"
              else next(iter(model.multi.machines.values())))
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "kernel": {"kind": shared.kernel.kind, "gamma": shared.kernel.gamma},
        "c": shared.c,
        "tol": shared.tol,
        "classes": list(model.classes),
        "scaler": {"mean": model.scaler.mean.tolist(),
                   "std": model.scaler.std.tolist(),
                   "kept": list(model.scaler.kept)},
    }
    if model.kind == "binary":
        payload["positive_class"] = model.classes[-1]
        payload["machine"] = _machine_to_dict(model.binary)
    else:
        payload["machines"] = [{"pair": list(pair), **_machine_to_dict(svm)}
                               for pair, svm in sorted(model.multi.machines.items())]
    return json.dumps(payload, sort_keys=True)


def _json_object(value, field: str) -> dict:
    """``value``, which the model file's ``field`` must hold as an object."""
    if not isinstance(value, dict):
        raise ValueError(f"model {field} is not a JSON object")
    return value


def model_from_json(text: str) -> SvmModel:
    """The model that ``model_to_json`` wrote.  ValueError names an
    unsupported format version, a key the model needs and lacks, or the
    top level, ``kernel`` or ``scaler`` when it is not an object."""
    d = _json_object(json.loads(text), "file")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {d.get('format_version')!r}")
    try:
        kernel = _json_object(d["kernel"], "'kernel'")
        spec = KernelSpec(kind=kernel["kind"], gamma=kernel["gamma"])
        scaler_fields = _json_object(d["scaler"], "'scaler'")
        scaler = StandardizationParams(mean=np.asarray(scaler_fields["mean"]),
                                       std=np.asarray(scaler_fields["std"]),
                                       kept=tuple(scaler_fields["kept"]))
        classes = tuple(d["classes"])

        def machine(item: dict) -> BinarySvm:
            return BinarySvm(kernel=spec, c=d["c"], tol=d["tol"],
                             support_x=np.asarray(item["support_x"], dtype=float),
                             support_y=np.asarray(item["support_y"], dtype=float),
                             alpha=np.asarray(item["alpha"], dtype=float),
                             bias=float(item["bias"]))

        if d["kind"] == "binary":
            if d["positive_class"] != classes[-1]:
                raise ValueError(f"binary model positive for {d['positive_class']!r}, "
                                 f"not for its later class {classes[-1]!r}")
            return SvmModel(kind="binary", classes=classes, scaler=scaler,
                            binary=machine(d["machine"]))
        machines = {tuple(item["pair"]): machine(item) for item in d["machines"]}
        return SvmModel(kind="multiclass", classes=classes, scaler=scaler,
                        multi=MultiClassSvm(classes=classes, machines=machines))
    except KeyError as exc:
        raise ValueError(f"model has no {exc.args[0]!r} entry") from None


def save_model(model: SvmModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model) + "\n")


def load_model(path) -> SvmModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
