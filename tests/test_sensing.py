"""Feature extraction, standardization and the SVM models."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from debrisense.errors import TrainingError
from debrisense.experiments import DETECTION_CLASSES, detection_labels
from debrisense.sensing import (FeatureVector, LabeledDataset,
                                StandardizationParams, SvmModel,
                                extract_features, fit_standardizer, load_model,
                                model_from_json, model_to_json, save_model,
                                svm_train)
from debrisense.svm import BinarySvm, KernelSpec


def brute_force_features(csi):
    """Two-pass population moments, independent of the implementation."""
    mags = sorted(abs(z) for z in np.asarray(csi).ravel().tolist())
    n = len(mags)
    mu = sum(mags) / n
    m2 = sum((m - mu) ** 2 for m in mags) / n
    m3 = sum((m - mu) ** 3 for m in mags) / n
    skew = m3 / m2 ** 1.5 if m2 > 0 else 0.0
    return (mu, m2, mags[-1], mags[0], skew)


class TestExtractFeatures:
    def test_constant_complex_input(self):
        csi = np.full((4, 4), 3 + 4j)
        fv = extract_features(csi)
        assert fv == FeatureVector(mean=5.0, variance=0.0, maximum=5.0,
                                   minimum=5.0, skewness=0.0)

    def test_symmetric_magnitudes(self):
        fv = extract_features(np.array([1.0, 2.0, 3.0, 4.0]))
        assert fv.mean == 2.5
        assert fv.variance == 1.25
        assert fv.maximum == 4.0
        assert fv.minimum == 1.0
        assert fv.skewness == pytest.approx(0.0, abs=1e-12)

    def test_skewed_triple(self):
        fv = extract_features(np.array([1.0, 1.0, 4.0]))
        assert fv.mean == 2.0
        assert fv.variance == 2.0
        assert fv.skewness == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            csi = rng.normal(size=(6, 7)) + 1j * rng.normal(size=(6, 7))
            fv = extract_features(csi)
            oracle = brute_force_features(csi)
            for got, want in zip(fv.as_array(), oracle):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_too_few_entries_rejected(self):
        with pytest.raises(ValueError):
            extract_features(np.array([1.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            extract_features(np.array([1.0, float("nan")]))

    @given(arrays(np.float64, (12,), elements=st.floats(0.1, 100)))
    @settings(max_examples=50)
    def test_ordering_invariants(self, mags):
        fv = extract_features(mags.astype(complex))
        assert fv.maximum >= fv.mean >= fv.minimum
        assert fv.variance >= 0.0


class TestStandardizer:
    def test_training_columns_become_standard(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=5.0, scale=3.0, size=(50, 5))
        params = fit_standardizer(x)
        z = params.transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_zero_variance_column_dropped_with_warning(self):
        x = np.random.default_rng(2).normal(size=(20, 3))
        x[:, 1] = 7.0
        with pytest.warns(UserWarning, match="zero-variance"):
            params = fit_standardizer(x)
        assert params.kept == (0, 2)
        assert params.transform(x).shape == (20, 2)

    def test_training_mean_maps_to_origin(self):
        x = np.random.default_rng(3).normal(size=(30, 5))
        params = fit_standardizer(x)
        z = params.transform(x.mean(axis=0))
        assert np.allclose(z, 0.0, atol=1e-10)

    def test_single_row_rejected(self):
        with pytest.raises(TrainingError):
            fit_standardizer(np.ones((1, 5)))

    def test_all_constant_columns_rejected(self):
        with pytest.raises(TrainingError, match="zero variance"):
            fit_standardizer(np.ones((6, 5)))


def toy_dataset(rng, n_per=25, spread=0.5):
    """Well-separated 5-feature clusters for three labels."""
    centers = {"none": 0.0, "smooth_glass": 4.0, "rough_metal": -4.0}
    rows, labels = [], []
    for label, c in centers.items():
        rows.append(rng.normal(loc=c, scale=spread, size=(n_per, 5)))
        labels += [label] * n_per
    return LabeledDataset(features=np.vstack(rows), labels=tuple(labels),
                          classes=("none", "smooth_glass", "rough_metal"))


def detection_dataset(ds):
    """``ds`` relabelled for detection: every debris class becomes debris."""
    return LabeledDataset(features=ds.features, labels=detection_labels(ds.labels),
                          classes=DETECTION_CLASSES)


class TestSvmTrainAndPredict:
    def test_binary_detection_model(self):
        rng = np.random.default_rng(0)
        ds = toy_dataset(rng)
        model = svm_train(detection_dataset(ds))
        assert model.classes == ("none", "debris")
        assert model.predict(ds.features[30]) == "debris"  # a debris row
        assert model.predict(ds.features[0]) == "none"

    def test_zero_decision_counts_as_debris(self):
        # symmetric two-point machine: decision at the midpoint is exactly 0
        machine = BinarySvm(kernel=KernelSpec(kind="linear"), c=1.0,
                            support_x=np.array([[1.0], [-1.0]]),
                            support_y=np.array([1.0, -1.0]),
                            alpha=np.array([0.5, 0.5]), bias=0.0)
        scaler = StandardizationParams(mean=np.zeros(1), std=np.ones(1),
                                       kept=(0,))
        model = SvmModel(kind="binary", classes=("none", "debris"),
                         scaler=scaler, binary=machine)
        assert model.decision_value(np.array([0.0])) == 0.0
        assert model.predict(np.array([0.0])) == "debris"

    def test_multiclass_classify(self):
        rng = np.random.default_rng(4)
        ds = toy_dataset(rng)
        debris_rows = [i for i, l in enumerate(ds.labels) if l != "none"]
        sub = LabeledDataset(
            features=ds.features[debris_rows],
            labels=tuple(ds.labels[i] for i in debris_rows),
            classes=("smooth_glass", "rough_metal"))
        model = svm_train(sub)
        assert model.kind == "binary"
        row = ds.features[debris_rows[0]]
        assert model.predict(row) == ds.labels[debris_rows[0]]

    def test_affine_feature_rescaling_is_invisible(self):
        # scaling a raw feature column consistently on train and test data
        # must not change any predicted label
        rng = np.random.default_rng(5)
        ds = toy_dataset(rng, spread=1.0)
        model_a = svm_train(ds)
        scaled = ds.features.copy()
        scaled[:, 2] = scaled[:, 2] * 37.5 + 4.0
        model_b = svm_train(LabeledDataset(features=scaled, labels=ds.labels,
                                           classes=ds.classes))
        for i in range(0, len(ds.labels), 5):
            pa = model_a.predict(ds.features[i])
            pb = model_b.predict(scaled[i])
            assert pa == pb

    def test_batch_scores_match_single_rows(self):
        # a batch is scored row by row: the same decision values, bit for
        # bit, and the same labels as one row at a time
        rng = np.random.default_rng(7)
        ds = toy_dataset(rng, spread=1.5)
        probe = rng.normal(size=(40, 5))
        binary = svm_train(detection_dataset(ds))
        values = binary.decision_value(probe)
        assert values.tobytes() == np.array(
            [binary.decision_value(row) for row in probe]).tobytes()
        for model in (binary, svm_train(ds)):
            assert model.predict(probe) == [model.predict(row) for row in probe]

    def test_single_class_dataset_rejected(self):
        ds = LabeledDataset(features=np.zeros((4, 5)), labels=("none",) * 4,
                            classes=("none", "debris"))
        with pytest.raises(TrainingError):
            svm_train(ds)


class TestSerialization:
    def test_round_trip_reproduces_decisions(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = toy_dataset(rng, spread=1.5)
        model = svm_train(ds)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = rng.normal(size=(40, 5))
        for row in probe:
            assert loaded.predict(row) == model.predict(row)
        binary = svm_train(detection_dataset(ds))
        loaded_b = model_from_json(model_to_json(binary))
        for row in probe:
            a = binary.decision_value(row)
            b = loaded_b.decision_value(row)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-15)

    def test_model_file_bytes_unchanged(self):
        # SHA-256 of model_to_json for models trained on a fixed toy set; a
        # change here changes the bytes of every saved model file
        ds = toy_dataset(np.random.default_rng(11), spread=1.5)
        rows = [i for i, l in enumerate(ds.labels) if l != "none"]
        two_debris = LabeledDataset(features=ds.features[rows],
                                    labels=tuple(ds.labels[i] for i in rows),
                                    classes=("smooth_glass", "rough_metal"))
        models = {"detection": svm_train(detection_dataset(ds)),
                  "one_vs_one": svm_train(ds),
                  "two_debris": svm_train(two_debris)}
        digests = {name: hashlib.sha256(model_to_json(m).encode()).hexdigest()
                   for name, m in models.items()}
        assert digests == {
            "detection": "511b1b09fb21db8d326401199bfe1242"
                         "c622d34101408cca64601ed6621b2646",
            "one_vs_one": "599afb27711d3d35cdd52ded2670bdfb"
                          "929704b83f9b392665a78d5d6f5e0404",
            "two_debris": "46c471ed07c5614f35e63068092111be"
                          "30c0dae80f44dbc8f426431517e81e63",
        }

    def test_binary_file_positive_for_earlier_class_rejected(self):
        ds = toy_dataset(np.random.default_rng(6))
        payload = json.loads(model_to_json(svm_train(detection_dataset(ds))))
        assert payload["positive_class"] == "debris"
        payload["positive_class"] = "none"
        with pytest.raises(ValueError, match="later class"):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize("key", ["c", "classes", "kernel", "kind", "machine",
                                     "positive_class", "scaler", "tol"])
    def test_missing_key_named(self, key):
        ds = toy_dataset(np.random.default_rng(6))
        payload = json.loads(model_to_json(svm_train(detection_dataset(ds))))
        del payload[key]
        with pytest.raises(ValueError, match=f"no '{key}' entry"):
            model_from_json(json.dumps(payload))

    def test_version_guard(self):
        with pytest.raises(ValueError):
            model_from_json(json.dumps({"format_version": 999}))


def test_feature_vector_array_order_matches_csv_schema():
    fv = FeatureVector(mean=1.0, variance=2.0, maximum=3.0, minimum=4.0,
                       skewness=5.0)
    assert list(fv.as_array()) == [1.0, 2.0, 3.0, 4.0, 5.0]
