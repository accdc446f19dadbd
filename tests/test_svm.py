"""SMO solver tests against the exhaustive dual oracle and KKT audits."""

import numpy as np
import pytest

from debrisense.errors import TrainingError
from debrisense.svm import (BinarySvm, DEFAULT_TOL, KernelSpec, _smo_solve,
                            train_binary, train_multiclass)

from qp_oracle import dual_objective, solve_dual_exhaustive, xor_dataset
from smo_reference import smo_solve_scalar


def random_instance(seed, n=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2)) + rng.choice([-1.0, 1.0], size=(n, 1))
    y = rng.choice([-1.0, 1.0], size=n)
    if len(set(y.tolist())) < 2:
        y[0] = -y[0]
    return x, y


def blobs(seed=0, n_per=20, sep=6.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, 2)) + [sep / 2, 0.0]
    b = rng.normal(size=(n_per, 2)) - [sep / 2, 0.0]
    x = np.vstack([a, b])
    y = np.array([1.0] * n_per + [-1.0] * n_per)
    return x, y


class TestOracleItself:
    def test_two_orthogonal_points_analytic(self):
        # K = I, opposite labels: alpha1 = alpha2 = t, W = 2t - t^2 -> W*=1
        k = np.eye(2)
        obj, alpha = solve_dual_exhaustive(k, np.array([1.0, -1.0]), c=10.0)
        assert obj == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(alpha, [1.0, 1.0], atol=1e-9)

    def test_box_bound_active(self):
        k = np.eye(2)
        obj, alpha = solve_dual_exhaustive(k, np.array([1.0, -1.0]), c=0.25)
        # equality forces alpha1=alpha2, capped at C
        assert np.allclose(alpha, [0.25, 0.25], atol=1e-9)
        assert obj == pytest.approx(2 * 0.25 - 0.25 ** 2, abs=1e-9)


class TestSmoAgainstOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_match_dual_optimum(self, seed):
        x, y = random_instance(seed, n=8)
        kernel = KernelSpec(kind="rbf", gamma=0.7)
        c = 1.0
        model = train_binary(x, y, kernel, c)
        k = kernel.matrix(x, x)
        oracle_obj, _ = solve_dual_exhaustive(k, y, c)
        got = model.dual_objective()
        assert got == pytest.approx(oracle_obj, rel=1e-3, abs=1e-6)

    def test_xor_matches_dual_optimum(self):
        x, y = xor_dataset()
        kernel = KernelSpec(kind="rbf", gamma=1.5)
        model = train_binary(x, y, kernel, c=5.0)
        k = kernel.matrix(x, x)
        oracle_obj, _ = solve_dual_exhaustive(k, y, 5.0)
        assert model.dual_objective() == pytest.approx(oracle_obj, rel=1e-3)


class TestTraining:
    def test_separable_blobs_perfect_training_accuracy(self):
        x, y = blobs(seed=1, sep=8.0)
        model = train_binary(x, y, KernelSpec(kind="linear"), c=1.0)
        pred = np.sign(model.decision(x))
        assert np.array_equal(pred, y)

    def test_xor_rbf_perfect_training_accuracy(self):
        x, y = xor_dataset()
        model = train_binary(x, y, KernelSpec(kind="rbf", gamma=1.5), c=5.0)
        assert np.array_equal(np.sign(model.decision(x)), y)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_kkt_conditions_hold(self, seed):
        x, y = random_instance(seed, n=12)
        model = train_binary(x, y, KernelSpec(kind="rbf", gamma=0.5), c=1.0)
        assert model.kkt_violation() <= model.tol + 1e-9
        assert model.equality_residual() <= 1e-6
        assert np.all(model.alpha >= 0.0)
        assert np.all(model.alpha <= model.c * (1 + 1e-12))

    def test_row_permutation_leaves_decisions_unchanged(self):
        x, y = blobs(seed=2, sep=3.0, n_per=15)
        probe = np.random.default_rng(9).normal(size=(25, 2))
        kernel = KernelSpec(kind="rbf", gamma=0.8)
        base = train_binary(x, y, kernel, c=1.0).decision(probe)
        rng = np.random.default_rng(4)
        for _ in range(3):
            perm = rng.permutation(len(y))
            shuffled = train_binary(x[perm], y[perm], kernel, c=1.0).decision(probe)
            assert np.max(np.abs(shuffled - base)) <= 1e-6

    def test_training_is_deterministic(self):
        x, y = random_instance(5, n=10)
        kernel = KernelSpec(kind="rbf", gamma=0.5)
        a = train_binary(x, y, kernel, c=1.0)
        b = train_binary(x, y, kernel, c=1.0)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(TrainingError):
            train_binary(x, np.ones(4), KernelSpec(kind="linear"), c=1.0)

    def test_nonpositive_c_rejected(self):
        x, y = random_instance(0)
        with pytest.raises(TrainingError):
            train_binary(x, y, KernelSpec(kind="linear"), c=0.0)


def screen_instance(case, n, seed):
    """Features and labels that steer the partner screen into one corner."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rng.shuffle(y)
    if case == "duplicated":
        half = n // 2
        x[half:2 * half] = x[:half]
        y[half:2 * half] = y[:half]
    elif case == "opposite_duplicates":
        # each duplicated pair has eta == 0 and opposite labels
        x[1::2] = x[0::2][:n // 2]
        y[1::2] = -y[0::2][:n // 2]
    elif case == "identical":
        x[:] = x[0]
    return x, y


class TestPartnerScreen:
    """The vectorized partner screen against the scalar partner loop."""

    @pytest.mark.parametrize("case", ["random", "duplicated",
                                      "opposite_duplicates", "identical"])
    @pytest.mark.parametrize("n", [2, 5, 40, 170])
    @pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("kernel", [KernelSpec(kind="rbf", gamma=0.3),
                                        KernelSpec(kind="linear")],
                             ids=["rbf", "linear"])
    def test_bit_identical_to_scalar_loop(self, kernel, c, n, case):
        x, y = screen_instance(case, n, seed=n)
        k = kernel.matrix(x, x)
        alpha, b, steps, converged = _smo_solve(k, y, c, DEFAULT_TOL, 5000)
        ref_alpha, ref_b, ref_steps, ref_converged = smo_solve_scalar(
            k, y, c, DEFAULT_TOL, 5000)
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert np.float64(b).tobytes() == np.float64(ref_b).tobytes()
        assert (steps, converged) == (ref_steps, ref_converged)


class TestSmoExits:
    def test_update_cap_raises_with_diagnostics(self):
        x, y = blobs(seed=3, sep=2.0)
        with pytest.raises(TrainingError) as info:
            train_binary(x, y, KernelSpec(kind="rbf", gamma=0.5), c=1.0,
                         max_passes=1)
        diag = info.value.diagnostics
        assert diag["steps"] == 1
        assert isinstance(diag["best_model"], BinarySvm)
        assert np.isfinite(diag["dual_objective"])

    @pytest.mark.parametrize("kernel", [KernelSpec(kind="rbf", gamma=0.3),
                                        KernelSpec(kind="linear")],
                             ids=["rbf", "linear"])
    def test_no_admissible_pair_returns_converged(self, kernel):
        # identical rows: eta == 0 for every pair, so no step is possible
        x, y = screen_instance("identical", 6, seed=0)
        alpha, b, steps, converged = _smo_solve(
            kernel.matrix(x, x), y, 1.0, DEFAULT_TOL, 100)
        assert converged is True
        assert steps == 0
        assert not np.any(alpha)
        assert b == 0.0


class TestMulticlass:
    def test_three_blob_voting(self):
        rng = np.random.default_rng(0)
        centers = {"a": (0, 0), "b": (8, 0), "c": (0, 8)}
        xs, labels = [], []
        for name, ctr in centers.items():
            xs.append(rng.normal(size=(15, 2)) + ctr)
            labels += [name] * 15
        x = np.vstack(xs)
        model = train_multiclass(x, labels, ("a", "b", "c"),
                                 KernelSpec(kind="rbf", gamma=0.3), c=1.0)
        pred = model.predict(x)
        acc = np.mean([p == t for p, t in zip(pred, labels)])
        assert acc == 1.0

    def test_missing_pair_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(TrainingError):
            train_multiclass(x, ["a"] * 4, ("a", "b"),
                             KernelSpec(kind="linear"), c=1.0)
