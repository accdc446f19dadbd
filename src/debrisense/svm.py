"""Kernel SVM trained from scratch with sequential minimal optimization.

The binary solver uses working-set selection by maximal KKT violation
with a second-choice heuristic on the error cache.  Partners are ranked
by |E_i - E_j|, and one vectorized pass over all of them computes eta,
the box [lo, hi], the clipped step and the tiny-step test; the first
admissible partner in rank order takes the step.  This is the same
partner, with the same arithmetic, as a walk over the ranking that stops
at the first partner admitting progress.  After SMO converges
to tolerance, the free-set KKT system is solved exactly (a "polish" step)
so the returned model is effectively at the dual optimum; this makes
training insensitive to row order well below the stated tolerance.

Multi-class problems use one-vs-one voting with ties broken by summed
decision values, then by fixed class order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 100_000


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    kind: str  # "linear" | "rbf"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {self.kind!r}")

    def matrix(self, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return xa @ xb.T
        sq = (np.sum(xa * xa, axis=1)[:, None]
              + np.sum(xb * xb, axis=1)[None, :]
              - 2.0 * (xa @ xb.T))
        return np.exp(-self.gamma * np.maximum(sq, 0.0))


def resolve_gamma(kernel: str, gamma: float | None, x: np.ndarray) -> float | None:
    """Default RBF width 1/(n_features * var(X)) over the pooled entries."""
    if kernel != "rbf":
        return None
    if gamma is not None:
        return float(gamma)
    var = float(np.var(x))
    if var <= 0:
        var = 1.0
    return 1.0 / (x.shape[1] * var)


# ---------------------------------------------------------------------------
# Binary soft-margin SVM via SMO
# ---------------------------------------------------------------------------

@dataclass
class BinarySvm:
    """Soft-margin binary SVM; labels are +1 / -1.

    The full training set and dual vector are retained (training sets in
    this artifact are small), so optimality can be re-audited on the
    trained model itself.
    """

    kernel: KernelSpec
    c: float
    tol: float = DEFAULT_TOL
    support_x: np.ndarray = field(default=None, repr=False)
    support_y: np.ndarray = field(default=None, repr=False)
    alpha: np.ndarray = field(default=None, repr=False)
    bias: float = 0.0

    def decision(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = self.kernel.matrix(self.support_x, x)
        return (self.alpha * self.support_y) @ k + self.bias

    def dual_objective(self) -> float:
        k = self.kernel.matrix(self.support_x, self.support_x)
        ay = self.alpha * self.support_y
        return float(np.sum(self.alpha) - 0.5 * ay @ k @ ay)

    def kkt_violation(self) -> float:
        """Largest violation of the optimality conditions on the training set."""
        yf = self.support_y * self.decision(self.support_x)
        eps = 1e-9 * self.c
        worst = 0.0
        for a, margin in zip(self.alpha, yf):
            if a <= eps:
                worst = max(worst, 1.0 - margin)
            elif a >= self.c - eps:
                worst = max(worst, margin - 1.0)
            else:
                worst = max(worst, abs(margin - 1.0))
        return max(worst, 0.0)

    def equality_residual(self) -> float:
        """|sum alpha_i y_i| of the dual equality constraint."""
        return abs(float(np.sum(self.alpha * self.support_y)))


def _smo_solve(k: np.ndarray, y: np.ndarray, c: float, tol: float,
               max_passes: int):
    n = len(y)
    alpha = np.zeros(n)
    b = 0.0
    # error cache: E_i = f(x_i) - y_i
    errors = -y.astype(float)
    kdiag = np.diag(k)

    def violations():
        yf = y * (errors + y)  # y_i * f_i
        v = np.zeros(n)
        can_up = alpha < c - 1e-12 * c
        can_dn = alpha > 1e-12 * c
        v[can_up] = np.maximum(v[can_up], (1.0 - yf[can_up]))
        v[can_dn] = np.maximum(v[can_dn], (yf[can_dn] - 1.0))
        return v

    steps = 0
    while True:
        v = violations()
        i = int(np.argmax(v))
        if v[i] <= tol:
            return alpha, b, steps, True
        if steps >= max_passes:
            return alpha, b, steps, False

        # second choice: the first partner in descending |E_i - E_j| order
        # that admits progress, screened over all partners at once
        order = np.argsort(-np.abs(errors[i] - errors))
        eta = 2.0 * k[i] - k[i, i] - kdiag
        same = y == y[i]
        lo = np.where(same, np.maximum(0.0, alpha[i] + alpha - c),
                      np.maximum(0.0, alpha - alpha[i]))
        hi = np.where(same, np.minimum(c, alpha[i] + alpha),
                      np.minimum(c, c + alpha - alpha[i]))
        # entries with eta >= 0 divide by zero or step uphill; masked below
        with np.errstate(divide="ignore", invalid="ignore"):
            aj_step = alpha - y * (errors[i] - errors) / eta
            aj_step = np.minimum(hi, np.maximum(lo, aj_step))
            ok = ((eta < 0.0) & ~(hi - lo < 1e-12)
                  & ~(np.abs(aj_step - alpha)
                      < 1e-12 * (aj_step + alpha + 1e-12)))
        ok[i] = False
        admissible = order[ok[order]]
        if admissible.size == 0:
            # numerical corner: no pair admits progress; treat as converged
            return alpha, b, steps, True
        j = int(admissible[0])
        aj_new = aj_step[j]
        ai_new = alpha[i] + y[i] * y[j] * (alpha[j] - aj_new)

        b1 = (b - errors[i] - y[i] * (ai_new - alpha[i]) * k[i, i]
              - y[j] * (aj_new - alpha[j]) * k[i, j])
        b2 = (b - errors[j] - y[i] * (ai_new - alpha[i]) * k[i, j]
              - y[j] * (aj_new - alpha[j]) * k[j, j])
        if 0.0 < ai_new < c:
            b_new = b1
        elif 0.0 < aj_new < c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        alpha[i], alpha[j] = ai_new, aj_new
        b = b_new
        errors = k @ (alpha * y) + b - y
        steps += 1


def _dual_value(k: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(np.sum(alpha) - 0.5 * ay @ k @ ay)


def _polish(k: np.ndarray, y: np.ndarray, c: float, alpha: np.ndarray, b: float):
    """Solve the KKT equality system on the final free set exactly.

    Keeps the SMO iterate when the solved point leaves the box or (for a
    near-singular system, e.g. duplicated rows) fails to improve the dual.
    """
    eps = 1e-8 * c
    free = (alpha > eps) & (alpha < c - eps)
    at_c = alpha >= c - eps
    if not np.any(free):
        return alpha, b
    idx = np.nonzero(free)[0]
    m = len(idx)
    a_mat = np.zeros((m + 1, m + 1))
    rhs = np.zeros(m + 1)
    s = k[np.ix_(idx, np.nonzero(at_c)[0])] @ (c * y[at_c]) if np.any(at_c) else 0.0
    a_mat[:m, :m] = k[np.ix_(idx, idx)] * y[idx][None, :]
    a_mat[:m, m] = 1.0
    rhs[:m] = y[idx] - s
    a_mat[m, :m] = y[idx]
    rhs[m] = -c * float(np.sum(y[at_c])) if np.any(at_c) else 0.0
    try:
        sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return alpha, b
    alpha_new = alpha.copy()
    alpha_new[idx] = sol[:m]
    alpha_new[at_c] = c
    alpha_new[~(free | at_c)] = 0.0
    if np.any(alpha_new < -1e-9 * c) or np.any(alpha_new > c * (1 + 1e-9)):
        return alpha, b
    alpha_new = np.clip(alpha_new, 0.0, c)
    if _dual_value(k, y, alpha_new) < _dual_value(k, y, alpha) - 1e-12:
        return alpha, b
    return alpha_new, float(sol[m])


def train_binary(x: np.ndarray, y: np.ndarray, kernel: KernelSpec, c: float,
                 tol: float = DEFAULT_TOL,
                 max_passes: int = DEFAULT_MAX_PASSES) -> BinarySvm:
    """Train a binary SVM; ``y`` must be +1/-1.

    Fully deterministic for a given row order: the working set is chosen
    by maximal KKT violation with |E_i - E_j| ranking the partner, and the
    polish step converges the free set to the exact optimum, which also
    makes the decision function insensitive to row order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise TrainingError("binary labels must be +1/-1")
    if len(set(y.tolist())) < 2:
        raise TrainingError("training set contains a single class")
    if c <= 0:
        raise TrainingError(f"penalty C must be > 0, got {c}")
    k = kernel.matrix(x, x)
    alpha, b, steps, converged = _smo_solve(k, y, c, tol, max_passes)
    if not converged:
        model = BinarySvm(kernel=kernel, c=c, tol=tol, support_x=x,
                          support_y=y, alpha=alpha, bias=b)
        raise TrainingError(
            f"SMO hit the {max_passes}-update cap before reaching tol={tol}",
            diagnostics={"steps": steps, "best_model": model,
                         "dual_objective": model.dual_objective()})
    alpha, b = _polish(k, y, c, alpha, b)
    alpha[alpha < 1e-12 * c] = 0.0
    return BinarySvm(kernel=kernel, c=c, tol=tol, support_x=x.copy(),
                     support_y=y.copy(), alpha=alpha, bias=float(b))


# ---------------------------------------------------------------------------
# Multi-class wrapper (one-vs-one)
# ---------------------------------------------------------------------------

@dataclass
class MultiClassSvm:
    """One-vs-one combination of binary machines over an ordered class list."""

    classes: tuple[str, ...]
    machines: dict  # (class_a, class_b) -> BinarySvm, +1 = class_a

    def predict(self, x: np.ndarray) -> list[str]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        votes = {cls: np.zeros(len(x)) for cls in self.classes}
        scores = {cls: np.zeros(len(x)) for cls in self.classes}
        for (cls_a, cls_b), svm in self.machines.items():
            d = svm.decision(x)
            winner_a = d >= 0
            votes[cls_a] += winner_a
            votes[cls_b] += ~winner_a
            scores[cls_a] += d
            scores[cls_b] -= d
        out = []
        for i in range(len(x)):
            best = sorted(
                self.classes,
                key=lambda cls: (-votes[cls][i], -scores[cls][i],
                                 self.classes.index(cls)))[0]
            out.append(best)
        return out


def train_multiclass(x: np.ndarray, labels, classes, kernel: KernelSpec,
                     c: float, tol: float = DEFAULT_TOL) -> MultiClassSvm:
    labels = np.asarray(labels)
    machines = {}
    for ia in range(len(classes)):
        for ib in range(ia + 1, len(classes)):
            cls_a, cls_b = classes[ia], classes[ib]
            mask = (labels == cls_a) | (labels == cls_b)
            if not np.any(labels[mask] == cls_a) or not np.any(labels[mask] == cls_b):
                raise TrainingError(
                    f"pair ({cls_a}, {cls_b}) missing a class in the training set")
            y = np.where(labels[mask] == cls_a, 1.0, -1.0)
            machines[(cls_a, cls_b)] = train_binary(x[mask], y, kernel, c, tol)
    return MultiClassSvm(classes=tuple(classes), machines=machines)


# ---------------------------------------------------------------------------
# Serialization (versioned JSON text)
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def _binary_to_dict(svm: BinarySvm) -> dict:
    return {
        "support_x": svm.support_x.tolist(),
        "support_y": svm.support_y.tolist(),
        "alpha": svm.alpha.tolist(),
        "bias": svm.bias,
    }


def _binary_from_dict(d: dict, kernel: KernelSpec, c: float, tol: float) -> BinarySvm:
    return BinarySvm(kernel=kernel, c=c, tol=tol,
                     support_x=np.asarray(d["support_x"], dtype=float),
                     support_y=np.asarray(d["support_y"], dtype=float),
                     alpha=np.asarray(d["alpha"], dtype=float),
                     bias=float(d["bias"]))
