"""Scalar SMO reference: the partner loop walked one candidate at a time.

This is the solver as it was before the partner screen in
``debrisense.svm._smo_solve`` was vectorized.  It walks the second-choice
order partner by partner and takes the first one that admits progress.
The vectorized screen must pick the same partner with the same
arithmetic, so the two return bit-identical ``alpha``, ``b``, step counts
and convergence flags.
"""

import numpy as np


def smo_solve_scalar(k, y, c, tol, max_passes):
    n = len(y)
    alpha = np.zeros(n)
    b = 0.0
    # error cache: E_i = f(x_i) - y_i
    errors = -y.astype(float)

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

        # second choice: largest |E_i - E_j|, then the rest in that order
        order = np.argsort(-np.abs(errors[i] - errors))
        progressed = False
        for j in order:
            j = int(j)
            if j == i:
                continue
            eta = 2.0 * k[i, j] - k[i, i] - k[j, j]
            if eta >= 0.0:
                continue
            if y[i] == y[j]:
                lo = max(0.0, alpha[i] + alpha[j] - c)
                hi = min(c, alpha[i] + alpha[j])
            else:
                lo = max(0.0, alpha[j] - alpha[i])
                hi = min(c, c + alpha[j] - alpha[i])
            if hi - lo < 1e-12:
                continue
            aj_new = alpha[j] - y[j] * (errors[i] - errors[j]) / eta
            aj_new = min(hi, max(lo, aj_new))
            if abs(aj_new - alpha[j]) < 1e-12 * (aj_new + alpha[j] + 1e-12):
                continue
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
            progressed = True
            break
        if not progressed:
            # numerical corner: no pair admits progress; treat as converged
            return alpha, b, steps, True
