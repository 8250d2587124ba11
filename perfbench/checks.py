"""Output checks for the benchmark workloads.

Every objective here is written out in plain numpy from the problem
definition, apart from fedmtl's own objective code, so a bug that the
program and its tests share cannot also hide here.  Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

# Relative slack for values that are exact in real arithmetic but summed in a
# different order by the program.
ROUNDING = 1e-9


def _slack(*values: float) -> float:
    return ROUNDING * (1.0 + sum(abs(v) for v in values))


def weak_duality(records) -> list[str]:
    """gap = D + P >= 0 on every round, to rounding.

    ``records`` holds (round, dual, primal, gap) tuples."""
    problems = []
    for h, dual, primal, gap in records:
        if not np.isfinite(gap) or gap < -_slack(dual, primal):
            problems.append(f"round {h}: duality gap {gap!r} is negative")
    return problems


def dual_nonincreasing(records, inner_rounds: int) -> list[str]:
    """The dual D (minimized) never rises within one outer iteration.

    Outer iteration k holds rounds k*inner_rounds .. (k+1)*inner_rounds - 1,
    which is how the solver numbers them when no gap target stops it early."""
    problems = []
    prev = None
    for h, dual, _primal, _gap in records:
        if prev is not None and h // inner_rounds == prev[0] // inner_rounds:
            if dual > prev[1] + _slack(prev[1]):
                problems.append(
                    f"round {h}: dual rose from {prev[1]!r} to {dual!r}"
                )
        prev = (h, dual)
    return problems


def centering_omega(m: int) -> np.ndarray:
    """(I - 11^T/m)^2: couples every task to the mean of all tasks."""
    c = np.eye(m) - np.full((m, m), 1.0 / m)
    return c @ c


def mean_reg_penalty(W: np.ndarray, lambda1: float, lambda2: float) -> float:
    """lambda1 * sum_{s,t} Omega_st w_s.w_t + lambda2 * ||W||_F^2, Omega centering."""
    omega = centering_omega(W.shape[1])
    gram = W.T @ W
    return float(lambda1 * np.sum(omega * gram) + lambda2 * np.sum(W * W))


def hinge_primal(Xs, ys, W: np.ndarray, lambda1: float, lambda2: float) -> float:
    """Hinge-loss primal of the mean-regularized problem.

    Xs[t] is d x n_t with examples as columns, ys[t] the labels in {-1, +1}."""
    loss = 0.0
    for t, (X, y) in enumerate(zip(Xs, ys)):
        loss += float(np.sum(np.maximum(0.0, 1.0 - y * (W[:, t] @ X))))
    return loss + mean_reg_penalty(W, lambda1, lambda2)


def squared_primal(Xs, ys, W: np.ndarray, lambda1: float, lambda2: float) -> float:
    """Squared-loss (u - y)^2 / 2 primal of the mean-regularized problem."""
    loss = 0.0
    for t, (X, y) in enumerate(zip(Xs, ys)):
        r = W[:, t] @ X - y
        loss += 0.5 * float(r @ r)
    return loss + mean_reg_penalty(W, lambda1, lambda2)


def squared_mean_reg_optimum(Xs, ys, lambda1: float, lambda2: float):
    """Closed-form minimizer of the squared-loss mean-regularized primal.

    Setting the gradient to zero gives one md x md linear system in the
    task-major stacked weights: (blockdiag(X_t X_t^T) + 2 lambda1 (Omega kron I)
    + 2 lambda2 I) w = [X_t y_t].  Returns (W, primal value)."""
    m = len(Xs)
    d = Xs[0].shape[0]
    A = 2.0 * lambda1 * np.kron(centering_omega(m), np.eye(d))
    A += 2.0 * lambda2 * np.eye(m * d)
    b = np.empty(m * d)
    for t, (X, y) in enumerate(zip(Xs, ys)):
        block = slice(t * d, (t + 1) * d)
        A[block, block] += X @ X.T
        b[block] = X @ y
    W = np.linalg.solve(A, b).reshape(m, d).T
    return W, squared_primal(Xs, ys, W, lambda1, lambda2)


def primal_matches(recomputed: float, reported: float) -> list[str]:
    if abs(recomputed - reported) > ROUNDING * (1.0 + abs(recomputed)):
        return [f"reported primal {reported!r} differs from recomputed {recomputed!r}"]
    return []


def omega_problems(omega: np.ndarray) -> list[str]:
    """A learned task relationship is symmetric, PSD and has trace 1."""
    omega = np.asarray(omega, dtype=float)
    problems = []
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        return [f"omega has shape {omega.shape}, expected square"]
    if not np.all(np.isfinite(omega)):
        return ["omega has non-finite entries"]
    if not np.array_equal(omega, omega.T):
        problems.append("omega is not symmetric")
    low = float(np.linalg.eigvalsh(0.5 * (omega + omega.T))[0])
    if low < -ROUNDING:
        problems.append(f"omega is not PSD (min eigenvalue {low!r})")
    if abs(float(np.trace(omega)) - 1.0) > ROUNDING:
        problems.append(f"omega trace {float(np.trace(omega))!r} is not 1")
    return problems


def floor_problems(floor: float, optimum: float) -> list[str]:
    """The reference floor is a dual bound: at or below the optimum, and
    close to it because the reference solve runs to a 1e-9 gap."""
    problems = []
    if floor > optimum + _slack(optimum):
        problems.append(f"primal floor {floor!r} is above the optimum {optimum!r}")
    if optimum - floor > 1e-8 * (1.0 + abs(optimum)):
        problems.append(f"primal floor {floor!r} is far below the optimum {optimum!r}")
    return problems


def bench_cell_problems(cells: dict, floor: float, rounds: int) -> list[str]:
    """Checks over the bench_<method>_<preset>_<mode>.csv tables.

    ``cells`` maps (method, preset, mode) to the list of
    (elapsed_ms, primal_suboptimality) rows of that file."""
    problems = []
    for key, rows in sorted(cells.items()):
        name = "_".join(key)
        if len(rows) != rounds:
            problems.append(f"{name}: {len(rows)} rows, expected {rounds}")
        elapsed = [e for e, _ in rows]
        if any(b <= a for a, b in zip(elapsed, elapsed[1:])):
            problems.append(f"{name}: elapsed times do not increase strictly")
        for i, (_, sub) in enumerate(rows):
            if not np.isfinite(sub) or sub < -_slack(floor):
                problems.append(f"{name} row {i}: suboptimality {sub!r} is negative")
                break
    by_rest = {}
    for (method, preset, mode), rows in cells.items():
        by_rest.setdefault((method, mode), {})[preset] = [s for _, s in rows]
    for (method, mode), columns in sorted(by_rest.items()):
        first = next(iter(columns.values()))
        if any(col != first for col in columns.values()):
            problems.append(
                f"{method}_{mode}: suboptimality differs between network presets"
            )
    return problems
