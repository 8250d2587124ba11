import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tests.conftest import conjugate_value, loss_value

from fedmtl.losses import (
    DualInfeasibleError,
    LossKind,
    conjugate_sum,
    conjugate_terms,
    loss_constants,
    loss_sum,
)
from fedmtl.solver import _step_function

KINDS = [LossKind.HINGE, LossKind.SQUARED]


def conjugate_grid_oracle(kind, a, y, lo=-50.0, hi=50.0, points=400001):
    """sup_u (-a*u - loss(u, y)) on a dense grid."""
    u = np.linspace(lo, hi, points)
    if kind is LossKind.HINGE:
        vals = -a * u - np.maximum(0.0, 1.0 - y * u)
    else:
        vals = -a * u - 0.5 * (u - y) ** 2
    return float(vals.max())


def restriction_value(kind, delta, alpha, y, score, x_norm2, kappa):
    a = alpha + delta
    if kind is LossKind.HINGE:
        conj = -a * y
    else:
        conj = 0.5 * a * a - a * y
    return conj + score * delta + 0.5 * kappa * x_norm2 * delta * delta


def grid_coordinate_oracle(kind, alpha, y, score, x_norm2, kappa, points=20001):
    if kind is LossKind.HINGE:
        deltas = y * np.linspace(0.0, 1.0, points) - alpha
    else:
        deltas = np.linspace(-10.0, 10.0, points)
    vals = restriction_value(kind, deltas, alpha, y, score, x_norm2, kappa)
    return float(deltas[np.argmin(vals)])


def test_loss_values():
    assert loss_value(LossKind.HINGE, 0.0, 1.0) == 1.0
    assert loss_value(LossKind.HINGE, 2.0, 1.0) == 0.0
    assert loss_value(LossKind.SQUARED, 0.0, 1.0) == 0.5


def test_loss_value_rejects_bad_label():
    with pytest.raises(ValueError):
        loss_value(LossKind.HINGE, 0.0, 0.0)


def test_conjugate_values_against_grid_oracle():
    assert conjugate_value(LossKind.HINGE, 0.0, 1.0) == 0.0
    # values from the dense-grid supremum, frozen
    assert conjugate_value(LossKind.HINGE, 1.0, 1.0) == -1.0
    assert conjugate_value(LossKind.SQUARED, 1.0, 1.0) == -0.5
    assert abs(conjugate_grid_oracle(LossKind.HINGE, 1.0, 1.0) - (-1.0)) < 1e-3
    assert abs(conjugate_grid_oracle(LossKind.SQUARED, 1.0, 1.0) - (-0.5)) < 1e-3
    rng = np.random.default_rng(0)
    for _ in range(25):
        y = float(rng.choice([-1.0, 1.0]))
        a = float(y * rng.uniform(0.0, 1.0))
        got = conjugate_value(LossKind.HINGE, a, y)
        assert got == pytest.approx(conjugate_grid_oracle(LossKind.HINGE, a, y), abs=1e-3)
        a = float(rng.uniform(-3.0, 3.0))
        got = conjugate_value(LossKind.SQUARED, a, y)
        assert got == pytest.approx(conjugate_grid_oracle(LossKind.SQUARED, a, y), abs=1e-3)


def test_conjugate_domain_marker():
    assert conjugate_value(LossKind.HINGE, 2.0, 1.0) == math.inf
    assert conjugate_value(LossKind.HINGE, -0.5, 1.0) == math.inf
    assert conjugate_value(LossKind.HINGE, -1.0, -1.0) == -1.0
    # squared has full domain
    assert conjugate_value(LossKind.SQUARED, 100.0, 1.0) == pytest.approx(4900.0)


def test_conjugate_sum_raises_on_infeasible():
    y = np.array([1.0, -1.0])
    with pytest.raises(DualInfeasibleError):
        conjugate_sum(LossKind.HINGE, np.array([1.5, 0.0]), y)
    assert conjugate_sum(LossKind.HINGE, np.array([1.0, -0.5]), y) == -1.5
    # The per-example terms check the same box and equal the scalar values.
    with pytest.raises(DualInfeasibleError):
        conjugate_terms(LossKind.HINGE, np.array([1.5, 0.0]), y)
    alpha = np.array([1.0, -0.5])
    for kind in KINDS:
        assert conjugate_terms(kind, alpha, y).tolist() == [
            conjugate_value(kind, a, b) for a, b in zip(alpha.tolist(), y.tolist())]


def test_loss_constants():
    hinge = loss_constants(LossKind.HINGE)
    assert hinge.lipschitz == 1.0 and hinge.smoothness is None
    squared = loss_constants(LossKind.SQUARED)
    assert squared.lipschitz is None and squared.smoothness == 1.0


@given(
    u=st.floats(-20, 20),
    b=st.floats(0, 1),
    y=st.sampled_from([-1.0, 1.0]),
)
def test_fenchel_young_hinge(u, b, y):
    a = b * y  # feasible dual value
    lhs = loss_value(LossKind.HINGE, u, y) + conjugate_value(LossKind.HINGE, a, y)
    assert lhs >= -a * u - 1e-10
    # equality at the conjugate pair u = y
    eq = loss_value(LossKind.HINGE, y, y) + conjugate_value(LossKind.HINGE, a, y)
    assert abs(eq - (-a * y)) < 1e-10


@given(
    u=st.floats(-20, 20),
    a=st.floats(-20, 20),
    y=st.sampled_from([-1.0, 1.0]),
)
def test_fenchel_young_squared(u, a, y):
    lhs = loss_value(LossKind.SQUARED, u, y) + conjugate_value(LossKind.SQUARED, a, y)
    assert lhs >= -a * u - 1e-9 * max(1.0, abs(a * u))
    u_star = y - a
    eq = loss_value(LossKind.SQUARED, u_star, y) + conjugate_value(LossKind.SQUARED, a, y)
    assert abs(eq - (-a * u_star)) < 1e-9 * max(1.0, abs(a * u_star))


def test_coordinate_update_frozen_examples():
    # grid-search oracle values, frozen
    assert _step_function(LossKind.HINGE)(0.0, 1.0, 0.0, 1.0, 1.0) == 1.0
    assert _step_function(LossKind.HINGE)(0.0, 1.0, 2.0, 1.0, 1.0) == 0.0
    assert grid_coordinate_oracle(LossKind.HINGE, 0.0, 1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-4)
    assert grid_coordinate_oracle(LossKind.HINGE, 0.0, 1.0, 2.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-4)


def test_coordinate_update_fixed_point():
    rng = np.random.default_rng(7)
    for kind in KINDS:
        for _ in range(20):
            y = float(rng.choice([-1.0, 1.0]))
            alpha = float(y * rng.uniform(0, 1)) if kind is LossKind.HINGE else float(rng.normal())
            score = float(rng.normal())
            n2 = float(rng.uniform(0.1, 4.0))
            kappa = float(rng.uniform(0.2, 3.0))
            d1 = _step_function(kind)(alpha, y, score, n2, kappa)
            # after moving to the minimizer, the score shifts by kappa*n2*d1
            d2 = _step_function(kind)(alpha + d1, y, score + kappa * n2 * d1, n2, kappa)
            assert abs(d2) < 1e-12


def test_coordinate_update_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for i in range(1000):
        kind = KINDS[i % 2]
        y = float(rng.choice([-1.0, 1.0]))
        alpha = float(y * rng.uniform(0, 1)) if kind is LossKind.HINGE else float(rng.normal())
        score = float(3.0 * rng.normal())
        n2 = 0.0 if i % 97 == 0 else float(rng.uniform(0.05, 5.0))
        kappa = float(rng.uniform(0.2, 3.0))
        delta = _step_function(kind)(alpha, y, score, n2, kappa)
        if kind is LossKind.SQUARED and n2 == 0.0:
            # unconstrained quadratic minimizer, check stationarity directly
            assert abs((alpha + delta) - y + score) < 1e-10
            continue
        if kind is LossKind.SQUARED and abs(delta) > 9.0:
            continue  # outside the oracle grid
        ref = grid_coordinate_oracle(kind, alpha, y, score, n2, kappa)
        step = (1.0 if kind is LossKind.HINGE else 20.0) / 20000
        f_lib = restriction_value(kind, delta, alpha, y, score, n2, kappa)
        f_ref = restriction_value(kind, ref, alpha, y, score, n2, kappa)
        assert f_lib <= f_ref + 1e-12
        if n2 > 0.0:
            assert abs(delta - ref) <= 2.0 * step


@given(
    b=st.floats(0, 1),
    y=st.sampled_from([-1.0, 1.0]),
    score=st.floats(-10, 10),
    n2=st.floats(0, 5),
    kappa=st.floats(0.1, 3),
)
# A subnormal norm whose product with kappa underflows to zero.
@example(b=0.0, y=1.0, score=0.0, n2=5e-324, kappa=0.5)
def test_coordinate_update_stays_in_hinge_box(b, y, score, n2, kappa):
    alpha = b * y
    delta = _step_function(LossKind.HINGE)(alpha, y, score, n2, kappa)
    assert -1e-12 <= y * (alpha + delta) <= 1.0 + 1e-12


def test_loss_sum_matches_scalar():
    rng = np.random.default_rng(3)
    u = rng.normal(size=17)
    y = rng.choice([-1.0, 1.0], size=17)
    for kind in KINDS:
        total = sum(loss_value(kind, float(ui), float(yi)) for ui, yi in zip(u, y))
        assert loss_sum(kind, u, y) == pytest.approx(total, rel=1e-12)
