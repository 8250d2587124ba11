import numpy as np
import pytest

from fedmtl.data import FederatedDataset, TaskDataset
from fedmtl.losses import LossKind
from fedmtl.solver import RoundView


def make_task(rng, d=6, n=12, task_id=0):
    X = rng.standard_normal((d, n))
    y = rng.choice([-1.0, 1.0], size=n)
    # avoid single-class degenerate tasks
    if np.all(y == y[0]):
        y[0] = -y[0]
    return TaskDataset(task_id, X, y)


def make_dataset(rng, m=3, d=6, n_lo=8, n_hi=15):
    tasks = []
    for t in range(m):
        n = int(rng.integers(n_lo, n_hi + 1))
        tasks.append(make_task(rng, d=d, n=n, task_id=t))
    return FederatedDataset(tuple(tasks))


def block(state, ds, t):
    """Task t's block of the packed dual, as a writable view."""
    return state.packed[ds.offsets[t]:ds.offsets[t + 1]]


def recompute_v(state, ds):
    """Fresh X @ alpha, column per task, for checking the solver's running v."""
    v = np.empty((ds.d, ds.m))
    for t, task in enumerate(ds.tasks):
        v[:, t] = task.features @ block(state, ds, t)
    return v


def random_view(rng, kind, d=6, n=10, kappa=None):
    """A one-node RoundView of random data, dual block, w and kappa."""
    X = rng.standard_normal((d, n))
    y = rng.choice([-1.0, 1.0], size=n)
    if kind is LossKind.HINGE:
        alpha = y * rng.uniform(0.0, 1.0, size=n)
    else:
        alpha = 0.5 * rng.standard_normal(n)
    w = 0.5 * rng.standard_normal(d)
    kappa = float(rng.uniform(0.5, 2.0)) if kappa is None else kappa
    ds = FederatedDataset((TaskDataset(0, X, y),))
    return RoundView(ds, kind, alpha, w[:, None], np.array([kappa]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def sigma_prime_sides(ds, mbar, kappa, gamma, alphas):
    """Both sides of the sigma' condition, sum_t kappa_t ||X_t alpha_t||^2 and
    gamma * ||X alpha||^2_Mbar, for each dual (row of ``alphas``)."""
    alphas = np.atleast_2d(alphas)
    o = ds.offsets
    U = np.stack([alphas[:, o[t]:o[t + 1]] @ task.features.T
                  for t, task in enumerate(ds.tasks)], axis=2)
    G = np.einsum("ids,idt->ist", U, U)
    return np.einsum("itt,t->i", G, kappa), gamma * np.einsum("ist,st->i", G, mbar)
