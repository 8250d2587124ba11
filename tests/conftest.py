import numpy as np
import pytest

from fedmtl.data import FederatedDataset, TaskDataset
from fedmtl.losses import LossKind
from fedmtl.solver import RoundView, SubproblemView


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


def recompute_v(state, ds):
    """Fresh X @ alpha, column per task, for checking the solver's running v."""
    v = np.empty((ds.d, ds.m))
    for t, task in enumerate(ds.tasks):
        v[:, t] = task.features @ state.alpha[t]
    return v


def random_view(rng, kind, d=6, n=10, kappa=None):
    X = rng.standard_normal((d, n))
    y = rng.choice([-1.0, 1.0], size=n)
    if kind is LossKind.HINGE:
        alpha = y * rng.uniform(0.0, 1.0, size=n)
    else:
        alpha = 0.5 * rng.standard_normal(n)
    return SubproblemView(
        X=X,
        labels=y,
        alpha=alpha,
        w=0.5 * rng.standard_normal(d),
        col_norms2=np.einsum("ij,ij->j", X, X),
        kappa=float(rng.uniform(0.5, 2.0)) if kappa is None else kappa,
        kind=kind,
    )


def one_node_round(view):
    """A one-task RoundView with the data and snapshot of ``view``.  Its
    ``node(0)`` holds the dataset's Fortran-ordered features and norms."""
    ds = FederatedDataset((TaskDataset(0, view.X, view.labels),))
    return RoundView(ds, view.kind, np.array(view.alpha, dtype=float),
                     view.w[:, None], np.array([view.kappa]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
