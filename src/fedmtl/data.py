"""Per-task datasets: CSV ingestion, synthetic generation, splitting, evaluation.

On disk a federated dataset is a directory of files ``task_<k>.csv``
(k zero-based, one file per task, no header) where each row is
``label,f1,...,fd`` with the label literally ``1`` or ``-1``.  In memory each
task holds its features as a column-major d x n_t matrix whose columns are
examples; the federated dataset also packs every task's labels and squared
column norms into n-vectors, task t at ``offsets[t]:offsets[t + 1]``.

All dataset values are immutable after construction; a round reads them and
never writes them.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field

import numpy as np


class DataFormatError(ValueError):
    """Malformed dataset input; message carries file and line when known."""


@dataclass(frozen=True, eq=False)
class TaskDataset:
    task_id: int
    features: np.ndarray   # d x n_t, columns are examples
    labels: np.ndarray     # n_t values in {-1, +1}

    def __post_init__(self):
        feats = np.asfortranarray(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be a d x n_t matrix")
        if labels.ndim != 1 or labels.size != feats.shape[1]:
            raise ValueError("labels must match the number of feature columns")
        if labels.size < 1:
            raise ValueError("each task needs at least one example")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be exactly +1 or -1")
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def d(self) -> int:
        return self.features.shape[0]


def _packed(arrays) -> np.ndarray:
    out = np.concatenate(arrays)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FederatedDataset:
    tasks: tuple[TaskDataset, ...]
    offsets: np.ndarray = field(init=False, repr=False)      # m + 1 task starts
    sizes: np.ndarray = field(init=False, repr=False)        # int64 n_t, m
    labels: np.ndarray = field(init=False, repr=False)       # packed, n
    col_norms2: np.ndarray = field(init=False, repr=False)   # packed, n

    def __post_init__(self):
        tasks = tuple(self.tasks)
        if not tasks:
            raise ValueError("dataset needs at least one task")
        d = tasks[0].d
        for k, task in enumerate(tasks):
            if task.task_id != k:
                raise ValueError(f"task ids must be 0..m-1 in order, got {task.task_id} at {k}")
            if task.d != d:
                raise ValueError(
                    f"task {k} has feature dimension {task.d}, expected {d}"
                )
        col_norms2 = _packed([np.einsum("ij,ij->j", t.features, t.features) for t in tasks])
        # Finite features can still overflow the squared norms every step reads.
        if not np.isfinite(col_norms2).all():
            raise ValueError("an example's squared norm overflows")
        sizes = np.array([t.n for t in tasks], dtype=np.int64)
        sizes.setflags(write=False)
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "offsets", _packed([[0], np.cumsum(sizes)]))
        object.__setattr__(self, "labels", _packed([t.labels for t in tasks]))
        object.__setattr__(self, "col_norms2", col_norms2)

    @functools.cached_property
    def feature_table(self) -> np.ndarray:
        """Address of each task's column-major float64 features, for native
        code; the tasks keep the arrays alive."""
        table = np.array([t.features.ctypes.data for t in self.tasks], dtype=np.uintp)
        table.setflags(write=False)
        return table

    @functools.cached_property
    def addresses(self) -> tuple[int, int, int, int]:
        """Addresses of the feature table, the packed labels, the packed
        squared norms and the offsets, taken once for native code; the
        dataset keeps the arrays alive."""
        return tuple(a.ctypes.data for a in (self.feature_table, self.labels,
                                             self.col_norms2, self.offsets))

    @property
    def m(self) -> int:
        return len(self.tasks)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def d(self) -> int:
        return self.tasks[0].d

    def task_sizes(self) -> list[int]:
        return self.sizes.tolist()


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for cluster-structured linear classification tasks."""

    m: int
    d: int
    n_min: int
    n_max: int
    cluster_count: int = 1
    deviation: float = 0.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be positive")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if not 1 <= self.cluster_count <= self.m:
            raise ValueError("cluster_count must be in [1, m]")
        if not 0.0 <= self.deviation < np.inf:
            raise ValueError("deviation must be finite and >= 0")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError("noise rate must be in [0, 0.5)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def generate_synthetic(spec: SyntheticSpec,
                       return_weights: bool = False):
    """Draw a dataset from per-cluster linear models.

    Task t uses center t mod cluster_count plus ``deviation`` times a
    task-specific normal offset.  Centers are random gaussian directions,
    orthogonalized against each other (when cluster_count <= d) and scaled to
    norm sqrt(d) so that distinct clusters genuinely disagree instead of
    aligning by chance.  Features are standard normal, labels are the sign of
    the clean score with each label flipped independently with probability
    ``noise``.  Deterministic given the seed.
    """
    rng = np.random.default_rng([spec.seed, 0xDA7A])
    centers = rng.standard_normal((spec.d, spec.cluster_count))
    if spec.cluster_count <= spec.d:
        q, r = np.linalg.qr(centers)
        centers = np.sqrt(spec.d) * q * np.sign(np.diag(r))
    tasks = []
    weights = np.empty((spec.d, spec.m))
    for t in range(spec.m):
        w = centers[:, t % spec.cluster_count] + spec.deviation * rng.standard_normal(spec.d)
        weights[:, t] = w
        n_t = int(rng.integers(spec.n_min, spec.n_max + 1))
        X = rng.standard_normal((spec.d, n_t))
        y = np.where(w @ X > 0.0, 1.0, -1.0)
        if spec.noise > 0.0:
            flips = rng.random(n_t) < spec.noise
            y = np.where(flips, -y, y)
        tasks.append(TaskDataset(task_id=t, features=X, labels=y))
    ds = FederatedDataset(tuple(tasks))
    if return_weights:
        return ds, weights
    return ds


_TASK_FILE = re.compile(r"^task_(\d+)\.csv$")


def load_federated_csv(directory_path) -> FederatedDataset:
    """Load ``task_<k>.csv`` files from a directory, validating shape and labels."""
    if not os.path.isdir(directory_path):
        raise DataFormatError(f"{directory_path}: not a directory")
    found = {}
    for name in os.listdir(directory_path):
        match = _TASK_FILE.match(name)
        if match:
            found[int(match.group(1))] = os.path.join(directory_path, name)
    if not found:
        raise DataFormatError(f"{directory_path}: no task_<k>.csv files found")
    if sorted(found) != list(range(len(found))):
        raise DataFormatError(
            f"{directory_path}: task indices must be contiguous from 0, got {sorted(found)}"
        )
    tasks = []
    d = None
    for k in range(len(found)):
        path = found[k]
        rows = []
        labels = []
        linenos = []
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                try:
                    values = [float(p) for p in parts]
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: non-numeric field"
                    ) from None
                if values[0] not in (-1.0, 1.0):
                    raise DataFormatError(
                        f"{path}:{lineno}: label must be 1 or -1, got {parts[0]}"
                    )
                if d is None:
                    d = len(values) - 1
                    if d < 1:
                        raise DataFormatError(f"{path}:{lineno}: row has no features")
                if len(values) - 1 != d:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {d} features, got {len(values) - 1}"
                    )
                labels.append(values[0])
                rows.append(values[1:])
                linenos.append(lineno)
        if not rows:
            raise DataFormatError(f"{path}: empty task file")
        features = np.array(rows)
        for finite, problem in (
                (np.isfinite(features).all(axis=1), "non-finite feature"),
                (np.isfinite(np.einsum("ij,ij->i", features, features)),
                 "squared norm of the features overflows")):
            if not finite.all():
                lineno = linenos[int(np.argmin(finite))]
                raise DataFormatError(f"{path}:{lineno}: {problem}")
        tasks.append(
            TaskDataset(task_id=k, features=features.T, labels=np.array(labels))
        )
    return FederatedDataset(tuple(tasks))


def save_federated_csv(ds: FederatedDataset, directory_path) -> None:
    """Inverse of load_federated_csv; float repr guarantees exact round trips.
    A task file that this dataset would not overwrite raises FileExistsError
    before anything is written, since loading the directory would mix it in."""
    names = {f"task_{task.task_id}.csv" for task in ds.tasks}
    if os.path.isdir(directory_path):
        for name in sorted(os.listdir(directory_path)):
            if _TASK_FILE.match(name) and name not in names:
                raise FileExistsError(
                    f"{os.path.join(directory_path, name)}: task file of another dataset")
    os.makedirs(directory_path, exist_ok=True)
    for task in ds.tasks:
        path = os.path.join(directory_path, f"task_{task.task_id}.csv")
        with open(path, "w", encoding="ascii") as fh:
            for i in range(task.n):
                label = "1" if task.labels[i] > 0 else "-1"
                feats = ",".join(repr(float(x)) for x in task.features[:, i])
                fh.write(f"{label},{feats}\n")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def train_test_split(ds: FederatedDataset, train_fraction: float,
                     seed: int) -> tuple[FederatedDataset, FederatedDataset]:
    """Per-task split with round(train_fraction * n_t) training examples,
    at least one example on each side. Deterministic given the seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    train_tasks = []
    test_tasks = []
    for task in ds.tasks:
        if task.n < 2:
            raise ValueError(f"task {task.task_id} has < 2 examples, cannot split")
        rng = np.random.default_rng([seed, 0x5911, task.task_id])
        perm = rng.permutation(task.n)
        k = _round_half_up(train_fraction * task.n)
        k = min(max(k, 1), task.n - 1)
        tr = np.sort(perm[:k])
        te = np.sort(perm[k:])
        train_tasks.append(
            TaskDataset(task.task_id, task.features[:, tr], task.labels[tr])
        )
        test_tasks.append(
            TaskDataset(task.task_id, task.features[:, te], task.labels[te])
        )
    return FederatedDataset(tuple(train_tasks)), FederatedDataset(tuple(test_tasks))


def standardize(train: FederatedDataset, test: FederatedDataset | None = None):
    """Optional per-feature z-scoring, fit on the pooled training examples.

    Not applied implicitly anywhere; callers opt in. Constant features keep
    unit scale. Returns (train', test') with test' None when not supplied.
    """
    pooled = np.concatenate([t.features for t in train.tasks], axis=1)
    mean = pooled.mean(axis=1, keepdims=True)
    std = pooled.std(axis=1, keepdims=True)
    std[std == 0.0] = 1.0

    def _apply(ds):
        return FederatedDataset(tuple(
            TaskDataset(t.task_id, (t.features - mean) / std, t.labels)
            for t in ds.tasks
        ))

    return _apply(train), (_apply(test) if test is not None else None)


def prediction_error(W, ds: FederatedDataset) -> tuple[np.ndarray, float]:
    """Per-task misclassification rates and their unweighted mean.

    Decision rule: predict +1 iff w_t . x > 0, so a zero score counts a +1
    example as misclassified.
    """
    W = np.asarray(getattr(W, "W", W), dtype=float)
    if W.shape != (ds.d, ds.m):
        raise ValueError(f"weights shape {W.shape} does not match dataset ({ds.d}, {ds.m})")
    errs = np.empty(ds.m)
    for t, task in enumerate(ds.tasks):
        pred = np.where(W[:, t] @ task.features > 0.0, 1.0, -1.0)
        errs[t] = float(np.mean(pred != task.labels))
    return errs, float(errs.mean())
