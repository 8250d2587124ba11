import numpy as np
import pytest

from fedmtl.data import (
    DataFormatError,
    FederatedDataset,
    SyntheticSpec,
    TaskDataset,
    generate_synthetic,
    load_federated_csv,
    prediction_error,
    save_federated_csv,
    standardize,
    train_test_split,
)


def write_csv(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def test_load_basic(tmp_path):
    write_csv(tmp_path / "task_0.csv", [[1, 0.1, 0.2, 0.3, 0.4]] * 3)
    write_csv(tmp_path / "task_1.csv", [[-1, 1, 2, 3, 4]] * 5)
    ds = load_federated_csv(tmp_path)
    assert ds.m == 2 and ds.n == 8 and ds.d == 4
    assert ds.task_sizes() == [3, 5]


def test_packed_sizes_and_addresses_are_fixed_once():
    ds = generate_synthetic(SyntheticSpec(m=3, d=2, n_min=1, n_max=9, seed=4))
    assert ds.sizes.dtype == np.int64 and not ds.sizes.flags.writeable
    assert ds.sizes.tolist() == [t.n for t in ds.tasks] == ds.task_sizes()
    assert np.array_equal(np.diff(ds.offsets), ds.sizes)
    # Taken once, from the arrays the dataset keeps.
    assert ds.addresses is ds.addresses
    assert ds.addresses == tuple(a.ctypes.data for a in (ds.feature_table, ds.labels,
                                                         ds.col_norms2, ds.offsets))
    assert ds.feature_table.tolist() == [t.features.ctypes.data for t in ds.tasks]


def test_load_errors(tmp_path):
    with pytest.raises(DataFormatError):
        load_federated_csv(tmp_path / "missing")
    with pytest.raises(DataFormatError, match="no task"):
        load_federated_csv(tmp_path)

    write_csv(tmp_path / "task_0.csv", [[1, 0.5, 0.5], [0, 0.5, 0.5]])
    with pytest.raises(DataFormatError, match=r"task_0\.csv:2.*label"):
        load_federated_csv(tmp_path)

    write_csv(tmp_path / "task_0.csv", [[1, 0.5, "oops"]])
    with pytest.raises(DataFormatError, match=r"task_0\.csv:1.*non-numeric"):
        load_federated_csv(tmp_path)

    write_csv(tmp_path / "task_0.csv", [[1, 0.5, 0.5]])
    write_csv(tmp_path / "task_1.csv", [[1, 0.5, 0.5, 0.5]])
    with pytest.raises(DataFormatError, match=r"task_1\.csv:1.*expected 2"):
        load_federated_csv(tmp_path)


def test_load_rejects_non_finite_features(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        write_csv(tmp_path / "task_0.csv", [[1, 0.5, 0.5], [-1, 0.5, bad]])
        with pytest.raises(DataFormatError, match=r"task_0\.csv:2.*non-finite"):
            load_federated_csv(tmp_path)


def test_load_rejects_features_whose_squared_norm_overflows(tmp_path):
    write_csv(tmp_path / "task_0.csv", [[1, 0.5, 0.5], [-1, 0.5, "1e200"]])
    with pytest.raises(DataFormatError, match=r"task_0\.csv:2.*squared norm"):
        load_federated_csv(tmp_path)
    write_csv(tmp_path / "task_0.csv", [[1, 0.5, 0.5], [-1, 0.5, "1e150"]])
    assert np.isfinite(load_federated_csv(tmp_path).col_norms2).all()


def test_dataset_rejects_a_squared_norm_that_overflows():
    X = np.zeros((2, 3))
    X[1, 2] = 1e200
    task = TaskDataset(0, np.zeros((2, 1)), np.array([1.0]))
    with pytest.raises(ValueError, match="squared norm overflows"):
        FederatedDataset((task, TaskDataset(1, X, np.array([1.0, -1.0, 1.0]))))
    X[1, 2] = 1e150
    ds = FederatedDataset((task, TaskDataset(1, X, np.array([1.0, -1.0, 1.0]))))
    assert np.isfinite(ds.col_norms2).all()


def test_task_rejects_non_finite_features():
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((2, 3))
        X[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            TaskDataset(0, X, np.array([1.0, -1.0, 1.0]))


def test_save_load_roundtrip(tmp_path, rng):
    spec = SyntheticSpec(m=3, d=5, n_min=4, n_max=9, seed=11)
    ds = generate_synthetic(spec)
    save_federated_csv(ds, tmp_path)
    back = load_federated_csv(tmp_path)
    assert back.m == ds.m
    for t1, t2 in zip(ds.tasks, back.tasks):
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(t1.labels, t2.labels)


def test_task_validation():
    with pytest.raises(ValueError, match="exactly"):
        TaskDataset(0, np.zeros((2, 3)), np.array([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        FederatedDataset((
            TaskDataset(0, np.zeros((2, 2)), np.array([1.0, -1.0])),
            TaskDataset(1, np.zeros((3, 2)), np.array([1.0, -1.0])),
        ))
    with pytest.raises(ValueError, match="task ids"):
        FederatedDataset((TaskDataset(1, np.zeros((2, 2)), np.array([1.0, -1.0])),))


def test_synthetic_single_cluster_separable():
    spec = SyntheticSpec(m=4, d=6, n_min=20, n_max=20, cluster_count=1,
                         deviation=0.0, noise=0.0, seed=3)
    ds, weights = generate_synthetic(spec, return_weights=True)
    # one generating hyperplane fits everything
    assert np.allclose(weights, weights[:, [0]])
    _, mean_err = prediction_error(weights, ds)
    assert mean_err == 0.0


def test_synthetic_deterministic():
    spec = SyntheticSpec(m=3, d=4, n_min=5, n_max=9, cluster_count=2,
                         deviation=0.3, noise=0.1, seed=7)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for t1, t2 in zip(a.tasks, b.tasks):
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(t1.labels, t2.labels)


def test_synthetic_two_clusters():
    spec = SyntheticSpec(m=6, d=8, n_min=60, n_max=60, cluster_count=2,
                         deviation=0.1, noise=0.0, seed=5)
    ds, weights = generate_synthetic(spec, return_weights=True)
    errs, mean_err = prediction_error(weights, ds)
    assert mean_err == 0.0  # per-task weights classify their own labels
    # a model from the other cluster misclassifies measurably
    swapped = weights[:, [1, 0, 3, 2, 5, 4]]
    _, cross_err = prediction_error(swapped, ds)
    assert cross_err > 0.0


def test_split_counts_and_determinism():
    spec = SyntheticSpec(m=2, d=3, n_min=8, n_max=8, seed=1)
    ds = generate_synthetic(spec)
    train, test = train_test_split(ds, 0.75, seed=2)
    assert train.task_sizes() == [6, 6]
    assert test.task_sizes() == [2, 2]
    train2, test2 = train_test_split(ds, 0.75, seed=2)
    for a, b in zip(train.tasks, train2.tasks):
        assert np.array_equal(a.features, b.features)


def test_split_partitions_disjoint_and_complete(rng):
    from tests.conftest import make_dataset
    ds = make_dataset(rng, m=3, d=4, n_lo=5, n_hi=12)
    train, test = train_test_split(ds, 0.6, seed=9)
    for orig, tr, te in zip(ds.tasks, train.tasks, test.tasks):
        assert tr.n + te.n == orig.n
        combined = np.concatenate([tr.features, te.features], axis=1)
        # every original column appears exactly once across the two sides
        orig_cols = sorted(map(tuple, orig.features.T.tolist()))
        combined_cols = sorted(map(tuple, combined.T.tolist()))
        assert orig_cols == combined_cols


def test_split_table_shape_bounds():
    # train sizes for per-task counts between 210 and 306 at a 75% split
    tasks = []
    for t, n in enumerate([210, 306, 250]):
        rng = np.random.default_rng(t)
        y = rng.choice([-1.0, 1.0], size=n)
        tasks.append(TaskDataset(t, rng.standard_normal((2, n)), y))
    ds = FederatedDataset(tuple(tasks))
    train, _ = train_test_split(ds, 0.75, seed=0)
    assert train.task_sizes() == [158, 230, 188]
    assert all(158 <= k <= 230 for k in train.task_sizes())


def test_split_requires_two_examples():
    ds = FederatedDataset((TaskDataset(0, np.zeros((2, 1)), np.array([1.0])),))
    with pytest.raises(ValueError, match="< 2"):
        train_test_split(ds, 0.5, seed=0)


def test_prediction_error_zero_weights():
    spec = SyntheticSpec(m=3, d=4, n_min=30, n_max=30, seed=13)
    ds = generate_synthetic(spec)
    errs, mean_err = prediction_error(np.zeros((ds.d, ds.m)), ds)
    for t, task in enumerate(ds.tasks):
        assert errs[t] == pytest.approx(np.mean(task.labels == 1.0))
    assert np.all((errs >= 0.0) & (errs <= 1.0))
    assert mean_err == pytest.approx(errs.mean())


def test_prediction_error_shape_check():
    spec = SyntheticSpec(m=2, d=4, n_min=5, n_max=5, seed=1)
    ds = generate_synthetic(spec)
    with pytest.raises(ValueError):
        prediction_error(np.zeros((3, 2)), ds)


def test_standardize():
    spec = SyntheticSpec(m=3, d=4, n_min=20, n_max=30, seed=17)
    ds = generate_synthetic(spec)
    train, test = train_test_split(ds, 0.7, seed=5)
    ztrain, ztest = standardize(train, test)
    pooled = np.concatenate([t.features for t in ztrain.tasks], axis=1)
    assert np.allclose(pooled.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(pooled.std(axis=1), 1.0, atol=1e-12)
    # test transformed with train statistics, not its own
    pooled_test = np.concatenate([t.features for t in ztest.tasks], axis=1)
    assert not np.allclose(pooled_test.mean(axis=1), 0.0, atol=1e-3)


@pytest.mark.parametrize("deviation", [np.nan, np.inf, -0.1])
def test_synthetic_deviation_must_be_finite_and_non_negative(deviation):
    with pytest.raises(ValueError, match="deviation"):
        SyntheticSpec(m=2, d=3, n_min=4, n_max=4, deviation=deviation)
