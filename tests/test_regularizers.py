import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedmtl.regularizers import (
    MeanRegularized,
    ProbabilisticPrior,
    build_relationship,
    initial_omega,
    mean_reg_omega,
    primal_from_dual,
    read_matrix_csv,
    regularizer_conjugate,
    regularizer_grad,
    regularizer_value,
    sigma_prime,
    sigma_prime_per_task,
    update_omega,
    write_matrix_csv,
)
from fedmtl.theory import sigma_prime_sides

MBAR_2 = np.array([[0.75, 0.25], [0.25, 0.75]])


def inv2x2(a):
    """Cofactor inversion oracle for 2x2 matrices."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det


def random_quadratic_form(W, mbar):
    """vec(W)^T (Mbar^{-1} kron I) vec(W), assembled entrywise."""
    minv = np.linalg.inv(mbar)
    total = 0.0
    for t in range(W.shape[1]):
        for t2 in range(W.shape[1]):
            total += minv[t, t2] * float(W[:, t] @ W[:, t2])
    return total


def test_mean_reg_omega():
    assert np.allclose(mean_reg_omega(2), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    assert np.allclose(mean_reg_omega(1), [[0.0]])
    for m in (2, 3, 7):
        omega = mean_reg_omega(m)
        assert np.allclose(omega @ np.ones(m), 0.0, atol=1e-12)
        assert np.allclose(omega, omega.T)


def test_build_relationship_mean_regularized():
    mbar = build_relationship(MeanRegularized(1.0, 1.0), mean_reg_omega(2)).mbar
    # oracle: cofactor inversion of [[1.5,-0.5],[-0.5,1.5]]
    expected = inv2x2(np.array([[1.5, -0.5], [-0.5, 1.5]]))
    assert np.allclose(expected, MBAR_2, atol=1e-15)
    assert np.allclose(mbar, MBAR_2, atol=1e-12)
    # uncoupled tasks
    mbar0 = build_relationship(MeanRegularized(0.0, 2.0), mean_reg_omega(3)).mbar
    assert np.allclose(mbar0, np.eye(3) / 2.0, atol=1e-14)


def test_build_relationship_probabilistic():
    m = 4
    model = ProbabilisticPrior(lam=1.0, sigma2_prior=1.0, ridge_eps=1e-10)
    mbar = build_relationship(model, np.eye(m) / m).mbar
    assert np.allclose(mbar, np.eye(m) / (1.0 + m), atol=1e-8)


def test_build_relationship_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError):
        build_relationship(MeanRegularized(1.0, 1e-12), np.array([[-2.0]]))


@pytest.mark.parametrize("model", [MeanRegularized(1.0, 1.0), ProbabilisticPrior(lam=1.0)],
                         ids=["mean_regularized", "probabilistic"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_relationship_rejects_non_finite_omega(model, bad):
    omega = initial_omega(model, 2)
    omega[0, 1] = omega[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        build_relationship(model, omega)
    with pytest.raises(ValueError, match="finite"):
        build_relationship(model, np.array([[bad]]))


def test_build_relationship_names_the_failing_matrix():
    # trace 1, but one eigenvalue is -0.5: Omega + ridge is indefinite
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"omega \+ ridge .*min eigenvalue -5\.000e-01"):
        build_relationship(ProbabilisticPrior(lam=1.0), np.diag([1.5, -0.5]))
    # lambda1 * Omega + lambda2 * I has eigenvalues 1.1 - 2 and 1.1
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"coupling matrix .*min eigenvalue -9\.000e-01"):
        build_relationship(MeanRegularized(1.0, 1.1), np.diag([-2.0, 0.0]))


def test_sigma_prime():
    assert sigma_prime(np.eye(3)) == 1.0
    assert sigma_prime(MBAR_2) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert sigma_prime(MBAR_2, gamma=0.5) == pytest.approx(0.5 * sigma_prime(MBAR_2))
    with pytest.raises(ValueError):
        sigma_prime(MBAR_2, gamma=0.0)


def test_sigma_prime_per_task():
    per = sigma_prime_per_task(MBAR_2)
    assert np.allclose(per, [4.0 / 3.0, 4.0 / 3.0])
    per_diag = sigma_prime_per_task(np.diag([1.0, 2.0]), gamma=0.7)
    assert np.allclose(per_diag, [0.7, 0.7])
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        mbar = a @ a.T + 0.5 * np.eye(4)
        assert sigma_prime(mbar) == pytest.approx(sigma_prime_per_task(mbar).max())


def test_regularizer_conjugate():
    assert regularizer_conjugate(np.zeros((3, 2)), MBAR_2) == 0.0
    v = np.zeros((4, 1))
    v[0, 0] = 1.0
    assert regularizer_conjugate(v, np.eye(1)) == 0.25


def test_fenchel_young_regularizer():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, d = 3, 5
        a = rng.standard_normal((m, m))
        mbar = a @ a.T + 0.3 * np.eye(m)
        v = rng.standard_normal((d, m))
        w = primal_from_dual(v, mbar)
        r_value = random_quadratic_form(w, mbar)
        r_conj = regularizer_conjugate(v, mbar)
        inner = float(np.sum(w * v))
        assert abs(r_value + r_conj - inner) < 1e-8 * max(1.0, abs(inner))


def test_primal_from_dual_examples():
    assert np.allclose(primal_from_dual(np.zeros((3, 2)), MBAR_2), 0.0)
    v = np.zeros((4, 1))
    v[0, 0] = 2.0
    assert np.allclose(primal_from_dual(v, np.eye(1))[:, 0], [1.0, 0, 0, 0])
    v2 = np.zeros((2, 2))
    v2[0, 0] = 1.0
    W = primal_from_dual(v2, MBAR_2)
    assert np.allclose(W[:, 0], [0.375, 0.0])
    assert np.allclose(W[:, 1], [0.125, 0.0])


def test_gradient_of_conjugate_finite_differences():
    rng = np.random.default_rng(21)
    m, d = 3, 4
    a = rng.standard_normal((m, m))
    mbar = a @ a.T + 0.4 * np.eye(m)
    for _ in range(100):
        v = rng.standard_normal((d, m))
        grad = primal_from_dual(v, mbar)
        h = 1e-4
        for _ in range(3):  # a few random directions per point
            t = int(rng.integers(m))
            i = int(rng.integers(d))
            vp = v.copy(); vp[i, t] += h
            vm = v.copy(); vm[i, t] -= h
            fd = (regularizer_conjugate(vp, mbar) - regularizer_conjugate(vm, mbar)) / (2 * h)
            assert abs(fd - grad[i, t]) <= 1e-5 * max(1.0, abs(fd))


def test_regularizer_value_examples():
    precision = build_relationship(MeanRegularized(2.0, 1.0), mean_reg_omega(4)).precision
    assert regularizer_value(np.zeros((3, 4)), precision) == 0.0
    w = np.array([[3.0], [4.0]])
    precision = build_relationship(MeanRegularized(5.0, 1.0), mean_reg_omega(1)).precision
    assert regularizer_value(w, precision) == 25.0


def test_regularizer_value_consistent_with_mbar():
    rng = np.random.default_rng(13)
    m, d = 4, 6
    for model in (MeanRegularized(1.3, 0.7),
                  ProbabilisticPrior(lam=0.9, sigma2_prior=2.0, ridge_eps=1e-6)):
        rel = build_relationship(model, initial_omega(model, m))
        for _ in range(10):
            W = rng.standard_normal((d, m))
            direct = regularizer_value(W, rel.precision)
            quad = random_quadratic_form(W, rel.mbar)
            assert abs(direct - quad) <= 1e-8 * max(1.0, abs(quad))


def model_penalty(W, omega, model):
    """The penalty as each model defines it, in plain numpy."""
    if isinstance(model, MeanRegularized):
        return (model.lambda1 * np.trace(W @ omega @ W.T)
                + model.lambda2 * np.sum(W * W))
    ridged = omega + model.ridge_eps * np.eye(omega.shape[0])
    return model.lam * (np.sum(W * W) / model.sigma2_prior
                        + np.trace(W @ np.linalg.inv(ridged) @ W.T))


def learned_omega(rng, m):
    """Omega from the central update of a random W with fewer rows than tasks."""
    W = rng.standard_normal((max(1, m - 1 - int(rng.integers(m))), m))
    return update_omega(ProbabilisticPrior(lam=1.0), W, np.eye(m) / m)


def test_regularizer_value_matches_model_formulas():
    # The precision is checked against each model's own definition, not
    # only against Mbar^{-1}.
    rng = np.random.default_rng(19)
    for m in (1, 2, 5, 9):
        omega = learned_omega(rng, m)
        for model in (MeanRegularized(1.3, 0.7), MeanRegularized(0.0, 2.5),
                      ProbabilisticPrior(lam=0.9, sigma2_prior=2.0, ridge_eps=1e-6),
                      ProbabilisticPrior(lam=3.0, sigma2_prior=0.5, ridge_eps=1e-2)):
            rel = build_relationship(model, omega)
            for _ in range(5):
                W = rng.standard_normal((int(rng.integers(1, 7)), m))
                want = model_penalty(W, omega, model)
                got = regularizer_value(W, rel.precision)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_regularizer_grad_finite_differences():
    rng = np.random.default_rng(17)
    m, d = 3, 4
    for model in (MeanRegularized(1.1, 0.6),
                  ProbabilisticPrior(lam=0.8, sigma2_prior=1.5)):
        for omega in (initial_omega(model, m), learned_omega(rng, m)):
            W = rng.standard_normal((d, m))
            grad = regularizer_grad(W, build_relationship(model, omega).precision)
            h = 1e-5
            for _ in range(10):
                t = int(rng.integers(m)); i = int(rng.integers(d))
                Wp = W.copy(); Wp[i, t] += h
                Wm = W.copy(); Wm[i, t] -= h
                fd = (model_penalty(Wp, omega, model)
                      - model_penalty(Wm, omega, model)) / (2 * h)
                assert abs(fd - grad[i, t]) <= 1e-5 * max(1.0, abs(fd))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 12),
    d=st.integers(1, 6),
    mean_regularized=st.booleans(),
    weights=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    ridge_exp=st.floats(-8.0, -1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_primal_regularizer_equals_conjugate_at_dual_weights(
        m, d, mean_regularized, weights, ridge_exp, seed):
    """R(W(v)) = R*(v) and Fenchel-Young hold for W = Mbar v / 2, to within
    roundoff scaled by the condition number of Q, for both models on a
    learned, possibly singular, Omega."""
    rng = np.random.default_rng(seed)
    model = (MeanRegularized(*weights) if mean_regularized
             else ProbabilisticPrior(lam=weights[0], sigma2_prior=weights[1],
                                     ridge_eps=10.0 ** ridge_exp))
    rel = build_relationship(model, learned_omega(rng, m))
    v = rng.standard_normal((d, m))
    W = primal_from_dual(v, rel.mbar)
    r_value = regularizer_value(W, rel.precision)
    r_conj = regularizer_conjugate(v, rel.mbar)
    tol = 8.0 * np.linalg.cond(rel.precision) * np.finfo(float).eps * r_conj
    assert abs(r_value - r_conj) <= tol
    assert abs(r_value + r_conj - float(np.sum(W * v))) <= tol


def test_update_omega():
    model = ProbabilisticPrior(lam=1.0)
    mean_model = MeanRegularized(1.0, 1.0)
    omega0 = mean_reg_omega(3)
    W = np.random.default_rng(0).standard_normal((4, 3))
    assert update_omega(mean_model, W, omega0) is omega0

    # sqrt-then-normalize by hand: W^T W = diag(4, 1)
    W2 = np.array([[2.0, 0.0], [0.0, 1.0]])
    omega = update_omega(model, W2, np.eye(2) / 2)
    assert np.allclose(omega, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-12)

    omega_zero = update_omega(model, np.zeros((4, 3)), np.eye(3) / 3)
    assert np.allclose(omega_zero, np.eye(3) / 3)

    with pytest.raises(ValueError):
        update_omega(model, np.array([[np.nan, 0.0]]), np.eye(2) / 2)


def test_update_omega_output_properties():
    rng = np.random.default_rng(29)
    model = ProbabilisticPrior(lam=1.0)
    for _ in range(20):
        W = rng.standard_normal((5, 4))
        omega = update_omega(model, W, np.eye(4) / 4)
        assert np.abs(omega - omega.T).max() <= 1e-12
        assert np.linalg.eigvalsh(omega)[0] >= -1e-12
        assert abs(np.trace(omega) - 1.0) <= 1e-10


def test_learned_omega_stable_under_ulp_perturbation():
    # With d < m, W^T W is rank deficient; Omega must still move by no more
    # than roundoff when W does.
    rng = np.random.default_rng(31)
    model = ProbabilisticPrior(lam=1.0)
    for d, m in ((3, 12), (10, 100), (5, 40)):
        for _ in range(5):
            W = rng.standard_normal((d, m))
            bumped = W * (1.0 + 1e-15 * rng.standard_normal(W.shape))
            omega = update_omega(model, W, np.eye(m) / m)
            moved = update_omega(model, bumped, np.eye(m) / m)
            assert np.abs(moved - omega).max() <= 1e-12 * np.abs(omega).max()


def test_kappa_keeps_its_formula():
    # kappa_t = sigma' * Mbar_tt, with task t's own sigma'_t under per_task,
    # for fixed and learned Omega under both models.
    rng = np.random.default_rng(8)
    learner = ProbabilisticPrior(lam=0.5)
    for m in (1, 2, 5):
        learned = update_omega(learner, rng.standard_normal((3, m)), np.eye(m) / m)
        for model in (MeanRegularized(1.0, 0.5), learner):
            for omega in (initial_omega(model, m), learned):
                for gamma in (1.0, 0.7):
                    for mode in ("global", "per_task"):
                        rel = build_relationship(model, omega, gamma, mode)
                        diag = np.diag(rel.mbar)
                        if mode == "per_task":
                            want = sigma_prime_per_task(rel.mbar, gamma) * diag
                        else:
                            want = sigma_prime(rel.mbar, gamma) * diag
                        assert rel.kappa.shape == (m,) and (rel.kappa == want).all()
                        assert rel.sigma_prime == sigma_prime(rel.mbar, gamma)
    with pytest.raises(ValueError, match="sigma_prime_mode"):
        build_relationship(learner, np.eye(2) / 2, 1.0, "bogus")


def test_build_relationship_checks_trace():
    model = ProbabilisticPrior(lam=1.0)
    with pytest.raises(ValueError):
        build_relationship(model, np.eye(3))  # trace 3 != 1
    rel = build_relationship(model, np.eye(3) / 3, gamma=0.5)
    assert rel.gamma == 0.5
    assert rel.sigma_prime == pytest.approx(sigma_prime(rel.mbar, 0.5))


def test_safe_sigma_prime_inequality_random():
    from tests.conftest import make_dataset
    rng = np.random.default_rng(31)
    ds = make_dataset(rng, m=4, d=5, n_lo=6, n_hi=10)
    model = MeanRegularized(1.5, 0.8)
    rel = build_relationship(model, initial_omega(model, ds.m))
    alphas = rng.standard_normal((1000, ds.n))
    lhs, rhs = sigma_prime_sides(ds, rel.mbar, rel.kappa, 1.0, alphas)
    assert np.all(lhs - rhs >= -1e-9 * np.maximum(1.0, np.maximum(lhs, rhs)))


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    mat = rng.standard_normal((4, 4))
    path = tmp_path / "mat.csv"
    write_matrix_csv(path, mat)
    back = read_matrix_csv(path)
    assert np.array_equal(mat, back)
    header = path.read_text().splitlines()[0]
    assert header == "m,4"


@pytest.mark.parametrize("make", [
    lambda: MeanRegularized(lambda1=np.nan, lambda2=1.0),
    lambda: MeanRegularized(lambda1=1.0, lambda2=np.nan),
    lambda: MeanRegularized(lambda1=np.inf, lambda2=1.0),
    lambda: MeanRegularized(lambda1=1.0, lambda2=np.inf),
    lambda: ProbabilisticPrior(lam=np.nan),
    lambda: ProbabilisticPrior(lam=1.0, sigma2_prior=np.nan),
    lambda: ProbabilisticPrior(lam=1.0, ridge_eps=np.nan),
    lambda: ProbabilisticPrior(lam=np.inf),
], ids=["lambda1-nan", "lambda2-nan", "lambda1-inf", "lambda2-inf", "lam-nan",
        "sigma2_prior-nan", "ridge_eps-nan", "lam-inf"])
def test_coupling_settings_must_be_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()
