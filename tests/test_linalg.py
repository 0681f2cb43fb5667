import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmetrics
from qmetrics.errors import NotHermitian, NumericalError, SingularSecondArgument, UnsupportedTangent
from qmetrics.linalg import (
    central_difference,
    eig_hermitian,
    fix_phases,
    relative_entropy,
    sld_solve,
    unitary,
    unitary_slopes,
)


def random_hermitian(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / 2


def random_density(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = x @ x.conj().T + 1e-3 * np.eye(d)
    return m / np.trace(m).real


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 5))
def test_eig_reconstructs_and_is_sorted(seed, d):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, d)
    es = eig_hermitian(m)
    v = es.vectors
    assert np.allclose((v * es.values) @ v.conj().T, m, atol=1e-10)
    assert np.all(np.diff(es.values) <= 1e-12)  # descending
    assert np.allclose(v.conj().T @ v, np.eye(d), atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 4))
def test_eigenvector_gauge_is_deterministic(seed, d):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, d)
    v1 = eig_hermitian(m).vectors
    v2 = eig_hermitian(m.copy()).vectors
    assert np.array_equal(v1, v2)
    # largest-modulus entry of each column is real non-negative
    for k in range(d):
        col = v1[:, k]
        top = col[np.argmax(np.abs(col))]
        assert abs(top.imag) < 1e-12 and top.real >= 0


def test_fix_phases_idempotent():
    rng = np.random.default_rng(3)
    v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    w = fix_phases(v)
    assert np.allclose(fix_phases(w), w)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_stacked_eig_and_phases_equal_the_per_matrix_results_bit_for_bit():
    rng = np.random.default_rng(8)
    for d in range(1, 9):
        stack = np.array([random_hermitian(rng, d) for _ in range(12)]).reshape(3, 4, d, d)
        stack[0, 1] = np.diag(np.arange(d, dtype=float))  # a real diagonal matrix, ties of zeros
        es = eig_hermitian(stack)
        assert es.values.shape == (3, 4, d) and es.vectors.shape == (3, 4, d, d)
        frames = np.linalg.qr(rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d)))[0]
        fixed = fix_phases(frames)
        for i in np.ndindex(3, 4):
            one = eig_hermitian(stack[i])
            assert es.values[i].tobytes() == one.values.tobytes()
            # Each matrix of vectors keeps the layout of one decomposition's.
            assert es.vectors[i].strides == one.vectors.strides
            assert np.array_equal(es.vectors[i], one.vectors)
        for frame, row in zip(frames, fixed if d > 1 else ()):  # d = 1: see fix_phases
            assert fix_phases(frame).tobytes() == row.tobytes()


def test_a_stack_names_the_defect_of_its_first_non_hermitian_matrix():
    stack = np.array([np.eye(2), [[0.0, 1e-3], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(NotHermitian, match="by 1.000e-03"):
        eig_hermitian(stack)
    with pytest.raises(NotHermitian, match="square matrix"):
        eig_hermitian(np.ones((2, 2, 3)))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 4))
def test_sld_solve_residual(seed, d):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d)
    t = random_hermitian(rng, d)
    t = t - np.trace(t).real * np.eye(d) / d  # traceless tangent
    score = sld_solve(eig_hermitian(rho), t[None])[0]
    assert np.allclose((rho @ score + score @ rho) / 2, t, atol=1e-9)
    assert np.allclose(score, score.conj().T, atol=1e-12)


def test_sld_solve_rejects_off_support_tangent():
    rho = np.diag([1.0, 0.0]).astype(complex)
    bad = np.diag([-1.0, 1.0]).astype(complex)  # flows weight into the kernel
    with pytest.raises(UnsupportedTangent):
        sld_solve(eig_hermitian(rho), bad[None])


def test_sld_solve_on_a_stack_solves_each_tangent_and_raises_the_first_failure():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 3)
    es = eig_hermitian(rho)
    tangents = np.array([random_hermitian(rng, 3) for _ in range(4)])
    tangents -= np.trace(tangents, axis1=1, axis2=2).real[:, None, None] * np.eye(3) / 3
    scores = sld_solve(es, tangents)
    for t, score in zip(tangents, scores):
        assert np.allclose(score, sld_solve(es, t[None])[0], rtol=0, atol=1e-14)
        assert np.allclose((rho @ score + score @ rho) / 2, t, atol=1e-9)
    # Each tangent is checked in turn: Hermitian, then traceless, then supported.
    traced = tangents[0] + np.eye(3)
    skew = tangents[0] + np.triu(np.ones((3, 3)), 1)
    with pytest.raises(NotHermitian, match="not traceless"):
        sld_solve(es, [tangents[0], traced, skew])
    with pytest.raises(NotHermitian, match="not Hermitian"):
        sld_solve(es, [tangents[0], skew, traced])
    pure = eig_hermitian(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(UnsupportedTangent):
        sld_solve(pure, [[[0.0, 1.0], [1.0, 0.0]], np.diag([-1.0, 1.0]), np.ones((2, 2)) * 1j])
    assert np.all(np.isfinite(sld_solve(pure, [[[0.0, 1.0], [1.0, 0.0]]])))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 4))
def test_relative_entropy_nonnegative_and_faithful(seed, d):
    rng = np.random.default_rng(seed)
    rho, sigma = random_density(rng, d), random_density(rng, d)
    assert relative_entropy(rho, sigma) >= -1e-12
    assert abs(relative_entropy(rho, rho)) < 1e-12


def test_relative_entropy_singular_support():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SingularSecondArgument):
        relative_entropy(rho, sigma)


def test_central_difference_accuracy():
    value, d = central_difference(lambda t: np.sin(t[:, 0]), [0.3])
    assert d.shape == (1,) and value == np.sin(0.3)
    assert abs(d[0] - np.cos(0.3)) < 1e-10

    stacks = []

    def f(thetas):
        # f(x, y) = (sin x cos y, x^2 y): one call on the whole stencil.
        stacks.append(thetas.copy())
        x, y = thetas.T
        return np.stack([np.sin(x) * np.cos(y), x * x * y], axis=-1)

    x, y = 0.4, -1.1
    value, d = central_difference(f, np.array([x, y]))
    expected = [[np.cos(x) * np.cos(y), 2 * x * y], [-np.sin(x) * np.sin(y), x * x]]
    assert d.shape == (2, 2)
    assert np.max(np.abs(d - expected)) < 1e-10
    # One call: the point itself, then its 4p stencil points.
    assert len(stacks) == 1 and stacks[0].shape == (9, 2)
    assert np.array_equal(stacks[0][0], [x, y]) and np.array_equal(value, f(stacks[0][:1])[0])
    assert np.all(np.count_nonzero(stacks[0][1:] != [x, y], axis=1) == 1)

    # A stack of base points: one call on the n points and all 4np shifted
    # points, and each row equal bit for bit to the one-point call.
    base = np.array([[x, y], [0.1, 2.0], [-0.7, 0.3]])
    values, stacked = central_difference(f, base)
    assert len(stacks) == 3 and stacks[2].shape == (27, 2)
    assert np.array_equal(stacks[2][:3], base)
    assert values.shape == (3, 2) and stacked.shape == (3, 2, 2)
    for value, row, point in zip(values, stacked, base):
        one_value, one_row = central_difference(f, point)
        assert np.array_equal(row, one_row) and np.array_equal(value, one_value)


def test_a_step_that_rounds_away_raises_a_numerical_error():
    # At 1e12 theta + h rounds back to theta, and the difference read 0.
    calls = []
    with pytest.raises(NumericalError, match=r"step h=1e-05 rounds away at theta \[0.5, 1000000000000.0\]: "
                                             r"parameter 1 moves by 0.0 instead of 1e-05"):
        central_difference(lambda t: calls.append(t) or t, [0.5, 1e12])
    assert calls == []
    # At 1e6 the realized steps are off by about 2e-5 of h.
    with pytest.raises(NumericalError, match="rounds away"):
        central_difference(lambda t: t[:, 0], [1e6])
    # At 1e4 they are within 1e-6 of h.
    assert abs(central_difference(lambda t: t[:, 0] ** 2, [1e4])[1][0] - 2e4) < 1e-2


def test_no_export_takes_a_step_or_an_idle_option():
    # The step is the constant DEFAULT_H everywhere, central_difference included.
    exported = [v for k, v in vars(qmetrics).items() if callable(v) and not k.startswith("_")
                and v.__module__ != "qmetrics.errors"]  # exceptions have no signature
    methods = [m for cls in exported if isinstance(cls, type)
               for k, m in vars(cls).items() if inspect.isfunction(m) and not k.startswith("_")]
    assert len(exported) > 40 and qmetrics.ParametricFamily.drho in methods

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert [fn.__qualname__ for fn in exported + methods if "h" in params(fn)] == []
    assert "povm" not in params(qmetrics.evaluate_metric) | params(qmetrics.evaluate_metrics)
    assert "povm" in params(qmetrics.classical_fisher)
    for fn in (qmetrics.eig_hermitian, qmetrics.sld_solve, qmetrics.validate_density):
        assert not params(fn) & {"check", "rank_tol", "tol"}, fn.__name__
    assert "h" not in params(central_difference)


def test_unitary_matches_closed_form_rotation():
    sz = np.diag([1.0, -1.0])
    for t in (0.0, 0.7, -2.3):
        expected = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
        assert np.max(np.abs(unitary(t * sz / 2) - expected)) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_unitary_matches_scipy_expm(d):
    expm = pytest.importorskip("scipy.linalg").expm
    h = random_hermitian(np.random.default_rng(d), d)
    h = h / np.linalg.norm(h, 2)
    assert np.max(np.abs(unitary(h) - expm(-1j * h))) < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_unitary_slopes_agree_with_the_differenced_unitary(d):
    rng = np.random.default_rng(40 + d)
    h = random_hermitian(rng, d)
    gens = np.array([random_hermitian(rng, d) for _ in range(3)])
    u, du = unitary_slopes(h, gens)
    assert np.array_equal(u, unitary(h))
    # The stencil along each generator is the oracle.
    _, differenced = central_difference(lambda t: unitary(h + np.tensordot(t, gens, 1)), np.zeros(3))
    assert np.max(np.abs(du - differenced)) < 1e-8


def test_unitary_slopes_of_a_stack_equal_its_rows_and_hold_on_a_degenerate_spectrum():
    rng = np.random.default_rng(3)
    gens = np.array([random_hermitian(rng, 3) for _ in range(2)])
    w = unitary(random_hermitian(rng, 3))
    # An exactly degenerate pair: Phi_jk is -i e^{-i lam} there, not 0/0.
    hs = np.array([random_hermitian(rng, 3), (w * [0.3, 0.3, -0.5]) @ w.conj().T])
    u, du = unitary_slopes(hs, gens)
    assert u.shape == (2, 3, 3) and du.shape == (2, 2, 3, 3)
    for i, h in enumerate(hs):
        assert np.array_equal(du[i], unitary_slopes(h, gens)[1])
        _, differenced = central_difference(lambda t: unitary(h + np.tensordot(t, gens, 1)), np.zeros(2))
        assert np.max(np.abs(du[i] - differenced)) < 1e-8


def _eigh_unitary(h):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


@pytest.mark.parametrize("theta", [1.0, 1e4, 1e6, 1e8])
def test_unitary_keeps_its_bits_where_its_phases_are_resolved(theta):
    rng = np.random.default_rng(8)
    h, g = random_hermitian(rng, 3), random_hermitian(rng, 3)
    m = h + theta * g / np.linalg.norm(g, 2)
    assert np.array_equal(unitary(m), _eigh_unitary(m))
    assert np.array_equal(unitary_slopes(m, g[None])[0], unitary(m))


@pytest.mark.parametrize("theta", [1e10, 1e12, 1e16, 1e20])
def test_unitary_raises_where_its_phases_are_rounding_noise(theta):
    # eps |lambda| > 1e-7: at 1e16 the phases of exp(-i theta G) spread by 7e-2
    # over the next six floats of theta, and the family's SLD read that spread.
    rng = np.random.default_rng(8)
    h, g = random_hermitian(rng, 3), random_hermitian(rng, 3)
    m = h + theta * g / np.linalg.norm(g, 2)
    for call in (unitary, lambda a: unitary_slopes(a, g[None]), lambda a: unitary(np.array([h, a]))):
        with pytest.raises(NumericalError, match=r"eigenvalue \|lambda\| = .* resolves its phases only to"):
            call(m)


def test_import_loads_no_scipy():
    code = "import sys, qmetrics; print([m for m in sys.modules if m.startswith('scipy')])"
    src = os.path.dirname(os.path.dirname(qmetrics.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
