import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_fbsde import autodiff as ad
from minmax_fbsde.autodiff import (
    NonFiniteProbe,
    ShapeError,
    Tape,
    as_matrix,
    finite_difference_check,
)
from reference import concat_rows, matmul, mul, rows, sigmoid, tanh, total


def finite_matrices(rows, cols, lo=-3.0, hi=3.0):
    return st.lists(
        st.lists(st.floats(lo, hi, allow_nan=False), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda ll: np.array(ll, dtype=np.float64))


class TestAsMatrix:
    def test_scalar_becomes_1x1(self):
        assert as_matrix(3.5).shape == (1, 1)
        assert as_matrix(3.5)[0, 0] == 3.5

    def test_vector_becomes_column(self):
        out = as_matrix([1.0, 2.0, 3.0])
        assert out.shape == (3, 1)

    def test_matrix_passthrough(self):
        x = np.arange(6.0).reshape(2, 3)
        assert as_matrix(x).shape == (2, 3)

    def test_higher_rank_rejected(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 2, 2)))


class TestForward:
    def test_add_hand_value(self):
        tape = Tape()
        a = tape.leaf([1.0, 2.0])
        b = tape.leaf([3.0, 4.0])
        out = ad.add(a, b)
        np.testing.assert_array_equal(out.value.ravel(), [4.0, 6.0])

    # ``matmul`` and ``rows`` are the tests' own ops (``tests/reference.py``):
    # an ``affine`` with a zero bias and a ``column_map``
    def test_matmul_shapes(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((3, 4)))
        assert matmul(a, b).shape == (2, 4)

    def test_matmul_inner_mismatch(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((2, 4)))
        with pytest.raises(ShapeError):
            matmul(a, b)

    def test_elementwise_shape_mismatch(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((3, 2)))
        for op in (ad.add, ad.sub, mul):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_no_broadcasting_ever(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((1, 3)))
        with pytest.raises(ShapeError):
            ad.add(a, b)

    def test_sum_and_sumsq_are_1x1(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        assert total(x).shape == (1, 1)
        assert total(x).value[0, 0] == 10.0
        assert ad.sumsq(x).value[0, 0] == 30.0

    def test_concat_rows_then_rows_roundtrip(self):
        tape = Tape()
        a = tape.leaf(np.arange(6.0).reshape(2, 3))
        b = tape.leaf(np.arange(9.0).reshape(3, 3))
        stacked = concat_rows([a, b])
        assert stacked.shape == (5, 3)
        back = rows(stacked, 2, 5)
        np.testing.assert_array_equal(back.value, b.value)

    def test_rows_bounds_checked(self):
        tape = Tape()
        x = tape.leaf(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            rows(x, 2, 1)
        with pytest.raises(ShapeError):
            rows(x, 0, 4)

    def test_cross_tape_mixing_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones((2, 2)))
        b = t2.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.add(a, b)

    def test_eager_numpy_mode(self):
        # the same helpers act directly on arrays when no Var is involved
        out = ad.add(np.array([[1.0]]), np.array([[2.0]]))
        assert isinstance(out, np.ndarray)
        assert out[0, 0] == 3.0
        assert ad.smul(np.ones((1, 1)), -2.0)[0, 0] == -2.0


class TestSigmoid:
    """The reference sigmoid in ``tests/reference.py``, 0.5 tanh(a / 2) + 0.5
    in the LSTM kernel's operation order, whose gates ``test_fused`` checks
    against it; ``scipy.special.expit`` is the oracle here only."""

    GRID = np.concatenate([np.linspace(-750.0, 750.0, 300_001),
                           np.linspace(-40.0, 40.0, 80_001)]).reshape(1, -1)

    def test_matches_expit(self):
        from scipy.special import expit

        assert np.max(np.abs(sigmoid(self.GRID) - expit(self.GRID))) <= 1e-15

    def test_eager_and_taped_agree(self):
        x = np.linspace(-40.0, 40.0, 64 * 40).reshape(64, 40)
        taped = sigmoid(Tape().leaf(x)).value
        assert taped.tobytes() == sigmoid(x).tobytes()

    def test_infinities_saturate_exactly(self):
        out = sigmoid(np.array([[np.inf, -np.inf]]))
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0

    def test_nan_propagates(self):
        assert np.isnan(sigmoid(np.array([[np.nan, 0.0]])))[0].tolist() == [True, False]

    def test_finite_inputs_raise_no_warning(self):
        import warnings

        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            sigmoid(self.GRID)
            sigmoid(Tape().leaf(self.GRID))
            # LSTM gates driven to both saturations by the bias alone
            hid, cols = 2, 8
            bias = np.resize([1e300, -1e300, 750.0, -750.0], (4 * hid, 1))
            ad.lstm_cell(np.zeros((4 * hid, 1)), np.zeros((4 * hid, hid)), bias,
                         np.zeros((1, cols)), np.zeros((hid, cols)), np.ones((hid, cols)))

    def test_import_leaves_scipy_special_unloaded(self):
        """No scipy module at all: the runtime needs NumPy and PyYAML only."""
        import os
        import subprocess
        import sys

        import minmax_fbsde

        src = os.path.dirname(os.path.dirname(os.path.abspath(minmax_fbsde.__file__)))
        code = ("import sys, minmax_fbsde; "
                "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


class TestBackward:
    def test_requires_scalar_output(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        y = ad.add(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y, [x])

    def test_additive_fanout(self):
        # y = sum(x + x) so dy/dx = 2 everywhere
        tape = Tape()
        x = tape.leaf(np.ones((2, 3)))
        y = total(ad.add(x, x))
        (g,) = tape.backward(y, [x])
        np.testing.assert_array_equal(g, 2.0 * np.ones((2, 3)))

    def test_unused_leaf_gets_zero(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        unused = tape.leaf(np.ones((3, 3)))
        y = ad.sumsq(x)
        gx, gu = tape.backward(y, [x, unused])
        np.testing.assert_array_equal(gx, 2.0 * np.ones((2, 2)))
        np.testing.assert_array_equal(gu, np.zeros((3, 3)))

    def test_matmul_gradients(self):
        tape = Tape()
        a = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = tape.leaf(np.array([[5.0], [6.0]]))
        y = total(matmul(a, b))
        ga, gb = tape.backward(y, [a, b])
        np.testing.assert_allclose(ga, np.array([[5.0, 6.0], [5.0, 6.0]]))
        np.testing.assert_allclose(gb, np.array([[4.0], [6.0]]))

    def test_smul_gradient(self):
        tape = Tape()
        x = tape.leaf([[3.0]])
        y = ad.smul(x, -2.5)
        (g,) = tape.backward(y, [x])
        assert g[0, 0] == -2.5

    def test_sumsq_gradient(self):
        tape = Tape()
        x = tape.leaf([[1.0, -2.0]])
        (g,) = tape.backward(ad.sumsq(x), [x])
        np.testing.assert_allclose(g, [[2.0, -4.0]])

    def test_rows_gradient_scatters(self):
        tape = Tape()
        x = tape.leaf(np.arange(8.0).reshape(4, 2))
        y = total(rows(x, 1, 3))
        (g,) = tape.backward(y, [x])
        expected = np.zeros((4, 2))
        expected[1:3] = 1.0
        np.testing.assert_array_equal(g, expected)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(3, 3))

        def once():
            tape = Tape()
            a = tape.leaf(a0)
            y = ad.sumsq(tanh(matmul(a, a)))
            (g,) = tape.backward(y, [a])
            return g

        g1, g2 = once(), once()
        np.testing.assert_array_equal(g1, g2)


# x**3, defined here and nowhere in ``autodiff``: the tape runs any primitive
# through its kernel and vjp alone
CUBE = ad.Primitive("cube", lambda vals, aux: (vals[0] ** 3, None),
                    lambda g, vals, saved: (3.0 * g * vals[0] ** 2,))


class TestPrimitiveProtocol:
    def test_a_new_primitive_records_and_passes_finite_differences(self):
        def f(vec):
            tape = Tape()
            x = tape.leaf(vec.reshape(2, 3))
            y = total(tape.apply(CUBE, x))
            (g,) = tape.backward(y, [x])
            return float(y.value[0, 0]), g.ravel()

        assert finite_difference_check(f, np.linspace(-1.5, 2.0, 6)) < 1e-6

    def test_call_records_on_vars_and_evaluates_arrays(self):
        x = np.array([[1.0, -2.0]])
        tape = Tape()
        taped = ad.call(CUBE, (tape.leaf(x),))
        assert isinstance(taped, ad.Var) and len(tape) == 2
        with ad.saving() as saved:
            eager = ad.call(CUBE, (x,))
        np.testing.assert_array_equal(eager, [[1.0, -8.0]])
        assert eager.tobytes() == taped.value.tobytes()
        assert [prim for prim, _, _ in saved] == [CUBE]


class TestFiniteDifference:
    def test_quadratic_exact(self):
        def f(v):
            return float(v @ v), 2.0 * v

        err = finite_difference_check(f, np.array([1.0, -2.0, 0.5]))
        assert err < 1e-9

    def test_detects_wrong_gradient(self):
        def f(v):
            return float(v @ v), 3.0 * v  # wrong slope

        err = finite_difference_check(f, np.array([1.0, -2.0]))
        assert err > 1e-2

    def test_reports_nonfinite_probe(self):
        def f(v):
            if v[0] > 1.0:
                return float("nan"), v
            return float(v @ v), 2.0 * v

        with pytest.raises(NonFiniteProbe):
            finite_difference_check(f, np.array([1.0]), step=1e-2)


@settings(max_examples=30, deadline=None)
@given(finite_matrices(2, 3), finite_matrices(2, 3))
def test_add_matches_numpy(a, b):
    tape = Tape()
    out = ad.add(tape.leaf(a), tape.leaf(b))
    np.testing.assert_allclose(out.value, a + b)


@settings(max_examples=30, deadline=None)
@given(finite_matrices(2, 3), finite_matrices(3, 2))
def test_matmul_matches_numpy(a, b):
    tape = Tape()
    out = matmul(tape.leaf(a), tape.leaf(b))
    np.testing.assert_allclose(out.value, a @ b)


@settings(max_examples=25, deadline=None)
@given(finite_matrices(3, 2))
def test_sumsq_nonnegative_and_grad_linear(x):
    tape = Tape()
    leaf = tape.leaf(x)
    y = ad.sumsq(leaf)
    assert y.value[0, 0] >= 0.0
    (g,) = tape.backward(y, [leaf])
    np.testing.assert_allclose(g, 2.0 * x, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(finite_matrices(2, 2), st.integers(0, 2_000_000))
def test_gradient_matches_finite_differences(a, seed):
    # composite expression touching several primitives at a random point
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(2, 2))

    def f(vec):
        tape = Tape()
        x = tape.leaf(vec.reshape(2, 2))
        c = tape.leaf(w)
        y = ad.sumsq(tanh(matmul(c, x)))
        (g,) = tape.backward(y, [x])
        return float(y.value[0, 0]), g.ravel()

    err = finite_difference_check(f, a.ravel())
    assert err < 1e-5
