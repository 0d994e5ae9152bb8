"""Numeric core: op correctness against naive oracles, tape behavior, RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkit import tensor as T
from hybridkit.tensor import Rng, ShapeError, Tape, Tensor

from conftest import max_rel_err


# --------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    a = T.tensor([[1.0, 0.0], [0.0, 1.0]])
    b = T.tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(T.matmul(a, b).data, b.data)


def test_matmul_row_times_column():
    out = T.matmul(T.tensor([[1.0, 2.0]]), T.tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def test_matmul_against_triple_loop():
    rng = Rng(7)
    a = T.tensor(rng.normal((4, 5)))
    b = T.tensor(rng.normal((5, 3)))
    ref = naive_matmul(a.data, b.data)
    assert np.abs(T.matmul(a, b).data - ref).max() < 1e-12


@given(m=st.integers(1, 8), k=st.integers(1, 8), n=st.integers(1, 8),
       seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_matmul_matches_oracle_small(m, k, n, seed):
    rng = Rng(seed)
    a, b = rng.normal((m, k)), rng.normal((k, n))
    ref = naive_matmul(a, b)
    assert np.abs((T.tensor(a) @ T.tensor(b)).data - ref).max() < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.zeros((2, 3)), T.zeros((2, 3)))


def test_matmul_batched_broadcast():
    rng = Rng(3)
    a = T.tensor(rng.normal((2, 4, 3, 5)))
    b = T.tensor(rng.normal((5, 6)))
    out = T.matmul(a, b)
    assert out.shape == (2, 4, 3, 6)
    np.testing.assert_allclose(out.data[1, 2], a.data[1, 2] @ b.data, rtol=1e-14)


@pytest.mark.parametrize("mode,tol", [("extended", 1e-13), ("standard", 1e-6)])
@pytest.mark.parametrize("a_shape", [(3, 5, 4), (2, 3, 5, 4), (6, 1, 4)])
def test_matmul_weight_style_matches_f64_reference(mode, tol, a_shape):
    """A with leading axes (3-D, 4-D, a [B, 1, d] decode step) times a 2-D B."""
    T.set_precision(mode)
    rng = Rng(11)
    a = Tensor(rng.normal(a_shape), requires_grad=True)
    b = Tensor(rng.normal((4, 7)), requires_grad=True)
    probe = rng.normal(a_shape[:-1] + (7,))
    with Tape() as tape:
        out = T.matmul(a, b)
        loss = T.sum_all(T.mul(out, T.tensor(probe)))
    tape.backward(loss)
    a64, b64, p64 = (np.asarray(v, dtype=np.float64) for v in (a.data, b.data, probe))
    assert out.shape == a_shape[:-1] + (7,) and out.data.dtype == T.active_dtype()
    assert max_rel_err(out.data, np.einsum("...k,kn->...n", a64, b64)) < tol
    assert a.grad.shape == a.shape and b.grad.shape == b.shape
    assert max_rel_err(a.grad, np.einsum("...n,kn->...k", p64, b64)) < tol
    lead = tuple(range(len(a_shape) - 1))
    assert max_rel_err(b.grad, np.tensordot(a64, p64, axes=(lead, lead))) < tol


@pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 2, 3, 4), (3, 1, 4)])
def test_matmul_weight_style_finite_diff(a_shape):
    rng = Rng(12)
    a = T.tensor(rng.normal(a_shape))
    b = T.tensor(rng.normal((4, 3)))
    rmat = T.tensor(rng.normal(a_shape[:-1] + (3,)))
    assert T.finite_diff_check(lambda t: T.sum_all(T.mul(T.matmul(t, b), rmat)), a) < 1e-6
    assert T.finite_diff_check(lambda t: T.sum_all(T.mul(T.matmul(a, t), rmat)), b) < 1e-6


# --------------------------------------------------------------------------
# softmax

def test_softmax_symmetry():
    out = T.softmax_rows(T.tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)


def test_softmax_two_entry_formula():
    c = 1.0
    x = T.tensor([[0.3, 0.3 + c]])
    out = T.softmax_rows(x).data
    np.testing.assert_allclose(out, [[1 / (1 + np.e), np.e / (1 + np.e)]], rtol=1e-14)


def test_softmax_rows_sum_to_one_masked():
    rng = Rng(11)
    x = T.tensor(rng.normal((8, 8)))
    out = T.softmax_rows(x, causal=True)
    np.testing.assert_allclose(out.data.sum(-1), np.ones(8), atol=1e-12)
    # strictly zero above the diagonal
    assert (np.triu(out.data, k=1) == 0.0).all()


def test_softmax_huge_values_stable():
    out = T.softmax_rows(T.tensor([[1e8, 1e8 + 1.0]]))
    assert np.isfinite(out.data).all()


def test_softmax_all_masked_row_errors():
    with pytest.raises(ValueError, match="masked"):
        T.softmax_rows(T.zeros((2, 2)), causal=True, offset=-1)


@pytest.mark.parametrize("mode", ["standard", "extended"])
@pytest.mark.parametrize("offset", [0, 1, 3])
def test_softmax_causal_offset_matches_where_formula_and_keeps_input(mode, offset):
    """Cache continuation: tq < tk query rows that start `offset` keys in."""
    T.set_precision(mode)
    x = T.tensor(Rng(4).normal((2, 3, 4, 7)) * 5.0)
    before = x.data.copy()
    got = T.softmax_rows(x, causal=True, offset=offset).data
    np.testing.assert_array_equal(x.data, before)
    masked = np.arange(7) > np.arange(4)[:, None] + offset
    xm = np.where(masked, -np.inf, x.data)
    e = np.exp(xm - xm.max(axis=-1, keepdims=True))
    ref = e / e.sum(axis=-1, keepdims=True)
    assert got.dtype == x.dtype
    np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(x.dtype).eps, atol=0)
    assert (got[..., masked] == 0.0).all()


def test_softmax_offset_below_zero_with_no_rows_is_allowed():
    out = T.softmax_rows(T.zeros((0, 3)), causal=True, offset=-1)
    assert out.shape == (0, 3)


# --------------------------------------------------------------------------
# rmsnorm / activations

def test_rmsnorm_unit_vector():
    out = T.rmsnorm(T.tensor([1.0, 1.0, 1.0, 1.0]), T.ones((4,)), eps=0.0)
    np.testing.assert_allclose(out.data, np.ones(4), rtol=1e-15)


def test_rmsnorm_twos():
    out = T.rmsnorm(T.tensor([2.0, 2.0]), T.ones((2,)), eps=0.0)
    np.testing.assert_allclose(out.data, np.ones(2), rtol=1e-15)


def test_rmsnorm_matches_direct_formula():
    rng = Rng(5)
    x = rng.normal((16,))
    gain = rng.normal((16,))
    ref = x / np.sqrt(np.mean(x * x)) * gain
    got = T.rmsnorm(T.tensor(x), T.tensor(gain), eps=0.0).data
    assert max_rel_err(got, ref) < 1e-12


def test_sigmoid_and_silu_points():
    assert T.sigmoid(T.tensor([0.0])).data[0] == 0.5
    assert T.silu(T.tensor([0.0])).data[0] == 0.0
    big_neg = T.sigmoid(T.tensor([-1e4])).data[0]
    assert np.isfinite(big_neg) and big_neg < 1e-10


@pytest.mark.parametrize("mode,dtype,rtol", [("standard", np.float32, 1e-6),
                                             ("extended", np.float64, 1e-14)])
def test_sigmoid_relative_error_against_wider_reference(mode, dtype, rtol):
    T.set_precision(mode)
    x = np.linspace(-100.0, 100.0, 200_001).astype(dtype)
    wide = np.float64 if dtype == np.float32 else np.longdouble
    ref = 1.0 / (1.0 + np.exp(-x.astype(wide)))
    got = T.sigmoid(T.tensor(x)).data
    assert got.dtype == dtype
    # relative where the reference is a normal number of the tested dtype;
    # below that (f32 x < -87) outputs are subnormal and the error is absolute
    denom = np.maximum(np.abs(ref), np.finfo(dtype).tiny)
    assert float((np.abs(got - ref) / denom).max()) <= rtol
    assert (got[x >= -87.0] > 0).all()
    silu = T.silu(T.tensor(x)).data
    np.testing.assert_allclose(silu, x * ref, rtol=2 * rtol, atol=np.finfo(dtype).tiny)


@pytest.mark.parametrize("mode", ["standard", "extended"])
def test_sigmoid_extreme_inputs_warn_nothing(mode):
    T.set_precision(mode)
    x = T.tensor([-1e4, 1e4])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        s = T.sigmoid(x).data
        y = T.silu(x).data
    np.testing.assert_array_equal(s, [0.0, 1.0])
    np.testing.assert_array_equal(y, [-0.0, 1e4])


# --------------------------------------------------------------------------
# backward basics

def test_backward_sum_gives_ones():
    w = T.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = T.sum_all(w)
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_quadratic_gives_2w():
    w = T.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = T.sum_all(T.mul(w, w))
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, 2 * w.data, rtol=1e-15)


def test_backward_requires_scalar():
    w = T.tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.mul(w, w)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_module_fn_and_grad_accumulation():
    w = T.tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with Tape():
            loss = T.sum_all(T.mul(w, w))
        T.backward(loss)
    np.testing.assert_allclose(w.grad, 4 * w.data)


def test_no_tape_means_no_tracking():
    w = T.tensor([1.0], requires_grad=True)
    y = T.mul(w, w)
    assert y._tape is None and not y.requires_grad


def test_no_record_suspends_an_outer_tape():
    w = T.tensor([3.0], requires_grad=True)
    with Tape() as tape:
        y = T.mul(w, w)
        with T.no_record():
            frozen = T.mul(w, w)
            with Tape() as inner:  # a tape opened inside records again
                T.mul(w, w)
        loss = T.sum_all(T.mul(y, T.tensor(frozen.data)))
    assert frozen._tape is None and not frozen.requires_grad
    assert len(inner._records) == 1
    assert len(tape._records) == 3  # y, the product with the constant, the sum
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, [2 * 3.0 * 9.0])
    assert T.mul(w, w)._tape is None  # both contexts closed


# --------------------------------------------------------------------------
# finite differences

def test_finite_diff_quadratic_exact():
    x = T.tensor(Rng(0).normal((3, 3)))
    err = T.finite_diff_check(lambda t: T.sum_all(T.mul(t, t)), x, step=1e-4)
    assert err < 1e-8


def test_finite_diff_softmax_composite():
    rng = Rng(1)
    x = T.tensor(rng.normal((4, 5)))
    r = rng.normal((4, 5))

    def f(t):
        # linear term keeps every gradient entry away from zero
        return T.add(T.sum_all(T.mul(T.softmax_rows(t), T.tensor(r))),
                     T.scale(T.sum_all(t), 0.5))

    assert T.finite_diff_check(f, x, step=1e-4) < 1e-6


def test_finite_diff_detects_wrong_gradient():
    x = T.tensor(Rng(2).normal((6,)))

    def bad_op(t):
        # deliberately corrupted vjp: claims dx = g instead of 2g
        return T._emit(t.data * 2.0, [(t, lambda g: g)])

    err = T.finite_diff_check(lambda t: T.sum_all(bad_op(t)), x, step=1e-4)
    assert err > 1e-1


@pytest.mark.parametrize("op", ["add", "mul", "sub", "sigmoid", "silu", "rmsnorm",
                                "rmsnorm_qk", "softmax", "matmul", "rope", "embedding_like",
                                "concat_slice", "repeat", "scale"])
def test_finite_diff_each_op(op):
    """Every differentiable op passes the gradient oracle on random inputs."""
    from hybridkit.positional import RopeParams, rope_apply

    rng = Rng(42)
    errs = []
    for trial in range(5):
        r = rng.child(trial)
        x = T.tensor(r.normal((3, 4)))
        other = T.tensor(r.normal((3, 4)))
        lin = lambda t: T.scale(T.sum_all(t), 0.5)
        if op == "add":
            f = lambda t: T.add(T.sum_all(T.mul(T.add(t, other), T.add(t, other))), lin(t))
        elif op == "sub":
            f = lambda t: T.add(T.sum_all(T.mul(T.sub(t, other), T.sub(t, other))), lin(t))
        elif op == "mul":
            f = lambda t: T.add(T.sum_all(T.mul(t, other)), lin(t))
        elif op == "sigmoid":
            f = lambda t: T.add(T.sum_all(T.mul(T.sigmoid(t), other)), lin(t))
        elif op == "silu":
            f = lambda t: T.add(T.sum_all(T.mul(T.silu(t), other)), lin(t))
        elif op == "rmsnorm":
            gain = T.tensor(r.normal((4,)), requires_grad=True)
            f = lambda t: T.add(T.sum_all(T.mul(T.rmsnorm(t, gain), other)), lin(t))
        elif op == "rmsnorm_qk":
            # QK-norm shape: [B, H, T, d_h] input, per-head [H, 1, d_h] gain
            x = T.tensor(r.normal((2, 2, 3, 4)))
            gain = T.tensor(r.normal((2, 1, 4)), requires_grad=True)
            rmat = T.tensor(r.normal((2, 2, 3, 4)))
            f = lambda t: T.add(T.sum_all(T.mul(T.rmsnorm(t, gain), rmat)), lin(t))
            errs.append(T.finite_diff_check(
                lambda gn: T.sum_all(T.mul(T.rmsnorm(x, gn), rmat)), gain, step=1e-4))
        elif op == "softmax":
            f = lambda t: T.add(T.sum_all(T.mul(T.softmax_rows(t, causal=True), other)), lin(t))
        elif op == "matmul":
            w = T.tensor(r.normal((4, 2)))
            rmat = T.tensor(r.normal((3, 2)))
            f = lambda t: T.add(T.sum_all(T.mul(T.matmul(t, w), rmat)), lin(t))
        elif op == "rope":
            x = T.tensor(r.normal((5, 2, 4)))
            params = RopeParams(theta=100.0, head_dim=4)
            rmat = r.normal((5, 2, 4))
            f = lambda t: T.add(T.sum_all(T.mul(rope_apply(t, 3, params), T.tensor(rmat))), lin(t))
        elif op == "embedding_like":
            x = T.tensor(r.normal((6, 4)))
            ids = np.array([0, 2, 2, 5])
            rmat = r.normal((4, 4))
            f = lambda t: T.add(T.sum_all(T.mul(T.embedding(t, ids), T.tensor(rmat))), lin(t))
        elif op == "concat_slice":
            def f(t):
                parts = [T.slice_axis(t, 0, 0, 1), T.slice_axis(t, 0, 1, 3)]
                y = T.concat(parts, axis=0)
                return T.add(T.sum_all(T.mul(y, other)), lin(t))
        elif op == "repeat":
            rmat = r.normal((6, 4))
            f = lambda t: T.add(T.sum_all(T.mul(T.repeat_axis(t, 2, 0), T.tensor(rmat))), lin(t))
        elif op == "scale":
            f = lambda t: T.add(T.sum_all(T.mul(T.scale(t, 1.7), other)), lin(t))
        errs.append(T.finite_diff_check(f, x, step=1e-4))
    assert max(errs) < 1e-4, f"{op}: max fd error {max(errs):.2e}"


def test_finite_diff_cross_entropy_and_kl():
    rng = Rng(9)
    logits = T.tensor(rng.normal((5, 7)))
    targets = rng.integers(0, 7, size=5)
    lin = lambda t: T.scale(T.sum_all(t), 0.5)
    err = T.finite_diff_check(
        lambda t: T.add(T.cross_entropy(t, targets), lin(t)), logits, step=1e-4)
    assert err < 1e-4

    ref = rng.normal((5, 7))
    err = T.finite_diff_check(
        lambda t: T.add(T.kl_divergence(ref, t), lin(t)), logits, step=1e-4)
    assert err < 1e-4


def test_kl_gradient_is_softmax_difference():
    """d KL(p||q) / d q_logits must equal (softmax(q) - softmax(p)) / rows."""
    rng = Rng(13)
    ref = rng.normal((4, 6))
    q = T.tensor(rng.normal((4, 6)), requires_grad=True)
    with Tape() as tape:
        loss = T.kl_divergence(ref, q)
    tape.backward(loss)

    def softmax(a):
        e = np.exp(a - a.max(-1, keepdims=True))
        return e / e.sum(-1, keepdims=True)

    expected = (softmax(q.data) - softmax(ref)) / 4
    np.testing.assert_allclose(q.grad, expected, atol=1e-12)


def test_kl_of_identical_logits_is_zero():
    x = Rng(3).normal((6, 9))
    assert abs(T.kl_divergence(x, T.tensor(x)).data) < 1e-12


# --------------------------------------------------------------------------
# determinism & rng

def test_rng_bit_exact_repeatability():
    a = Rng(123).normal((100,))
    b = Rng(123).normal((100,))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, Rng(124).normal((100,)))


def test_rng_child_streams_independent():
    r = Rng(5)
    a = r.child(1).normal((10,))
    b = r.child(2).normal((10,))
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, Rng(5).child(1).normal((10,)))


def test_op_sequence_bit_determinism():
    def run():
        rng = Rng(77)
        x = T.tensor(rng.normal((16, 16)))
        w = T.tensor(rng.normal((16, 16)))
        y = T.softmax_rows(T.matmul(x, w), causal=True)
        return T.rmsnorm(y, T.ones((16,))).data.copy()

    np.testing.assert_array_equal(run(), run())


def test_precision_modes():
    T.set_precision("standard")
    assert T.zeros((2,)).data.dtype == np.float32
    T.set_precision("extended")
    assert T.zeros((2,)).data.dtype == np.float64


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_rng_seeds_never_crash(seed):
    assert Rng(seed).normal((3,)).shape == (3,)
