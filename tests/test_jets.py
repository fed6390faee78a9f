"""Truncated multivariate Taylor (jet) arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcint import jets
from rcint.jets import (
    PolyTensor,
    TaylorScalar,
    basis,
    const_poly,
    contract,
    poly_matrix_inverse,
    scalars_to_poly,
)


def _random_poly(b, comp_shape=(), batch=(), seed=0):
    rng = np.random.default_rng(seed)
    return PolyTensor(rng.standard_normal(batch + comp_shape + (b.size,)),
                      b, len(batch))


def _eval_poly(p: PolyTensor, x):
    """Direct monomial evaluation of the jet at offset x."""
    mono = np.prod(np.asarray(x) ** p.basis.exps, axis=1)
    return p.coeffs @ mono


class TestBasis:
    def test_sizes(self):
        assert basis(2, 3).size == 10
        assert basis(4, 2).size == 15
        assert basis(10, 6).size == 8008

    def test_degree_prefix_property(self):
        b = basis(3, 4)
        assert list(b.degs) == sorted(b.degs)
        for order in range(5):
            sub = basis(3, order)
            assert np.array_equal(sub.exps, b.exps[: sub.size])

    def test_lookup_roundtrip(self):
        b = basis(4, 3)
        idx = b.lookup(b.exps)
        assert np.array_equal(idx, np.arange(b.size))

    @pytest.mark.parametrize("order", [0, 3])
    def test_no_variables_is_one_monomial(self, order):
        b = basis(0, order)
        assert b.size == 1 and b.exps.shape == (1, 0)
        assert list(b.degs) == [0]
        assert list(b.deg_start) == [0] + [1] * (order + 1)
        assert b.index(()) == 0


class TestContract:
    def test_product_matches_direct_evaluation(self):
        b = basis(3, 4)
        p = _random_poly(b, seed=1)
        q = _random_poly(b, seed=2)
        prod = contract(",->", p, q, 4)
        x = np.array([0.0025, -0.005, 0.00375])
        # degree-truncation error is O(|x|^5)
        assert _eval_poly(prod, x) == pytest.approx(
            _eval_poly(p, x) * _eval_poly(q, x), abs=1e-10)

    def test_einsum_on_components(self):
        b = basis(2, 2)
        a = _random_poly(b, (3, 3), batch=(4,), seed=3)
        c = _random_poly(b, (3, 3), batch=(4,), seed=4)
        out = contract("ae,eb->ab", a, c, 0)
        want = np.einsum("...ae,...eb->...ab",
                         a.coeffs[..., 0], c.coeffs[..., 0])
        assert np.allclose(out.coeffs[..., 0], want)

    def test_inconsistent_letter_length_rejected(self):
        # b has length 3 in the first operand and 1 in the second
        b = basis(2, 1)
        x = _random_poly(b, (1, 3), seed=8)
        y = _random_poly(b, (1, 3), seed=9)
        with pytest.raises(ValueError, match="'b' has lengths 3 and 1"):
            contract("ab,bc->ac", x, y)

    def test_order_zero_is_value_product(self):
        b = basis(3, 3)
        p = _random_poly(b, (2,), seed=5)
        q = _random_poly(b, (2,), seed=6)
        out = contract("a,a->", p, q, 0)
        assert np.allclose(out.value(),
                           np.sum(p.value() * q.value(), axis=-1))


def _both_paths(pattern, a, b, order=None, chunk=jets._CHUNK):
    """`contract` forced onto the sparse path, then onto the dense path."""
    saved = jets._SPARSE_SHARE, jets._CHUNK
    out = []
    try:
        jets._CHUNK = chunk
        for share in (math.inf, -1.0):
            jets._SPARSE_SHARE = share
            out.append(contract(pattern, a, b, order))
    finally:
        jets._SPARSE_SHARE, jets._CHUNK = saved
    return out


def _sparse_poly(b, comp_shape, batch, density, rng):
    coeffs = rng.standard_normal(batch + comp_shape + (b.size,))
    coeffs *= (rng.uniform(size=comp_shape) < density)[..., None]
    return PolyTensor(coeffs, b, len(batch))


def _assert_paths_agree(pattern, a, b, order=None, chunk=jets._CHUNK):
    sparse, dense = _both_paths(pattern, a, b, order, chunk)
    assert sparse.coeffs.shape == dense.coeffs.shape
    assert sparse.batch_ndim == dense.batch_ndim
    assert sparse.basis is dense.basis
    np.testing.assert_allclose(sparse.coeffs, dense.coeffs, rtol=1e-12,
                               atol=1e-12)


@st.composite
def _contractions(draw):
    letters = "abcd"
    dims = {c: draw(st.integers(1, 3)) for c in letters}
    in_a = "".join(draw(st.permutations(letters))[: draw(st.integers(0, 3))])
    in_b = "".join(draw(st.permutations(letters))[: draw(st.integers(0, 3))])
    union = sorted(set(in_a + in_b))
    outs = "".join(c for c in draw(st.permutations(union))
                   if draw(st.booleans()))
    nvars = draw(st.integers(1, 3))
    order_a, order_b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    order = draw(st.none() | st.integers(0, 6))
    batches = st.sampled_from([(), (1,), (3,)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = _sparse_poly(basis(nvars, order_a), tuple(dims[c] for c in in_a),
                     draw(batches), draw(st.floats(0, 1)), rng)
    b = _sparse_poly(basis(nvars, order_b), tuple(dims[c] for c in in_b),
                     draw(batches), draw(st.floats(0, 1)), rng)
    chunk = draw(st.sampled_from([jets._CHUNK, 1, 40]))
    return f"{in_a},{in_b}->{outs}", a, b, order, chunk


class TestContractPaths:
    """The support-sparse kernel and the dense einsum kernel agree."""

    @settings(max_examples=150, deadline=None)
    @given(_contractions())
    def test_sparse_matches_dense(self, case):
        _assert_paths_agree(*case)

    @pytest.mark.parametrize("pattern", [
        ",->", ",ab->ab", "ab,->ab",  # rank-0 operands
        "ab,ab->ab",  # a letter shared and kept
        "ab,ab->",  # every letter shared and summed
        "ab,c->ac",  # b summed in one operand only
        "ab,bc->ac", "abcd,cdef->abef", "a,b->ab", "ba,bc->ca",
    ])
    @pytest.mark.parametrize("batches", [((), ()), ((), (4,)), ((1,), (4,)),
                                         ((4,), (4,))])
    def test_patterns_and_batches(self, pattern, batches):
        rng = np.random.default_rng(len(pattern))
        ins = pattern.split("->")[0].split(",")
        b = basis(2, 3)
        a_, b_ = (_sparse_poly(b, (3,) * len(s), batch, 0.5, rng)
                  for s, batch in zip(ins, batches))
        _assert_paths_agree(pattern, a_, b_)
        _assert_paths_agree(pattern, a_, b_, 2)

    @pytest.mark.parametrize("pattern", ["ab,bc->ac", ",ab->ab", ",->"])
    def test_all_zero_operand(self, pattern):
        b = basis(3, 2)
        ins = pattern.split("->")[0].split(",")
        zero = PolyTensor(np.zeros((2,) * len(ins[0]) + (b.size,)), b)
        other = _random_poly(b, (2,) * len(ins[1]), seed=10)
        for out in _both_paths(pattern, zero, other):
            assert out.coeffs.shape == (2,) * len(pattern.split("->")[1]) + (
                b.size,)
            assert not out.coeffs.any()

    def test_nan_reaches_output_through_nonzero_partner(self):
        b = basis(2, 2)
        x = np.zeros((3, 3, b.size))
        x[0, 1, 2] = np.nan
        x[2, 2] = 1.0
        y = np.zeros((3, 3, b.size))
        y[1, 0, 0] = 2.0
        for out in _both_paths("ab,bc->ac", PolyTensor(x, b), PolyTensor(y, b)):
            assert np.isnan(out.coeffs[0, 0]).any()
            assert np.isfinite(out.coeffs[2]).all()

    def test_sparse_path_runs_by_default_on_sparse_input(self, monkeypatch):
        calls = []
        monkeypatch.setattr(jets, "_contract_dense",
                            lambda *args: calls.append(args))
        b = basis(2, 2)
        x = np.zeros((10, 10, b.size))
        x[np.arange(10), np.arange(10)] = 1.0
        out = contract("ab,bc->ac", PolyTensor(x, b), PolyTensor(x, b))
        assert not calls
        assert np.array_equal(out.coeffs[..., 0], np.eye(10))


class TestDiff:
    def test_diff_of_monomials(self):
        b = basis(2, 3)
        p = PolyTensor(np.zeros(b.size), b)
        # x^2 y
        i = b.index((2, 1))
        p.coeffs[i] = 5.0
        dx = p.diff(0)
        assert dx.coeffs[dx.basis.index((1, 1))] == 10.0
        dy = p.diff(1)
        assert dy.coeffs[dy.basis.index((2, 0))] == 5.0


@st.composite
def _jet_operands(draw, count, rank):
    """`count` random jet tensors of one component shape (every axis of
    one length) and batch in a shared basis, with their own orders."""
    nvars = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 3)),) * rank
    batch = draw(st.sampled_from([(), (2,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [_sparse_poly(basis(nvars, draw(st.integers(0, 4))), shape, batch,
                         draw(st.floats(0.3, 1)), rng)
            for _ in range(count)]


def _assert_jets_close(got: PolyTensor, want: PolyTensor):
    assert got.basis is want.basis
    scale = max(np.abs(want.coeffs).max(initial=0.0), 1.0)
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0,
                               atol=1e-12 * scale)


class TestJetAlgebraProperties:
    """The truncated jet product is a commutative, associative ring product
    and `diff` is a derivation of it."""

    @settings(max_examples=60, deadline=None)
    @given(_jet_operands(2, 1))
    def test_product_is_commutative(self, ops):
        x, y = ops
        _assert_jets_close(contract("a,b->ab", x, y),
                           contract("b,a->ab", y, x))

    @settings(max_examples=60, deadline=None)
    @given(_jet_operands(3, 2))
    def test_product_is_associative(self, ops):
        a, b, c = ops
        k = min(t.basis.order for t in ops)
        left = contract("ab,bc->ac", contract("ab,bc->ac", a, b, k), c, k)
        right = contract("ab,bc->ac", a, contract("ab,bc->ac", b, c, k), k)
        _assert_jets_close(left, right)

    @settings(max_examples=60, deadline=None)
    @given(_jet_operands(2, 1), st.integers(0, 2))
    def test_diff_obeys_leibniz(self, ops, var):
        a, b = ops
        var %= a.basis.nvars
        k = min(a.basis.order, b.basis.order)
        if k == 0:
            return
        lhs = contract("a,a->a", a, b, k).diff(var)
        rhs = (contract("a,a->a", a.diff(var), b, k - 1)
               + contract("a,a->a", a, b.diff(var), k - 1))
        _assert_jets_close(lhs, rhs)


#: name -> (jet function, k-th derivative at a from NumPy functions)
_SERIES = {
    "sin": (TaylorScalar.sin, lambda a, k: np.sin(a + k * np.pi / 2)),
    "exp": (TaylorScalar.exp, lambda a, k: np.exp(a)),
    "pow": (lambda x: x ** 1.7,
            lambda a, k: math.prod(1.7 - j for j in range(k))
            * np.power(a, 1.7 - k)),
}


class TestAnalyticFunctionProperties:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(_SERIES)), order=st.integers(0, 6),
           a=st.floats(0.2, 2.5))
    def test_univariate_coefficients_are_taylor_coefficients(self, name,
                                                             order, a):
        fn, deriv = _SERIES[name]
        b = basis(1, order)
        got = fn(TaylorScalar.coordinate(b, 0, np.array([a]))).coeffs[0]
        want = [deriv(a, k) / math.factorial(k) for k in range(order + 1)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(_SERIES)), nvars=st.integers(1, 3),
           order=st.integers(0, 4), a=st.floats(0.5, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_composition_is_the_taylor_sum(self, name, nvars, order, a,
                                           seed):
        # f(p) = sum_k f^(k)(a)/k! (p - a)^k for a jet p of value a, with
        # the powers formed by `contract`
        fn, deriv = _SERIES[name]
        b = basis(nvars, order)
        coeffs = np.random.default_rng(seed).uniform(-1, 1, b.size)
        coeffs[0] = a
        got = PolyTensor(fn(TaylorScalar(b, coeffs)).coeffs, b)
        h = PolyTensor(np.where(np.arange(b.size) == 0, 0.0, coeffs), b)
        power = const_poly(1.0, b)
        want = const_poly(deriv(a, 0), b)
        for k in range(1, order + 1):
            power = contract(",->", power, h, order)
            want = want + (deriv(a, k) / math.factorial(k)) * power
        _assert_jets_close(got, want)


def _inverse_by_iteration(g: PolyTensor, order: int) -> PolyTensor:
    """Reference inverse: X <- X - X0 (g X - I), `order` passes of two
    full-order products each (each pass fixes one more degree)."""
    g = g.truncate(order) if g.basis.order > order else g
    x0 = np.linalg.inv(g.value())
    b = basis(g.basis.nvars, order)
    dim = g.comp_shape[-1]
    x = const_poly(x0, b, g.batch_ndim)
    x0p = const_poly(x0, b, g.batch_ndim)
    eye = const_poly(np.broadcast_to(np.eye(dim), x0.shape).copy(), b,
                     g.batch_ndim)
    for _ in range(order):
        resid = contract("ab,bc->ac", g, x, order) - eye
        x = x - contract("ab,bc->ac", x0p, resid, order)
    return x


def _spd_metric_jet(nvars, dim, order, batch, seed):
    """Symmetric jet whose value is positive definite at every point."""
    rng = np.random.default_rng(seed)
    b = basis(nvars, order)
    coeffs = 0.1 * rng.standard_normal((batch, dim, dim, b.size))
    coeffs = coeffs + coeffs.swapaxes(1, 2)
    coeffs[..., 0] += 2.0 * np.eye(dim)
    return PolyTensor(coeffs, b, 1)


class TestMatrixInverse:
    @settings(max_examples=60, deadline=None)
    @given(nvars=st.integers(1, 4), dim=st.integers(1, 4),
           order=st.integers(0, 5), batch=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_product_with_metric_is_identity(self, nvars, dim, order, batch,
                                             seed):
        g = _spd_metric_jet(nvars, dim, order, batch, seed)
        prod = contract("ab,bc->ac", g, poly_matrix_inverse(g, order), order)
        ident = np.zeros_like(prod.coeffs)
        ident[..., 0] = np.eye(dim)
        assert np.abs(prod.coeffs - ident).max() <= 1e-12

    @pytest.mark.parametrize("nvars,dim,order", [(1, 3, 5), (4, 4, 4),
                                                 (3, 2, 3), (6, 6, 2)])
    def test_matches_linear_iteration(self, nvars, dim, order):
        g = _spd_metric_jet(nvars, dim, order, 3, seed=order)
        got = poly_matrix_inverse(g, order)
        want = _inverse_by_iteration(g, order)
        assert got.basis is want.basis
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0,
                                   atol=1e-13)

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_one_contraction_per_degree(self, order, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return contract(*args, **kwargs)

        monkeypatch.setattr(jets, "contract", counting)
        poly_matrix_inverse(_spd_metric_jet(3, 3, 4, 2, seed=1), order)
        assert len(calls) == order

    def test_inverse_is_exact_to_order(self):
        b = basis(3, 4)
        rng = np.random.default_rng(8)
        coeffs = 0.1 * rng.standard_normal((2, 3, 3, b.size))
        coeffs[..., 0] = np.eye(3) + 0.05 * rng.standard_normal((2, 3, 3))
        coeffs[..., 0] += coeffs[..., 0].swapaxes(-1, -2) + 2 * np.eye(3)
        g = PolyTensor(coeffs, b, 1)
        gi = poly_matrix_inverse(g, 4)
        prod = contract("ae,eb->ab", g, gi, 4)
        ident = np.zeros_like(prod.coeffs)
        ident[..., 0] = np.eye(3)
        assert np.allclose(prod.coeffs, ident, atol=1e-12)


class TestTaylorScalar:
    def test_trig_jets_match_derivatives(self):
        b = basis(2, 5)
        x = TaylorScalar.coordinate(b, 0, np.array([0.3, 1.1]))
        s = x.sin()
        # coefficient of t^k about the base point is sin^(k)(x0)/k!
        i2 = b.index((2, 0))
        assert np.allclose(s.coeffs[:, i2], -np.sin([0.3, 1.1]) / 2)
        i3 = b.index((3, 0))
        assert np.allclose(s.coeffs[:, i3], -np.cos([0.3, 1.1]) / 6)

    def test_identity_sin2_cos2(self):
        b = basis(2, 4)
        x = TaylorScalar.coordinate(b, 0, np.array([0.7]))
        one = x.sin() * x.sin() + x.cos() * x.cos()
        want = np.zeros(b.size)
        want[0] = 1.0
        assert np.allclose(one.coeffs, want, atol=1e-14)

    def test_sqrt_squares_back(self):
        b = basis(1, 4)
        x = TaylorScalar.coordinate(b, 0, np.array([2.0]))
        r = x.sqrt()
        assert np.allclose((r * r).coeffs, x.coeffs, atol=1e-12)

    def test_negative_power(self):
        b = basis(1, 3)
        x = TaylorScalar.coordinate(b, 0, np.array([2.0]))
        inv = x ** (-1.0)
        prod = inv * x
        want = np.zeros(b.size)
        want[0] = 1.0
        assert np.allclose(prod.coeffs, want, atol=1e-13)

    def test_division_and_affine(self):
        b = basis(1, 3)
        x = TaylorScalar.coordinate(b, 0, np.array([0.5]))
        y = (1.0 + 2.0 * x) / (1.0 - x)
        # y(t) about 0.5: values and derivative via explicit formula
        assert np.allclose(y.coeffs[:, 0], 4.0)
        # y' = 3/(1-x)^2 = 12 at x = 0.5
        assert np.allclose(y.coeffs[:, 1], 12.0)


class TestScalarsToPoly:
    def test_mixed_entries_broadcast(self):
        b = basis(2, 2)
        x = TaylorScalar.coordinate(b, 0, np.array([0.1, 0.2, 0.3]))
        m = scalars_to_poly([[x * x, 0.0], [1.5, x]], b, batch_ndim=1)
        assert m.comp_shape == (2, 2)
        assert np.allclose(m.value()[:, 0, 0], [0.01, 0.04, 0.09])
        assert np.allclose(m.value()[:, 0, 1], 0.0)
        assert np.allclose(m.value()[:, 1, 0], 1.5)

    def test_truncate_and_value(self):
        b = basis(2, 3)
        p = _random_poly(b, seed=9)
        t = p.truncate(1)
        assert t.basis.order == 1
        assert np.allclose(t.coeffs, p.coeffs[: t.basis.size])
        assert const_poly(2.5, b).value() == 2.5
