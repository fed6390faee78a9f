"""Truncated multivariate Taylor (jet) arithmetic."""

import math
import platform
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcint import jets
from rcint.geometry import MODEL_NAMES, _coordinate_jets, get_model
from rcint.integrate import integrate_scalar
from rcint.invariants import pf_ell_poly, raise_last_two, weyl_norm2_field
from rcint.jets import (
    PolyTensor,
    basis,
    const_poly,
    contract,
    coordinate_poly,
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

    @pytest.mark.parametrize("order", [0, 2])
    @pytest.mark.parametrize("pattern", [
        "a,a->",  # leaves an axis of x out
        "ab,b->aa", "ab,b->c",  # an output letter twice, or not an input
        "aa,a->a", "aa,ab->b", "aba,b->a",  # a diagonal: a trace is pt_trace
    ])
    def test_invalid_pattern_rejected(self, pattern, order):
        b = basis(2, 2)
        in_a, in_b = pattern.split("->")[0].split(",")
        x = _random_poly(b, (3,) * max(len(in_a), 2), seed=14)
        y = _random_poly(b, (3,) * len(in_b), seed=15)
        with pytest.raises(ValueError, match="once each"):
            contract(pattern, x, y, order)

    @pytest.mark.parametrize("pattern", [
        "ab,bc", "ab->a", "ab,bc,c->a", "ab,bc->ac->a"])
    def test_malformed_pattern_rejected(self, pattern):
        b = basis(2, 1)
        x = _random_poly(b, (3, 3), seed=16)
        with pytest.raises(ValueError, match="^" + re.escape(repr(pattern))):
            contract(pattern, x, x)

    def test_each_shape_is_checked(self):
        # the plan cache holds valid shapes only: a mismatch with the same
        # pattern still raises, at both orders and on every call
        b = basis(2, 1)
        x = _random_poly(b, (1, 3), seed=8)
        contract("ab,bc->ac", x, _random_poly(b, (3, 2), seed=9))
        y = _random_poly(b, (1, 3), seed=10)
        for order in (0, 1, 1):
            with pytest.raises(ValueError, match="'b' has lengths 3 and 1"):
                contract("ab,bc->ac", x, y, order)

    def test_order_zero_is_value_product(self):
        b = basis(3, 3)
        p = _random_poly(b, (2,), seed=5)
        q = _random_poly(b, (2,), seed=6)
        out = contract("a,a->", p, q, 0)
        assert np.allclose(out.value(),
                           np.sum(p.value() * q.value(), axis=-1))


def _contract_in_chunks(pattern, a, b, order=None, chunk=jets._CHUNK):
    """`contract` with its chunk size set to `chunk` elements."""
    saved, jets._CHUNK = jets._CHUNK, chunk
    try:
        return contract(pattern, a, b, order)
    finally:
        jets._CHUNK = saved


def _contract_by_jet_pairs(pattern, a, b, order=None):
    """Reference `contract`: every pair of monomials of the two bases, one
    einsum of their coefficient arrays each, added into the coefficient of
    the product monomial."""
    if order is None:
        order = min(a.basis.order, b.basis.order)
    order = min(order, a.basis.order + b.basis.order)
    ins, outs = pattern.split("->")
    in_a, in_b = ins.split(",")
    bo = basis(a.basis.nvars, order)
    batch = np.broadcast_shapes(a.coeffs.shape[: a.batch_ndim],
                                b.coeffs.shape[: b.batch_ndim])
    dims = dict(zip(in_a + in_b, a.comp_shape + b.comp_shape))
    out = np.zeros(batch + tuple(dims[c] for c in outs) + (bo.size,),
                   np.result_type(a.coeffs, b.coeffs, 0.0))
    for i, ei in enumerate(a.basis.exps):
        for j, ej in enumerate(b.basis.exps):
            if ei.sum() + ej.sum() <= order:
                out[..., bo.index(ei + ej)] += np.einsum(
                    f"...{in_a},...{in_b}->...{outs}",
                    a.coeffs[..., i], b.coeffs[..., j])
    return PolyTensor(out, bo, len(batch))


def _sparse_poly(b, comp_shape, batch, density, rng):
    coeffs = rng.standard_normal(batch + comp_shape + (b.size,))
    coeffs *= (rng.uniform(size=comp_shape) < density)[..., None]
    return PolyTensor(coeffs, b, len(batch))


def _assert_matches_oracle(pattern, a, b, order=None, chunk=jets._CHUNK):
    got = _contract_in_chunks(pattern, a, b, order, chunk)
    want = _contract_by_jet_pairs(pattern, a, b, order)
    assert got.coeffs.shape == want.coeffs.shape
    assert got.coeffs.dtype == want.coeffs.dtype
    assert got.batch_ndim == want.batch_ndim
    assert got.basis is want.basis
    np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-12,
                               atol=1e-12)


def _forbid_joins(monkeypatch):
    """Make any join of supports in this test raise, the table emptied so
    that no kept join stands in for one."""
    def join(*args):
        raise AssertionError("full supports reached the join")

    monkeypatch.setattr(jets, "_JOINS", {})
    monkeypatch.setattr(jets, "_join", join)


def _operand_letters(draw, letters):
    """One operand's letters: distinct, at most three."""
    return "".join(draw(st.lists(st.sampled_from(letters), max_size=3,
                                 unique=True)))


def _pattern_letters(draw, letters):
    """The letters of a valid pattern: an output letter is named by an
    operand, and a letter the output leaves out by both."""
    in_a, in_b = (_operand_letters(draw, letters) for _ in range(2))
    union = sorted(set(in_a + in_b))
    outs = "".join(c for c in draw(st.permutations(union))
                   if c not in in_a or c not in in_b or draw(st.booleans()))
    return in_a, in_b, outs


@st.composite
def _contractions(draw):
    """Operands of a `contract` at output order >= 1."""
    letters = "abcd"
    dims = {c: draw(st.integers(1, 3)) for c in letters}
    in_a, in_b, outs = _pattern_letters(draw, letters)
    nvars = draw(st.integers(1, 3))
    # at output order 0 `contract` multiplies the values, not in the kernel
    order_a, order_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    order = draw(st.none() | st.integers(1, min(order_a, order_b)))
    batches = st.sampled_from([(), (1,), (3,)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # density 1 gives full supports, which `contract` multiplies by matmul
    densities = st.floats(0, 1) | st.just(1.0)
    a = _sparse_poly(basis(nvars, order_a), tuple(dims[c] for c in in_a),
                     draw(batches), draw(densities), rng)
    b = _sparse_poly(basis(nvars, order_b), tuple(dims[c] for c in in_b),
                     draw(batches), draw(densities), rng)
    chunk = draw(st.sampled_from([jets._CHUNK, 1, 40]))
    return f"{in_a},{in_b}->{outs}", a, b, order, chunk


class TestContractPaths:
    """The support kernel of `contract` against a naive oracle, one einsum
    per jet pair."""

    @settings(max_examples=150, deadline=None)
    @given(_contractions())
    def test_matches_naive_oracle(self, case):
        _assert_matches_oracle(*case)

    @pytest.mark.parametrize("pattern", [
        ",->", ",ab->ab", "ab,->ab",  # rank-0 operands
        "ab,ab->ab",  # a letter shared and kept
        "ab,ab->",  # every letter shared and summed
        "ab,c->ac",  # b summed in one operand only: rejected
        "ab,bc->ac", "abcd,cdef->abef", "a,b->ab", "ba,bc->ca",
        "aa,ab->b", "aba,b->a",  # a diagonal: rejected, a trace is pt_trace
    ])
    @pytest.mark.parametrize("batches", [((), ()), ((), (4,)), ((1,), (4,)),
                                         ((4,), (4,)), ((1,), ()), ((3,), ()),
                                         ((4,), ())])
    def test_patterns_and_batches(self, pattern, batches, monkeypatch):
        rng = np.random.default_rng(len(pattern))
        ins = pattern.split("->")[0].split(",")
        b = basis(2, 3)
        a_, b_ = (_sparse_poly(b, (3,) * len(s), batch, 0.5, rng)
                  for s, batch in zip(ins, batches))
        if pattern.startswith(("aa", "aba")):
            for order in (None, 2):
                with pytest.raises(ValueError, match="once each"):
                    contract(pattern, a_, b_, order)
            return
        if pattern == "ab,c->ac":  # checked at both orders, on every call
            for order in (0, 1, 1):
                with pytest.raises(ValueError, match="'ab,c->ac': letter "
                                   "'b' is summed, so both operands"):
                    contract(pattern, a_, b_, order)
            return
        _assert_matches_oracle(pattern, a_, b_)
        _assert_matches_oracle(pattern, a_, b_, 2)
        # full supports: the matmul path, never the join
        a_, b_ = (_sparse_poly(b, (3,) * len(s), batch, 1, rng)
                  for s, batch in zip(ins, batches))
        _forbid_joins(monkeypatch)
        for order in (None, 2, 1):
            _assert_matches_oracle(pattern, a_, b_, order)
            out = contract(pattern, a_, b_, order)
            assert np.array_equal(out.support,
                                  np.arange(math.prod(out.comp_shape)))

    @pytest.mark.parametrize("order", [None, 1, 2])
    def test_full_supports_never_join(self, order, monkeypatch):
        # operands of orders 3 and 2, batched and unbatched, real and
        # complex
        _forbid_joins(monkeypatch)
        rng = np.random.default_rng(21)
        x = _sparse_poly(basis(3, 3), (3, 2), (5,), 1, rng)
        y = _sparse_poly(basis(3, 2), (2, 4), (), 1, rng)
        z = PolyTensor(y.coeffs + 1j * rng.standard_normal(y.coeffs.shape),
                       y.basis)
        for other in (y, z):
            _assert_matches_oracle("ab,bc->ac", x, other, order)
            out = contract("ab,bc->ac", x, other, order)
            assert np.array_equal(out.support, np.arange(12))

    @pytest.mark.parametrize("order", [None, 1])
    def test_one_zero_component_joins(self, order, monkeypatch):
        # one component of x zero at every point: the support kernel
        # joins the supports, once, and stores the components reached
        rng = np.random.default_rng(22)
        x = _sparse_poly(basis(2, 2), (3, 2), (4,), 1, rng)
        y = _sparse_poly(basis(2, 2), (2, 3), (4,), 1, rng)
        x.coeffs[:, 1, 0] = 0.0
        monkeypatch.setattr(jets, "_JOINS", {})
        _assert_matches_oracle("ab,ba->", x, y, order)
        assert len(jets._JOINS) == 1
        out = contract("ab,bc->ac", x, y, order)
        assert len(jets._JOINS) == 2
        assert np.array_equal(out.support, np.arange(9))

    def test_zero_to_the_product_order_joins(self, monkeypatch):
        # a component zero to degree 1 and nonzero at degree 2 is full at
        # order 2 and missing at order 1
        rng = np.random.default_rng(23)
        b = basis(2, 2)
        x = _sparse_poly(b, (2, 2), (3,), 1, rng)
        y = _sparse_poly(b, (2, 2), (3,), 1, rng)
        x.coeffs[:, 0, 1, : basis(2, 1).size] = 0.0
        monkeypatch.setattr(jets, "_JOINS", {})
        _assert_matches_oracle("ab,bc->ac", x, y, 1)
        assert len(jets._JOINS) == 1
        _assert_matches_oracle("ab,bc->ac", x, y, 2)
        assert len(jets._JOINS) == 1

    @pytest.mark.parametrize("pattern", ["ab,bc->ac", ",ab->ab", ",->"])
    def test_all_zero_operand(self, pattern):
        b = basis(3, 2)
        ins = pattern.split("->")[0].split(",")
        zero = PolyTensor(np.zeros((2,) * len(ins[0]) + (b.size,)), b)
        other = _random_poly(b, (2,) * len(ins[1]), seed=10)
        out = contract(pattern, zero, other)
        assert out.coeffs.shape == (2,) * len(pattern.split("->")[1]) + (
            b.size,)
        assert not out.coeffs.any()

    @pytest.mark.parametrize("chunk", [1, 2, 40])
    @pytest.mark.parametrize("order", [1, 2])
    def test_mixed_pair_counts_in_one_call(self, order, chunk):
        # rows 0, 1, 2 and 3 of x meet 3, 1, 2 and 0 rows of y, so the
        # components (a, c) have 3, 1, 2 or 0 pairs: one call sums blocks
        # of 1, 2 and 3 pairs, in a chunk per component (`_CHUNK` 1 or 2),
        # in one chunk (40, order 1) or in windows of 6 pairs (40, order 2)
        b = basis(1, 2)
        rng = np.random.default_rng(order)
        x = np.zeros((4, 3, b.size))
        for a, row in enumerate([[0, 1, 2], [1], [0, 2], []]):
            x[a, row] = rng.standard_normal((len(row), b.size))
        y = rng.standard_normal((3, 2, b.size))
        _assert_matches_oracle("ab,bc->ac", PolyTensor(x, b), PolyTensor(y, b),
                               order, chunk)
        out = _contract_in_chunks("ab,bc->ac", PolyTensor(x, b),
                                  PolyTensor(y, b), order, chunk)
        assert np.array_equal(out.support, np.arange(6))  # row 3 is unmet
        # x[1, 1] reaches (1, 0) and (1, 1); y[2, 0] reaches (0, 0), (2, 0)
        x[1, 1, 0] = np.nan
        y[2, 0, 0] = np.nan
        out = _contract_in_chunks("ab,bc->ac", PolyTensor(x, b),
                                  PolyTensor(y, b), order, chunk)
        reached = np.zeros((4, 2), bool)
        reached[1, :] = reached[[0, 2], 0] = True
        assert np.array_equal(np.isnan(out.coeffs).any(axis=-1), reached)

    def test_nan_reaches_output_through_nonzero_partner(self):
        b = basis(2, 2)
        x = np.zeros((3, 3, b.size))
        x[0, 1, 2] = np.nan
        x[2, 2] = 1.0
        y = np.zeros((3, 3, b.size))
        y[1, 0, 0] = 2.0
        out = contract("ab,bc->ac", PolyTensor(x, b), PolyTensor(y, b))
        assert np.isnan(out.coeffs[0, 0]).any()
        # (0, 1) has the one nonzero partner (1, 0); NaN * 0 reaches no
        # other output
        assert np.isfinite(out.coeffs[0, 1:]).all()
        assert np.isfinite(out.coeffs[1:]).all()


class TestOrderRule:
    """`contract` runs at the lower operand order unless `order` lowers it:
    the order is a truncation of the operands, never more."""

    @settings(max_examples=100, deadline=None)
    @given(_contractions())
    def test_order_is_truncating_the_operands(self, case):
        # each component of `_sparse_poly` is zero in every coefficient or
        # in none, so truncation keeps the supports and the joined pairs
        pattern, a, b, _, _ = case
        for m in range(min(a.basis.order, b.basis.order) + 1):
            got = contract(pattern, a.truncate(m), b.truncate(m))
            want = contract(pattern, a, b, m)
            assert got.basis is want.basis is basis(a.basis.nvars, m)
            assert got.batch_ndim == want.batch_ndim
            assert got.coeffs.dtype == want.coeffs.dtype
            assert got.coeffs.shape == want.coeffs.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_lowered_order_joins_the_truncated_supports(self):
        # x's second component is zero to order 1, so its inf partner in y
        # meets it only beyond the product's order
        b = basis(1, 2)
        x = PolyTensor(np.array([[1.0, 2, 3], [0, 0, 5]]), b)
        y = PolyTensor(np.array([[1.0, 1, 1], [np.inf, 1, 1]]), b)
        want = contract("a,a->", x.truncate(1), y.truncate(1))
        assert want.coeffs.tolist() == [1.0, 3.0]
        for stored in (False, True):
            x_, y_ = (_with_support(v) if stored else v for v in (x, y))
            got = contract("a,a->", x_, y_, 1)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert np.array_equal(got.support, want.support)
        assert x.support.tolist() == y.support.tolist() == [0, 1]

    def test_truncating_drops_the_rows_zero_to_the_new_order(self):
        # the example above once both supports are stored by a full-order
        # product: truncating first gives the lowered-order product, and
        # the scan to order 1 is stored on neither operand, read before
        # or after the full-order product
        b = basis(1, 2)
        for lowered_first in (True, False):
            x = PolyTensor(np.array([[1.0, 2, 3], [0, 0, 5]]), b)
            y = PolyTensor(np.array([[1.0, 1, 1], [np.inf, 1, 1]]), b)
            if lowered_first:
                assert contract("a,a->", x, y, 1).coeffs.tolist() == [1.0, 3.0]
            with np.errstate(invalid="ignore"):  # 0 * inf beyond order 1
                full = contract("a,a->", x, y)
            # 0 * inf and 5 * inf: component 1 reaches every coefficient
            assert not np.isfinite(full.coeffs).any()
            assert x.support.tolist() == y.support.tolist() == [0, 1]
            got = contract("a,a->", x.truncate(1), y.truncate(1))
            assert got.coeffs.tolist() == [1.0, 3.0]
            assert jets._support(x.truncate(1), 1).tolist() == [0]
            assert jets._support(x, 1).tolist() == [0]
            assert jets._support(y, 1).tolist() == [0, 1]
            assert x.support.tolist() == y.support.tolist() == [0, 1]

    @settings(max_examples=100, deadline=None)
    @given(_contractions(), st.sampled_from([0, 0.02]),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())
    def test_lowered_order_is_truncating_the_jets(self, case, share, bad,
                                                   stored):
        # components zero to some degree, then NaN or inf coefficients:
        # the product to order m is that of the jets truncated to m, their
        # supports scanned afresh, whether the operands' were stored or not
        pattern, a, b, _, _ = case
        rng = np.random.default_rng(len(pattern))
        for x in (a, b):
            lows = rng.integers(0, x.basis.order + 1, size=x.comp_shape)
            x.coeffs *= (np.arange(x.basis.size)
                         >= x.basis.deg_start[lows][..., None])
            _spoil(x, share, bad, rng)
            if stored:
                _with_support(x)
        for m in range(1, min(a.basis.order, b.basis.order) + 1):
            fresh = [PolyTensor(x.coeffs[..., : basis(x.basis.nvars, m).size],
                                basis(x.basis.nvars, m), x.batch_ndim)
                     for x in (a, b)]
            with np.errstate(invalid="ignore", over="ignore"):
                got = contract(pattern, a, b, m)
                want = contract(pattern, *fresh)
            assert got.coeffs.shape == want.coeffs.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert np.array_equal(got.support, want.support)

    def test_order_above_an_operand_is_rejected(self):
        x = _random_poly(basis(2, 3), (3,), seed=1)
        y = _random_poly(basis(2, 2), (3,), seed=2)
        assert contract("a,a->", x, y).basis is basis(2, 2)
        for order in (3, 3, 5):
            with pytest.raises(ValueError, match=f"at order {order}; "
                               "operands of order 3 and 2"):
                contract("a,a->", x, y, order)


class TestJoinMemo:
    """`_contract_support` joins two supports once per distinct input and
    keeps the join in `jets._JOINS`."""

    @settings(max_examples=60, deadline=None)
    @given(_contractions())
    def test_hit_gives_the_bits_of_a_fresh_join(self, case):
        pattern, a, b, order, chunk = case
        first = _contract_in_chunks(pattern, a, b, order, chunk)
        keys = set(jets._JOINS)
        hit = _contract_in_chunks(pattern, a, b, order, chunk)
        assert set(jets._JOINS) == keys  # a hit adds no entry
        jets._JOINS.clear()
        fresh = _contract_in_chunks(pattern, a, b, order, chunk)
        for out in (first, hit):
            assert out.coeffs.tobytes() == fresh.coeffs.tobytes()
            assert out.support.tobytes() == fresh.support.tobytes()

    def test_inputs_that_differ_never_share_an_entry(self):
        # equal component shapes and supports, and each of the number of
        # jet variables, both operand orders, the output order, the batch
        # shape and the chunk step changed in turn; a chunk of one pair
        # keeps the step at 1 whatever the jet pairs and the batch
        mask = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], bool)[..., None]

        def operand(nvars, order, batch, seed):
            rng = np.random.default_rng(seed)
            b = basis(nvars, order)
            return PolyTensor(rng.standard_normal(batch + (3, 3, b.size))
                              * mask, b, len(batch))

        base = dict(nvars=2, order_a=2, order_b=2, order=None, batch=(),
                    chunk=1)
        cases = [base, {**base, "nvars": 1}, {**base, "order_a": 3},
                 {**base, "order_b": 3}, {**base, "order": 1},
                 {**base, "batch": (4,)}, {**base, "chunk": jets._CHUNK}]
        jets._JOINS.clear()
        for i, c in enumerate(cases):
            x = operand(c["nvars"], c["order_a"], c["batch"], 2 * i)
            y = operand(c["nvars"], c["order_b"], c["batch"], 2 * i + 1)
            for _ in range(2):  # a second call hits the entry of the first
                _assert_matches_oracle("ab,bc->ac", x, y, c["order"],
                                       c["chunk"])
                assert len(jets._JOINS) == i + 1

    @settings(max_examples=60, deadline=None)
    @given(_contractions(), st.integers(1, 4))
    def test_table_stays_within_its_bound(self, case, limit):
        saved, jets._JOIN_LIMIT = jets._JOIN_LIMIT, limit
        jets._JOINS.clear()  # the bound holds from an empty table on
        try:
            for order in range(1, min(case[1].basis.order,
                                      case[2].basis.order) + 1):
                _assert_matches_oracle(*case[:3], order, case[4])
                assert len(jets._JOINS) <= limit
        finally:
            jets._JOIN_LIMIT = saved

    def test_cp2_quadrature_joins_no_full_supports(self, monkeypatch):
        # |W|^2 on CP2 at 6^4 nodes, metric order 2: every contraction at
        # order 1 but one has full supports, so the table keeps one join,
        # g^{-1}'s degree-1 step: g is zero at the four (x_i, y_i) slots
        # (Im h_ii = 0), so its support holds 12 of 16 components
        monkeypatch.setattr(jets, "_JOINS", {})
        val = integrate_scalar(weyl_norm2_field, get_model("CP2"),
                               nodes_per_axis=6, force_quadrature=True)
        assert val == pytest.approx(48 * math.pi ** 2, rel=1e-6)
        [(shapes, sa, sb, *_)] = jets._JOINS
        assert shapes[0] == "ab,bc->ac"
        assert (len(np.frombuffer(sa, np.intp)),
                len(np.frombuffer(sb, np.intp))) == (12, 16)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap thresholds are set through glibc")
    def test_warm_quadrature_faults_in_no_new_pages(self):
        # importing rcint.jets keeps freed blocks up to 32 MiB in the heap,
        # so a repetition reuses the arrays the one before it freed
        import resource

        model = get_model("CP2")

        def integral():
            return integrate_scalar(weyl_norm2_field, model, nodes_per_axis=6,
                                    force_quadrature=True)

        integral()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        integral()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100, faults


def _scanned(x: PolyTensor):
    """The support of `x` found by a fresh scan of its coefficients."""
    axes = tuple(range(x.batch_ndim)) + (x.coeffs.ndim - 1,)
    return np.flatnonzero(np.any(x.coeffs != 0, axis=axes))


def _with_support(x: PolyTensor) -> PolyTensor:
    """`x` with its scanned support stored, as `contract` leaves it."""
    jets._support(x, x.basis.order)
    return x


def _assert_support_covers(x: PolyTensor):
    """A stored support is sorted and holds every scanned component."""
    if x.support is not None:
        assert np.all(np.diff(x.support) > 0)
        assert np.isin(_scanned(x), x.support).all()


def _spoil(x: PolyTensor, share, bad, rng):
    """Set about `share` of the coefficients of `x` to `bad` in place."""
    x.coeffs[rng.uniform(size=x.coeffs.shape) < share] = bad
    return x


@st.composite
def _unary_cases(draw):
    """A sparse jet tensor, maybe with NaN or +-inf coefficients, its
    support stored, and a second one of its shape for sums."""
    nvars, order = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 3)),) * draw(st.integers(0, 3))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    share = draw(st.sampled_from([0, 0.02]))
    x, y = (_with_support(_spoil(_sparse_poly(
        basis(nvars, order), shape, batch, draw(st.floats(0, 1)), rng),
        share, bad, rng)) for _ in range(2))
    return x, y, rng


class TestSupport:
    """`PolyTensor.support` holds every nonzero, NaN or inf component, and
    `contract` gives the same array whether it is stored or rescanned."""

    @settings(max_examples=100, deadline=None)
    @given(_unary_cases())
    def test_arithmetic_keeps_a_covering_support(self, case):
        x, y, rng = case
        batch = x.coeffs.shape[: x.batch_ndim]
        point = rng.standard_normal(batch)
        point[rng.uniform(size=batch) < 0.3] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf
            outs = [-x, x + y, x - y, x * 2.0, 0.0 * x, x * np.inf,
                    np.nan * x, x * rng.standard_normal(batch), point * x]
            outs += [x.truncate(k) for k in range(x.basis.order + 1)]
            outs += [x.diff(v) for v in range(x.basis.nvars)]
        for out in outs:  # none passes a support on: each is scanned
            assert out is x or out.support is None  # x.truncate(its order)
        assert np.array_equal(jets._support(x.truncate(0), 0),
                              _scanned(x.truncate(0)))

    @settings(max_examples=100, deadline=None)
    @given(_unary_cases())
    def test_arithmetic_outputs_read_as_a_fresh_scan(self, case):
        # x has its support stored; whatever it passed on would be stale
        # for some output, so each output's support to every order is a
        # scan of its own coefficients, and its contractions have the
        # bits of the same contractions of a fresh copy
        x, y, rng = case
        batch = x.coeffs.shape[: x.batch_ndim]
        points = []
        for bad in (None, np.inf, np.nan):  # finite, inf and NaN per point
            point = rng.standard_normal(batch)
            if bad is not None:
                point[rng.uniform(size=batch) < 0.3] = bad
            points.append(point)
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf
            outs = [-x, x + y, x - y, x * 2.0, 0.0 * x, x * np.inf,
                    np.nan * x] + [p * x for p in points]
            outs += [x.truncate(k) for k in range(x.basis.order + 1)]
            outs += [x.diff(v) for v in range(x.basis.nvars)]
        for out in outs:
            idx = "abc"[: out.rank]
            partner = _random_poly(out.basis, out.comp_shape, seed=26)
            for k in range(out.basis.order + 1):
                fresh = [PolyTensor(t.coeffs, t.basis, t.batch_ndim)
                         for t in (out, partner)]
                with np.errstate(invalid="ignore", over="ignore"):
                    got = contract(f"{idx},{idx}->{idx}", out, partner, k)
                    want = contract(f"{idx},{idx}->{idx}", *fresh, k)
                assert got.coeffs.tobytes() == want.coeffs.tobytes()
                bk = basis(out.basis.nvars, k)
                assert np.array_equal(jets._support(out, k), _scanned(
                    PolyTensor(out.coeffs[..., : bk.size], bk,
                               out.batch_ndim)))

    def test_inf_per_point_factor_reaches_zero_components(self):
        b = basis(2, 1)
        coeffs = np.zeros((2, 3, b.size))
        coeffs[:, 1, 0] = 1.0
        x = _with_support(PolyTensor(coeffs, b, 1))
        with np.errstate(invalid="ignore"):
            out = np.array([1.0, np.inf]) * x
        assert np.isnan(out.coeffs[1, 0]).all()
        _assert_support_covers(out)
        assert np.array_equal(jets._support(out, 1), [0, 1, 2])

    @settings(max_examples=150, deadline=None)
    @given(_contractions(), st.sampled_from([0, 0.02]),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_contractions_keep_a_covering_support(self, case, share, bad):
        pattern, a, b, order, chunk = case
        rng = np.random.default_rng(len(pattern))
        a, b = (_with_support(_spoil(x, share, bad, rng)) for x in (a, b))
        with np.errstate(invalid="ignore", over="ignore"):
            outs = [_contract_in_chunks(pattern, a, b, order, chunk),
                    contract(pattern, a, b, 0)]
        for out in outs:
            _assert_support_covers(out)

    def test_sparse_kernel_stores_the_components_it_reaches(self):
        b = basis(2, 2)
        x = np.zeros((4, 4, b.size))
        x[[0, 2], [1, 3]] = 1.0
        out = contract("ab,bc->ac", PolyTensor(x, b), PolyTensor(x, b))
        # (0, 1) meets row 1 and (2, 3) row 3 of the second operand, which
        # are zero; only the pair (0, 1) x (1, ...) would reach an output
        assert out.support is not None and len(out.support) == 0
        y = x.copy()
        y[1, 2] = 1.0
        out = contract("ab,bc->ac", PolyTensor(x, b), PolyTensor(y, b))
        assert np.array_equal(out.support, [2])  # (0, 2) in a 4 x 4 grid
        assert np.array_equal(_scanned(out), [2])

    @settings(max_examples=150, deadline=None)
    @given(_contractions(), st.sampled_from([0, 0.3, 1]))
    def test_stored_supports_give_the_rescanned_array(self, case, extra):
        # A scanned support stored on a copy gives the same bytes.  A
        # strict superset joins extra pairs that add exact zeros; they may
        # regroup NumPy's pairwise sum of a long segment, so only the
        # rounding may differ.
        pattern, a, b, order, _ = case
        rng = np.random.default_rng(len(pattern))
        stored = []
        for x in (a, b):
            y = _with_support(PolyTensor(x.coeffs, x.basis, x.batch_ndim))
            if extra:
                keep = rng.uniform(size=math.prod(x.comp_shape)) < extra
                keep[y.support] = True
                y.support = np.flatnonzero(keep)
            stored.append(y)
        fresh = [PolyTensor(x.coeffs, x.basis, x.batch_ndim) for x in (a, b)]
        got = contract(pattern, *stored, order)
        want = contract(pattern, *fresh, order)
        assert got.coeffs.dtype == want.coeffs.dtype
        assert got.coeffs.shape == want.coeffs.shape
        if extra:
            np.testing.assert_allclose(got.coeffs, want.coeffs,
                                       rtol=1e-12, atol=1e-13)
        else:
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("batch", [(), (1,), (3,), (2, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e-300, 1j,
                                       complex(0, np.nan), -0.0])
    def test_scan_counts_nonfinite_and_complex_not_negative_zero(
            self, value, batch):
        # one coefficient of component 1 set, at the last batch point, of
        # a jet that is zero at the first: the scan reads every point
        b = basis(2, 2)
        coeffs = np.zeros(batch + (3, b.size), np.result_type(value, 0.0))
        coeffs[(-1,) * len(batch) + (1, 2)] = value
        x = PolyTensor(coeffs, b, len(batch))
        want = [] if value == 0 else [1]
        assert jets._support(x, 2).tolist() == want
        assert x.support.tolist() == _scanned(x).tolist() == want

    def test_zero_at_the_first_point_only_is_still_full(self, monkeypatch):
        # the first point misses component (1, 0); the second has it
        rng = np.random.default_rng(24)
        b = basis(2, 2)
        x = _sparse_poly(b, (2, 2), (3,), 1, rng)
        x.coeffs[0, 1, 0] = 0.0
        y = _sparse_poly(b, (2, 2), (3,), 1, rng)
        assert len(jets._support(x, 2)) == 4
        assert np.array_equal(x.support, _scanned(x))
        _forbid_joins(monkeypatch)
        for order in (None, 1):
            fresh = contract("ab,bc->ac", PolyTensor(x.coeffs, b, 1), y,
                             order)
            got = contract("ab,bc->ac", x, y, order)
            assert got.coeffs.tobytes() == fresh.coeffs.tobytes()

    def test_empty_batch_has_an_empty_support(self):
        b = basis(2, 2)
        x = PolyTensor(np.ones((0, 3, 3, b.size)), b, 1)
        y = _random_poly(b, (3, 3), seed=25)
        assert len(jets._support(x, 2)) == 0
        out = contract("ab,bc->ac", x, y)
        assert out.coeffs.shape == (0, 3, 3, b.size)
        assert len(out.support) == 0

    def test_pf_plan_scans_each_tensor_at_most_once(self, monkeypatch):
        geo = get_model("S2xS2xS2").geometry(order=4)
        t = raise_last_two(geo.riemann, geo.ginv)
        tud = PolyTensor(t.coeffs, t.basis, t.batch_ndim)
        assert tud.basis.order == 2
        scans, seen = Counter(), []
        orig = jets._support

        def counting(x, order):
            before = x.support
            out = orig(x, order)
            if before is None or x.support is not before:  # a scan
                scans[id(x)] += 1
            seen.append(x)  # kept alive, so no later tensor reuses its id
            return out

        monkeypatch.setattr(jets, "_support", counting)
        pf_ell_poly(tud, 3)
        assert len(seen) > 2 * len(scans) and scans[id(tud)] == 1
        assert max(scans.values()) == 1


def _sum_of_terms(pattern, x, y):
    """Reference for an order-0 `contract` of values (batch axes first,
    broadcast): every term, one entry of `x` times one of `y`, added in
    turn into the output entry it belongs to."""
    (in_x, in_y), outs = pattern.split("->")[0].split(","), pattern.split("->")[1]
    nx, ny = x.ndim - len(in_x), y.ndim - len(in_y)
    dims = dict(zip(in_x + in_y, x.shape[nx:] + y.shape[ny:]))
    letters = sorted(dims)
    out = np.zeros(np.broadcast_shapes(x.shape[:nx], y.shape[:ny])
                   + tuple(dims[c] for c in outs), np.result_type(x, y))
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN
        for ix in np.ndindex(*(dims[c] for c in letters)):
            at = dict(zip(letters, ix))
            out[(...,) + tuple(at[c] for c in outs)] += (
                x[(...,) + tuple(at[c] for c in in_x)]
                * y[(...,) + tuple(at[c] for c in in_y)])
    return out


@st.composite
def _order0_contractions(draw):
    """Like `_contractions`, at output order 0: values may be complex, NaN
    or inf."""
    letters = "abcd"
    dims = {c: draw(st.integers(1, 3)) for c in letters}
    in_a, in_b, outs = _pattern_letters(draw, letters)
    nvars = draw(st.integers(1, 3))
    order_a, order_b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    order = draw(st.just(0) | st.none()) if min(order_a, order_b) == 0 else 0
    batches = st.sampled_from([(), (1,), (3,)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for letters_, k in ((in_a, order_a), (in_b, order_b)):
        b = basis(nvars, k)
        shape = draw(batches) + tuple(dims[c] for c in letters_) + (b.size,)
        coeffs = rng.standard_normal(shape)
        coeffs *= rng.uniform(size=shape) < draw(st.floats(0, 1))
        if draw(st.booleans()):
            coeffs = coeffs + 1j * rng.standard_normal(shape)
        bad = rng.uniform(size=shape[:-1]) < draw(st.sampled_from([0, 0.1]))
        coeffs[bad, 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        ops.append(PolyTensor(coeffs, b, len(shape) - len(letters_) - 1))
    return f"{in_a},{in_b}->{outs}", ops[0], ops[1], order


class TestOrderZero:
    """At output order 0 `contract` is the einsum of the two values: each
    output entry sums its terms."""

    @settings(max_examples=200, deadline=None)
    @given(_order0_contractions())
    def test_matches_einsum_of_values(self, case):
        # against the terms summed one by one: a real NaN or +-inf lands
        # where theirs does; complex products may put NaN or inf in other
        # parts of a number, but make the same outputs non-finite
        pattern, a, b, order = case
        outs = pattern.split("->")[1]
        out = contract(pattern, a, b, order)
        want = _sum_of_terms(pattern, a.value(), b.value())
        assert out.basis is basis(a.basis.nvars, 0)
        assert out.batch_ndim == max(a.batch_ndim, b.batch_ndim)
        assert out.coeffs.shape == want.shape + (1,)
        assert out.coeffs.ndim == out.batch_ndim + len(outs) + 1
        assert out.coeffs.dtype == np.result_type(a.coeffs, b.coeffs)
        got = out.coeffs[..., 0]
        if np.iscomplexobj(want):
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            got, want = got[finite], want[finite]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                   equal_nan=True)
        assert out.coeffs.flags.writeable
        assert not np.shares_memory(out.coeffs, a.coeffs)
        assert not np.shares_memory(out.coeffs, b.coeffs)

    def test_unbatched_times_batched(self):
        b = basis(2, 2)
        x = _random_poly(b, (3, 3), seed=11)
        y = _random_poly(b, (3,), batch=(4,), seed=12)
        out = contract("ab,b->a", x, y, 0)
        want = np.einsum("ab,zb->za", x.value(), y.value())
        assert out.batch_ndim == 1 and out.coeffs.shape == (4, 3, 1)
        np.testing.assert_allclose(out.coeffs[..., 0], want, rtol=1e-15)

    def test_complex_values(self):
        b = basis(2, 1)
        x = PolyTensor(np.array([[[1 + 2j, 5, 5], [0, 5, 5]],
                                 [[3j, 5, 5], [1, 5, 5]]]), b)
        y = PolyTensor(np.array([[2, 5, 5], [1 - 1j, 5, 5]]), b)
        out = contract("ab,b->a", x, y, 0)
        np.testing.assert_array_equal(out.coeffs[..., 0], [2 + 4j, 1 + 5j])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_reaches_every_output_it_touches(self, bad):
        b = basis(2, 2)
        x = np.zeros((3, 3, b.size))
        x[0, 1, 0] = bad
        x[2, 2, 0] = 1.0
        y = np.zeros((3, 3, b.size))
        y[1, 0, 0] = 2.0
        out = contract("ab,bc->ac", PolyTensor(x, b), PolyTensor(y, b), 0)
        # row 0 pairs the non-finite value with b = 1, which every c reaches
        assert not np.isfinite(out.coeffs[0]).any()
        assert np.isfinite(out.coeffs[1:]).all()

    @pytest.mark.parametrize("pattern,renamed", [
        ("abcd,badc->", "dcba,cdab->"), ("abcd,bcda->", "zyxw,yxwz->"),
        ("ab,bcda->cd", "dc,cbad->ba")])
    def test_renamed_letters_give_the_same_array(self, pattern, renamed):
        # the Pf plan merges class factors under renamed letters
        b = basis(2, 1)
        x, y = (_random_poly(b, (6,) * len(s), batch=(1,), seed=len(s))
                for s in pattern.split("->")[0].split(","))
        assert np.array_equal(contract(pattern, x, y, 0).coeffs,
                              contract(renamed, x, y, 0).coeffs)

    def test_result_is_a_fresh_array(self):
        b = basis(2, 0)
        x = PolyTensor(np.ones(1), b)
        y = PolyTensor(np.full((3, 1), 2.0), b, 1)
        out = contract(",->", x, y)
        out.coeffs[...] = 7.0
        assert np.array_equal(x.coeffs, [1.0])
        assert np.array_equal(y.coeffs, np.full((3, 1), 2.0))


def _jet_mul_by_monomials(x, y, nvars, order_x, order_y, order_out):
    """Reference jet product: every pair of monomials, summed by exponent in
    a dict, then written out in basis order."""
    bx, by, bo = (basis(nvars, k) for k in (order_x, order_y, order_out))
    terms = {}
    for i, ei in enumerate(bx.exps):
        for j, ej in enumerate(by.exps):
            e = tuple(int(v) for v in ei + ej)
            if sum(e) <= order_out:
                terms[e] = terms.get(e, 0) + x[..., i] * y[..., j]
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    out = np.zeros(lead + (bo.size,), dtype=np.result_type(x, y))
    for e, v in terms.items():
        out[..., bo.index(e)] = v
    return out


class TestJetMul:
    """`_jet_mul` against the monomial-by-monomial product."""

    @settings(max_examples=150, deadline=None)
    @given(nvars=st.integers(0, 3), order_x=st.integers(0, 3),
           order_y=st.integers(0, 3), data=st.data(),
           leads=st.sampled_from([((), ()), ((), (4,)), ((3,), ()),
                                  ((1, 3), (3,)), ((2, 1), (1, 3)),
                                  ((2, 3), (2, 3))]),
           complex_=st.sampled_from([(False, False), (True, False),
                                     (True, True)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_monomial_products(self, nvars, order_x, order_y, data,
                                       leads, complex_, seed):
        order_out = data.draw(st.integers(0, order_x + order_y))
        rng = np.random.default_rng(seed)
        ops = []
        for k, lead, cplx in zip((order_x, order_y), leads, complex_):
            v = rng.standard_normal(lead + (basis(nvars, k).size,))
            ops.append(v + 1j * rng.standard_normal(v.shape) if cplx else v)
        got = jets._jet_mul(*ops, nvars, order_x, order_y, order_out).T
        want = _jet_mul_by_monomials(*ops, nvars, order_x, order_y, order_out)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_scalar_jet_times_batched_jet(self):
        b = basis(2, 2)
        x = coordinate_poly(b, 0, 0.5)  # 0.5 + x0
        y = coordinate_poly(b, 1, np.array([1.0, -2.0, 3.0]))
        got = jets._jet_mul(x.coeffs, y.coeffs, 2, 2, 2, 2).T
        want = np.zeros((3, b.size))
        want[:, 0] = 0.5 * y.value()
        want[:, b.index((1, 0))] = y.value()
        want[:, b.index((0, 1))] = 0.5
        want[:, b.index((1, 1))] = 1.0
        np.testing.assert_array_equal(got, want)

    def test_complex_metric_entry(self):
        # (1 + i x0)(1 - i x0) = 1 + x0^2, as in CP2's Hermitian metric
        b = basis(1, 2)
        p = PolyTensor(np.array([1.0, 1j, 0.0]), b)
        q = PolyTensor(np.array([1.0, -1j, 0.0]), b)
        np.testing.assert_array_equal((p * q).coeffs, [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("pattern", ["ab,bc->ac", ",ab->ab", "ab,b->a"])
    def test_complex_operands_on_both_kernels(self, pattern, monkeypatch):
        # the order-0 matmul, the support kernel (density 0.5) and the
        # full-support matmul (density 1), on equal and broadcast batches
        rng = np.random.default_rng(13)
        b = basis(2, 2)
        ins = pattern.split("->")[0].split(",")
        for density, batches in [(0.5, ((2,), (2,))), (1, ((2,), (2,))),
                                 (1, ((), ())), (1, ((1,), ())),
                                 (1, ((3,), ())), (1, ((4,), ()))]:
            re_, im_ = ([_sparse_poly(b, (3,) * len(s), batch, density, rng)
                         for s, batch in zip(ins, batches)] for _ in range(2))
            z = [PolyTensor(r.coeffs + 1j * i.coeffs, b, r.batch_ndim)
                 for r, i in zip(re_, im_)]
            if density == 1:
                _forbid_joins(monkeypatch)
            for order in (0, None):
                want = (contract(pattern, re_[0], re_[1], order).coeffs
                        - contract(pattern, im_[0], im_[1], order).coeffs
                        + 1j * (contract(pattern, re_[0], im_[1], order).coeffs
                                + contract(pattern, im_[0], re_[1],
                                           order).coeffs))
                got = contract(pattern, *z, order)
                assert got.coeffs.dtype == np.complex128
                np.testing.assert_allclose(got.coeffs, want, rtol=1e-12,
                                           atol=1e-12)


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

    def test_order_below_zero_rejected(self):
        # the coefficient axis would be empty, and `value()` an IndexError
        p = _random_poly(basis(2, 2), (3,), seed=16)
        with pytest.raises(ValueError, match="to order -1"):
            p.truncate(-1)
        with pytest.raises(ValueError, match="order-0 jet"):
            p.truncate(0).diff(0)
        with pytest.raises(ValueError, match="to order 3"):
            p.truncate(3)


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
    "sin": (PolyTensor.sin, lambda a, k: np.sin(a + k * np.pi / 2)),
    "cos": (PolyTensor.cos, lambda a, k: np.cos(a + k * np.pi / 2)),
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
        got = fn(coordinate_poly(b, 0, np.array([a]))).coeffs[0]
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
        got = fn(PolyTensor(coeffs, b))
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
        prod = contract("ab,bc->ac", g, poly_matrix_inverse(g), order)
        ident = np.zeros_like(prod.coeffs)
        ident[..., 0] = np.eye(dim)
        assert np.abs(prod.coeffs - ident).max() <= 1e-12

    @pytest.mark.parametrize("nvars,dim,order", [(1, 3, 5), (4, 4, 4),
                                                 (3, 2, 3), (6, 6, 2)])
    def test_matches_linear_iteration(self, nvars, dim, order):
        g = _spd_metric_jet(nvars, dim, order, 3, seed=order)
        got = poly_matrix_inverse(g)
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
        g = _spd_metric_jet(3, 3, 4, 2, seed=1)
        poly_matrix_inverse(g.truncate(order))
        assert len(calls) == order

    def test_higher_degrees_fill_zeros_of_the_value(self):
        # X_0 = diag(1/2, 1/3, 1/4), but X_1 = -X_0 g_1 X_0 is off-diagonal:
        # a support that `contract` found on X before the degree-1 write
        # would drop X_1 from every later degree
        b = basis(1, 4)
        coeffs = np.zeros((3, 3, b.size))
        coeffs[..., 0] = np.diag([2.0, 3.0, 4.0])
        coeffs[..., 1] = 1.0 - np.eye(3)
        g = PolyTensor(coeffs, b)
        x = poly_matrix_inverse(g)
        ident = np.zeros((3, 3, b.size))
        ident[..., 0] = np.eye(3)
        for y in (x, PolyTensor(x.coeffs.copy(), b)):
            prod = contract("ab,bc->ac", g, y, 4)
            np.testing.assert_allclose(prod.coeffs, ident, rtol=0,
                                       atol=1e-14)

    def test_inverse_is_exact_to_order(self):
        b = basis(3, 4)
        rng = np.random.default_rng(8)
        coeffs = 0.1 * rng.standard_normal((2, 3, 3, b.size))
        coeffs[..., 0] = np.eye(3) + 0.05 * rng.standard_normal((2, 3, 3))
        coeffs[..., 0] += coeffs[..., 0].swapaxes(-1, -2) + 2 * np.eye(3)
        g = PolyTensor(coeffs, b, 1)
        gi = poly_matrix_inverse(g)
        prod = contract("ae,eb->ab", g, gi, 4)
        ident = np.zeros_like(prod.coeffs)
        ident[..., 0] = np.eye(3)
        assert np.allclose(prod.coeffs, ident, atol=1e-12)


class TestTaylorScalar:
    """Scalar Taylor jets: rank-0 PolyTensors."""

    def test_trig_jets_match_derivatives(self):
        b = basis(2, 5)
        x = coordinate_poly(b, 0, np.array([0.3, 1.1]))
        s = x.sin()
        # coefficient of t^k about the base point is sin^(k)(x0)/k!
        i2 = b.index((2, 0))
        assert np.allclose(s.coeffs[:, i2], -np.sin([0.3, 1.1]) / 2)
        i3 = b.index((3, 0))
        assert np.allclose(s.coeffs[:, i3], -np.cos([0.3, 1.1]) / 6)

    def test_identity_sin2_cos2(self):
        b = basis(2, 4)
        x = coordinate_poly(b, 0, np.array([0.7]))
        one = x.sin() * x.sin() + x.cos() * x.cos()
        want = np.zeros(b.size)
        want[0] = 1.0
        assert np.allclose(one.coeffs, want, atol=1e-14)

    def test_sqrt_squares_back(self):
        b = basis(1, 4)
        x = coordinate_poly(b, 0, np.array([2.0]))
        r = x ** 0.5
        assert np.allclose((r * r).coeffs, x.coeffs, atol=1e-12)

    def test_negative_power(self):
        b = basis(1, 3)
        x = coordinate_poly(b, 0, np.array([2.0]))
        inv = x ** (-1.0)
        prod = inv * x
        want = np.zeros(b.size)
        want[0] = 1.0
        assert np.allclose(prod.coeffs, want, atol=1e-13)

    @pytest.mark.parametrize("p", [np.int64(2), 2.0, 0.0])
    def test_integral_exponents_are_repeated_products(self, p):
        # at a zero value the power series would raise 0 to a negative power
        x = coordinate_poly(basis(1, 3), 0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = x ** p
        assert np.array_equal(y.coeffs, (x ** int(p)).coeffs)

    def test_division_and_affine(self):
        b = basis(1, 3)
        x = coordinate_poly(b, 0, np.array([0.5]))
        y = (1.0 + 2.0 * x) / (1.0 - x)
        # y(t) about 0.5: values and derivative via explicit formula
        assert np.allclose(y.coeffs[:, 0], 4.0)
        # y' = 3/(1-x)^2 = 12 at x = 0.5
        assert np.allclose(y.coeffs[:, 1], 12.0)

    @pytest.mark.parametrize("unbatched", [0, 1])
    @pytest.mark.parametrize("orders", [(4, 4), (4, 2), (0, 3)])
    def test_product_is_the_rank0_contraction(self, unbatched, orders):
        # `x * y` replaces contract(",->", x, y) in the pipeline
        bases = [basis(3, k) for k in orders]
        jets_ = [_random_poly(bases[0], batch=(5,), seed=3),
                 _random_poly(bases[1], batch=(5,), seed=4)]
        jets_[unbatched] = _random_poly(bases[unbatched], seed=5)
        x, y = jets_
        prod = x * y
        want = contract(",->", x, y)
        assert prod.batch_ndim == want.batch_ndim == 1
        assert prod.basis is want.basis
        assert np.array_equal(prod.coeffs, want.coeffs)

    def test_numbers_and_point_arrays(self):
        b = basis(2, 3)
        x = coordinate_poly(b, 1, np.array([0.5, 2.0]))
        c = np.array([3.0, -1.0])
        for y in (c * x, x * c):
            assert y.batch_ndim == 1
            assert np.array_equal(y.coeffs, x.coeffs * c[:, None])
        z = 2.0 / x - 1.0
        assert np.allclose(z.value(), [3.0, 0.0])
        # d/dx (2/x) = -2/x^2
        assert np.allclose(z.coeffs[:, b.index((0, 1))], [-8.0, -0.5])
        unbatched = coordinate_poly(b, 0, 0.25)
        assert unbatched.batch_ndim == 0
        assert (unbatched + x).batch_ndim == (x - unbatched).batch_ndim == 1

    def test_point_arrays_with_a_tensor_follow_the_batch_axis(self):
        # the batch size equals the component length, so an array put on
        # the component axis would broadcast without error
        b = basis(2, 1)
        t = PolyTensor(np.zeros((2, 2, b.size)), b, 1)
        c = np.array([1.0, 2.0])
        one = t + 1.0
        per_point = [[1.0, 1.0], [2.0, 2.0]]
        for y in (t + c, c + t, -(t - c), c - t, one * c, c * one):
            assert y.batch_ndim == 1 and y.coeffs.shape == t.coeffs.shape
            np.testing.assert_array_equal(y.value(), per_point)
        wide = PolyTensor(np.zeros((3, 2, b.size)), b, 1)
        np.testing.assert_array_equal((wide + np.arange(3.0)).value(),
                                      [[0, 0], [1, 1], [2, 2]])

    def test_constant_keeps_complex_dtype(self):
        b = basis(2, 2)
        i = const_poly(1j, b)
        assert np.iscomplexobj(i.coeffs) and i.value() == 1j
        x = coordinate_poly(b, 0, np.array([0.3]))
        assert np.allclose((i * x).coeffs.imag, x.coeffs)

    def test_product_with_a_tensor_raises(self):
        b = basis(2, 2)
        x = coordinate_poly(b, 0, np.array([0.3]))
        t = _random_poly(b, comp_shape=(3,), batch=(1,))
        with pytest.raises(ValueError):
            x * t
        with pytest.raises(ValueError):
            t * x


def _stacked(entries, b, batch_ndim):
    """`scalars_to_poly` as an object array of the entries whose leaves
    are broadcast to one shape and stacked."""
    grid = np.array(entries, dtype=object)
    leaves = np.broadcast_arrays(*(
        e.coeffs if isinstance(e, PolyTensor) else const_poly(e, b).coeffs
        for e in grid.flat))
    coeffs = np.stack(leaves, axis=-2)
    return PolyTensor(coeffs.reshape(coeffs.shape[:-2] + grid.shape
                                     + (b.size,)), b, batch_ndim)


#: leaf kinds of a `scalars_to_poly` grid
_LEAVES = ("jet", "unbatched jet", "complex jet", "unbatched complex jet",
           "float", "int", "per-point array")


class TestScalarsToPoly:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 3), cols=st.integers(1, 3),
           npts=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           kinds=st.lists(st.sampled_from(_LEAVES), min_size=9, max_size=9))
    def test_matches_stacked_leaves(self, rows, cols, npts, seed, kinds):
        kinds = kinds[: rows * cols]
        # a grid of arrays only would be read by np.array as one more axis
        assume(any(k != "per-point array" for k in kinds))
        b = basis(2, 2)
        rng = np.random.default_rng(seed)

        def leaf(kind):
            batch = () if kind.startswith("unbatched") else (npts,)
            if kind.endswith("complex jet"):
                return PolyTensor(rng.normal(size=batch + (b.size,))
                                  + 1j * rng.normal(size=batch + (b.size,)),
                                  b, len(batch))
            if kind.endswith("jet"):
                return PolyTensor(rng.normal(size=batch + (b.size,)), b,
                                  len(batch))
            if kind == "float":
                return float(rng.normal())
            if kind == "int":
                return int(rng.integers(-3, 4))
            return rng.normal(size=npts)

        leaves = [leaf(k) for k in kinds]
        entries = [leaves[i * cols:(i + 1) * cols] for i in range(rows)]
        nb = int(any(k not in ("float", "int") and "unbatched" not in k
                     for k in kinds))
        got, want = scalars_to_poly(entries, b, nb), _stacked(entries, b, nb)
        assert got.coeffs.shape == want.coeffs.shape
        assert got.coeffs.dtype == want.coeffs.dtype
        assert got.batch_ndim == want.batch_ndim == nb
        assert np.array_equal(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_catalog_metrics_match_stacked_leaves(self, name):
        model = get_model(name)
        pts = model.base_point + np.linspace(-0.1, 0.1, 3)[:, None]
        geo = model.geometry(pts, order=2)
        coords = _coordinate_jets(pts, geo.basis, geo.free)
        want = _stacked(model.metric_fn(coords), geo.basis, 1)
        assert geo.g.coeffs.dtype == want.coeffs.dtype
        assert np.array_equal(geo.g.coeffs, want.coeffs)

    def test_mixed_entries_broadcast(self):
        b = basis(2, 2)
        x = coordinate_poly(b, 0, np.array([0.1, 0.2, 0.3]))
        m = scalars_to_poly([[x * x, 0.0], [1.5, x]], b, batch_ndim=1)
        assert m.comp_shape == (2, 2)
        assert np.allclose(m.value()[:, 0, 0], [0.01, 0.04, 0.09])
        assert np.allclose(m.value()[:, 0, 1], 0.0)
        assert np.allclose(m.value()[:, 1, 0], 1.5)

    def test_unbatched_leaf_broadcasts(self):
        b = basis(2, 2)
        x = coordinate_poly(b, 0, np.array([0.1, 0.2, 0.3]))
        c = coordinate_poly(b, 1, 0.5)  # one jet for every point
        m = scalars_to_poly([[x, c], [c, 2.0]], b, batch_ndim=1)
        assert m.coeffs.shape == (3, 2, 2, b.size)
        for i in range(3):
            assert np.array_equal(m.coeffs[i, 0, 1], c.coeffs)
            assert np.array_equal(m.coeffs[i, 1, 0], c.coeffs)
        assert np.array_equal(m.coeffs[:, 0, 0], x.coeffs)
        assert np.allclose(m.value()[:, 1, 1], 2.0)

    def test_truncate_and_value(self):
        b = basis(2, 3)
        p = _random_poly(b, seed=9)
        t = p.truncate(1)
        assert t.basis.order == 1
        assert np.allclose(t.coeffs, p.coeffs[: t.basis.size])
        assert const_poly(2.5, b).value() == 2.5
