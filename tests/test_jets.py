"""Truncated Taylor jet arithmetic against independent oracles."""

import functools
import math

import numpy as np
import pytest

from accrgeo import jets
from accrgeo.jets import (FUNCTION_TABLE, JetDomainError, SingularMetricError,
                          _reciprocal, jarcsin, jarctan, jcos, jcosh, jexp,
                          jln, jmul, jpow, jsin, jsinh, jsqrt, jtan, jtanh,
                          jet_space, tconst, tgrad, tgrad0, tminv, tmul,
                          tscale, ttrunc, tvalue)
from oracles import partial

RNG = np.random.default_rng(42)


def rand_jet(space, scale=1.0):
    return RNG.uniform(-scale, scale, space.ncoeff)


def var(space, i, value):
    """The jet of seed variable i at ``value``."""
    x = tconst(space, value)
    x[1 + i] = 1.0
    return x


def mul(space, *factors):
    """Left-to-right product of scalar jets."""
    return functools.reduce(lambda a, b: jmul(space, a, b), factors)


# ---------------------------------------------------------------------------
# Coefficient semantics
# ---------------------------------------------------------------------------

def test_variable_jet_coefficients():
    space = jet_space(2, 3)
    x = var(space, 0, 2.0)
    assert x[0] == 2.0
    assert partial(space, x, 0) == 1.0
    assert partial(space, x, 1) == 0.0
    assert partial(space, x, 0, 0) == 0.0


def test_partial_extraction_matches_factorials():
    # f = x^3 at x0 = 2: d^3 f = 6
    space = jet_space(1, 3)
    x = var(space, 0, 2.0)
    f = mul(space, x, x, x)
    assert f[0] == 8.0
    assert partial(space, f, 0) == pytest.approx(12.0)
    assert partial(space, f, 0, 0) == pytest.approx(12.0)
    assert partial(space, f, 0, 0, 0) == pytest.approx(6.0)


def test_product_leibniz_exhaustive():
    # convolution in Taylor coefficients must reproduce the Leibniz rule
    # for every multi-index up to the order, checked via polynomial
    # oracles whose derivatives are known exactly
    for m in (1, 2, 3):
        space = jet_space(m, 3)
        a = rand_jet(space)
        b = rand_jet(space)
        ab = jmul(space, a, b)
        # oracle: evaluate both Taylor polynomials on a grid of small
        # offsets and compare products pointwise to third order
        for _ in range(20):
            h = RNG.uniform(-0.1, 0.1, m)
            pa = _poly_eval(space, a, h)
            pb = _poly_eval(space, b, h)
            pab = _poly_eval(space, ab, h)
            assert pab == pytest.approx(pa * pb, abs=5e-4)


def _poly_eval(space, coeffs, h):
    """Taylor polynomial of every component of a (tensor) jet at offset h."""
    total = np.zeros(coeffs.shape[1:])
    for idx, c in zip(space.indices, coeffs):
        term = c
        for var, power in enumerate(idx):
            term = term * h[var] ** power
        total = total + term
    return total


def _degree_limited(space, shape, degree):
    """Random tensor jet with no coefficient above the given degree."""
    a = RNG.uniform(-1, 1, (space.ncoeff,) + shape)
    a[space.degree_offsets[degree + 1]:] = 0.0
    return a


@pytest.mark.parametrize("m", [1, 2, 3])
def test_products_at_order_3_match_polynomial_products(m):
    # a jet of degree <= p times one of degree <= 3 - p has no term above
    # order 3, so its truncated product is the exact polynomial product;
    # p = 0..3 between them use every pair of the product table
    space = jet_space(m, 3)
    for p in range(4):
        a = _degree_limited(space, (2, 3), p)
        b = _degree_limited(space, (3, 2), 3 - p)
        s = _degree_limited(space, (), p)
        t = _degree_limited(space, (), 3 - p)
        ab = tmul(space, a, b, "ij,jk->ik")
        sb = tscale(space, s, b)
        st = jmul(space, s, t)
        for _ in range(5):
            h = RNG.uniform(-1, 1, m)
            pa, pb = _poly_eval(space, a, h), _poly_eval(space, b, h)
            ps, pt = _poly_eval(space, s, h), _poly_eval(space, t, h)
            assert np.allclose(_poly_eval(space, ab, h), pa @ pb,
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(_poly_eval(space, sb, h), ps * pb,
                               rtol=1e-12, atol=1e-12)
            assert _poly_eval(space, st, h) == pytest.approx(ps * pt,
                                                             rel=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_jmul_matches_tmul_and_the_polynomial_product(m, order):
    space = jet_space(m, order)
    a, b = rand_jet(space), rand_jet(space)
    ab = jmul(space, a, b)
    want = tmul(space, a, b, ",->")
    assert np.all(np.abs(ab - want) <= 1e-13 * np.maximum(1, np.abs(want)))
    # degree p times degree K - p: the truncation drops no term
    for p in range(order + 1):
        s = _degree_limited(space, (), p)
        t = _degree_limited(space, (), order - p)
        st = jmul(space, s, t)
        for _ in range(3):
            h = RNG.uniform(-1, 1, m)
            want = _poly_eval(space, s, h) * _poly_eval(space, t, h)
            assert _poly_eval(space, st, h) == pytest.approx(
                want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Elementary functions against finite differences
# ---------------------------------------------------------------------------

FUNCS = [
    (jsin, math.sin, (-2.0, 2.0)),
    (jcos, math.cos, (-2.0, 2.0)),
    (jtan, math.tan, (-1.0, 1.0)),
    (jsinh, math.sinh, (-2.0, 2.0)),
    (jcosh, math.cosh, (-2.0, 2.0)),
    (jtanh, math.tanh, (-2.0, 2.0)),
    (jexp, math.exp, (-1.5, 1.5)),
    (jln, math.log, (0.3, 3.0)),
    (jsqrt, math.sqrt, (0.3, 3.0)),
    (jarctan, math.atan, (-2.0, 2.0)),
    (jarcsin, math.asin, (-0.8, 0.8)),
]


@pytest.mark.parametrize("jf,mf,rng", FUNCS, ids=[f[0].__name__
                                                  for f in FUNCS])
def test_function_jets_match_finite_differences(jf, mf, rng):
    h = 1e-5
    for x0 in np.linspace(rng[0], rng[1], 7):
        space = jet_space(1, 3)
        out = jf(space, var(space, 0, float(x0)))
        assert out[0] == pytest.approx(mf(x0), rel=1e-12)
        d1 = (mf(x0 + h) - mf(x0 - h)) / (2 * h)
        d2 = (mf(x0 + h) - 2 * mf(x0) + mf(x0 - h)) / h ** 2
        assert partial(space, out, 0) == pytest.approx(d1, rel=2e-6, abs=2e-6)
        assert partial(space, out, 0, 0) == pytest.approx(d2, rel=2e-4,
                                                          abs=2e-4)


def test_chain_rule_composition():
    # sin(exp(x) * y) jets vs finite differences of the composite
    space = jet_space(2, 2)
    x = var(space, 0, 0.4)
    y = var(space, 1, 1.2)
    f = jsin(space, jmul(space, jexp(space, x), y))

    def ref(a, b):
        return math.sin(math.exp(a) * b)

    h = 1e-5
    assert f[0] == pytest.approx(ref(0.4, 1.2), rel=1e-12)
    assert partial(space, f, 0) == pytest.approx(
        (ref(0.4 + h, 1.2) - ref(0.4 - h, 1.2)) / (2 * h), rel=1e-7)
    assert partial(space, f, 0, 1) == pytest.approx(
        (ref(0.4 + h, 1.2 + h) - ref(0.4 + h, 1.2 - h)
         - ref(0.4 - h, 1.2 + h) + ref(0.4 - h, 1.2 - h)) / (4 * h * h),
        rel=1e-4)


def test_division_and_reciprocal():
    space = jet_space(2, 3)
    a = rand_jet(space) + tconst(space, 3.0)
    b = rand_jet(space) + tconst(space, 2.0)
    q = jmul(space, a, _reciprocal(space, b))
    back = jmul(space, q, b)
    assert np.allclose(back, a, atol=1e-12)
    with pytest.raises(JetDomainError):
        _reciprocal(space, np.zeros(space.ncoeff))


def test_pow_integer_and_real():
    s1 = jet_space(1, 3)
    x = var(s1, 0, 1.7)
    assert np.allclose(jpow(s1, x, 3), mul(s1, x, x, x), atol=1e-12)
    # square and multiply keep x^2 = x*x and x^3 = (x*x)*x bit for bit
    space = jet_space(2, 3)
    a = (np.random.default_rng(5).uniform(-1, 1, space.ncoeff)
         + tconst(space, 1.3))
    assert np.array_equal(jpow(space, a, 2), jmul(space, a, a))
    assert np.array_equal(jpow(space, a, 3), mul(space, a, a, a))
    for n, want in ((6, mul(space, *[a] * 6)),
                    (-5, _reciprocal(space, mul(space, *[a] * 5)))):
        scale = np.max(np.abs(want))
        assert np.allclose(jpow(space, a, n), want, rtol=0,
                           atol=1e-13 * scale)
    half = jpow(s1, x, 0.5)
    assert np.allclose(half, jsqrt(s1, x), atol=1e-12)
    # negative base with non-integer exponent is out of domain
    s2 = jet_space(1, 2)
    with pytest.raises(JetDomainError):
        jpow(s2, var(s2, 0, -1.0), 0.5)


def test_large_integer_power_takes_logarithmically_many_products(
        monkeypatch):
    n = 1_000_000
    products = 0
    segment_sum = jets._segment_sum

    def counting(space, prod):
        nonlocal products
        products += 1
        return segment_sum(space, prod)

    monkeypatch.setattr(jets, "_segment_sum", counting)
    space = jet_space(1, 3)
    got = jpow(space, var(space, 0, 1.0), n)
    assert products <= 2 * math.ceil(math.log2(n))
    # (1 + s)^n = sum_k C(n, k) s^k
    want = np.array([math.comb(n, k) for k in range(4)], dtype=float)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_domain_errors():
    space = jet_space(1, 2)
    bad = var(space, 0, -0.5)
    with pytest.raises(JetDomainError):
        jln(space, bad)
    with pytest.raises(JetDomainError):
        jsqrt(space, bad)
    with pytest.raises(JetDomainError):
        jarcsin(space, var(space, 0, 1.5))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("jf,v,derivs", [
    (_reciprocal, 1e-80, lambda v: [1.0 / v, -1.0 / v**2, 2.0 / v**3]),
    (_reciprocal, 1e-100, lambda v: [1.0 / v, -1.0 / v**2, 2.0 / v**3]),
    (jln, 1e-120, lambda v: [math.log(v), 1.0 / v, -1.0 / v**2]),
], ids=["reciprocal-1e-80", "reciprocal-1e-100", "ln-1e-120"])
def test_functions_compute_only_the_derivatives_of_the_jet_order(jf, v,
                                                                 derivs,
                                                                 order):
    # a derivative above the order (-6/v^4, 2/v^3) overflows, and v^4
    # underflows to 0 at v = 1e-100: neither may fail the jet
    space = jet_space(1, order)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = jf(space, var(space, 0, v))
    want = [d / math.factorial(k) for k, d in enumerate(derivs(v))]
    assert np.allclose(got, want[:order + 1], rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# Tensor-jet helpers
# ---------------------------------------------------------------------------

def test_tmul_matches_pointwise_matrix_product():
    space = jet_space(2, 2)
    a = RNG.uniform(-1, 1, (space.ncoeff, 3, 3))
    b = RNG.uniform(-1, 1, (space.ncoeff, 3, 3))
    c = tmul(space, a, b, "ij,jk->ik")
    assert np.allclose(tvalue(c), tvalue(a) @ tvalue(b))
    # derivative entries obey the product rule (first order coefficients)
    for v in range(2):
        i = space.index_of[tuple(1 if k == v else 0 for k in range(2))]
        expect = a[i] @ tvalue(b) + tvalue(a) @ b[i]
        assert np.allclose(c[i], expect)


# every spec the package passes to tmul
TMUL_SPECS = ["ab,bc->ac", "ia,aj->ij", "kl,ijl->kij", "ljm,mik->lijk",
              "kim,mj->ikj", "mij,km->ikj", "kim,m->ik", "mij,m->ij",
              "mli,mj->lij", "mlj,im->lij", "kj,ik->ij", "ik,jk->ij",
              "k,kij->ij", "km,jm->kj", "mj,mk->jk", "i,j->ij", "i,i->",
              "ik,ik->", ",ij->ij", ",i->i"]
# a distinct length per index, so that a misplaced axis cannot go unseen
AXIS_LENGTH = dict(zip("abcijklm", [2, 3, 4, 3, 2, 4, 5, 3]))


def einsum_tmul(space, a, b, sub):
    """Every pair of the table gathered and multiplied by one einsum, the
    batch axes carried through, and summed by target in table order: the
    oracle for every spec."""
    lhs, rhs = sub.split("->")
    sa, sb = lhs.split(",")
    prod = np.einsum(f"p...{sa},p...{sb}->p...{rhs}", a[space._mul_i],
                     b[space._mul_j])
    return np.add.reduceat(prod, space._mul_starts, axis=0)


# tmul is not bit-for-bit with the oracle: it adds the two value-part
# pairs of a target before its cross pairs, and contracts by matmul
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 7])
@pytest.mark.parametrize("sub", TMUL_SPECS)
def test_tmul_matches_the_pair_table_einsum(sub, m, order):
    space = jet_space(m, order)
    sa, sb = sub.split("->")[0].split(",")
    for batch in [(), (3,), (2, 3)]:
        a = RNG.uniform(-1, 1, (space.ncoeff, *batch,
                                *(AXIS_LENGTH[c] for c in sa)))
        b = RNG.uniform(-1, 1, (space.ncoeff, *batch,
                                *(AXIS_LENGTH[c] for c in sb)))
        got = tmul(space, a, b, sub)
        want = einsum_tmul(space, a, b, sub)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want)
                      <= 1e-13 * np.maximum(1, np.abs(want)))


@pytest.mark.parametrize("sub,shapes", [
    ("ii,i->i", ((3, 3), (3,))),        # an index repeated in one operand
    ("ij,k->i", ((3, 2), (4,))),        # j and k are neither summed nor kept
])
def test_tmul_rejects_a_spec_it_cannot_plan(sub, shapes):
    space = jet_space(2, 2)
    a, b = (np.ones((space.ncoeff,) + shape) for shape in shapes)
    with pytest.raises(ValueError):
        tmul(space, a, b, sub)


@pytest.mark.parametrize("sub", TMUL_SPECS)
def test_batched_tmul_matches_per_point_calls(sub):
    sa, sb = sub.split("->")[0].split(",")
    for order in range(4):
        space = jet_space(2, order)
        for batch in [(3,), (2, 3)]:
            a = RNG.uniform(-1, 1, (space.ncoeff, *batch,
                                    *(AXIS_LENGTH[c] for c in sa)))
            b = RNG.uniform(-1, 1, (space.ncoeff, *batch,
                                    *(AXIS_LENGTH[c] for c in sb)))
            got = tmul(space, a, b, sub)
            for idx in np.ndindex(batch):
                at = (slice(None), *idx)
                want = tmul(space, a[at], b[at], sub)
                assert np.all(np.abs(got[at] - want)
                              <= 1e-13 * np.maximum(1, np.abs(want)))


@pytest.mark.parametrize("abatch,bbatch", [
    ((3,), (2,)),                       # different batch shapes
    ((3,), (1,)),                       # no broadcasting between batches
    ((3,), ()),                         # one operand batched, one not
    ((), (3,)),
])
def test_tmul_rejects_operands_of_different_batches(abatch, bbatch):
    space = jet_space(2, 2)
    a = np.ones((space.ncoeff, *abatch, 3, 3))
    b = np.ones((space.ncoeff, *bbatch, 3, 3))
    with pytest.raises(ValueError):
        tmul(space, a, b, "ij,jk->ik")


def test_tgrad_extracts_partials():
    space = jet_space(2, 2)
    x = var(space, 0, 0.3)
    y = var(space, 1, 0.8)
    f = mul(space, x, x, y)
    arr = np.zeros((space.ncoeff, 1))
    arr[:, 0] = f
    g = tgrad(space, arr)
    assert g.shape[1:] == (1, 2)
    assert tvalue(g)[0, 0] == pytest.approx(2 * 0.3 * 0.8)
    assert tvalue(g)[0, 1] == pytest.approx(0.3 ** 2)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("batch", [(), (4,)])
def test_tgrad0_is_the_value_row_of_tgrad(order, batch):
    space = jet_space(3, order)
    a = RNG.uniform(-1, 1, (space.ncoeff, *batch, 2, 3))
    got, want = tgrad0(space, a), tvalue(tgrad(space, a))
    assert got.shape == want.shape == (*batch, 2, 3, 3)
    assert got.tobytes() == want.tobytes()


def test_tgrad0_rejects_order_0():
    with pytest.raises(ValueError):
        tgrad0(jet_space(3, 0), np.ones((1, 3)))


def test_tminv_inverts_jet_matrix():
    space = jet_space(3, 2)
    base = np.diag([2.0, -1.0, 3.0])
    a = tconst(space, base) + 0.1 * RNG.uniform(-1, 1,
                                                (space.ncoeff, 3, 3))
    inv = tminv(space, a)
    ident = tmul(space, a, inv, "ij,jk->ik")
    expect = tconst(space, np.eye(3))
    assert np.allclose(ident, expect, atol=1e-12)


def test_tminv_accepts_a_well_conditioned_matrix_of_large_scale():
    # condition number 1e3 at d = 7, yet |det| = 1e3 is far below
    # 1e-12 * max|g|^d = 1e9: only a scale-free test admits it
    space = jet_space(2, 2)
    a = tconst(space, np.diag([1e3] + [1.0] * 6))
    inv = tminv(space, a)
    assert np.allclose(tmul(space, a, inv, "ij,jk->ik"),
                       tconst(space, np.eye(7)), atol=1e-12)


def test_batched_tminv_matches_per_point_calls():
    # the scales differ by 1e16 between points, so only a ratio test per
    # point admits every one of them
    space = jet_space(3, 3)
    scales = np.array([1e-8, 1.0, 1e8, 3.0])
    a = (tconst(space, np.diag([2.0, -1.0, 3.0]))[:, None]
         + 0.1 * RNG.uniform(-1, 1, (space.ncoeff, 4, 3, 3)))
    a = a * scales[:, None, None]
    inv = tminv(space, a)
    assert inv.shape == a.shape
    for p in range(4):
        want = tminv(space, a[:, p])
        assert np.allclose(inv[:, p], want, rtol=1e-12,
                           atol=1e-12 * np.abs(want).max())


def test_batched_tminv_rejects_a_batch_with_one_singular_point():
    space = jet_space(2, 1)
    a = tconst(space, np.stack([np.eye(2), np.ones((2, 2)), 2 * np.eye(2)]))
    with pytest.raises(SingularMetricError):
        tminv(space, a)


def test_tminv_rejects_singular():
    space = jet_space(2, 1)
    a = tconst(space, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMetricError):
        tminv(space, a)


def test_ttrunc_is_prefix():
    space = jet_space(2, 3)
    a = RNG.uniform(-1, 1, (space.ncoeff, 2))
    low = ttrunc(space, a, 1)
    child = jet_space(2, 1)
    assert low.shape[0] == child.ncoeff
    assert np.array_equal(low, a[:child.ncoeff])


def test_coordinate_jets_and_rank0_tmul():
    space = jet_space(3, 2)
    pts = [var(space, i, x) for i, x in enumerate([0.5, 1.5, 2.5])]
    assert [j[0] for j in pts] == [0.5, 1.5, 2.5]
    arr = np.stack(pts, axis=1)
    s = tmul(space, arr, arr, "i,i->")
    assert s[0] == pytest.approx(0.25 + 2.25 + 6.25)
    assert partial(space, s, 1) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Truncation commutes with every operation: a degree-d coefficient reads
# only the coefficients of degree <= d of the operands
# ---------------------------------------------------------------------------

def _close(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1, np.abs(want)))


# (K, k): an operation at order K truncated to k < K
ORDER_PAIRS = [(K, k) for K in (1, 2, 3) for k in range(K)]


@pytest.mark.parametrize("K,k", ORDER_PAIRS)
@pytest.mark.parametrize("sub", TMUL_SPECS)
def test_tmul_commutes_with_truncation(sub, K, k):
    space, low = jet_space(2, K), jet_space(2, k)
    sa, sb = sub.split("->")[0].split(",")
    a = RNG.uniform(-1, 1, (space.ncoeff, 3,
                            *(AXIS_LENGTH[c] for c in sa)))
    b = RNG.uniform(-1, 1, (space.ncoeff, 3,
                            *(AXIS_LENGTH[c] for c in sb)))
    _close(ttrunc(space, tmul(space, a, b, sub), k),
           tmul(low, ttrunc(space, a, k), ttrunc(space, b, k), sub))


@pytest.mark.parametrize("K,k", ORDER_PAIRS)
def test_tminv_tgrad_and_jmul_commute_with_truncation(K, k):
    space, low = jet_space(3, K), jet_space(3, k)
    g = RNG.uniform(-0.3, 0.3, (space.ncoeff, 2, 4, 4))
    g[0] += 2.0 * np.eye(4)
    _close(ttrunc(space, tminv(space, g), k),
           tminv(low, ttrunc(space, g, k)))
    if k >= 1:
        _close(ttrunc(space.child, tgrad(space, g), k - 1),
               tgrad(low, ttrunc(space, g, k)))
    a, b = (RNG.uniform(-1, 1, (space.ncoeff, 5)) for _ in range(2))
    _close(ttrunc(space, jmul(space, a, b), k),
           jmul(low, ttrunc(space, a, k), ttrunc(space, b, k)))


@pytest.mark.parametrize("K,k", ORDER_PAIRS)
@pytest.mark.parametrize("name", [*FUNCTION_TABLE, "reciprocal", "pow 3",
                                  "pow -2", "pow 2.5"])
def test_scalar_functions_commute_with_truncation(name, K, k):
    space, low = jet_space(2, K), jet_space(2, k)
    a = RNG.uniform(-0.2, 0.2, (space.ncoeff, 4))
    a[0] = RNG.uniform(0.2, 0.8, 4)     # inside every function's domain
    if name.startswith("pow"):
        def f(sp, x):
            return jpow(sp, x, float(name.split()[1]))
    else:
        f = {**FUNCTION_TABLE, "reciprocal": _reciprocal}[name]
    _close(ttrunc(space, f(space, a), k), f(low, ttrunc(space, a, k)))
