"""Truncated Taylor jet arithmetic against independent oracles."""

import math

import numpy as np
import pytest

from accrgeo import jets
from accrgeo.jets import (Jet, JetDomainError, SingularMetricError, jarcsin,
                          jarctan, jcos, jcosh, jexp, jln, jpow, jsin, jsinh,
                          jsqrt, jtan, jtanh, jet_space, tconst, tgrad,
                          tminv, tmul, tscale, ttrunc, tvalue)

RNG = np.random.default_rng(42)


def rand_jet(space, scale=1.0):
    j = Jet(space, RNG.uniform(-scale, scale, space.ncoeff))
    return j


# ---------------------------------------------------------------------------
# Coefficient semantics
# ---------------------------------------------------------------------------

def test_variable_jet_coefficients():
    x = jet_space(2, 3).var(0, 2.0)
    assert x.value == 2.0
    assert x.partial(0) == 1.0
    assert x.partial(1) == 0.0
    assert x.partial(0, 0) == 0.0


def test_partial_extraction_matches_factorials():
    # f = x^3 at x0 = 2: d^3 f = 6
    space = jet_space(1, 3)
    x = space.var(0, 2.0)
    f = x * x * x
    assert f.value == 8.0
    assert f.partial(0) == pytest.approx(12.0)
    assert f.partial(0, 0) == pytest.approx(12.0)
    assert f.partial(0, 0, 0) == pytest.approx(6.0)


def test_product_leibniz_exhaustive():
    # convolution in Taylor coefficients must reproduce the Leibniz rule
    # for every multi-index up to the order, checked via polynomial
    # oracles whose derivatives are known exactly
    for m in (1, 2, 3):
        space = jet_space(m, 3)
        a = rand_jet(space)
        b = rand_jet(space)
        ab = a * b
        # oracle: evaluate both Taylor polynomials on a grid of small
        # offsets and compare products pointwise to third order
        for _ in range(20):
            h = RNG.uniform(-0.1, 0.1, m)
            pa = _poly_eval(space, a.coeffs, h)
            pb = _poly_eval(space, b.coeffs, h)
            pab = _poly_eval(space, ab.coeffs, h)
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
        sb = tscale(space, Jet(space, s), b)
        st = (Jet(space, s) * Jet(space, t)).coeffs
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
        x = jet_space(1, 3).var(0, float(x0))
        out = jf(x)
        assert out.value == pytest.approx(mf(x0), rel=1e-12)
        d1 = (mf(x0 + h) - mf(x0 - h)) / (2 * h)
        d2 = (mf(x0 + h) - 2 * mf(x0) + mf(x0 - h)) / h ** 2
        assert out.partial(0) == pytest.approx(d1, rel=2e-6, abs=2e-6)
        assert out.partial(0, 0) == pytest.approx(d2, rel=2e-4, abs=2e-4)


def test_chain_rule_composition():
    # sin(exp(x) * y) jets vs finite differences of the composite
    space = jet_space(2, 2)
    x = space.var(0, 0.4)
    y = space.var(1, 1.2)
    f = jsin(jexp(x) * y)

    def ref(a, b):
        return math.sin(math.exp(a) * b)

    h = 1e-5
    assert f.value == pytest.approx(ref(0.4, 1.2), rel=1e-12)
    assert f.partial(0) == pytest.approx(
        (ref(0.4 + h, 1.2) - ref(0.4 - h, 1.2)) / (2 * h), rel=1e-7)
    assert f.partial(0, 1) == pytest.approx(
        (ref(0.4 + h, 1.2 + h) - ref(0.4 + h, 1.2 - h)
         - ref(0.4 - h, 1.2 + h) + ref(0.4 - h, 1.2 - h)) / (4 * h * h),
        rel=1e-4)


def test_division_and_reciprocal():
    space = jet_space(2, 3)
    a = rand_jet(space) + 3.0
    b = rand_jet(space) + 2.0
    q = a / b
    back = q * b
    assert np.allclose(back.coeffs, a.coeffs, atol=1e-12)
    with pytest.raises(JetDomainError):
        _ = a / Jet(space, np.zeros(space.ncoeff))


def test_pow_integer_and_real():
    x = jet_space(1, 3).var(0, 1.7)
    assert np.allclose(jpow(x, 3).coeffs, (x * x * x).coeffs, atol=1e-12)
    # square and multiply keep x^2 = x*x and x^3 = (x*x)*x bit for bit
    space = jet_space(2, 3)
    a = Jet(space, np.random.default_rng(5).uniform(-1, 1, space.ncoeff)) + 1.3
    assert np.array_equal(jpow(a, 2).coeffs, (a * a).coeffs)
    assert np.array_equal(jpow(a, 3).coeffs, ((a * a) * a).coeffs)
    for n, want in ((6, a * a * a * a * a * a),
                    (-5, 1.0 / (a * a * a * a * a))):
        scale = np.max(np.abs(want.coeffs))
        assert np.allclose(jpow(a, n).coeffs, want.coeffs, rtol=0,
                           atol=1e-13 * scale)
    half = jpow(x, 0.5)
    assert np.allclose(half.coeffs, jsqrt(x).coeffs, atol=1e-12)
    # negative base with non-integer exponent is out of domain
    y = jet_space(1, 2).var(0, -1.0)
    with pytest.raises(JetDomainError):
        jpow(y, 0.5)


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
    x = jet_space(1, 3).var(0, 1.0)
    got = jpow(x, n).coeffs
    assert products <= 2 * math.ceil(math.log2(n))
    # (1 + s)^n = sum_k C(n, k) s^k
    want = np.array([math.comb(n, k) for k in range(4)], dtype=float)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_domain_errors():
    bad = jet_space(1, 2).var(0, -0.5)
    with pytest.raises(JetDomainError):
        jln(bad)
    with pytest.raises(JetDomainError):
        jsqrt(bad)
    with pytest.raises(JetDomainError):
        jarcsin(jet_space(1, 2).var(0, 1.5))


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
              "ik,ik->"]
# a distinct length per index, so that a misplaced axis cannot go unseen
AXIS_LENGTH = dict(zip("abcijklm", [2, 3, 4, 3, 2, 4, 5, 3]))


def einsum_tmul(space, a, b, sub):
    """Every pair of the table gathered and multiplied by one einsum, as
    tmul did before its planned matmul: the oracle for every spec."""
    lhs, rhs = sub.split("->")
    sa, sb = lhs.split(",")
    prod = np.einsum(f"p{sa},p{sb}->p{rhs}", a[space._mul_i],
                     b[space._mul_j])
    return np.add.reduceat(prod, space._mul_starts, axis=0)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("sub", TMUL_SPECS)
def test_tmul_matches_the_pair_table_einsum(sub, order):
    space = jet_space(2, order)
    sa, sb = sub.split("->")[0].split(",")
    a = RNG.uniform(-1, 1, (space.ncoeff,) + tuple(AXIS_LENGTH[c]
                                                   for c in sa))
    b = RNG.uniform(-1, 1, (space.ncoeff,) + tuple(AXIS_LENGTH[c]
                                                   for c in sb))
    got = tmul(space, a, b, sub)
    want = einsum_tmul(space, a, b, sub)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1, np.abs(want)))


@pytest.mark.parametrize("sub,shapes", [
    ("ii,i->i", ((3, 3), (3,))),        # an index repeated in one operand
    ("ij,k->i", ((3, 2), (4,))),        # j and k are neither summed nor kept
])
def test_tmul_rejects_a_spec_it_cannot_plan(sub, shapes):
    space = jet_space(2, 2)
    a, b = (np.ones((space.ncoeff,) + shape) for shape in shapes)
    with pytest.raises(ValueError):
        tmul(space, a, b, sub)


def test_tgrad_extracts_partials():
    space = jet_space(2, 2)
    x = space.var(0, 0.3)
    y = space.var(1, 0.8)
    f = x * x * y
    arr = np.zeros((space.ncoeff, 1))
    arr[:, 0] = f.coeffs
    g = tgrad(space, arr)
    assert g.shape[1:] == (1, 2)
    assert tvalue(g)[0, 0] == pytest.approx(2 * 0.3 * 0.8)
    assert tvalue(g)[0, 1] == pytest.approx(0.3 ** 2)


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
    pts = [space.var(i, x) for i, x in enumerate([0.5, 1.5, 2.5])]
    assert [j.value for j in pts] == [0.5, 1.5, 2.5]
    arr = np.stack([j.coeffs for j in pts], axis=1)
    s = Jet(space, tmul(space, arr, arr, "i,i->"))
    assert s.value == pytest.approx(0.25 + 2.25 + 6.25)
    assert s.partial(1) == pytest.approx(3.0)
