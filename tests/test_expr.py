"""Expression language: parsing, serialization, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accrgeo import expr as ex
from accrgeo.examples import build_hypersurface, soliton_uvw
from accrgeo.geometry import coordinate_bindings
from accrgeo.jets import (FUNCTION_TABLE, _reciprocal, jet_space, jmul, jpow,
                          tconst)
from oracles import eval_float


def test_parse_basic_arithmetic():
    e = ex.parse("1 + 2 * 3")
    assert eval_float(e, {}) == 7.0
    e = ex.parse("(1 + 2) * 3")
    assert eval_float(e, {}) == 9.0
    with pytest.raises(ex.ParseError):
        ex.parse("2 ^ 3 ^")


def test_power_binds_tighter_than_unary_minus():
    e = ex.parse("-x^2")
    assert eval_float(e, {"x": 3.0}) == -9.0


def test_negative_exponent():
    e = ex.parse("x ^ -2")
    assert eval_float(e, {"x": 2.0}) == 0.25


def test_functions_require_parentheses():
    e = ex.parse("sin(x) + cos(y)")
    v = eval_float(e, {"x": 0.3, "y": 1.1})
    assert v == pytest.approx(math.sin(0.3) + math.cos(1.1))
    with pytest.raises(ex.ParseError):
        ex.parse("foo(x)")      # unknown function name


# (text, offset, str(ParseError)): every rule of the tokenizer and the
# parser that rejects text, with the offset and message it reports
PARSE_ERRORS = [
    ("", 0, "expected a number, name or '(', found end of input"),
    ("   ", 3, "expected a number, name or '(', found end of input"),
    ("1 + * 2", 4, "expected a number, name or '(', found '*'"),
    ("sin(x", 5, "expected ')', found end of input"),
    ("foo(x)", 0, "expected a known function name, found 'foo'"),
    ("x^y", 2, "expected a numeric exponent, found 'y'"),
    ("x^--2", 3, "expected a numeric exponent, found '-'"),
    ("x^1e999", 2, "expected a finite number, found '1e999'"),
    ("2 ^ 3 ^", 6, "expected end of input, found '^'"),
    ("()", 1, "expected a number, name or '(', found ')'"),
    ("x  @ y", 3, "expected a token, found '@'"),
    ("sin x", 4, "expected end of input, found 'x'"),
    ("((x)", 4, "expected ')', found end of input"),
    ("1..2", 2, "expected end of input, found '.2'"),
    ("x ^ (2)", 4, "expected a numeric exponent, found '('"),
    ("x\n+\ty ^ -", 9, "expected a numeric exponent, found end of input"),
    ("(" * (ex.MAX_DEPTH + 1) + "x" + ")" * (ex.MAX_DEPTH + 1), 101,
     "expected parentheses nested at most 100 deep, found 'x'"),
    ("x" + " + x" * (ex.MAX_DEPTH + 1), 0,
     "expected at most 100 nested operations, found 101"),
    ("\u00e9", 0, "expected a token, found '\u00e9'"),
    ("1 + 2 $", 6, "expected a token, found '$'"),
    ("x)", 1, "expected end of input, found ')'"),
    ("1e999", 0, "expected a finite number, found '1e999'"),
    ("x ^ -1e999", 5, "expected a finite number, found '1e999'"),
    ("sin()", 4, "expected a number, name or '(', found ')'"),
    ("x ^", 3, "expected a numeric exponent, found end of input"),
    ("-", 1, "expected a number, name or '(', found end of input"),
    ("x +  ", 5, "expected a number, name or '(', found end of input"),
    ("- ^ 2", 2, "expected a number, name or '(', found '^'"),
    ("1e5e5", 3, "expected end of input, found 'e5'"),
    ("x_1 + 1_x", 7, "expected a token, found '_'"),
    ("x\u00a0+ 1 #", 6, "expected a token, found '#'"),
    # digits are ASCII only: these parsed as 12, 2 and 1e3
    ("x1 + \u0661\u0662", 5, "expected a token, found '\u0661'"),
    ("\uff12 * t", 0, "expected a token, found '\uff12'"),
    ("1e\u0663", 2, "expected a token, found '\u0663'"),
]


@pytest.mark.parametrize("text, offset, message", PARSE_ERRORS)
def test_parse_error_reports_offset(text, offset, message):
    with pytest.raises(ex.ParseError) as exc:
        ex.parse(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"parse error at offset {offset}: {message}"


AT_BOUND = [
    "(" * ex.MAX_DEPTH + "x" + ")" * ex.MAX_DEPTH,
    "sin(" * ex.MAX_DEPTH + "x" + ")" * ex.MAX_DEPTH,
    "-" * ex.MAX_DEPTH + "x",
    "x" + " + x" * ex.MAX_DEPTH,
]


@pytest.mark.parametrize("text", AT_BOUND)
def test_parse_accepts_nesting_at_the_depth_bound(text):
    e = ex.parse(text)
    assert ex.depth(e) <= ex.MAX_DEPTH
    assert ex.parse(ex.serialize(e)) == e
    assert math.isfinite(eval_float(e, {"x": 0.5}))
    assert ex.free_vars(e) == frozenset({"x"})


@pytest.mark.parametrize("text", [
    "(" * (ex.MAX_DEPTH + 1) + "x" + ")" * (ex.MAX_DEPTH + 1),
    "sin(" * (ex.MAX_DEPTH + 1) + "x" + ")" * (ex.MAX_DEPTH + 1),
    "-" * (ex.MAX_DEPTH + 1) + "x",
    "x" + " + x" * (ex.MAX_DEPTH + 1),
    "-" * 100000 + "x",
    "(" * 100000 + "x" + ")" * 100000,
])
def test_parse_rejects_nesting_past_the_depth_bound(text):
    with pytest.raises(ex.ParseError, match="nested"):
        ex.parse(text)


def test_free_vars():
    e = ex.parse("sin(x) * y + exp(z ^ 2)")
    assert ex.free_vars(e) == frozenset({"x", "y", "z"})
    assert ex.free_vars(ex.parse("1 + 2")) == frozenset()


def test_unbound_variable_raises():
    with pytest.raises(ex.EvalError):
        eval_float(ex.parse("x + y"), {"x": 1.0})
    space = jet_space(1, 1)
    with pytest.raises(ex.EvalError):
        ex.eval_jet(space, ex.parse("x + y"),
                    coordinate_bindings(["x"], [1.0], 1))


def test_domain_errors_become_eval_errors():
    with pytest.raises(ex.EvalError):
        eval_float(ex.parse("ln(x)"), {"x": -1.0})
    space = jet_space(1, 2)
    with pytest.raises(ex.EvalError):
        ex.eval_jet(space, ex.parse("sqrt(x)"),
                    coordinate_bindings(["x"], [-2.0], 2))
    with pytest.raises(ex.EvalError):
        eval_float(ex.parse("1 / x"), {"x": 0.0})


def test_serialize_round_trip_structural():
    texts = [
        "x + y * z", "-x ^ 2 + sin(x * y)", "exp(2 * arctan(sinh(t)))",
        "0.5 * ln(x1 ^ 2 + x2 ^ 2) - arctan(sinh(t))",
        "x ^ -3 / (1 - y)",
    ]
    for text in texts:
        e = ex.parse(text)
        again = ex.parse(ex.serialize(e))
        assert again == e


def test_operator_overloads_build_trees():
    x, y = ex.Var("x"), ex.Var("y")
    e = 2.0 * x + y ** 2 - ex.func("sin", x / y)
    v = eval_float(e, {"x": 1.2, "y": 0.7})
    assert v == pytest.approx(2 * 1.2 + 0.49 - math.sin(1.2 / 0.7))


# ---------------------------------------------------------------------------
# Random expression property tests
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=3.0).map(ex.Const),
    st.sampled_from(["x", "y", "z"]).map(ex.Var),
)


def _extend(children):
    safe_funcs = ["sin", "cos", "tanh", "arctan", "exp"]
    return st.one_of(
        st.tuples(children, children).map(lambda p: ex.Bin("+", *p)),
        st.tuples(children, children).map(lambda p: ex.Bin("-", *p)),
        st.tuples(children, children).map(lambda p: ex.Bin("*", *p)),
        children.map(ex.Neg),
        st.tuples(children, st.integers(1, 3)).map(
            lambda p: ex.Pow(p[0], float(p[1]))),
        st.tuples(st.sampled_from(safe_funcs), children).map(
            lambda p: ex.Func(p[0], p[1])),
    )


expr_strategy = st.recursive(_leaf, _extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(expr_strategy)
def test_serialize_parse_identity(e):
    assert ex.parse(ex.serialize(e)) == e


@settings(max_examples=200, deadline=None)
@given(expr_strategy, st.floats(0.2, 1.8), st.floats(0.2, 1.8),
       st.floats(0.2, 1.8))
def test_float_and_jet_evaluation_agree(e, x, y, z):
    vals = {"x": x, "y": y, "z": z}
    f = eval_float(e, vals)
    space = jet_space(3, 1)
    bindings = coordinate_bindings(list(vals), list(vals.values()), 1)
    j = ex.eval_jet(space, e, bindings)
    assert np.isfinite(f)
    assert j[0] == pytest.approx(f, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Shared nodes: one evaluation per distinct node and point
# ---------------------------------------------------------------------------

def tree_walk(e, bindings, space):
    """Reference evaluator: every tree on its own, with no memo."""
    match e:
        case ex.Const(value):
            return tconst(space, value)
        case ex.Var(name):
            return bindings[name]
        case ex.Neg(arg):
            return -tree_walk(arg, bindings, space)
        case ex.Bin(op, left, right):
            a = tree_walk(left, bindings, space)
            b = tree_walk(right, bindings, space)
            if op in "+-":
                return a + b if op == "+" else a - b
            return jmul(space, a, b if op == "*" else _reciprocal(space, b))
        case ex.Pow(base, exponent):
            return jpow(space, tree_walk(base, bindings, space), exponent)
        case ex.Func(name, arg):
            return FUNCTION_TABLE[name](space,
                                        tree_walk(arg, bindings, space))


def count_function_calls(monkeypatch) -> dict:
    calls = {name: 0 for name in FUNCTION_TABLE}

    def counted(name, fn):
        def call(space, a):
            calls[name] += 1
            return fn(space, a)
        return call

    for name, fn in list(FUNCTION_TABLE.items()):
        monkeypatch.setitem(FUNCTION_TABLE, name, counted(name, fn))
    return calls


def distinct_func_nodes(exprs) -> dict:
    """Func nodes reachable from the trees, by name, counted once per
    node object."""
    seen, stack = {}, list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        match node:
            case ex.Neg(arg) | ex.Func(_, arg) | ex.Pow(arg, _):
                stack.append(arg)
            case ex.Bin(_, left, right):
                stack += [left, right]
    count = {name: 0 for name in FUNCTION_TABLE}
    for node in seen.values():
        if isinstance(node, ex.Func):
            count[node.name] += 1
    return count


def test_structure_at_calls_each_function_once_per_distinct_node(
        monkeypatch):
    S = build_hypersurface(3)
    tables = (S.g_expr, S.phi_expr, S.xi_expr, S.eta_expr)
    want = distinct_func_nodes(e for t in tables for e in t.flat)
    assert want["sinh"] == 1 and want["arctan"] == 4   # p and A-bar
    calls = count_function_calls(monkeypatch)
    S.structure_at(np.full(S.dim, 0.8), 2)
    assert calls == want


def test_equal_text_entries_are_evaluated_once(monkeypatch):
    table = ex.expr_table(["sin(x) * cos(x)"] * 10, (10,))
    calls = count_function_calls(monkeypatch)
    jets = ex.eval_jets(jet_space(1, 3), table.flat,
                        coordinate_bindings(["x"], [0.3], 3))
    assert (calls["sin"], calls["cos"]) == (1, 1)
    want = np.sin(0.3) * np.cos(0.3)
    assert all(j[0] == pytest.approx(want, rel=1e-15) for j in jets)


def test_expr_table_shares_constants_by_bit_pattern():
    t = ex.expr_table([[0.0, 1], [1.0, ex.Const(0.0)]], (2, 2))
    assert t[0, 0] is t[1, 1] and t[0, 1] is t[1, 0]
    signed = ex.expr_table([-0.0, 0.0], (2,))
    assert signed[0] is not signed[1]
    assert [math.copysign(1.0, c.value) for c in signed] == [-1.0, 1.0]
    jets = ex.eval_jets(jet_space(1, 1), signed,
                        coordinate_bindings(["x"], [0.5], 1))
    assert [math.copysign(1.0, j[0]) for j in jets] == [-1.0, 1.0]


def test_eval_jets_matches_an_independent_walk_bit_for_bit():
    S = build_hypersurface(2)
    triple = soliton_uvw(2)
    point = [0.7, 1.1, 0.9, 1.3, 0.6]
    bindings = coordinate_bindings(S.coords, point, 3)
    space = jet_space(len(S.coords), 3)
    exprs = list(S.g_expr.flat) + [triple.u, triple.v, triple.w]
    for got, e in zip(ex.eval_jets(space, exprs, bindings), exprs):
        assert np.array_equal(got, tree_walk(e, bindings, space))


def test_eval_jets_raises_eval_error_like_eval_jet():
    space = jet_space(1, 2)
    bindings = coordinate_bindings(["x"], [-2.0], 2)
    fine = ex.parse("x + 1")
    with pytest.raises(ex.EvalError, match="unbound variable 'y'"):
        ex.eval_jets(space, [fine, ex.parse("x * y")], bindings)
    with pytest.raises(ex.EvalError, match="sqrt"):
        ex.eval_jets(space, [fine, ex.parse("sqrt(x)")], bindings)
    # the space is an argument: constants need no binding
    assert np.array_equal(ex.eval_jets(space, [ex.parse("2 * 3")], {})[0],
                          tconst(space, 6.0))


@pytest.mark.parametrize("x", ["1e999", "2 * 1e999", "x^1e999", "x^-1e999",
                               math.inf, math.nan, 10 ** 400])
def test_non_finite_number_is_a_parse_error(x):
    with pytest.raises(ex.ParseError, match="a finite number"):
        ex.as_expr(x)


def test_eval_jets_names_the_node_where_a_jet_overflows():
    space = jet_space(1, 2)
    bindings = coordinate_bindings(["x"], [10.0], 2)
    fine = ex.parse("x + 1")
    # numpy overflows inside x^400, not in the sum over it
    with pytest.raises(ex.EvalError, match=r"overflow .* at \(x \^ 400\)$"):
        ex.eval_jets(space, [fine, ex.parse("x^400 + x"), fine], bindings)
    # a Python overflow names the node whose jet function raised it
    with pytest.raises(ex.EvalError, match=r"range error at exp\(\(x \* 100"):
        ex.eval_jets(space, [ex.parse("sin(exp(x*100))")], bindings)
    assert ex.eval_jets(space, [fine], bindings)[0][0] == 11.0


# a constant operand is a number: each form against the same tree with the
# constant a variable bound to a constant jet (== leaves the sign of a zero
# free)
CONST_FORMS = ["c * X", "X * c", "X / c", "c / X", "c + X", "X + c",
               "c - X", "X - c"]


@pytest.mark.parametrize("form", CONST_FORMS)
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("points", [[0.7, 1.2], [[0.7, 1.2], [1.3, -0.4],
                                                  [0.2, 0.9]]],
                         ids=["point", "batch"])
def test_constant_operand_matches_a_constant_jet(form, order, points):
    space = jet_space(2, order)
    bindings = coordinate_bindings(["x", "y"], points, order)
    x = ex.parse("sin(x) * y + x^2 + 0.5")
    c = -1.75
    left, right = [{"c": ex.Const(c), "X": x}[s] for s in form.split()[::2]]
    op = form.split()[1]
    got = ex.eval_jet(space, ex.Bin(op, left, right), bindings)
    var = {"c": ex.Var("c"), "X": x}
    bound = ex.Bin(op, *[var[s] for s in form.split()[::2]])
    want = ex.eval_jet(space, bound, {
        **bindings, "c": tconst(space, np.full(np.shape(points)[:-1], c))})
    assert got.shape == want.shape
    assert np.all(got == want)


@pytest.mark.parametrize("text, point, message", [
    ("x/0", 1.0, "division by zero at (x / 0)"),
    ("1e300 * (x * 1e10)", 1.0, "overflow encountered in multiply at "
     "(1.0000000000000001e+300 * (x * 10000000000))"),
    ("(x * 1e10) * 1e300", 1.0, "overflow encountered in multiply at "
     "((x * 10000000000) * 1.0000000000000001e+300)"),
    ("1e308 + x * 1e308", 1.0, "overflow encountered in add at "
     "(1e+308 + (x * 1e+308))"),
    ("x/1e-310", 1.0, "math range error at (x / 9.9999999999999694e-311)"),
])
@pytest.mark.parametrize("order", [1, 3])
def test_constant_operand_errors_name_the_node(text, point, message, order):
    space = jet_space(1, order)
    with pytest.raises(ex.EvalError) as err:
        ex.eval_jet(space, ex.parse(text),
                    coordinate_bindings(["x"], [point], order))
    assert str(err.value) == message


@pytest.mark.parametrize("order", [1, 2, 3])
def test_division_by_a_tiny_constant_scales_by_its_reciprocal(order):
    # the jet of 1/c overflowed in its powers of c: "math range error" at
    # order 1 and "division by zero" from order 2, where X * (1/c) is finite
    space = jet_space(2, order)
    bindings = coordinate_bindings(["x", "y"], [0.7, 1.2], order)
    x = ex.parse("sin(x) * y + x^2")
    got = ex.eval_jet(space, ex.Bin("/", x, ex.Const(1e-160)), bindings)
    assert np.array_equal(got, ex.eval_jet(space, x, bindings)
                          * (1.0 / 1e-160))
