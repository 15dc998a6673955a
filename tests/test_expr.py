"""Parser and forward-mode differentiation tests.

Derivatives are checked against a central finite-difference oracle with
step 1e-6; the tolerance 1e-6 * (1 + |derivative|) matches the evaluation
contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from terracost.expr import (
    _FUNCTIONS,
    Binary,
    Call,
    DualValue,
    ExprDomainError,
    ExprSyntaxError,
    Literal,
    Negate,
    Sampled,
    Variable,
    parse,
)
from terracost.cost import smooth_mesh
from terracost.terrain import field_from_expression

# Expressions exercising every operator/function with safe domains on [-2, 2]^2.
SAMPLE_EXPRESSIONS = [
    "cos(5*x)^2*cos(y)^2",
    "1+sin(5*x)*sin(y)",
    "sin(5*x)*sin(y)",
    "0.1",
    "x*y - y/(3+x)",
    "exp(x/4)*log(2.5+y)",
    "sqrt(1+x^2+y^2)",
    "tan(x/3) + abs(y)^3",
    "(2.5+x)^y",
    "-x^2 + 2^-y",
]


def central_diff(expression, x, y, h=1e-6):
    fxp = expression.eval(x + h, y)
    fxm = expression.eval(x - h, y)
    fyp = expression.eval(x, y + h)
    fym = expression.eval(x, y - h)
    return (fxp - fxm) / (2 * h), (fyp - fym) / (2 * h)


# ---------------------------------------------------------------------------
# parsing


def test_parse_builds_expected_tree():
    assert parse("x+y").root == Binary("+", Variable("x"), Variable("y"))


def test_parse_function_product_tree():
    expected = Binary(
        "*",
        Call("sin", Binary("*", Literal(5.0), Variable("x"))),
        Call("sin", Variable("y")),
    )
    assert parse("sin(5*x)*sin(y)").root == expected


def test_unbalanced_parenthesis_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(")
    assert err.value.position == 4


@pytest.mark.parametrize(
    "text,value",
    [
        ("2^3^2", 512.0),  # right-associative power
        ("-2^2", -4.0),  # power binds tighter than unary minus
        ("2^-2", 0.25),  # exponent re-admits unary minus
        ("1-2-3", -4.0),
        ("8/4/2", 1.0),
        ("2+3*4", 14.0),
        ("(2+3)*4", 20.0),
        ("--2", 2.0),
        ("-x*y", -6.0),  # unary minus binds tighter than *
    ],
)
def test_precedence(text, value):
    assert parse(text).eval(2.0, 3.0) == value


def test_unknown_identifier_rejected():
    with pytest.raises(ExprSyntaxError) as err:
        parse("z+1")
    assert "unknown identifier" in str(err.value)
    assert err.value.position == 0


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("x $ y", "unexpected character '$'", 2),
        ("sin x", "expected '(' after function 'sin'", 4),
    ],
)
def test_syntax_error_names_message_and_position(text, message, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert str(err.value) == f"{message} (position {position})"
    assert err.value.position == position


def test_unknown_function_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("sinh(x)")


def test_arity_mismatch():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(x, y)")
    assert "exactly one argument" in str(err.value)


@pytest.mark.parametrize("text", ["", "   ", "x +", "* x", "(x", "x)", "3 4"])
def test_malformed_inputs(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_literal_arithmetic():
    assert parse("x+y").eval(1.0, 2.0) == 3.0


def test_eval_sin_at_origin():
    assert parse("1+sin(5*x)*sin(y)").eval(0.0, 0.0) == 1.0


def test_eval_cos_squared_at_origin():
    assert parse("cos(5*x)^2*cos(y)^2").eval(0.0, 0.0) == 1.0


@pytest.mark.parametrize(
    "text,x,y,match",
    [
        ("log(x)", -1.0, 0.0, "log"),
        ("sqrt(x)", -1.0, 0.0, "sqrt"),
        ("1/x", 0.0, 0.0, "division by zero"),
        ("x^0.5", -2.0, 0.0, "non-integer exponent"),
        ("x^(0-1)", 0.0, 0.0, "exponent"),
        ("x^-2", 0.0, 1.0, "zero base with negative exponent"),
    ],
)
def test_domain_errors_name_subexpression(text, x, y, match):
    e = parse(text)
    with pytest.raises(ExprDomainError, match=match):
        e.eval(x, y)
    with pytest.raises(ExprDomainError):
        e.eval_dual(x, y)


def test_integer_power_of_negative_base_allowed():
    assert parse("x^3").eval(-2.0, 0.0) == -8.0
    assert parse("x^3").eval_dual(-2.0, 0.0).dx == 12.0


def test_negated_literal_exponent_stays_integer():
    # x^-2 folds the exponent to -2.0, so negative bases remain legal.
    assert parse("x^-2").eval(-2.0, 0.0) == 0.25
    assert parse("x^-2").eval_dual(-2.0, 0.0).dx == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# dual evaluation


def test_dual_product_rule():
    assert parse("x*y").eval_dual(2.0, 3.0) == DualValue(6.0, 3.0, 2.0)


def test_dual_vanishes_at_origin():
    assert parse("sin(5*x)*sin(y)").eval_dual(0.0, 0.0) == DualValue(0.0, 0.0, 0.0)


def test_dual_matches_finite_differences_at_point():
    e = parse("sin(5*x)*sin(y)")
    v, dx, dy = e.eval_dual(0.3, 1.0)
    fdx, fdy = central_diff(e, 0.3, 1.0)
    assert v == pytest.approx(e.eval(0.3, 1.0), abs=0.0)
    assert abs(dx - fdx) <= 1e-6 * (1 + abs(dx))
    assert abs(dy - fdy) <= 1e-6 * (1 + abs(dy))


@pytest.mark.parametrize("text", SAMPLE_EXPRESSIONS)
def test_dual_matches_finite_differences_randomized(text):
    e = parse(text)
    rng = np.random.default_rng(hash(text) % 2**32)
    for _ in range(100):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        if "abs" in text and abs(y) < 1e-3:
            continue  # keep clear of the kink, where FD is meaningless
        _, dx, dy = e.eval_dual(x, y)
        fdx, fdy = central_diff(e, x, y)
        assert abs(dx - fdx) <= 1e-6 * (1 + abs(dx))
        assert abs(dy - fdy) <= 1e-6 * (1 + abs(dy))
    # Values with and without partials come from the same rule: same bits.
    xs, ys = rng.uniform(-2.0, 2.0, size=(2, 1000))
    field = field_from_expression(e)
    pairs = [
        (e.eval_dual(xs, ys).v, e.eval(xs, ys)),
        (field.value_and_partials(xs, ys)[0], field.value(xs, ys)),
    ]
    for with_partials, alone in pairs:
        with_partials, alone = np.broadcast_arrays(with_partials, alone, xs)[:2]
        assert with_partials.tobytes() == alone.tobytes()


def test_constants_have_exactly_zero_partials():
    for text in ("0", "0.1", "3.5", "2^3", "-1.25"):
        v, dx, dy = parse(text).eval_dual(0.7, -0.3)
        assert dx == 0.0 and dy == 0.0
    # a^0 is the constant 1, also at a zero base (the power rule gives 0 * inf).
    for text in ("x^0", "(x*y)^0.0"):
        assert parse(text).eval_dual(0.0, 0.0) == DualValue(1.0, 0.0, 0.0)


def _full_dual(node, x, y):
    # The tangent rules with every zero tangent carried through the
    # arithmetic, as literals and variables seed them.
    if isinstance(node, Literal):
        return node.value, 0.0, 0.0
    if isinstance(node, Variable):
        return (x, 1.0, 0.0) if node.name == "x" else (y, 0.0, 1.0)
    if isinstance(node, Negate):
        v, dx, dy = _full_dual(node.arg, x, y)
        return -v, -dx, -dy
    if isinstance(node, Call):
        u, udx, udy = _full_dual(node.arg, x, y)
        v = node._apply(u)
        g = _FUNCTIONS[node.func][1](u, v)
        return v, g * udx, g * udy
    (a, adx, ady), (b, bdx, bdy) = _full_dual(node.lhs, x, y), _full_dual(node.rhs, x, y)
    v = node._apply(a, b)
    if node.op == "^" and isinstance(node.rhs, Literal):
        g = b * np.power(a, b - 1.0)
        return (v, 0.0, 0.0) if b == 0.0 else (v, g * adx, g * ady)
    rule = {
        "+": lambda da, db: da + db,
        "-": lambda da, db: da - db,
        "*": lambda da, db: da * b + a * db,
        "/": lambda da, db: (da - v * db) / b,
        "^": lambda da, db: v * (db * np.log(a) + b * da / a),
    }[node.op]
    return v, rule(adx, bdx), rule(ady, bdy)


SEED_EXPRESSIONS = [
    "cos(5*x)^2*cos(y)^2",
    "1+sin(5*x)*sin(y)",
    "sin(5*x)*sin(y)",
    "0.1",
    "0.5",
    "0.0036-(x-0.6406585987282475)^2-(y-0.34581792391687)^2",
]


@pytest.mark.parametrize("text", SEED_EXPRESSIONS + SAMPLE_EXPRESSIONS[4:])
def test_zero_tangents_keep_the_bits_of_the_full_rules(text):
    # Skipping a structurally zero tangent changes no bit of a value or a
    # partial at finite points, on the benchmark's expressions and the rest.
    e = parse(text)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-1.5, 1.5, (2, 17, 33))
    points = [(x, y), (x[:, :1], y), (0.3, 0.7)]
    points += [(xs, 0.2 + xs) for xs in (smooth_mesh(64, 1.0, 16)[0],)]
    for px, py in points:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = np.broadcast_arrays(*_full_dual(e.root, px, py), px, py)[:3]
        got = np.broadcast_arrays(*e.eval_dual(px, py), px, py)[:3]
        assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


def test_zero_tangents_stay_scalar():
    xs, _ = smooth_mesh(512, 1.0, 16)
    lhs = parse("sin(5*x)*sin(y)").at_x(xs).root.lhs
    assert isinstance(lhs, Sampled) and lhs.dx.shape == xs.shape
    assert type(lhs.dy) is float and lhs.dy == 0.0
    v, dx, dy = parse("0.0036-(x-0.64)^2").eval_dual(xs, 0.3 + xs)
    assert dx.shape == xs.shape and type(dy) is float and dy == 0.0
    # Where the full rules meet inf * 0 (exp overflows, times d(1000*y)/dx),
    # the zero tangent stays 0, not NaN.
    assert parse("exp(1000*y)").eval_dual(0.5, 1.0) == DualValue(np.inf, 0.0, np.inf)


def test_abs_subgradient_zero_at_kink():
    assert parse("abs(x)").eval_dual(0.0, 1.0) == DualValue(0.0, 0.0, 0.0)


def test_variable_seed_tangents():
    assert parse("x").eval_dual(0.7, 0.2) == DualValue(0.7, 1.0, 0.0)
    assert parse("y").eval_dual(0.7, 0.2) == DualValue(0.2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# round-trip, determinism, arrays


@pytest.mark.parametrize("text", SAMPLE_EXPRESSIONS)
def test_render_round_trip(text):
    e = parse(text)
    e2 = parse(e.render())
    assert e2.root == e.root
    rng = np.random.default_rng(7)
    for _ in range(25):
        x, y = rng.uniform(-1.5, 1.5, size=2)
        assert e2.eval(x, y) == e.eval(x, y)


def test_identical_queries_are_bit_identical():
    e = parse("exp(x/4)*log(2.5+y) - tan(x/3)")
    a = e.eval_dual(0.31830988618, -0.577215664)
    b = e.eval_dual(0.31830988618, -0.577215664)
    assert a == b


def test_array_evaluation_broadcasts():
    e = parse("sin(5*x)*sin(y)")
    xs = np.linspace(-1, 1, 7)[:, None]
    ys = np.linspace(-2, 2, 5)[None, :]
    v, dx, dy = e.eval_dual(xs, ys)
    assert v.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            sv, sdx, sdy = e.eval_dual(float(xs[i, 0]), float(ys[0, j]))
            assert v[i, j] == pytest.approx(sv, rel=1e-15, abs=1e-300)
            assert dx[i, j] == pytest.approx(sdx, rel=1e-15, abs=1e-300)
            assert dy[i, j] == pytest.approx(sdy, rel=1e-15, abs=1e-300)


def test_constant_expression_broadcasts_against_arrays():
    # Literals stay scalar; downstream code must broadcast them itself.
    v = parse("0.5").eval(np.zeros(4), np.zeros(4))
    assert np.broadcast_to(v, (4,)).tolist() == [0.5] * 4


# ---------------------------------------------------------------------------
# binding to fixed abscissae

BOUND_EXPRESSIONS = [
    "sin(5*x)*sin(y)",
    "cos(5*x)^2*cos(y)^2",
    "y/(x-0.5)",
    "x*y",
    "sin(x+y)",
    "x^y",
    "exp(-x)*cos(3*y)",
    "1/(1+x)",
    "sin(5*x)-x^2",  # pure x
    "x",
    "cos(3*y)+y^2",  # pure y
    "0.1",
    "2*3-1",  # a constant with operations
]


def _mesh_points():
    # (x, y) on ritz's (17, 511) mesh, on a 64-point mesh, and broadcast
    # (q + 1, 1) x (q + 1, m), as a transition's arcs sample them.
    rng = np.random.default_rng(11)
    for mesh_points in (512, 64):
        xs, _ = smooth_mesh(mesh_points, 1.0, 16)
        yield xs, 0.2 + xs + 0.3 * np.sin(3 * xs) + rng.uniform(0.0, 0.1, xs.shape)
    xs = 0.25 + 0.125 * (np.arange(17) / 16)[:, None]
    yield xs, rng.uniform(0.1, 1.5, (17, 9))


def _outcome(evaluate, x, y):
    # The parts of one evaluation's result, each as (shape, dtype, bytes),
    # or the error it raises.
    try:
        result = evaluate(x, y)
    except ExprDomainError as exc:
        return type(exc), str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return [(np.shape(p), np.asarray(p).dtype, np.asarray(p).tobytes()) for p in parts]


@pytest.mark.parametrize("text", BOUND_EXPRESSIONS)
def test_bound_expression_has_the_bits_of_the_unbound_one(text):
    e = parse(text)
    for x, y in _mesh_points():
        bound = e.at_x(x)
        assert bound.render() == e.render() and bound.source == e.source
        for method in ("eval", "eval_dual"):
            want = _outcome(getattr(e, method), x, y)
            assert _outcome(getattr(bound, method), x, y) == want
            assert _outcome(getattr(bound, method), x, y) == want  # reads, never writes


def test_binding_replaces_maximal_y_free_operations():
    x = np.linspace(0.0, 1.0, 5)
    root = parse("cos(5*x)^2*cos(y)^2").at_x(x).root
    assert isinstance(root.lhs, Sampled) and root.lhs.render() == "(cos((5.0*x))^2.0)"
    assert isinstance(root.rhs, Binary) and isinstance(root.rhs.lhs, Call)
    # Bare variables and literals stay leaves; y-bearing nodes stay operations.
    root = parse("x*y + 2").at_x(x).root
    assert root == parse("x*y + 2").root
    assert isinstance(parse("sin(x)").at_x(x).root, Sampled)


def test_bound_values_are_read_only():
    x = np.linspace(0.0, 1.0, 5)
    bound = parse("sin(5*x)+x^2").at_x(x)
    for part in (bound.eval(x, 0.0), *bound.eval_dual(x, 0.0)):
        if isinstance(part, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0.0


@pytest.mark.parametrize(
    "text",
    [
        "log(x) + sqrt(y)",  # the y-free operand fails first
        "sqrt(y) + log(x)",  # the y-bearing operand fails first
        "y*(1/x)",
        "log(x)*sin(5*x) + y",  # a failing parent over a bindable child
        "sqrt(x - 0.5)*y",
    ],
)
def test_failing_y_free_subtree_raises_the_unbound_error_in_order(text):
    # x = 0 is on the mesh, and so is y < 0 in the first y: either operand
    # of a sum may fail first.
    x = np.linspace(0.0, 1.0, 9)[:, None]
    e = parse(text)
    bound = e.at_x(x)  # binding itself never raises
    for y in (np.linspace(-1.0, 1.0, 4), np.linspace(0.5, 1.0, 4)):
        for method in ("eval", "eval_dual"):
            want = _outcome(getattr(e, method), x, y)
            assert isinstance(want[0], type)
            assert _outcome(getattr(bound, method), x, y) == want
