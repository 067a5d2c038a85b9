import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmcheck.exprjet import (Bin, Call, DomainError, Neg, Num, ParseError, Param,
                             UnboundParameterError, UnboundVariableError, Var,
                             eval_jet, eval_points, eval_value, jet_sqrt, parse, to_source)
from fmcheck.ode3d import principal

from finite_diff import finite_diff_oracle


def test_parse_shapes():
    e = parse("2/(u1-u2)^2")
    assert e == Bin("/", Num(2 + 0j), Bin("^", Bin("-", Var(1), Var(2)), Num(2 + 0j)))
    assert parse("pow(u1,2)") == parse("u1^2")
    assert parse("x*y") == Bin("*", Var(1), Var(2))


def test_parse_right_assoc_pow():
    assert parse("u1^2^3") == Bin("^", Var(1), Bin("^", Num(2 + 0j), Num(3 + 0j)))


def test_parse_unary_binds_before_pow():
    # the grammar puts unary inside the power base: -2^2 == (-2)^2
    assert eval_value(parse("-2^2"), []) == 4


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("2*(u1")
    with pytest.raises(ParseError):
        parse("foo(u1)")
    with pytest.raises(ParseError):
        parse("sin(u1)")
    with pytest.raises(ParseError):
        parse("u1 @ u2")
    with pytest.raises(ParseError):
        parse("pow(u1)")


def test_eval_errors():
    with pytest.raises(UnboundVariableError):
        eval_value(parse("u3"), [1.0, 2.0])
    with pytest.raises(UnboundParameterError):
        eval_value(parse("a*u1"), [1.0])
    with pytest.raises(DomainError):
        eval_value(parse("1/(u1-1)"), [1.0])
    with pytest.raises(DomainError):
        eval_value(parse("ln(u1-2)"), [2.0])
    # the table evaluator raises what the single-expression one does
    for src, point, error in (("a*u1", [1.0], UnboundParameterError),
                              ("u3", [1.0, 2.0], UnboundVariableError),
                              ("1/(u1-1)", [1.0], DomainError),
                              ("ln(u1)", [0.0], DomainError),
                              ("sqrt(u1)", [0.0], DomainError),
                              ("u1^(1/2)", [0.0], DomainError),
                              ("exp(u1)", [1000.0], DomainError)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error):
                eval_jet(parse(src), point)
            with pytest.raises(error):
                eval_value(parse(src), point)
            with pytest.raises(error):
                eval_points((("u1", src),), [point]).at(0)


def test_principal_sqrt_of_minus_one():
    assert eval_value(parse("sqrt(-1)"), []) == 1j


def test_imag_literal_and_arith():
    assert eval_value(parse("2i*2i"), []) == -4
    assert eval_value(parse("u1*u2 + ln(u3)"), [1.0, 2.0, np.e]) == pytest.approx(3.0)


def test_jet_polynomial_example():
    jet = eval_jet(parse("u1^2*u2"), [3.0, 2.0])
    assert jet.val == 18
    assert np.allclose(jet.grad, [12, 9])
    assert np.allclose(jet.hess, [[4, 6], [6, 0]])
    # a table given as lists runs the same operations, with the table's shape
    val, grad, hess = eval_points([["u1^2*u2", "u2"]], [[3.0, 2.0]]).at(0)
    assert val.shape == (1, 2) and grad.shape == (1, 2, 2) and hess.shape == (1, 2, 2, 2)
    assert val[0, 0] == jet.val and np.array_equal(hess[0, 0], jet.hess)


def test_jet_sqrt_example():
    jet = eval_jet(parse("sqrt(u1)"), [4.0])
    assert jet.val == 2
    assert np.allclose(jet.grad, [0.25])
    assert np.allclose(jet.hess, [[-1 / 32]])


def test_fd_oracle_exp():
    grad, _ = finite_diff_oracle(parse("exp(u1)"), [0.0], step=1e-5)
    assert abs(grad[0] - 1.0) < 1e-9


def test_fd_oracle_cross_term():
    # second differences lose ~eps/h^2, so the 1e-8 claim needs h = 1e-4
    _, hess = finite_diff_oracle(parse("u1*u2"), [1.0, 1.0], step=1e-4)
    assert abs(hess[0, 1] - 1.0) < 1e-8


def test_jet_matches_fd_on_nasty_expr():
    src = "sqrt(u1)*ln(u2)+exp(u1*u2)/(u1-u2)^2 + u1^(3/2)"
    e = parse(src)
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = [0.5 + 0.5 * rng.random(), 1.3 + 0.5 * rng.random()]
        jet = eval_jet(e, p)
        g_fd, h_fd = finite_diff_oracle(e, p)
        assert np.all(np.abs(jet.grad - g_fd) <= 1e-6 * (1 + np.abs(jet.grad)))
        assert np.all(np.abs(jet.hess - h_fd) <= 1e-4 * (1 + np.abs(jet.hess)))


def test_principal_branch_plus_zero():
    # exact-real arguments must land on the upper side of the cut
    assert eval_value(parse("sqrt(-(b^2+1))"), [], {"b": 1.0}) == pytest.approx(1j * np.sqrt(2))
    assert principal(complex(-2.0, -0.0)).imag == 0.0
    assert np.sqrt(principal(-(2 + 0j))) == pytest.approx(1j * np.sqrt(2))


def test_a_run_is_real_exactly_where_every_imaginary_part_vanishes():
    # the tape computes in complex; a run whose values, gradients and
    # Hessians have no imaginary part but zeros (of either sign) gives them
    # as float64, with the same real bits
    points = np.array([[0.5, 2.0], [1.5, 3.0]])
    table = (("u1*u2", "ln(u1)"), ("sqrt(-1)^2*u2", "u1^(3/2)"))
    jets = eval_points(table, points)
    assert all(part.dtype == np.float64 for part in (jets.val, jets.grad, jets.hess))
    assert jets.val[:, 1, 0].tolist() == [-2.0, -3.0]
    assert eval_value(parse("sqrt(-1)^2"), []) == -1
    # one imaginary part at one point keeps the whole run complex, with each
    # point's numbers those of its own run, real at the second point
    table = ("u1", "sqrt(u2-2.5)")
    jets = eval_points(table, points)
    assert all(part.dtype == np.complex128 for part in (jets.val, jets.grad, jets.hess))
    for k, dtype in ((0, np.complex128), (1, np.float64)):
        for part, want in zip(jets.at(k), eval_points(table, [points[k]]).at(0)):
            assert want.dtype == dtype and np.array_equal(part, want)
    # the square root's jet takes a real array to complex first, so that a
    # negative value lands on the principal branch, not on NaN
    root = jet_sqrt((np.array([-4.0, 4.0]), np.ones((2, 1)), np.zeros((2, 1, 1))), 2,
                    lambda *_: None)
    assert root[0].tolist() == [2j, 2] and root[1][:, 0].tolist() == [-0.25j, 0.25]


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_sqrt_squares_back(z):
    w = np.sqrt(principal(z))
    assert abs(w * w - z) <= 1e-12 * (1 + abs(z))


_leaf = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda v: Num(complex(v))),
    st.sampled_from([Var(1), Var(2), Var(3), Param("a"), Param("b")]),
)


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: Bin(*t)),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sqrt", "ln", "exp"]), sub).map(lambda t: Call(t[0], t[1])),
    )


@given(_exprs(4))
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip(e):
    assert parse(to_source(e)) == e


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=80, deadline=None)
def test_polynomial_jets_exact(coeffs, k):
    # jets of (c0 + c1 x + c2 x^2 + c3 x y + c4 y^2) * x^k against hand rules
    src = f"({coeffs[0]}+{coeffs[1]}*u1+{coeffs[2]}*u1^2+{coeffs[3]}*u1*u2+{coeffs[4]}*u2^2)*u1^{k}"
    x, y = 1.5, -2.0

    def val(x, y):
        return (coeffs[0] + coeffs[1] * x + coeffs[2] * x ** 2
                + coeffs[3] * x * y + coeffs[4] * y ** 2) * x ** k

    def dx(x, y):
        base = coeffs[1] + 2 * coeffs[2] * x + coeffs[3] * y
        return base * x ** k + (val(x, y) / x ** k if k == 0 else
                                (coeffs[0] + coeffs[1] * x + coeffs[2] * x ** 2
                                 + coeffs[3] * x * y + coeffs[4] * y ** 2)) * (k * x ** (k - 1) if k else 0)

    jet = eval_jet(parse(src), [x, y])
    assert abs(jet.val - val(x, y)) <= 1e-12 * (1 + abs(val(x, y)))
    assert abs(jet.grad[0] - dx(x, y)) <= 1e-12 * (1 + abs(dx(x, y)))


def test_expr_composition_operators():
    e = (Var(1) + 2) * Var(2) / Param("a")
    assert eval_value(parse(to_source(e)), [1.0, 3.0], {"a": 2.0}) == pytest.approx(4.5)


def test_nodes_are_equal_by_type_and_fields():
    # equal nodes hash alike, and the tape shares a slot only between them:
    # Num(1) and Var(1) have equal fields but are not equal, so u1 + 1 and
    # u1 * 1 at u1 = 5 read both their operands
    assert Bin("+", Var(1), Num(2)) == parse("u1+2")
    assert hash(Bin("+", Var(1), Num(2))) == hash(parse("u1+2"))
    assert Call("sqrt", Param("a")) == Call("sqrt", Param("a")) != Call("exp", Param("a"))
    assert Neg(Var(2)) != Neg(Var(1)) and Num(1) != Var(1) and Var(1) != Param("u1")
    assert len({Num(1), Var(1), Num(1), Var(1)}) == 2
    assert eval_value(Bin("+", Var(1), Num(1)), [5.0], {}) == 6
    assert eval_value(Bin("*", Num(1), Var(1)), [5.0], {}) == 5


def test_family_metric_component_oracle():
    # leading metric component of the 3-coordinate family at the reference
    # point, with the arbitrary-function slots zeroed
    import fmcheck.catalog as cat
    ent = cat.entry("nonss3d")
    src = ent.spec.g[0][0]
    ent.spec.params["b"] = 0.0
    env = ent.spec.env()
    point = [0.0, 1.0, 1.0]
    jet = eval_jet(parse(src), point, env)
    g_fd, h_fd = finite_diff_oracle(parse(src), point, env)
    assert np.all(np.abs(jet.grad - g_fd) <= 1e-6 * (1 + np.abs(jet.grad)))
    # closed-form value at that point: (2/9)*(7/9) with unit constants
    assert abs(jet.val - 14 / 81) < 1e-12


def _catalog_tables():
    """(entry, table name, table, params) for every expression table of the catalog."""
    import fmcheck.catalog as cat
    for name in cat.names():
        ent = cat.entry(name)
        spec = ent.spec
        tables = {"e": spec.e, "E": spec.E, "g": spec.g, "g2": spec.g2,
                  "product": None if isinstance(spec.product, str) else spec.product}
        for key, value in ent.companion.items():
            if key == "normal_bundle":
                tables[key] = value.exprs
            elif key == "legendre_fields":
                tables.update({f"field {k}": v for k, v in value.items()})
            elif isinstance(value, tuple):
                tables[key] = value
        for key, table in tables.items():
            if table is not None:
                yield name, key, table, spec.env()


def test_batched_rows_equal_single_point_runs():
    import fmcheck.catalog as cat
    from fmcheck.manifold import SamplePlan, sample_points
    count = 0
    for name, key, table, params in _catalog_tables():
        points = np.array(sample_points(cat.entry(name).spec, SamplePlan(seed=3, count=10)))
        jets = eval_points(table, points, params)
        for k, p in enumerate(points):
            try:
                single = eval_points(table, [p], params).at(0)
            except DomainError as err:
                with pytest.raises(DomainError, match=str(err)):
                    jets.at(k)
                continue
            for part, want in zip(jets.at(k), single):
                assert part.shape == want.shape and part.tobytes() == want.tobytes(), (name, key, k)
        count += 1
    assert count >= 60


def test_lower_orders_are_prefixes_of_order_two():
    # orders 0 and 1 give order 2's first parts bit for bit, with its
    # errors, and None for the other parts
    import fmcheck.catalog as cat
    from fmcheck.manifold import SamplePlan, sample_points
    cases = [(table, np.array(sample_points(cat.entry(name).spec, SamplePlan(seed=3, count=10))),
              params) for name, _, table, params in _catalog_tables()]
    # the power rule picks each point's branch from the exponent's full jet
    # at every order: at u2 = 0, u2^2 and 1+u2^2 vary only through their
    # Hessians, and there 3^(1+u2^2) = exp(ln 3) is not 3 to the bit
    cases += [("u1^(u2^2)", np.array([[2.0, 0.0], [2.0, 1.0]]), None),
              ("u1^(1+u2^2)", np.array([[3.0, 0.0], [3.0, 0.5]]), None),
              ("2^u1", np.array([[0.5], [-1.0]]), None)]
    assert len(cases) >= 88
    for table, points, params in cases:
        full = eval_points(table, points, params)
        for order in (0, 1):
            jets = eval_points(table, points, params, order)
            assert jets.errors == full.errors, (table, order)
            parts = (jets.val, jets.grad, jets.hess)
            for d, (part, want) in enumerate(zip(parts, (full.val, full.grad, full.hess))):
                if d <= order:
                    assert part.shape == want.shape and part.tobytes() == want.tobytes(), (table, d)
                else:
                    assert part is None, (table, d)
            if jets.errors[0] is None:
                assert jets.at(0)[order + 1:] == (None,) * (2 - order)
    assert eval_points("u1^(1+u2^2)", np.array([[3.0, 0.0]]), order=0).val[0] == np.exp(np.log(3))


def test_singular_point_is_masked_in_a_batch():
    table = (("1/(u1-u2)", "u1^(1/2)*ln(u2)"), ("u1*u2", "2^u1"))
    points = np.array([[2.0, 0.5], [1.5, 1.5], [0.3, 2.0], [0.7, 3.1]])
    jets = eval_points(table, points)
    assert jets.errors == [None, "division by zero", None, None]
    with pytest.raises(DomainError, match="division by zero"):
        jets.at(1)
    with pytest.raises(DomainError):
        eval_points(table, [points[1]]).at(0)
    for k in (0, 2, 3):
        for part, want in zip(jets.at(k), eval_points(table, [points[k]]).at(0)):
            assert part.tobytes() == want.tobytes()
    # each point keeps its first error in operation order, and a point
    # whose jets are not finite fails without an error of its own
    jets = eval_points(("ln(u1)", "1/u1", "exp(u2)"), np.array([[0.0, 1.0], [1.0, 1000.0], [1.0, 1.0]]))
    assert jets.errors == ["ln(0)", "non-finite jet", None]
    # a point in error gets zero jets, so that batched arithmetic stays finite
    assert not any(part[:2].any() for part in (jets.val, jets.grad, jets.hess))
    # the power rule picks its branch at each point: u2^3 has a vanishing
    # jet at u2 = 0, so there the power is the integer power u1^0
    points = np.array([[2.0, 0.0], [0.0, 1.0], [1.5, 1.0], [0.0, 0.0], [1.5, 0.5]])
    jets = eval_points("u1^(u2^3)", points)
    assert jets.errors == [None, "ln(0)", None, None, None]
    for k in (0, 2, 3, 4):
        for part, want in zip(jets.at(k), eval_points("u1^(u2^3)", [points[k]]).at(0)):
            assert part.tobytes() == want.tobytes()
    assert jets.at(3)[0] == 1
    # where the exponent's gradient vanishes but not its Hessian, the power
    # still varies: d^2/du2^2 of 2^(u2^2) at u2 = 0 is 2 ln 2
    jets = eval_points("u1^(u2^2)", np.array([[2.0, 0.0], [2.0, 1.0]]))
    assert jets.at(0)[1].tolist() == [0, 0]
    assert abs(jets.at(0)[2][1, 1] - 2 * np.log(2)) < 1e-15
