"""Field arithmetic, monomial orders, polynomial ring axioms, parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerproj.field import DEFAULT_CHAR, balanced, inv_mod, is_prime
from innerproj.monomial import (
    Block,
    GrevLex,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    total_degree,
)
from innerproj.parser import ParseError, parse_polynomial
from innerproj.poly import LinearChange, PolyRing, poly_str

P = DEFAULT_CHAR


# -- strategies -------------------------------------------------------------

def exponents(nvars=3, max_exp=4):
    return st.tuples(*[st.integers(0, max_exp)] * nvars)


def polys(ring, max_terms=4, max_exp=3):
    n = ring.nvars
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * n), st.integers(0, ring.char - 1)
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: ring.from_terms({ev: c for ev, c in ts})
    )


RING = PolyRing(("x", "y", "z"))


# -- field ------------------------------------------------------------------

def test_default_characteristic_is_prime():
    assert is_prime(P)
    assert not is_prime(1)
    assert not is_prime(32004)


@given(st.integers(1, P - 1))
def test_inverse(a):
    assert a * inv_mod(a, P) % P == 1


@given(st.integers(0, P - 1))
def test_balanced_representative(c):
    b = balanced(c, P)
    assert b % P == c
    assert -P // 2 <= b <= P // 2


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, P)


# -- monomials --------------------------------------------------------------

def test_monomial_helpers():
    a, b = (2, 0, 1), (1, 1, 0)
    assert mono_mul(a, b) == (3, 1, 1)
    assert mono_lcm(a, b) == (2, 1, 1)
    assert not mono_divides(a, b)
    assert mono_divides(b, (1, 2, 0))
    assert mono_div((3, 1, 1), b) == (2, 0, 1)
    assert total_degree(a) == 3


def test_monomials_of_degree_enumeration():
    monos = list(monomials_of_degree(3, 2))
    assert len(monos) == 6
    assert monos[0] == (0, 0, 2)
    assert monos[-1] == (2, 0, 0)
    assert all(total_degree(m) == 2 for m in monos)
    assert len(set(monos)) == 6


def _cmp(order, a, b):
    """Sign of order.key(a) - order.key(b)."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def test_grevlex_worked_comparisons():
    o = GrevLex()
    # degree first
    assert _cmp(o, (2, 0, 0), (1, 0, 0)) > 0
    # same degree: the rightmost nonzero of the difference decides, reversed
    assert _cmp(o, (1, 1, 0), (0, 2, 0)) > 0
    assert _cmp(o, (0, 2, 0), (0, 1, 1)) > 0
    assert _cmp(o, (1, 0, 1), (0, 1, 1)) > 0


@given(exponents(), exponents())
def test_block_order_front_dominates(a, b):
    o = Block(front=1)
    if a[0] != b[0]:
        assert (_cmp(o, a, b) > 0) == (a[0] > b[0])


@settings(max_examples=50)
@given(exponents(), exponents(), exponents())
def test_orders_are_multiplicative_and_total(a, b, c):
    for o in (GrevLex(), Block(front=1)):
        cmp = _cmp(o, a, b)
        assert (cmp == 0) == (a == b)
        # translation invariance
        assert _cmp(o, mono_mul(a, c), mono_mul(b, c)) == cmp
        # antisymmetry
        assert _cmp(o, b, a) == -cmp


# -- ring axioms ------------------------------------------------------------

@settings(max_examples=50)
@given(polys(RING), polys(RING), polys(RING))
def test_ring_axioms(f, g, h):
    assert ((f + g) - (g + f)).is_zero()
    assert ((f * g) - (g * f)).is_zero()
    assert ((f * (g + h)) - (f * g + f * h)).is_zero()
    assert (((f * g) * h) - (f * (g * h))).is_zero()
    assert (f + (-f)).is_zero()


@given(polys(RING))
def test_pow_matches_repeated_product(f):
    assert (f**3 - f * f * f).is_zero()


@given(polys(RING))
def test_monic_has_unit_leading_coefficient(f):
    if f.is_zero():
        return
    m = f.monic(GrevLex())
    _, c = m.leading_term(GrevLex())
    assert c == 1


@settings(max_examples=30)
@given(polys(RING), polys(RING), st.tuples(*[st.integers(0, P - 1)] * 3))
def test_evaluation_is_a_homomorphism(f, g, pt):
    assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt) % P
    assert (f + g).evaluate(pt) == (f.evaluate(pt) + g.evaluate(pt)) % P


@settings(max_examples=20)
@given(polys(RING), polys(RING))
def test_linear_substitution_is_a_homomorphism(f, g):
    change = LinearChange(RING, [[1, 2, 0], [0, 1, 5], [3, 0, 1]])
    assert (change.apply(f * g) - change.apply(f) * change.apply(g)).is_zero()
    assert (change.apply(f + g) - (change.apply(f) + change.apply(g))).is_zero()


def test_singular_change_rejected():
    with pytest.raises(ValueError):
        LinearChange(RING, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_change_inverse_round_trip():
    change = LinearChange(RING, [[1, 2, 0], [0, 1, 5], [3, 0, 1]])
    f = parse_polynomial(RING, "x^2*y - 3*z + 7")
    back = change.inverse().apply(change.apply(f))
    assert (back - f).is_zero()


def test_derivative_product_rule():
    f = parse_polynomial(RING, "x^2*y + z^3")
    g = parse_polynomial(RING, "x*z - y^2")
    lhs = (f * g).derivative(0)
    rhs = f.derivative(0) * g + f * g.derivative(0)
    assert (lhs - rhs).is_zero()


def test_front_coefficient_extraction():
    ring = PolyRing(("x0", "x1", "x2"))
    f = parse_polynomial(ring, "x0^2*x1 + x0^2*x2 + x0*x1^2 + x2^3")
    assert f.front_degree() == 2
    c2 = f.coeff_of_front_power(2)
    assert poly_str(c2) == poly_str(parse_polynomial(ring.drop_front(), "x1 + x2"))


def test_lift_front_round_trip():
    ring = PolyRing(("x0", "x1", "x2"))
    sub = ring.drop_front()
    f = parse_polynomial(sub, "x1^2 - 2*x2")
    lifted = f.lift_front(ring)
    assert lifted.coeff_of_front_power(0).terms == f.terms


# -- parsing ----------------------------------------------------------------

@settings(max_examples=50)
@given(polys(RING))
def test_render_parse_round_trip(f):
    assert (parse_polynomial(RING, poly_str(f)) - f).is_zero()


def test_parse_worked_example():
    f = parse_polynomial(RING, "2*x^2 - y*z + 5")
    assert f.terms == {(2, 0, 0): 2, (0, 1, 1): P - 1, (0, 0, 0): 5}


def test_parse_implicit_products_rejected():
    with pytest.raises(ParseError):
        parse_polynomial(RING, "2x")


@pytest.mark.parametrize(
    "text",
    ["x +* y", "w + 1", "x^", "x^-2", "(x + y", "", "3 * * x"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_polynomial(RING, text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial(RING, "x + q*y")
    assert "q" in str(err.value)


def test_weighted_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(("x", "y"), weights=((1, 0),))
    ring = PolyRing(("x", "y"), weights=((1, 0), (0, 1)))
    assert ring.mono_weight((2, 1)) == (2, 1)
