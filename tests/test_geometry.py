"""Pointed varieties and inner projections: tangent computations, coordinate
moves, the projection report identities, chains, and classification."""

from dataclasses import replace

import pytest

from innerproj.fixtures import rnc, two_planes_p4
from innerproj.geometry import (
    apply_change_to_ideal,
    beta02,
    classify,
    degree_bound_check,
    hoa_betti,
    ideal_table,
    inner_project,
    lb_quadrics,
    move_change,
    move_point,
    normalize_point,
    on_variety,
    pointed,
    quadric_span_dim,
    successive_project,
    tangent_at,
)
from innerproj.groebner import Ideal, ideal_equal
from innerproj.parser import parse_polynomial
from innerproj.poly import PolyRing

P = 32003


def make_ideal(varnames, gens, char=P):
    ring = PolyRing(tuple(varnames))
    return Ideal(ring, [parse_polynomial(ring, s) for s in gens])


# -- points ------------------------------------------------------------------

def test_normalize_point_scales_the_first_nonzero_to_one():
    assert normalize_point((0, 2, 4), P) == (0, 1, 2)
    assert normalize_point((3, 3, 0), P) == (1, 1, 0)


def test_normalize_point_rejects_zero():
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0), P)


def test_on_variety(rnc3_ideal):
    assert on_variety(rnc3_ideal, (1, 0, 0, 0))
    assert on_variety(rnc3_ideal, (1, 1, 1, 1))
    assert on_variety(rnc3_ideal, (1, 2, 4, 8))
    assert not on_variety(rnc3_ideal, (0, 1, 0, 0))


def test_pointed_normalizes_and_flags_moved(rnc3_ideal):
    pi = pointed(rnc3_ideal, (2, 0, 0, 0))
    assert pi.point == (1, 0, 0, 0)
    assert pi.moved
    assert not pointed(rnc3_ideal, (1, 1, 1, 1)).moved


# -- tangent spaces ----------------------------------------------------------

def test_smooth_curve_point(rnc3_ideal):
    rep = tangent_at(rnc3_ideal, (1, 0, 0, 0))
    assert (rep.tangent_dim, rep.codim, rep.smooth) == (1, 2, True)


def test_singular_point_of_two_planes(two_planes_ideal):
    # the intersection point of the planes: both sheets contribute
    rep = tangent_at(two_planes_ideal, (0, 0, 0, 0, 1))
    assert rep.tangent_dim == 4
    assert not rep.smooth
    smooth_rep = tangent_at(two_planes_ideal, (1, 0, 0, 0, 0))
    assert (smooth_rep.tangent_dim, smooth_rep.smooth) == (2, True)


def test_tangent_requires_membership(rnc3_ideal):
    with pytest.raises(ValueError):
        tangent_at(rnc3_ideal, (0, 1, 0, 0))


# -- coordinate moves --------------------------------------------------------

def test_move_point_sends_the_mark_to_the_first_unit_vector(rnc3_ideal):
    pi = pointed(rnc3_ideal, (1, 1, 1, 1))
    moved = move_point(pi)
    assert moved.moved
    assert moved.point == (1, 0, 0, 0)
    assert on_variety(moved.ideal, moved.point)
    # invariants survive the change of coordinates
    from innerproj.hilbert import hilbert

    assert hilbert(moved.ideal).degree == hilbert(rnc3_ideal).degree


def test_move_change_is_identity_at_the_unit_point(rnc4_ideal):
    change = move_change(rnc4_ideal.ring, (1, 0, 0, 0, 0))
    moved = apply_change_to_ideal(rnc4_ideal, change)
    assert ideal_equal(moved, rnc4_ideal)


# -- quadric counts ----------------------------------------------------------

def test_quadric_span_matches_the_betti_entry(
    rnc3_ideal, rnc4_ideal, two_planes_ideal, g24_ideal
):
    for ideal in (rnc3_ideal, rnc4_ideal, two_planes_ideal, g24_ideal):
        assert beta02(ideal) == quadric_span_dim(ideal.gens)


def test_quadric_span_ignores_other_degrees():
    ideal = make_ideal(("x", "y", "z"), ["x*y", "x*y + y^2", "z^3"])
    assert quadric_span_dim(ideal.gens) == 2
    assert quadric_span_dim([]) == 0


# -- single inner projections ------------------------------------------------

def test_projection_of_the_twisted_cubic_is_a_conic(rnc3_ideal):
    image, rep = inner_project(pointed(rnc3_ideal, (1, 0, 0, 0)))
    assert rep.smooth
    assert (rep.beta02_before, rep.beta02_after) == (3, 1)
    assert (rep.pd_before, rep.pd_after) == (2, 1)
    assert (rep.depth_before, rep.depth_after) == (2, 2)
    assert rep.quadric_identity_ok
    assert rep.depth_identity_ok is True
    assert rep.delta_preserved
    assert not rep.degenerate_image
    expected = Ideal(image.ring, [parse_polynomial(image.ring, "x1*x3 - x2^2")])
    assert ideal_equal(image, expected)


def test_projection_from_a_generic_curve_point(rnc4_ideal):
    image, rep = inner_project(pointed(rnc4_ideal, (1, 1, 1, 1, 1)))
    assert rep.smooth
    assert (rep.degree_before, rep.degree_after) == (4, 3)
    assert rep.quadric_identity_ok
    assert rep.depth_identity_ok is True
    assert not rep.degenerate_image
    # every invariant is coordinate-free: only the center differs from e0's
    _, rep_e0 = inner_project(pointed(rnc4_ideal, (1, 0, 0, 0, 0)))
    assert replace(rep, center=None) == replace(rep_e0, center=None)


def test_projection_of_a_conic_degenerates():
    conic = rnc(2).to_ideal()
    image, rep = inner_project(pointed(conic, (1, 0, 0)))
    assert rep.degenerate_image
    assert rep.n_after == 1


def test_projection_from_a_singular_center(two_planes_ideal):
    image, rep = inner_project(pointed(two_planes_ideal, (0, 0, 0, 0, 1)))
    assert not rep.smooth
    assert rep.tangent_dim == 4
    # the quadric count identity holds verbatim with the Jacobian tangent
    assert rep.quadric_identity_ok
    assert rep.depth_identity_ok is None


def test_projection_refuses_an_outer_center(rnc3_ideal):
    with pytest.raises(ValueError):
        inner_project(pointed(rnc3_ideal, (0, 1, 0, 0)))


def test_smooth_quadratic_projection_report(two_planes_ideal):
    image, rep = inner_project(pointed(two_planes_ideal, (1, 0, 0, 0, 0)))
    assert rep.smooth
    assert rep.quadratic_before
    assert (rep.pd_before, rep.pd_after) == (3, 2)
    assert (rep.depth_before, rep.depth_after) == (2, 2)
    assert rep.depth_identity_ok is True


# -- chains ------------------------------------------------------------------

def test_chain_on_a_degree_six_curve():
    ideal = rnc(6).to_ideal()
    result = successive_project(pointed(ideal, (1, 0, 0, 0, 0, 0, 0)), 3)
    assert result.warnings == ()
    assert len(result.reports) == 3
    degrees = [r.degree_after for r in result.reports]
    assert degrees == [5, 4, 3]
    assert result.final_ideal is result.images[-1]
    assert result.final_ideal.ring.nvars == 4


def test_chain_with_explicit_points(rnc4_ideal):
    result = successive_project(
        pointed(rnc4_ideal, (1, 0, 0, 0, 0)),
        2,
        points=[(1, 0, 0, 0, 0), (1, 0, 0, 0)],
    )
    assert [r.degree_after for r in result.reports] == [3, 2]


def test_chain_validations(rnc4_ideal, two_planes_ideal):
    pi = pointed(rnc4_ideal, (1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        successive_project(pi, -1)
    with pytest.raises(ValueError):
        successive_project(pi, 2, points=[(1, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        successive_project(pi, 1, points=[(0, 1, 0, 0, 0)])
    # a singular center trips strict mode but only warns when permissive
    sing = pointed(two_planes_ideal, (0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        successive_project(sing, 1)
    permissive = successive_project(sing, 1, strict=False)
    assert any("singular" in w for w in permissive.warnings)


def test_zero_step_chain(rnc3_ideal):
    result = successive_project(pointed(rnc3_ideal, (1, 0, 0, 0)), 0)
    assert result.reports == ()
    assert result.final_ideal is None


# -- classification ----------------------------------------------------------

def test_classify_minimal_degree_examples(rnc3_ideal):
    for ideal, e in ((rnc(2).to_ideal(), 1), (rnc3_ideal, 2)):
        rep = classify(ideal)
        assert rep.verdict == "MinimalDegree"
        assert (rep.delta, rep.codim_e) == (1, e)
        assert rep.level_cross_check_ok is True
        assert rep.expected_betti_row is None


def test_classify_grassmannian_as_del_pezzo_class(g24_ideal):
    rep = classify(g24_ideal)
    assert rep.verdict == "NextToMinimal_DelPezzoClass"
    assert (rep.delta, rep.codim_e, rep.acm) == (2, 3, True)
    assert rep.n2p_level == 2
    assert rep.level_cross_check_ok is True
    assert rep.expected_betti_row == (5, 5)
    assert rep.betti_row_matches is True


def test_classify_cubic_hypersurface_is_del_pezzo_class():
    # codimension one, delta two: the strand row is empty and the single
    # cubic generator is the whole signature
    cubic = make_ideal(("x", "y", "z", "w"), ["x^3 + y^3 + z^3 + w^3"])
    rep = classify(cubic)
    assert rep.verdict == "NextToMinimal_DelPezzoClass"
    assert (rep.delta, rep.codim_e, rep.acm) == (2, 1, True)
    assert rep.expected_betti_row == ()
    assert rep.betti_row_matches is True


def test_classify_other_examples(two_planes_ideal):
    rep = classify(two_planes_ideal)
    assert rep.verdict == "Other"
    assert (rep.delta, rep.acm) == (0, False)
    quartic = make_ideal(("x", "y", "z", "w"), ["x^4 + y^4 + z^4 + w^4"])
    assert classify(quartic).verdict == "Other"
    assert classify(quartic).delta == 3


def test_classify_complete_intersection_of_two_quadrics():
    ideal = make_ideal(
        ("x0", "x1", "x2", "x3"),
        ["x0*x1 - x2*x3", "x0*x2 - x1*x3"],
    )
    rep = classify(ideal)
    assert rep.verdict == "NextToMinimal_DelPezzoClass"
    assert (rep.delta, rep.codim_e, rep.acm) == (2, 2, True)
    assert rep.level_cross_check_ok is True
    assert rep.n2p_level == 1
    assert rep.expected_betti_row == (hoa_betti(2, 0),) == (2,)
    assert rep.betti_row_matches is True


def test_classify_rejects_degenerate_input():
    with pytest.raises(ValueError):
        classify(make_ideal(("x", "y", "z"), ["x + y"]))
    ring = PolyRing(("x", "y"))
    with pytest.raises(ValueError):
        classify(Ideal(ring, [ring.zero()]))


# -- closed-form bounds ------------------------------------------------------

def test_quadric_lower_bound_values():
    assert lb_quadrics(7, 7) == 28
    assert lb_quadrics(6, 6) == 21
    assert lb_quadrics(5, 2) == 9
    assert lb_quadrics(4, 1) == 4


def test_quadric_lower_bound_range():
    with pytest.raises(ValueError):
        lb_quadrics(3, 0)
    with pytest.raises(ValueError):
        lb_quadrics(3, 4)


def test_expected_strand_values():
    assert hoa_betti(3, 0) == 5
    assert hoa_betti(3, 1) == 5
    assert hoa_betti(2, 0) == 2
    with pytest.raises(ValueError):
        hoa_betti(3, 2)


def test_degree_bound_check_values():
    assert degree_bound_check(3, 2, 4)
    assert not degree_bound_check(3, 2, 10**6)
    with pytest.raises(ValueError):
        degree_bound_check(1, 2, 3)
    with pytest.raises(ValueError):
        degree_bound_check(3, 2, 0)


# -- tables ------------------------------------------------------------------

def test_ideal_table_widens_until_untruncated():
    cubic = make_ideal(("x", "y", "z", "w"), ["x^3 + y^3 + z^3 + w^3"])
    bt = ideal_table(cubic)
    assert not bt.truncation_flag
    assert bt.nonzero() == {(0, 3): 1}
