"""Induced maps between Tor slots: streamed ranks vs. explicit matrices,
stability flags of the center multiplication, naturality of the projection
square, and embedding validation."""

import random

import pytest

from innerproj.fixtures import rnc
from innerproj.geometry import apply_change_to_ideal
from innerproj.groebner import Ideal, eliminate
from innerproj.modspec import (
    ideal_spec,
    quotient_spec,
    subquotient_spec,
)
from innerproj.parser import parse_polynomial
from innerproj.poly import PolyRing
from innerproj.tor import get_complex, tor_inclusion_map, tor_quotient_map, tor_x0_map
from innerproj.verify import _random_change


# -- streamed rank vs. explicit matrices -------------------------------------

def test_streamed_rank_agrees_with_homology_matrices(
    rnc3_ideal, rnc4_ideal, two_planes_ideal
):
    # random coordinates drop the torus weights: one block per slot
    change = _random_change(rnc3_ideal.ring, random.Random(7))
    moved = apply_change_to_ideal(rnc3_ideal, change)
    assert not ideal_spec(moved, over="tail").use_weights()
    checked = 0
    for ideal in (rnc3_ideal, rnc4_ideal, two_planes_ideal, moved):
        sub = eliminate(ideal)
        maps = [
            lambda i, j, m, s=family(ideal, over="tail"): tor_x0_map(s, i, j, with_matrix=m)
            for family in (ideal_spec, quotient_spec)
        ]
        maps.append(lambda i, j, m: tor_quotient_map(ideal, i, j, with_matrix=m))
        maps.append(lambda i, j, m: tor_inclusion_map(sub, ideal, i, j, with_matrix=m))
        for report in maps:
            for i in range(3):
                for j in range(4):
                    lean = report(i, j, False)
                    full = report(i, j, True)
                    assert lean.rank == full.rank, (i, j, full.map_label)
                    assert lean.source_dim == full.source_dim
                    assert lean.target_dim == full.target_dim
                    assert full.well_defined is True
                    assert lean.well_defined is None
                    checked += 1
        # the center section on the subquotient: compare where it certifies
        subq = subquotient_spec(ideal)
        for i in range(3):
            for j in range(4):
                full = tor_x0_map(subq, i, j, with_matrix=True)
                if full.well_defined:
                    assert get_complex(subq).x0_induced_rank(i, j) == full.rank
                    checked += 1
    assert checked > 4 * 4 * 12


def test_section_reports_are_always_certified(rnc3_ideal, rnc4_ideal):
    # boundaries of blocks without homology count too: these slots send a
    # source boundary outside the target boundaries
    failing = {
        "rnc3": {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)},
        "rnc4": {(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)},
    }
    for name, ideal in (("rnc3", rnc3_ideal), ("rnc4", rnc4_ideal)):
        spec = subquotient_spec(ideal)
        got = set()
        for i in range(4):
            for j in range(5):
                rep = tor_x0_map(spec, i, j)
                assert rep.well_defined is not None
                assert rep.blocks is not None
                assert rep.rank <= rep.source_dim
                if not rep.well_defined:
                    got.add((i, j))
        assert got == failing[name]


def test_report_flags_are_consistent(rnc4_ideal):
    spec = ideal_spec(rnc4_ideal, over="tail")
    rep = tor_x0_map(spec, 1, 2)
    assert rep.injective == (rep.rank == rep.source_dim)
    assert rep.surjective == (rep.rank == rep.target_dim)
    assert rep.isomorphism == (rep.injective and rep.surjective)
    assert rep.rank <= min(rep.source_dim, rep.target_dim)


def test_center_stability_pattern(rnc4_ideal):
    # multiplication by the center variable on the ideal over the subring:
    # onto in the generator row, then settles into isomorphisms
    spec = ideal_spec(rnc4_ideal, over="tail")
    for i in (0, 1):
        assert tor_x0_map(spec, i, 2).surjective
        for j in (3, 4):
            assert tor_x0_map(spec, i, j).isomorphism
    for j in (2, 3, 4):
        assert tor_x0_map(spec, 2, j).surjective


# -- naturality of the projection square -------------------------------------

def shift(mu, delta):
    if not delta:
        return mu
    return tuple(a + b for a, b in zip(mu, delta))


def product_entries(mat_a, mat_b, p):
    """Sparse nonzero entries of mat_a @ mat_b (rows of dense tuples)."""
    out = {}
    for r, row in enumerate(mat_a):
        for k, a in enumerate(row):
            if not a:
                continue
            assert k < len(mat_b)
            for c, b in enumerate(mat_b[k]):
                if b:
                    v = (out.get((r, c), 0) + a * b) % p
                    if v:
                        out[(r, c)] = v
                    else:
                        out.pop((r, c), None)
    return out


def path_entries(first, first_shift, second, p):
    """Blockwise product of two TorMapReport matrices; a block missing in
    the second factor is a zero matrix (its source slot has no homology,
    so the matching rows of the first factor are empty)."""
    out = {}
    for mu, mat in first.blocks.items():
        mid = shift(mu, first_shift)
        tail = second.blocks.get(mid)
        if tail is None:
            assert all(len(row) == 0 for row in mat)
            continue
        entries = product_entries(mat, tail, p)
        if entries:
            out[mu] = entries
    return out


@pytest.mark.parametrize(
    "fixture", ["rnc3_ideal", "rnc4_ideal", "two_planes_ideal"]
)
def test_projection_square_commutes_on_certified_slots(fixture, request):
    # Tor(I over subring) --center--> Tor(I over subring)
    #        |                               |
    #      project                         project
    #        v                               v
    # Tor(front part)  --center-->  Tor(front part)
    #
    # The center action on the front part is a chain-level section, not a
    # module map; its report certifies the slots where the section is an
    # honest chain map, and exactly there the square must commute.  The
    # other three maps are genuine chain maps and must always certify.
    ideal = request.getfixturevalue(fixture)
    p = ideal.ring.char
    delta = ideal.ring.weights[0]
    subq = subquotient_spec(ideal)
    tail = ideal_spec(ideal, over="tail")
    certified = 0
    for i in range(3):
        for j in (2, 3):
            into_subq = tor_quotient_map(ideal, i, j, with_matrix=True)
            center_subq = tor_x0_map(subq, i, j, with_matrix=True)
            center_tail = tor_x0_map(tail, i, j, with_matrix=True)
            into_subq_next = tor_quotient_map(ideal, i, j + 1, with_matrix=True)
            assert into_subq.well_defined is True
            assert center_tail.well_defined is True
            assert into_subq_next.well_defined is True
            assert set(into_subq.blocks) == set(center_tail.blocks)
            if i == 0:
                # wedge level zero has no cycle condition to violate
                assert center_subq.well_defined is True
            if not center_subq.well_defined:
                continue
            certified += 1
            path1 = path_entries(into_subq, (), center_subq, p)
            path2 = path_entries(center_tail, delta, into_subq_next, p)
            assert path1 == path2, (fixture, i, j)
    assert certified >= 2


# -- embeddings of eliminated ideals -----------------------------------------

def test_eliminated_ideal_embeds_at_the_generator_step(rnc3_ideal):
    sub = eliminate(rnc3_ideal)
    rep = tor_inclusion_map(sub, rnc3_ideal, 0, 2, with_matrix=True)
    assert rep.map_label == "embedded_f"
    assert (rep.source_dim, rep.target_dim) == (1, 3)
    assert rep.injective
    assert rep.well_defined is True


def test_embedding_rejects_wrong_ring_shape(rnc3_ideal):
    ring = PolyRing(("a", "b"))
    sub = Ideal(ring, [parse_polynomial(ring, "a*b")])
    with pytest.raises(ValueError):
        tor_inclusion_map(sub, rnc3_ideal, 0, 2)


def test_embedding_rejects_non_member_generators(rnc3_ideal):
    sub_ring = rnc3_ideal.ring.drop_front(1)
    stray = Ideal(sub_ring, [parse_polynomial(sub_ring, "x1^2")])
    with pytest.raises(ValueError):
        tor_inclusion_map(stray, rnc3_ideal, 0, 2)


def test_embedding_rejects_characteristic_mismatch(rnc3_ideal):
    other = PolyRing(("x1", "x2", "x3"), char=101)
    sub = Ideal(other, [parse_polynomial(other, "x1*x3 - x2^2")])
    with pytest.raises(ValueError):
        tor_inclusion_map(sub, rnc3_ideal, 0, 2)
