"""Graded Betti numbers through Koszul homology: frozen tables, closed-form
resolutions, Euler-characteristic bookkeeping, derived numerics, and the
mapping-cone identity on small fixtures."""

import random
from dataclasses import replace
from math import comb

import pytest

from innerproj.fixtures import rnc, segre
from innerproj.geometry import apply_change_to_ideal, quotient_table
from innerproj.groebner import Ideal
from innerproj.hilbert import hilbert
from innerproj.linalg import sparse_rows_rank, span_echelon
from innerproj.modspec import (
    filtration_step_spec,
    ideal_spec,
    quotient_spec,
    subquotient_spec,
)
from innerproj.parser import parse_polynomial
from innerproj.poly import PolyRing
from innerproj.tor import (
    betti_window,
    check_n2p,
    get_complex,
    ideal_table_from_quotient,
    mapping_cone_identity,
    pd_depth,
)
from innerproj.verify import _random_change


def make_ideal(varnames, gens):
    ring = PolyRing(tuple(varnames))
    return Ideal(ring, [parse_polynomial(ring, s) for s in gens])


# -- closed-form resolutions -------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_residue_field_table_is_binomial(n):
    ring = PolyRing(tuple("y%d" % i for i in range(n)))
    maximal = Ideal(ring, ring.gens())
    bt = betti_window(quotient_spec(maximal), i_max=n, j_max=2)
    for i in range(n + 1):
        assert bt.entry(i, 0) == comb(n, i)
    assert all(v == 0 for (i, j), v in bt.entries.items() if j > 0)
    assert not bt.truncation_flag


def test_maximal_ideal_of_the_plane():
    bt = betti_window(
        ideal_spec(make_ideal(("x", "y"), ["x", "y"])), i_max=2, j_max=2
    )
    assert bt.nonzero() == {(0, 1): 2, (1, 1): 1}


@pytest.mark.parametrize("d", [3, 4, 5])
def test_rational_normal_curve_resolution(d):
    # determinantal 2-regular resolution: beta_{i,2} = (i+1) * C(d, i+2)
    bt = betti_window(ideal_spec(rnc(d).to_ideal()), i_max=d, j_max=4)
    expected = {
        (i, 2): (i + 1) * comb(d, i + 2)
        for i in range(d - 1)
    }
    assert bt.nonzero() == expected
    assert not bt.truncation_flag


def test_two_planes_quotient_table(two_planes_ideal):
    # union of two planes through a point: squarefree monomial ideal whose
    # Taylor complex is minimal, so the table reads off the lcm lattice
    bt = betti_window(quotient_spec(two_planes_ideal), i_max=5, j_max=4)
    assert bt.nonzero() == {(0, 0): 1, (1, 1): 4, (2, 1): 4, (3, 1): 1}


def test_quotient_and_ideal_tables_differ_by_the_index_shift(
    rnc3_ideal, rnc4_ideal, two_planes_ideal
):
    unit = make_ideal(("x", "y", "z"), ["1"])
    zero = make_ideal(("x", "y", "z"), [])
    # random coordinates drop the torus weights: one block per slot
    moved = apply_change_to_ideal(
        rnc3_ideal, _random_change(rnc3_ideal.ring, random.Random(7))
    )
    cases = (
        (rnc3_ideal, None),
        (rnc4_ideal, None),
        (two_planes_ideal, None),
        (unit, {(0, 0): 1}),
        (zero, {}),
        (moved, None),
    )
    for ideal, expected in cases:
        shifted = ideal_table_from_quotient(betti_window(quotient_spec(ideal), j_max=4))
        direct = betti_window(ideal_spec(ideal), j_max=5)
        assert shifted == direct  # label, window and flags
        assert shifted.nonzero() == direct.nonzero()
        if expected is not None:
            assert direct.nonzero() == expected


def test_quotient_tables_match_the_hilbert_numerator(
    rnc3_ideal, rnc4_ideal, two_planes_ideal
):
    # HS(R/I) = sum_i (-1)^i sum_j beta_{i,j} t^(i+j) / (1-t)^n, and the
    # Hilbert numerator comes from the leading-term ideal, not from Koszul
    # homology
    moved = apply_change_to_ideal(
        rnc3_ideal, _random_change(rnc3_ideal.ring, random.Random(11))
    )
    assert moved.ring.weights is None
    cases = (rnc3_ideal, rnc4_ideal, two_planes_ideal, segre(1, 2).to_ideal(), moved)
    for ideal in cases:
        bt = quotient_table(ideal)
        assert not bt.truncation_flag and bt.finitely_generated
        top = bt.i_max + bt.j_max
        alternating = [
            sum((-1) ** i * bt.entry(i, t - i) for i in range(bt.i_max + 1))
            for t in range(top + 1)
        ]
        numerator = list(hilbert(ideal).numerator)
        assert all(c == 0 for c in numerator[top + 1:])
        numerator += [0] * (top + 1 - len(numerator))
        assert alternating == numerator[: top + 1]
        # the module is finitely generated over the acting variables
        # exactly when the center acts
        assert ideal_spec(ideal, over="full").finitely_generated
        for spec in (ideal_spec(ideal, over="tail"), subquotient_spec(ideal)):
            assert spec.finitely_generated is False
            assert betti_window(spec, i_max=1, j_max=2).truncation_flag is True


# -- chain-level consistency -------------------------------------------------

def euler_mismatch(spec, upto):
    cx = get_complex(spec)
    bad = []
    n = len(spec.acting)
    for t in range(upto + 1):
        chains = sum(
            (-1) ** i * cx.chain_dim(i, t - i) for i in range(n + 1) if t - i >= 0
        )
        slots = sum(
            (-1) ** i * cx.slot_dim(i, t - i) for i in range(n + 1) if t - i >= 0
        )
        if chains != slots:
            bad.append((t, chains, slots))
    return bad


def test_euler_characteristic_by_degree(rnc3_ideal, rnc4_ideal, two_planes_ideal):
    specs = (
        ideal_spec(rnc3_ideal, over="full"),
        quotient_spec(two_planes_ideal, over="full"),
        subquotient_spec(rnc4_ideal),
    )
    for spec in specs:
        assert euler_mismatch(spec, 6) == []


def test_filtration_step_past_the_window_is_the_subquotient(
    rnc3_ideal, rnc4_ideal, two_planes_ideal
):
    # slots with j <= 5 read pieces of degree <= 6, where every
    # front-divisible basis monomial has front degree <= 6
    for ideal in (rnc3_ideal, rnc4_ideal, two_planes_ideal):
        whole = betti_window(subquotient_spec(ideal), i_max=3, j_max=5)
        step6 = betti_window(filtration_step_spec(ideal, 6), i_max=3, j_max=5)
        step1 = betti_window(filtration_step_spec(ideal, 1), i_max=3, j_max=5)
        assert step6.entries == whole.entries
        assert step1.entries != whole.entries


def test_slot_dim_outside_the_range_is_zero(rnc3_ideal):
    cx = get_complex(ideal_spec(rnc3_ideal))
    n = len(cx.acting)
    assert cx.slot_dim(-1, 2) == 0
    assert cx.slot_dim(0, -1) == 0
    assert cx.slot_dim(n + 1, 2) == 0
    assert cx.hom_dim(1, 2) == cx.slot_dim(1, 2)


def test_multiweight_blocking_matches_the_unblocked_complex(rnc4_ideal):
    spec = ideal_spec(rnc4_ideal)
    blocked = get_complex(spec, weights_on=True)
    plain = get_complex(spec, weights_on=False)
    for i in range(5):
        for j in range(5):
            assert blocked.slot_dim(i, j) == plain.slot_dim(i, j)


# -- derived numerics --------------------------------------------------------

def test_truncated_window_is_loud(rnc4_ideal):
    bt = betti_window(quotient_spec(rnc4_ideal), i_max=1, j_max=1)
    assert bt.truncation_flag
    with pytest.raises(ValueError):
        pd_depth(bt, hilbert(rnc4_ideal))


def test_pd_depth_acm_curves(rnc3_ideal, rnc4_ideal):
    for ideal, pd in ((rnc3_ideal, 2), (rnc4_ideal, 3)):
        bt = betti_window(quotient_spec(ideal))
        report = pd_depth(bt, hilbert(ideal))
        assert (report.pd, report.depth) == (pd, 2)
        assert report.dim_affine == 2
        assert report.is_acm


def test_pd_depth_non_acm_surface(two_planes_ideal):
    report = pd_depth(
        betti_window(quotient_spec(two_planes_ideal)),
        hilbert(two_planes_ideal),
    )
    assert (report.pd, report.depth, report.dim_affine) == (3, 2, 3)
    assert not report.is_acm


def test_linear_strand_width(rnc4_ideal, two_planes_ideal):
    bt4 = betti_window(ideal_spec(rnc4_ideal))
    assert check_n2p(bt4, cap=3) == 3
    bt2 = betti_window(ideal_spec(two_planes_ideal))
    assert check_n2p(bt2, cap=2) == 2


def test_linear_strand_rejects_non_quadratic_generation():
    cubic = make_ideal(("x", "y", "z"), ["x^3 + y^3 + z^3"])
    assert check_n2p(betti_window(ideal_spec(cubic))) == 0
    mixed = make_ideal(("x", "y", "z"), ["x*y", "z^3"])
    assert check_n2p(betti_window(ideal_spec(mixed))) == 0


# -- one presentation per ideal ----------------------------------------------

def test_columns_are_normal_forms_and_rebuild_products(
    rnc3_ideal, rnc4_ideal, two_planes_ideal, g24_ideal
):
    # quotient columns against normal forms computed from scratch, ideal
    # columns by rebuilding x_v * f_u from the basis they claim to express
    moved = apply_change_to_ideal(
        rnc3_ideal, _random_change(rnc3_ideal.ring, random.Random(5))
    )
    assert moved.ring.weights is None
    cases = (
        rnc4_ideal,
        two_planes_ideal,
        g24_ideal,
        moved,
        make_ideal(("x", "y", "z"), []),
        make_ideal(("x", "y", "z"), ["1"]),
    )
    for ideal in cases:
        ring = ideal.ring
        full, quotient = ideal_spec(ideal), quotient_spec(ideal)
        pieces = full.pieces
        for d in range(4):
            for v in range(ring.nvars):
                xs = ring.var(v)
                target = quotient.piece(d + 1)
                for m, col in zip(quotient.piece(d), quotient.mult(v, d)):
                    nf = pieces.gb.normal_form(ring.monomial(m) * xs)
                    assert {target[k]: c for k, c in col.items()} == nf.terms
                basis = full.piece(d + 1)
                for u, col in zip(full.piece(d), full.mult(v, d)):
                    rebuilt = ring.zero()
                    for k, c in col.items():
                        rebuilt = rebuilt + pieces.basis_poly(d + 1, basis[k]).scale(c)
                    assert rebuilt == xs * pieces.basis_poly(d, u)
        # the full-ring and subring specs of one kind are one presentation
        for family in (ideal_spec, quotient_spec):
            tail = family(ideal, over="tail")
            assert family(ideal)._mult is tail._mult
            assert family(ideal)._piece is tail._piece
            assert tail.mult(1, 2) is family(ideal).mult(1, 2)
        # filtration steps and the subquotient are different modules
        steps = (
            filtration_step_spec(ideal, 1),
            filtration_step_spec(ideal, 2),
            subquotient_spec(ideal),
        )
        caches = [full, quotient] + list(steps)
        assert len({id(spec._mult) for spec in caches}) == len(caches)
        assert len({id(spec._piece) for spec in caches}) == len(caches)


def test_quotient_table_refuses_a_table_off_the_hilbert_numerator(monkeypatch):
    from innerproj import geometry

    zero = make_ideal(("x", "y", "z"), [])
    unit = make_ideal(("x", "y", "z"), ["1"])
    conic = make_ideal(("x", "y", "z"), ["x*z - y^2"])
    for ideal in (zero, unit, conic):
        quotient_table(ideal)
    honest = geometry.betti_window

    def bumped(spec, i_max, j_max):
        bt = honest(spec, i_max, j_max)
        entries = dict(bt.entries)
        entries[(1, 1)] = bt.entry(1, 1) + 1
        return replace(bt, entries=entries)

    monkeypatch.setattr(geometry, "betti_window", bumped)
    for ideal in (zero, unit, conic):
        fresh = Ideal(ideal.ring, ideal.gens)
        with pytest.raises(ValueError, match="Hilbert numerator"):
            quotient_table(fresh)


# -- mapping cone ------------------------------------------------------------

@pytest.mark.parametrize("family", [ideal_spec, quotient_spec])
def test_mapping_cone_identity_small_fixtures(family, rnc3_ideal):
    for ideal in (rnc(2).to_ideal(), rnc3_ideal):
        spec_r = family(ideal, over="full")
        spec_s = family(ideal, over="tail")
        for i in range(5):
            for j in range(5):
                verdict = mapping_cone_identity(spec_r, spec_s, i, j)
                assert verdict.ok, (family.__name__, i, j, verdict)
                assert verdict.lhs == verdict.coker + verdict.ker


# -- sparse rank kernels -----------------------------------------------------

def dense_rank(rows, ncols, p):
    """Independent textbook Gaussian elimination over GF(p)."""
    mat = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 5, 32003])
def test_rank_kernels_agree_with_dense_elimination(p):
    rng = random.Random(p)
    for _ in range(25):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = {
                c: rng.randrange(1, p)
                for c in range(ncols)
                if rng.random() < 0.4
            }
            rows.append(row)
        want = dense_rank(rows, ncols, p)
        # sparse_rows_rank consumes its row dicts, so hand it copies
        assert sparse_rows_rank((dict(r) for r in rows), p) == want
        cols = [{} for _ in range(ncols)]
        for r, row in enumerate(rows):
            for c, v in row.items():
                cols[c][r] = v
        assert span_echelon(cols, p).rank == want
