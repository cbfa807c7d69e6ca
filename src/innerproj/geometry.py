"""Projective geometry over the algebra layer: tangent spaces, coordinate
moves, inner projection and projection chains, numeric classification, and
the closed-form bounds that the reports are judged against.

Conventions: points are projective coordinate tuples over GF(p); the inner
projection is elimination of the front variable after the center is moved
to e0 = (1:0:...:0).
"""

from dataclasses import dataclass
from math import comb

from .field import inv_mod
from .groebner import Ideal, eliminate
from .hilbert import hilbert
from .linalg import Echelon
from .monomial import GrevLex, total_degree
from .poly import LinearChange, substitute_linear
from .modspec import quotient_spec
from .tor import (
    betti_window,
    check_n2p,
    get_complex,
    ideal_table_from_quotient,
    pd_depth,
)


# -- points ----------------------------------------------------------------

def normalize_point(point, p):
    """Scale so the first nonzero coordinate is 1; canonical representative
    of the projective point."""
    q = tuple(x % p for x in point)
    k0 = next((k for k, x in enumerate(q) if x), None)
    if k0 is None:
        raise ValueError("projective point cannot be all zero")
    s = inv_mod(q[k0], p)
    return tuple((x * s) % p for x in q)


def _e0(n):
    return (1,) + (0,) * (n - 1)


def on_variety(ideal, point):
    q = normalize_point(point, ideal.ring.char)
    return all(g.evaluate(q) == 0 for g in ideal.gens)


@dataclass(frozen=True)
class PointedIdeal:
    """An ideal with a chosen projective point; moved means the point is
    already e0."""

    ideal: Ideal
    point: tuple
    moved: bool


def pointed(ideal, point):
    q = normalize_point(point, ideal.ring.char)
    return PointedIdeal(ideal, q, q == _e0(ideal.ring.nvars))


# -- tangent spaces --------------------------------------------------------

@dataclass(frozen=True)
class TangentReport:
    rank: int
    tangent_dim: int
    codim: int
    smooth: bool


def tangent_at(ideal, point):
    """Jacobian rank of the generators at a point of the variety.

    The Euler relation makes the full Jacobian rank equal the affine-chart
    rank at any point of V(I), so no chart is materialized.  tangent_dim is
    the projective tangent dimension N - rank; smooth means rank = codim.
    """
    p = ideal.ring.char
    q = normalize_point(point, p)
    if not on_variety(ideal, q):
        raise ValueError("point is not on the variety (a generator does not vanish)")
    n = ideal.ring.nvars
    ech = Echelon(p)
    for g in ideal.gens:
        row = {}
        for v in range(n):
            c = g.derivative(v).evaluate(q)
            if c:
                row[v] = c
        ech.insert(row)
    rank = ech.rank
    codim = hilbert(ideal).codim
    return TangentReport(
        rank=rank, tangent_dim=(n - 1) - rank, codim=codim, smooth=(rank == codim)
    )


# -- coordinate moves ------------------------------------------------------

def move_change(ring, point):
    """Deterministic invertible change sending e0 to the given point, so
    substituted generators vanish at e0.  Identity when the point is e0
    (keeping any multiweights alive)."""
    p = ring.char
    q = normalize_point(point, p)
    n = ring.nvars
    k0 = next(k for k, x in enumerate(q) if x)
    # column 0 of the substitution matrix is q; column k0 absorbs e0.
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        mat[i][k0] = 1 if i == 0 else 0
        mat[i][0] = q[i]
    return LinearChange(ring, mat)


def apply_change_to_ideal(ideal, change):
    ring2 = change.image_ring()
    return Ideal(ring2, [substitute_linear(g, change) for g in ideal.gens])


def move_point(pi):
    """Rewrite coordinates so the marked point becomes e0; generators of
    the returned ideal vanish at e0.  No-op when already moved."""
    if pi.moved:
        return pi
    change = move_change(pi.ideal.ring, pi.point)
    moved = apply_change_to_ideal(pi.ideal, change)
    return PointedIdeal(moved, _e0(moved.ring.nvars), True)


# -- windowed tables with adaptive widening --------------------------------

_MAX_WIDEN = 9


def quotient_table(ideal):
    """Untruncated Betti table of R/I over the full ring; j widened until
    the boundary row is clean (loudly refuses past the widening cap).  Its
    alternating antidiagonal sums must give the Hilbert numerator."""
    spec = quotient_spec(ideal, over="full")
    j_max = max(ideal.max_gen_degree(), 1)
    for _ in range(_MAX_WIDEN + 1):
        bt = betti_window(spec, len(spec.acting), j_max)
        if not bt.truncation_flag:
            num = list(hilbert(ideal).numerator)
            alt = [0] * max(len(num), bt.i_max + bt.j_max + 1)
            for (i, j), b in bt.entries.items():
                alt[i + j] += (-1) ** i * b
            if alt != num + [0] * (len(alt) - len(num)):
                raise ValueError("Betti table gives Hilbert numerator %r, not %r" % (alt, num))
            return bt
        j_max += 1
    raise ValueError(
        "quotient table still truncated at j_max=%d; raise the widening cap" % j_max
    )


def ideal_table(ideal):
    """Untruncated Betti table of I over the full ring, read off
    quotient_table(ideal) by the index shift (no Koszul work of its own)."""
    return ideal_table_from_quotient(quotient_table(ideal))


def beta02(ideal):
    """dim Tor_0(I)_2 = dim Tor_1(R/I)_2: the number of independent quadric
    generators, read from the quotient complex that the tables share."""
    return get_complex(quotient_spec(ideal, over="full")).slot_dim(1, 1)


def quadric_span_dim(gens):
    """Rank of the degree-2 coefficient matrix of the given generators;
    equals beta_{0,2} for a nondegenerate ideal generated by quadrics,
    with no basis computation behind it."""
    if not gens:
        return 0
    p = gens[0].ring.char
    index = {}
    ech = Echelon(p)
    for g in gens:
        if g.is_zero() or g.degree() != 2:
            continue
        row = {}
        for ev, c in g.terms.items():
            if ev not in index:
                index[ev] = len(index)
            row[index[ev]] = c
        ech.insert(row)
    return ech.rank


def is_quadratic(bt_ideal):
    """Generated purely in degree 2, judged on the untruncated ideal table."""
    if bt_ideal.entry(0, 2) == 0:
        return False
    return all(bt_ideal.entry(0, j) == 0 for j in range(bt_ideal.j_max + 1) if j != 2)


# -- inner projection ------------------------------------------------------

@dataclass(frozen=True)
class ProjectionReport:
    """Before/after invariants of one inner projection and the identities
    the construction promises.

    quadric_identity_ok: beta02_after = beta02_before - N + tangent_dim.
    depth_identity_ok: pd drops by one and depth is preserved; asserted
    only under its hypotheses (quadratic generation, smooth center),
    otherwise None and the numbers speak for themselves.
    """

    center: tuple
    tangent_dim: int
    smooth: bool
    n_before: int
    n_after: int
    beta02_before: int
    beta02_after: int
    degree_before: int
    degree_after: int
    codim_before: int
    codim_after: int
    delta_before: int
    delta_after: int
    pd_before: int
    pd_after: int
    depth_before: int
    depth_after: int
    n2p_before: int
    n2p_after: int
    quadratic_before: bool
    quadric_identity_ok: bool
    depth_identity_ok: object
    delta_preserved: bool
    degenerate_image: bool


def _is_degenerate(ideal):
    """Zero ideal, or any linear form in the reduced basis (image inside a
    hyperplane)."""
    if ideal.is_zero():
        return True
    gb = ideal.groebner(GrevLex())
    return any(total_degree(e) <= 1 for e in gb.leading_exponents())


def inner_project(pi):
    """Project from the marked point of the variety: eliminate the front
    variable after moving the point to e0.  Returns (image ideal, report).

    The "before" invariants (tangent space, Hilbert series, Betti tables)
    are taken on the input ideal at the center, in the input's coordinates:
    none of them changes under a linear change of coordinates, and the
    input keeps its torus weights, which a move away from e0 drops.  The
    move to e0 feeds only the elimination.  Each side runs one Koszul
    table, that of the quotient; the ideal table is read off it.

    A point off the variety is an outer projection; that path is plain
    eliminate() and this function refuses it explicitly.
    """
    if not on_variety(pi.ideal, pi.point):
        raise ValueError(
            "center is not on the variety: that is an outer projection; "
            "use eliminate() directly for those"
        )
    ideal = pi.ideal
    center = normalize_point(pi.point, ideal.ring.char)
    tan = tangent_at(ideal, center)
    image = eliminate(move_point(pi).ideal)

    hd_b = hilbert(ideal)
    hd_a = hilbert(image)
    qt_b = quotient_table(ideal)
    qt_a = quotient_table(image)
    bt_ib = ideal_table_from_quotient(qt_b)
    bt_ia = ideal_table_from_quotient(qt_a)
    dr_b = pd_depth(qt_b, hd_b)
    dr_a = pd_depth(qt_a, hd_a)
    b02_b = bt_ib.entry(0, 2)
    b02_a = bt_ia.entry(0, 2)
    n_before = ideal.ring.nvars - 1
    quad_b = is_quadratic(bt_ib)
    smooth = tan.smooth
    if quad_b and smooth:
        depth_ok = (dr_a.pd == dr_b.pd - 1) and (dr_a.depth == dr_b.depth)
    else:
        depth_ok = None
    report = ProjectionReport(
        center=center,
        tangent_dim=tan.tangent_dim,
        smooth=smooth,
        n_before=n_before,
        n_after=n_before - 1,
        beta02_before=b02_b,
        beta02_after=b02_a,
        degree_before=hd_b.degree,
        degree_after=hd_a.degree,
        codim_before=hd_b.codim,
        codim_after=hd_a.codim,
        delta_before=hd_b.delta,
        delta_after=hd_a.delta,
        pd_before=dr_b.pd,
        pd_after=dr_a.pd,
        depth_before=dr_b.depth,
        depth_after=dr_a.depth,
        n2p_before=check_n2p(bt_ib, cap=hd_b.codim),
        n2p_after=check_n2p(bt_ia, cap=hd_a.codim),
        quadratic_before=quad_b,
        quadric_identity_ok=(b02_a == b02_b - n_before + tan.tangent_dim),
        depth_identity_ok=depth_ok,
        delta_preserved=(hd_a.delta == hd_b.delta),
        degenerate_image=_is_degenerate(image),
    )
    return image, report


@dataclass(frozen=True)
class ChainResult:
    reports: tuple
    images: tuple
    warnings: tuple

    @property
    def final_ideal(self):
        return self.images[-1] if self.images else None


def successive_project(pi, k, points="auto", strict=True):
    """Chain of k inner projections.

    points: "auto" picks e0 of the current coordinates at every step
    (membership still verified), or a list of k explicit points.  strict
    insists every center is smooth and every promised identity holds;
    permissive records violations as warnings instead.
    """
    if k < 0:
        raise ValueError("negative step count")
    if points != "auto":
        points = list(points)
        if len(points) != k:
            raise ValueError("need exactly %d points" % k)
    reports = []
    images = []
    warnings = []

    def flag(msg):
        if strict:
            raise ValueError(msg)
        warnings.append(msg)

    current = pi
    for step in range(k):
        ideal = current.ideal
        if ideal.ring.nvars < 2:
            raise ValueError("step %d: ambient space exhausted" % step)
        if points == "auto":
            q = current.point if step == 0 else _e0(ideal.ring.nvars)
        else:
            q = points[step]
        current = pointed(ideal, q)
        if not on_variety(ideal, current.point):
            raise ValueError("step %d: center off the variety" % step)
        image, rep = inner_project(current)
        if not rep.smooth:
            flag("step %d: center is singular (tangent %d > codim %d)" % (
                step, rep.tangent_dim, rep.codim_before
            ))
        if not rep.quadric_identity_ok:
            flag("step %d: quadric-count identity failed" % step)
        if rep.smooth and not rep.delta_preserved:
            flag("step %d: delta changed under a smooth projection" % step)
        if rep.n2p_before >= 1 and rep.n2p_after < rep.n2p_before - 1:
            flag("step %d: syzygy level dropped by more than one" % step)
        reports.append(rep)
        images.append(image)
        if image.ring.nvars >= 1:
            current = PointedIdeal(image, _e0(image.ring.nvars), True)
    return ChainResult(reports=tuple(reports), images=tuple(images), warnings=tuple(warnings))


# -- classification --------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    """Numeric-invariant classification; verdicts speak about invariants
    only — irreducibility is never checked."""

    verdict: str
    delta: int
    degree: int
    codim_e: int
    dim_proj: int
    acm: bool
    pd: int
    depth: int
    n2p_level: int
    level_cross_check_ok: object
    expected_betti_row: object
    betti_row_matches: object
    note: str = "verdict reflects numeric invariants; irreducibility not checked"


def classify(ideal):
    """Sort an ideal by delta = degree - codim:
    delta 1 -> MinimalDegree; delta 2 and arithmetically Cohen-Macaulay ->
    NextToMinimal_DelPezzoClass (with the expected quadric strand row
    cross-checked); anything else -> Other."""
    if ideal.is_zero():
        raise ValueError("zero ideal has no classification")
    if _is_degenerate(ideal):
        raise ValueError(
            "degenerate input (linear forms present); reduce the ambient space first"
        )
    hd = hilbert(ideal)
    e = hd.codim
    qt = quotient_table(ideal)
    dr = pd_depth(qt, hd)
    bt = ideal_table_from_quotient(qt)
    n2p = check_n2p(bt, cap=e)
    expected_row = None
    row_matches = None
    cross = None
    if hd.delta == 1:
        verdict = "MinimalDegree"
        cross = n2p == e
    elif hd.delta == 2 and dr.is_acm:
        verdict = "NextToMinimal_DelPezzoClass"
        cross = n2p == e - 1
        expected_row = tuple(hoa_betti(e, i) for i in range(e - 1))
        computed_row = tuple(bt.entry(i, 2) for i in range(e - 1))
        row_matches = computed_row == expected_row and bt.entry(e - 1, 3) == 1
    else:
        verdict = "Other"
    return ClassificationReport(
        verdict=verdict,
        delta=hd.delta,
        degree=hd.degree,
        codim_e=e,
        dim_proj=hd.dim_proj,
        acm=dr.is_acm,
        pd=dr.pd,
        depth=dr.depth,
        n2p_level=n2p,
        level_cross_check_ok=cross,
        expected_betti_row=expected_row,
        betti_row_matches=row_matches,
    )


# -- closed-form bounds ----------------------------------------------------

def lb_quadrics(e, p):
    """Lower bound e*p - p(p-1)/2 on the quadric count implied by syzygy
    level p in codimension e."""
    if not 1 <= p <= e:
        raise ValueError("need 1 <= p <= e")
    return e * p - p * (p - 1) // 2

def degree_bound_check(e, p, d):
    """Binomial consistency test C(d+2-p, 2) <= C(2e+3-2p, e+1-p) relating
    degree d, codimension e, and syzygy level p >= 2."""
    if p < 2 or e < p:
        raise ValueError("need p >= 2 and e >= p")
    if d < 1:
        raise ValueError("degree must be positive")
    lhs = comb(d + 2 - p, 2) if d + 2 - p >= 0 else 0
    return lhs <= comb(2 * e + 3 - 2 * p, e + 1 - p)

def hoa_betti(e, i):
    """Expected quadric-strand Betti number (i+1)*C(e+1, i+2) - C(e, i) of
    a del-Pezzo-class ideal in codimension e."""
    if not 0 <= i <= e - 2:
        raise ValueError("need 0 <= i <= e-2")
    return (i + 1) * comb(e + 1, i + 2) - comb(e, i)
