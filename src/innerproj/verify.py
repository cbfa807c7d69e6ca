"""End-to-end verification: named checks that replay, in exact arithmetic,
the classical computations this engine exists to confirm.

Each check recomputes a documented family of invariants from scratch and
compares them against frozen expected values.  Reports carry statuses and
"got vs want" detail lines but no timings, so a fixed selection produces
byte-identical output across runs; wall time lives on the result objects
for callers that want it.  A check that cannot finish inside its budget
(only the big Segre strand has one) downgrades to an explicit skip with a
warning line — never to a silent pass.
"""

import json
import random
import time
from dataclasses import dataclass, field
from math import comb

from .docs import document, parse_json, parse_text
from .fixtures import plucker24, rnc, segre, two_planes_p4, veronese
from .geometry import (
    _e0,
    apply_change_to_ideal,
    classify,
    ideal_table,
    inner_project,
    lb_quadrics,
    pointed,
    quadric_span_dim,
    quotient_table,
    successive_project,
)
from .groebner import Ideal, eliminate, ideal_equal, s_polynomial
from .hilbert import hilbert, standard_monomial_count
from .modspec import ideal_spec, quotient_spec, subquotient_spec
from .monomial import GrevLex
from .parser import parse_polynomial
from .pei import dimension_identity, stabilization
from .poly import LinearChange, PolyRing, poly_str
from .tor import (
    betti_window,
    check_n2p,
    get_complex,
    mapping_cone_identity,
    pd_depth,
    tor_inclusion_map,
    tor_x0_map,
)


class UnknownCheckError(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    details: tuple
    elapsed: float = field(compare=False, default=0.0)

    @property
    def failed(self):
        return self.status == "fail"


def _fmt(v):
    """Deterministic rendering; dicts by sorted key."""
    if isinstance(v, dict):
        return "{" + ", ".join("%r: %r" % (k, v[k]) for k in sorted(v)) + "}"
    return repr(v)


class Tally:
    """Collects labeled comparisons; the check passes iff every line agrees."""

    def __init__(self):
        self.details = []
        self.ok = True
        self.skipped = False

    def eq(self, label, got, want):
        good = got == want
        self.ok = self.ok and good
        mark = "ok" if good else "FAIL"
        self.details.append(
            "%s %s: got %s, want %s" % (mark, label, _fmt(got), _fmt(want))
        )
        return good

    def ge(self, label, got, bound):
        good = got >= bound
        self.ok = self.ok and good
        mark = "ok" if good else "FAIL"
        self.details.append(
            "%s %s: got %s, want >= %s" % (mark, label, _fmt(got), _fmt(bound))
        )
        return good

    def true(self, label, flag):
        good = bool(flag)
        self.ok = self.ok and good
        self.details.append("%s %s" % ("ok" if good else "FAIL", label))
        return good

    def skip(self, reason):
        self.skipped = True
        self.details.append("SKIP %s" % reason)


# -- individual checks ------------------------------------------------------

def _check_cubic_elimination(t):
    """Eliminating the front variable from three quadric relations leaves
    exactly the one cubic their resultant predicts."""
    ring = PolyRing(("x0", "x1", "x2", "x3"))
    gens = [
        "x0*x2 - x1^2",
        "x0*x1 - x1*x3 - x2^2",
        "x0^2 - x0*x3 - x1*x2",
    ]
    ideal = Ideal(ring, [parse_polynomial(ring, s) for s in gens])
    image = eliminate(ideal)
    sub = image.ring
    expected = Ideal(sub, [parse_polynomial(sub, "x1^3 - x1*x2*x3 - x2^3")])
    t.true(
        "eliminated ideal equals (x1^3 - x1*x2*x3 - x2^3)",
        ideal_equal(image, expected),
    )
    t.eq("reduced basis size", len(image.groebner(GrevLex())), 1)


def _check_g24_chain(t):
    """The Pluecker quadrics of the line Grassmannian in P^9: Betti table,
    syzygy level, depth, and two successive inner projections."""
    doc = plucker24()
    ideal = doc.to_ideal()
    bt = ideal_table(ideal)
    t.eq(
        "Betti table of the Pluecker ideal",
        bt.nonzero(),
        {(0, 2): 5, (1, 2): 5, (2, 3): 1},
    )
    hd = hilbert(ideal)
    t.eq("degree and codimension", (hd.degree, hd.codim), (5, 3))
    t.eq("syzygy level", check_n2p(bt, cap=hd.codim), 2)
    dr = pd_depth(quotient_table(ideal), hd)
    t.eq("projective dimension and depth", (dr.pd, dr.depth), (3, 7))
    image, rep = inner_project(pointed(ideal, doc.point("p0")))
    t.true("center is smooth", rep.smooth)
    t.eq(
        "quadric count identity pieces (before, ambient, tangent)",
        (rep.beta02_before, rep.n_before, rep.tangent_dim),
        (5, 9, 6),
    )
    t.true("quadric count identity 5 - 9 + 6 = 2", rep.quadric_identity_ok)
    t.eq("quadrics after projection", rep.beta02_after, 2)
    t.eq("projective dimension after projection", rep.pd_after, 2)
    t.eq("depth before and after", (rep.depth_before, rep.depth_after), (7, 7))
    image2, rep2 = inner_project(pointed(image, _e0(image.ring.nvars)))
    t.eq("quadrics after second projection", rep2.beta02_after, 1)
    degrees = tuple(sorted(g.degree() for g in image2.groebner(GrevLex())))
    t.eq("second image generator degrees", degrees, (2,))


def _check_rnc_chain(t):
    """Successive inner projection of the degree-6 rational normal curve
    down to the twisted cubic, invariants checked at every stage."""
    doc = rnc(6)
    ideal = doc.to_ideal()
    chain = successive_project(pointed(ideal, doc.point("p0")), 3)
    t.eq("chain warnings", chain.warnings, ())
    stages = (ideal,) + chain.images
    for stage, d in zip(stages, (6, 5, 4, 3)):
        bt = ideal_table(stage)
        hd = hilbert(stage)
        t.eq("degree-%d curve: quadric generators" % d, bt.entry(0, 2), comb(d, 2))
        t.eq("degree-%d curve: syzygy level" % d, check_n2p(bt, cap=hd.codim), d - 1)
        cls = classify(stage)
        t.eq(
            "degree-%d curve: delta and class" % d,
            (cls.delta, cls.verdict),
            (1, "MinimalDegree"),
        )


def _check_lb_veronese(t):
    """Quadric counts of the two classical Veronese embeddings fall one
    short of the lower bound their syzygy levels would require."""
    cases = (
        ("degree-3 embedding of the plane", veronese(2, 3), 27, 7),
        ("degree-2 embedding of 3-space", veronese(3, 2), 20, 6),
    )
    for label, doc, quads, level in cases:
        ideal = doc.to_ideal()
        got = quadric_span_dim(ideal.gens)
        bound = lb_quadrics(level, level)
        t.eq("%s: independent quadrics" % label, got, quads)
        t.eq("%s: level-%d lower bound" % (label, level), bound, quads + 1)
        t.true(
            "%s: %d < %d refutes level %d" % (label, got, bound, level),
            got < bound,
        )


def _check_nonacm_depth(t):
    """Two planes meeting in a point: depth below dimension, and the
    pd-drop/depth-preservation identities under inner projection."""
    doc = two_planes_p4()
    ideal = doc.to_ideal()
    dr = pd_depth(quotient_table(ideal), hilbert(ideal))
    t.eq(
        "pd, depth, affine dimension",
        (dr.pd, dr.depth, dr.dim_affine),
        (3, 2, 3),
    )
    t.true("not arithmetically Cohen-Macaulay", not dr.is_acm)
    _, rep = inner_project(pointed(ideal, doc.point("p0")))
    t.true("center is smooth", rep.smooth)
    t.eq(
        "pd and depth after projection",
        (rep.pd_after, rep.depth_after),
        (2, 2),
    )
    t.true("pd drops by one, depth preserved", rep.depth_identity_ok is True)


def _check_mapping_cone(t):
    """The rank bookkeeping of the long exact sequence linking Betti
    numbers over the full ring to the center-variable action over the
    subring, at every window slot of three fixtures and both module
    families."""
    fixtures = (
        ("degree-4 curve", rnc(4)),
        ("Pluecker G(2,4)", plucker24()),
        ("two planes", two_planes_p4()),
    )
    families = (("quotient", quotient_spec), ("ideal", ideal_spec))
    slots = 0
    bad = []
    for label, doc in fixtures:
        ideal = doc.to_ideal()
        for famname, fam in families:
            spec_r = fam(ideal, over="full")
            spec_s = fam(ideal, over="tail")
            for i in range(6):
                for j in range(6):
                    v = mapping_cone_identity(spec_r, spec_s, i, j)
                    slots += 1
                    if not v.ok:
                        bad.append(
                            "%s %s (%d,%d): %d != %d + %d"
                            % (label, famname, i, j, v.lhs, v.coker, v.ker)
                        )
    t.eq("slots checked", slots, 216)
    t.eq("failing slots", tuple(bad), ())


def _check_x0_stability_flags(t):
    """Center-variable multiplication on the subring Betti spaces of the
    degree-4 curve: surjective on the generator row, isomorphisms above
    it, surjective everywhere at the top homological step."""
    ideal = rnc(4).to_ideal()
    spec = ideal_spec(ideal, over="tail")
    for i in (0, 1):
        rep = tor_x0_map(spec, i, 2)
        t.true("step %d, row 2 -> 3: surjective" % i, rep.surjective)
        for j in (3, 4):
            rep = tor_x0_map(spec, i, j)
            t.true("step %d, row %d -> %d: isomorphism" % (i, j, j + 1), rep.isomorphism)
    for j in (2, 3, 4):
        rep = tor_x0_map(spec, 2, j)
        t.true("step 2, row %d -> %d: surjective" % (j, j + 1), rep.surjective)


def _check_embedded_syzygies(t):
    """The projected ideal's resolution embeds into the source's through
    the homological range its syzygy level promises, and the projected
    level drops by at most one."""
    cases = (
        ("Pluecker G(2,4)", plucker24(), 2),
        ("degree-5 curve", rnc(5), 4),
    )
    for label, doc, level in cases:
        big = doc.to_ideal()
        t.eq(
            "%s: syzygy level" % label,
            check_n2p(ideal_table(big), cap=hilbert(big).codim),
            level,
        )
        image, rep = inner_project(pointed(big, doc.point("p0")))
        t.true("%s: center is smooth" % label, rep.smooth)
        for i in range(level - 1):
            for j in (2, 3):
                mrep = tor_inclusion_map(image, big, i, j)
                t.true(
                    "%s: embedding injective at step %d, row %d" % (label, i, j),
                    mrep.injective,
                )
        projected = check_n2p(ideal_table(image), cap=hilbert(image).codim)
        t.ge("%s: projected syzygy level" % label, projected, level - 1)


def _check_pei_shape(t):
    """The front-divisible subquotient of an ideal with smooth center
    resolves with constant binomial ranks in every row, and the degreewise
    slice counts of the front-degree filtration recount the ideal."""
    cases = (("conic", rnc(2), 1), ("degree-4 curve", rnc(4), 3))
    for label, doc, e in cases:
        ideal = doc.to_ideal()
        t.eq("%s: codimension" % label, hilbert(ideal).codim, e)
        bt = betti_window(subquotient_spec(ideal), i_max=e, j_max=6)
        want = {
            (i, j): comb(e, i + 1) for j in range(2, 7) for i in range(e + 1)
        }
        got = {(i, j): bt.entry(i, j) for j in range(2, 7) for i in range(e + 1)}
        t.eq("%s: subquotient Betti rows 2..6" % label, got, want)
        t.true(
            "%s: nothing below the quadric row" % label,
            all(bt.entry(i, j) == 0 for j in (0, 1) for i in range(e + 1)),
        )
        filt = stabilization(ideal)
        bad = tuple(
            m for m in range(9) if not dimension_identity(filt, m).ok
        )
        t.eq("%s: slice-count mismatches through degree 8" % label, bad, ())


def _check_segre_strand(t, deadline):
    """Linear strand of the Segre product of the plane and 4-space: the
    three classical strand entries, under a soft wall-clock budget."""
    doc = segre(2, 4)
    ideal = doc.to_ideal()
    t.eq("quadric generators", len(ideal.gens), 30)
    cx = get_complex(ideal_spec(ideal, over="full"))
    want = {0: 30, 1: 120, 2: 210}
    for i in (0, 1, 2):
        if time.monotonic() > deadline:
            t.skip(
                "budget exhausted before homological step %d; "
                "remaining strand entries unverified" % i
            )
            return
        t.eq("linear strand entry at step %d" % i, cx.slot_dim(i, 2), want[i])


def _random_poly(ring, rng, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        ev = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            ev[rng.randrange(ring.nvars)] += 1
        terms[tuple(ev)] = rng.randint(1, ring.char - 1)
    return ring.from_terms(terms)


def _random_change(ring, rng):
    n = ring.nvars
    while True:
        mat = [[rng.randrange(ring.char) for _ in range(n)] for _ in range(n)]
        try:
            return LinearChange(ring, mat)
        except ValueError:
            continue


def _random_doc(rng):
    n = rng.randint(1, 5)
    names = tuple("v%d" % i for i in range(n))
    ring = PolyRing(names)
    gens = []
    for _ in range(rng.randint(0, 4)):
        f = _random_poly(ring, rng)
        if not f.is_zero():
            gens.append(poly_str(f))
    weights = None
    if rng.random() < 0.5:
        wlen = rng.randint(1, 3)
        weights = [
            tuple(rng.randint(0, 9) for _ in range(wlen)) for _ in names
        ]
    points = [
        ("q%d" % k, tuple(rng.randint(0, 100) for _ in names))
        for k in range(rng.randint(0, 2))
    ]
    meta = [
        ("k%d" % k, "value %d" % rng.randint(0, 999))
        for k in range(rng.randint(0, 2))
    ]
    return document(
        names, gens, weights=weights, points=points, meta=meta
    )


def _check_property_suite(t):
    """Cross-cutting soundness: S-pair reduction, normal-form idempotence,
    brute-force Hilbert agreement, Betti invariance under random changes
    of coordinates, and serialization round-trips."""
    rng = random.Random(20260823)
    fixtures = (
        ("twisted cubic", rnc(3)),
        ("degree-4 curve", rnc(4)),
        ("two planes", two_planes_p4()),
        ("Pluecker G(2,4)", plucker24()),
    )
    for label, doc in fixtures:
        ideal = doc.to_ideal()
        gb = ideal.groebner(GrevLex())
        basis = list(gb)
        bad = sum(
            1
            for a in range(len(basis))
            for b in range(a + 1, len(basis))
            if not gb.normal_form(
                s_polynomial(basis[a], basis[b], gb.order)
            ).is_zero()
        )
        t.eq("%s: S-pairs not reducing to zero" % label, bad, 0)
        drifts = 0
        for _ in range(5):
            nf = gb.normal_form(_random_poly(ideal.ring, rng))
            if not (gb.normal_form(nf) - nf).is_zero():
                drifts += 1
        t.eq("%s: normal forms drifting on reapplication" % label, drifts, 0)
        hd = hilbert(ideal)
        lead = gb.leading_exponents()
        mismatch = tuple(
            d
            for d in range(7)
            if hd.hilbert_function(d)
            != standard_monomial_count(lead, ideal.ring.nvars, d)
        )
        t.eq("%s: Hilbert-function mismatches (degree <= 6)" % label, mismatch, ())
    # Dense post-change bases make wide Grassmannian windows expensive, so
    # its full strand runs on one trial and the linear strand on the rest.
    inv_fixtures = (
        ("twisted cubic", rnc(3), ((3, 3),) * 5),
        ("degree-4 curve", rnc(4), ((3, 3),) * 5),
        ("two planes", two_planes_p4(), ((3, 3),) * 5),
        ("Pluecker G(2,4)", plucker24(), ((2, 3),) + ((2, 2),) * 4),
    )
    for label, doc, windows in inv_fixtures:
        ideal = doc.to_ideal()
        spec = ideal_spec(ideal, over="full")
        base = {w: betti_window(spec, *w).entries for w in sorted(set(windows))}
        unstable = 0
        for w in windows:
            moved = apply_change_to_ideal(ideal, _random_change(ideal.ring, rng))
            got = betti_window(ideal_spec(moved, over="full"), *w).entries
            if got != base[w]:
                unstable += 1
        t.eq("%s: Betti windows moved by coordinate change" % label, unstable, 0)
    bad_text = bad_json = 0
    for _ in range(100):
        doc = _random_doc(rng)
        if parse_text(doc.to_text()) != doc:
            bad_text += 1
        if parse_json(doc.to_json()) != doc:
            bad_json += 1
    t.eq("documents failing text round-trip (of 100)", bad_text, 0)
    t.eq("documents failing JSON round-trip (of 100)", bad_json, 0)


CHECKS = {
    "cubic-elimination": (
        _check_cubic_elimination,
        "front-variable elimination of three quadric relations yields one cubic",
    ),
    "g24-chain": (
        _check_g24_chain,
        "line-Grassmannian Betti table, depth, and double inner projection",
    ),
    "rnc-chain": (
        _check_rnc_chain,
        "degree-6 rational curve projected down to the twisted cubic",
    ),
    "lb-veronese": (
        _check_lb_veronese,
        "Veronese quadric counts fall below the syzygy-level lower bound",
    ),
    "nonacm-depth": (
        _check_nonacm_depth,
        "two meeting planes: depth, and the projection depth identities",
    ),
    "mapping-cone": (
        _check_mapping_cone,
        "long-exact-sequence rank identity at every window slot",
    ),
    "x0-stability-flags": (
        _check_x0_stability_flags,
        "surjectivity and isomorphism pattern of the center-variable action",
    ),
    "embedded-syzygies": (
        _check_embedded_syzygies,
        "projected resolutions embed injectively through the promised range",
    ),
    "pei-shape": (
        _check_pei_shape,
        "filtration subquotient Betti rows and degreewise slice counts",
    ),
    "segre-strand": (
        _check_segre_strand,
        "linear strand of the Segre product of the plane and 4-space",
    ),
    "property-suite": (
        _check_property_suite,
        "S-pairs, normal forms, Hilbert brute force, invariance, round-trips",
    ),
}

SEGRE_BUDGET = 600.0  # seconds; the one soft-budgeted check


def run_checks(names=None, segre_budget=SEGRE_BUDGET):
    """Run the selected checks (registry order, duplicates collapsed) and
    return a tuple of CheckResult."""
    if names:
        unknown = sorted(set(names) - set(CHECKS))
        if unknown:
            raise UnknownCheckError(
                "unknown checks: %s (have: %s)"
                % (", ".join(unknown), ", ".join(CHECKS))
            )
        wanted = set(names)
        selected = [n for n in CHECKS if n in wanted]
    else:
        selected = list(CHECKS)
    results = []
    for name in selected:
        fn, _ = CHECKS[name]
        tally = Tally()
        start = time.monotonic()
        try:
            if name == "segre-strand":
                fn(tally, start + segre_budget)
            else:
                fn(tally)
        except Exception as exc:  # a crashed check is a failed check
            tally.ok = False
            tally.details.append(
                "FAIL raised %s: %s" % (type(exc).__name__, exc)
            )
        elapsed = time.monotonic() - start
        status = "fail" if not tally.ok else ("skip" if tally.skipped else "pass")
        results.append(
            CheckResult(
                name=name,
                status=status,
                details=tuple(tally.details),
                elapsed=elapsed,
            )
        )
    return tuple(results)


def suite_failed(results):
    return any(r.status == "fail" for r in results)


def _summary(results):
    """Check count and the tally of each status."""
    summary = {"total": len(results), "pass": 0, "fail": 0, "skip": 0}
    for r in results:
        summary[r.status] += 1
    return summary


def report_text(results):
    lines = []
    for r in results:
        lines.append("[%s] %s" % (r.status.upper(), r.name))
        for d in r.details:
            lines.append("    " + d)
    lines.append(
        "%(total)d checks: %(pass)d pass, %(fail)d fail, %(skip)d skip" % _summary(results)
    )
    return "\n".join(lines) + "\n"


def report_json(results):
    payload = {
        "checks": [
            {"name": r.name, "status": r.status, "details": list(r.details)}
            for r in results
        ],
        "summary": _summary(results),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
