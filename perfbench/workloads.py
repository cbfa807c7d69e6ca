"""The three workloads: fixtures, seeded inputs, jobs and their checks.

A workload is a list of rounds; every round holds the same jobs in the same
order, on inputs drawn from the seed.  A job builds its ideals fresh from a
document, so every per-ideal cache (Groebner bases, module specs, Koszul
complexes) starts empty.  `run` is the timed part of a job; `summarize`
turns its output into plain data and `check` judges that data, both outside
the timed region.
"""

import random

import innerproj as ip
from innerproj.field import DEFAULT_CHAR as P
from innerproj import geometry
from innerproj.monomial import monomials_of_degree

import checks

INPUT_ROUNDS = 5  # distinct input sets drawn at set-up; later rounds cycle


# -- seeded points on the varieties ---------------------------------------------

def _nonzero(rng):
    return rng.randrange(2, P)


def rnc_point(rng, d):
    t = _nonzero(rng)
    return tuple(pow(t, i, P) for i in range(d + 1))


def scroll_point(rng, *degrees):
    """One shared s, a scalar per block: block i is lam_i * (1, s, ..., s^a_i)."""
    s = _nonzero(rng)
    out = []
    for a in degrees:
        lam = _nonzero(rng)
        out += [lam * pow(s, j, P) % P for j in range(a + 1)]
    return tuple(out)


def segre_point(rng, m, n):
    a = [_nonzero(rng) for _ in range(m + 1)]
    b = [_nonzero(rng) for _ in range(n + 1)]
    return tuple(x * y % P for x in a for y in b)


def veronese_point(rng, n, d):
    x = [_nonzero(rng) for _ in range(n + 1)]
    out = []
    for m in monomials_of_degree(n + 1, d):
        v = 1
        for xi, e in zip(x, m):
            v = v * pow(xi, e, P) % P
        out.append(v)
    return tuple(out)


POINTS = {
    "rnc": rnc_point,
    "scroll": scroll_point,
    "segre": segre_point,
    "veronese": veronese_point,
}


def round_trip(doc):
    """The document as a user would send it: text, parsed back."""
    back = ip.parse_text(doc.to_text())
    if back != doc:
        raise ValueError("document changed in the text round trip")
    return back


def mat_inverse(mat):
    """Inverse of a square matrix over GF(P) by Gauss-Jordan; None when
    singular.  Written here so that the checks do not lean on innerproj's."""
    n = len(mat)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % P), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], P - 2, P)
        a[col] = [x * inv % P for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [(x - c * y) % P for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _terms(poly):
    return dict(poly.terms)


def _table(bt):
    return dict(bt.nonzero())


class Job:
    """One operation: `run(inputs)` is timed; `summarize(out, inputs)` and
    `check(summary)` are not."""

    def __init__(self, label, run, summarize, check):
        self.label = label
        self.run = run
        self.summarize = summarize
        self.check = check


class Workload:
    def __init__(self, rounds, finish):
        self.rounds = rounds  # INPUT_ROUNDS lists of (job, inputs)
        self.finish = finish  # post-run checks, after peak memory is read


# -- project-generic ------------------------------------------------------------

# name, kind, params, degree, codimension, centers per round; all have
# minimal degree, and so have their images (one degree and one codimension
# less).  Two centers each on the two fixtures of middle cost put the median
# job among their jobs, where a run holds many samples.
PROJECT_FIXTURES = (
    ("rnc5", "rnc", (5,), 5, 4, 1),
    ("scroll22", "scroll", (2, 2), 4, 3, 2),
    ("scroll23", "scroll", (2, 3), 5, 4, 1),
    ("segre12", "segre", (1, 2), 3, 2, 1),
    ("veronese22", "veronese", (2, 2), 4, 3, 2),
)


def _project_run(doc):
    ideal = doc.to_ideal()
    return ip.inner_project(ip.pointed(ideal, doc.point("c")))


def _project_summary(out, inputs):
    image, rep = out
    return {
        "report": {k: getattr(rep, k) for k in (
            "degree_before", "degree_after", "codim_before", "codim_after",
            "beta02_before", "beta02_after", "pd_before", "pd_after",
            "depth_before", "depth_after")},
        "image_ideal_table": _table(ip.ideal_table(image)),
        "image_quotient_table": _table(ip.quotient_table(image)),
        "image_hilbert_numerator": ip.hilbert(image).numerator,
    }


def project_generic(rng):
    fixtures = {}
    rounds = [[] for _ in range(INPUT_ROUNDS)]
    kept = []  # (fixture name, image ideal table) for the e0 comparison
    for name, kind, params, degree, codim, per_round in PROJECT_FIXTURES:
        base = ip.gen_variety(kind, params)
        fixtures[name] = {"doc": round_trip(base), "degree": degree, "codim": codim}
        fx = fixtures[name]

        def check(res, fx=fx, name=name):
            kept.append((name, res["image_ideal_table"]))
            return checks.check_projection(res, fx)

        job = Job("project %s" % name, _project_run, _project_summary, check)
        for r in range(INPUT_ROUNDS):
            for _ in range(per_round):
                center = POINTS[kind](rng, *params)
                doc = ip.document(base.varnames, base.gens, char=base.char,
                                  weights=base.weights, meta=base.meta,
                                  points=base.points + (("c", center),))
                rounds[r].append((job, round_trip(doc)))

    def finish():
        probs = []
        e0_tables = {}
        for name, table in kept:
            if name not in e0_tables:
                doc = fixtures[name]["doc"]
                image, _ = ip.inner_project(ip.pointed(doc.to_ideal(), doc.point("p0")))
                e0_tables[name] = _table(ip.ideal_table(image))
            probs += ["%s: %s" % (name, p) for p in checks.check_same_as_e0(
                {"image_ideal_table": table}, e0_tables[name])]
        return probs

    return Workload(rounds, finish)


# -- mapping-cone ---------------------------------------------------------------

CONE_FIXTURES = (
    ("rnc4", "rnc", (4,), {"cls": "minimal", "codim": 3}),
    ("rnc5", "rnc", (5,), {"cls": "minimal", "codim": 4}),
    ("scroll22", "scroll", (2, 2), {"cls": "minimal", "codim": 3}),
    ("segre12", "segre", (1, 2), {"cls": "minimal", "codim": 2}),
    ("two_planes", "two_planes_p4", (), {"cls": "two_planes", "codim": 2,
                                         "nvars": 5, "pd": 3, "depth": 2}),
)
FAMILIES = (("quotient", ip.quotient_spec), ("ideal", ip.ideal_spec))
EMBED_LEVEL = 4  # rnc(5) satisfies N_{2,4}; its image from e0 is rnc(4)


def torus_scaled(doc, rng):
    """The fixture under a random diagonal change of coordinates: other
    coefficients, the same weights, and e0 still on the variety."""
    ideal = doc.to_ideal()
    n = ideal.ring.nvars
    diag = [[_nonzero(rng) if i == j else 0 for j in range(n)] for i in range(n)]
    moved = geometry.apply_change_to_ideal(ideal, ip.LinearChange(ideal.ring, diag))
    return ip.from_ideal(moved, points=doc.points, meta=doc.meta)


def _cone_run(famname, fam):
    def run(doc):
        ideal = doc.to_ideal()
        spec_r, spec_s = fam(ideal, over="full"), fam(ideal, over="tail")
        return [ip.mapping_cone_identity(spec_r, spec_s, i, j)
                for i in range(checks.CONE_WINDOW) for j in range(checks.CONE_WINDOW)]
    return run


def _cone_summary(famname):
    def summarize(verdicts, inputs):
        return {"family": famname,
                "slots": [(v.i, v.j, v.lhs, v.coker, v.ker) for v in verdicts]}
    return summarize


def _embed_run(doc):
    big = doc.to_ideal()
    image = ip.eliminate(big)
    return [ip.tor_inclusion_map(image, big, i, j)
            for i in range(EMBED_LEVEL - 1) for j in (2, 3)]


def _embed_summary(reports, inputs):
    return {"maps": [(r.i, r.j_source, r.source_dim, r.rank) for r in reports]}


def mapping_cone(rng):
    rounds = [[] for _ in range(INPUT_ROUNDS)]
    for name, kind, params, fx in CONE_FIXTURES:
        base = ip.gen_variety(kind, params)
        docs = [round_trip(torus_scaled(base, rng)) for _ in range(INPUT_ROUNDS)]
        for famname, fam in FAMILIES:
            job = Job("cone %s %s" % (name, famname), _cone_run(famname, fam),
                      _cone_summary(famname),
                      lambda res, fx=fx: checks.check_cone(res, fx))
            for r in range(INPUT_ROUNDS):
                rounds[r].append((job, docs[r]))
    embed = Job("embed rnc5", _embed_run, _embed_summary,
                lambda res: checks.check_embedding(res, EMBED_LEVEL, 3))
    base = ip.rnc(5)
    for r in range(INPUT_ROUNDS):
        rounds[r].append((embed, round_trip(torus_scaled(base, rng))))
    return Workload(rounds, lambda: [])


# -- groebner-generic -----------------------------------------------------------

# name, kind, params, degree, jobs per round; the reduced bases of the
# smallest are compared with sympy's.  Three jobs each on the two smallest
# fixtures put the median job in the middle of the veronese22 jobs, where a
# run holds several samples of it.
GROEBNER_FIXTURES = (
    ("rnc8", "rnc", (8,), 8, 1),
    ("scroll33", "scroll", (3, 3), 6, 1),
    ("scroll23", "scroll", (2, 3), 5, 1),
    ("veronese22", "veronese", (2, 2), 4, 3),
    ("segre12", "segre", (1, 2), 3, 3),
)
SYMPY_FIXTURES = ("veronese22", "segre12")
POINTS_PER_JOB = 3


def _groebner_run(inputs):
    doc, matrix, _ = inputs
    ideal = doc.to_ideal()
    moved = geometry.apply_change_to_ideal(ideal, ip.LinearChange(ideal.ring, matrix))
    grevlex = moved.groebner(ip.GrevLex())
    block = moved.groebner(ip.Block(front=1))
    image = ip.eliminate(moved)
    filt = ip.stabilization(moved)
    dims = [ip.dimension_identity(filt, m) for m in range(9)]
    return moved, grevlex, block, image, dims, ip.hilbert(moved), ip.hilbert(image)


def _groebner_summary(out, inputs):
    moved, grevlex, block, image, dims, hd, hd_image = out
    return {
        "gens": [_terms(g) for g in moved.gens],
        "grevlex": [_terms(g) for g in grevlex],
        "block": [_terms(g) for g in block],
        "elim_gens": [_terms(g) for g in image.gens],
        "image_points": inputs[2],
        "hilbert_numerator": hd.numerator,
        "elim_degree": hd_image.degree,
        "dimension_identity": [(d.m, d.ideal_dim, d.total) for d in dims],
    }


def random_change(rng, n):
    while True:
        mat = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        inv = mat_inverse(mat)
        if inv is not None:
            return mat, inv


def groebner_generic(rng):
    rounds = [[] for _ in range(INPUT_ROUNDS)]
    for_sympy = []
    for name, kind, params, degree, per_round in GROEBNER_FIXTURES:
        base = ip.gen_variety(kind, params)
        fx = {"degree": degree, "doc": base}

        def check(res, fx=fx, name=name):
            if "hilbert_numerator" not in fx:
                fx["hilbert_numerator"] = ip.hilbert(fx["doc"].to_ideal()).numerator
            if name in SYMPY_FIXTURES:
                for_sympy.append((name, res["gens"], res["grevlex"], fx["doc"].varnames))
            return checks.check_groebner_job(res, fx, P)

        job = Job("groebner %s" % name, _groebner_run, _groebner_summary, check)
        doc = round_trip(base)
        n = len(doc.varnames)
        for r in range(INPUT_ROUNDS):
            for _ in range(per_round):
                mat, inv = random_change(rng, n)
                # x = M y on the moved ideal, so a point x of the variety sits
                # at y = M^-1 x, and eliminating y0 keeps y[1:].
                pts = []
                for _ in range(POINTS_PER_JOB):
                    x = POINTS[kind](rng, *params)
                    y = [sum(inv[i][k] * x[k] for k in range(n)) % P for i in range(n)]
                    pts.append(tuple(y[1:]))
                rounds[r].append((job, (doc, mat, pts)))

    def finish():
        import sympy

        probs = []
        for name, gens, basis, varnames in for_sympy:
            xs = sympy.symbols(" ".join(varnames))
            polys = [sympy.Add(*[c * sympy.Mul(*[x ** e for x, e in zip(xs, ev)])
                                 for ev, c in g.items()]) for g in gens]
            ref = sympy.groebner(polys, *xs, order="grevlex", modulus=P)
            reference = [{ev: int(c) % P for ev, c in q.terms()} for q in ref.polys]
            probs += checks.check_against_reference("%s grevlex" % name, basis, reference)
        return probs

    return Workload(rounds, finish)


WORKLOADS = {
    "project-generic": project_generic,
    "mapping-cone": mapping_cone,
    "groebner-generic": groebner_generic,
}


def build(name, seed):
    return WORKLOADS[name](random.Random("%s/%d" % (name, seed)))
