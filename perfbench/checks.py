"""Correctness checks for the benchmark's job results.

Every check takes plain data (dicts, tuples, term dicts) and returns a list
of problems, empty when the result is right.  Expected values come from
closed forms, from a second computation along an independent path, or from
a property the method must have; none of them reuses the code path that
produced the value under test.
"""

from math import comb


# -- closed-form Betti tables ------------------------------------------------
# Tables are dicts {(i, j): beta} of nonzero entries, with (i, j) the slot of
# Tor_i in degree i + j, as innerproj.tor.BettiTable numbers them.

def minimal_degree_ideal_table(e):
    """Eagon-Northcott: a variety of minimal degree in codimension e has
    beta_{i,2}(I) = (i+1) * C(e+1, i+2) for 0 <= i < e, nothing else."""
    return {(i, 2): (i + 1) * comb(e + 1, i + 2) for i in range(e)}


# (x0, x1) * (x2, x3), the edge ideal of the complete bipartite graph K_{2,2}:
# four quadrics with a linear resolution 4 <- 4 <- 1, so the quotient has
# pd 3 and depth 5 - 3 = 2.
TWO_PLANES_IDEAL_TABLE = {(0, 2): 4, (1, 2): 4, (2, 2): 1}


def quotient_from_ideal_table(ideal_table):
    """beta_{i,j}(R/I) = beta_{i-1,j+1}(I) for i >= 1, and beta_{0,0} = 1."""
    out = {(0, 0): 1}
    for (i, j), v in ideal_table.items():
        out[(i + 1, j - 1)] = v
    return out


def ideal_table_for(cls, e):
    if cls == "minimal":
        return minimal_degree_ideal_table(e)
    if cls == "two_planes":
        return dict(TWO_PLANES_IDEAL_TABLE)
    raise ValueError("no closed form for class %r" % cls)


def numerator_from_quotient_table(table):
    """N(t) = sum (-1)^i beta_{i,j} t^(i+j): the Hilbert numerator that the
    quotient resolution gives, trailing zeros stripped."""
    top = max((i + j for (i, j) in table), default=0)
    num = [0] * (top + 1)
    for (i, j), v in table.items():
        num[i + j] += -v if i % 2 else v
    while num and num[-1] == 0:
        num.pop()
    return tuple(num)


def _table_diff(label, got, want):
    keys = sorted(set(got) | set(want))
    bad = [(k, got.get(k, 0), want.get(k, 0)) for k in keys if got.get(k, 0) != want.get(k, 0)]
    if not bad:
        return []
    return ["%s: slot %r is %d, want %d" % (label, k, g, w) for k, g, w in bad[:4]]


# -- project-generic -----------------------------------------------------------

def check_projection(res, fixture):
    """res: the summary of one projection job (workloads._project_summary);
    fixture: the degree and codimension of the fixture, of minimal degree."""
    probs = []
    rep = res["report"]
    e = fixture["codim"]
    if (rep["degree_before"], rep["codim_before"]) != (fixture["degree"], e):
        probs.append("source degree/codim %r, want %r"
                     % ((rep["degree_before"], rep["codim_before"]), (fixture["degree"], e)))
    if rep["degree_after"] != rep["degree_before"] - 1:
        probs.append("degree %d -> %d does not drop by one"
                     % (rep["degree_before"], rep["degree_after"]))
    if rep["codim_after"] != rep["codim_before"] - 1:
        probs.append("codim %d -> %d does not drop by one"
                     % (rep["codim_before"], rep["codim_after"]))
    if rep["beta02_before"] - rep["beta02_after"] != rep["codim_before"]:
        probs.append("quadrics %d -> %d do not drop by the codimension %d"
                     % (rep["beta02_before"], rep["beta02_after"], rep["codim_before"]))
    if rep["pd_after"] != rep["pd_before"] - 1:
        probs.append("pd %d -> %d does not drop by one" % (rep["pd_before"], rep["pd_after"]))
    if rep["depth_after"] != rep["depth_before"]:
        probs.append("depth %d -> %d not preserved" % (rep["depth_before"], rep["depth_after"]))
    # The image of a smooth inner projection of a minimal-degree variety
    # has minimal degree again, one codimension down.
    want = minimal_degree_ideal_table(e - 1)
    probs += _table_diff("image ideal table", res["image_ideal_table"], want)
    num = numerator_from_quotient_table(res["image_quotient_table"])
    if num != tuple(res["image_hilbert_numerator"]):
        probs.append("quotient table gives numerator %r, hilbert gives %r"
                     % (num, tuple(res["image_hilbert_numerator"])))
    return probs


def check_same_as_e0(res, e0_table):
    """The image table from a random center against the one from e0, which
    runs on the weighted fixture and so through the weight-blocked ranks."""
    return _table_diff("image table against the e0 projection", res["image_ideal_table"], e0_table)


# -- mapping-cone -------------------------------------------------------------

CONE_WINDOW = 6


def check_cone(res, fixture):
    """res["slots"]: (i, j, lhs, coker, ker) for every slot of the window."""
    probs = []
    slots = res["slots"]
    want_slots = {(i, j) for i in range(CONE_WINDOW) for j in range(CONE_WINDOW)}
    got_slots = [(i, j) for i, j, _, _, _ in slots]
    if len(got_slots) != len(want_slots) or set(got_slots) != want_slots:
        probs.append("%d slots checked, want the %d of the %dx%d window"
                     % (len(got_slots), len(want_slots), CONE_WINDOW, CONE_WINDOW))
    for i, j, lhs, coker, ker in slots:
        if lhs != coker + ker:
            probs.append("slot (%d,%d): %d != %d + %d" % (i, j, lhs, coker, ker))
    table = {(i, j): lhs for i, j, lhs, _, _ in slots if lhs}
    ideal = ideal_table_for(fixture["cls"], fixture["codim"])
    want = ideal if res["family"] == "ideal" else quotient_from_ideal_table(ideal)
    probs += _table_diff("%s table over the full ring" % res["family"], table, want)
    if res["family"] == "quotient" and "pd" in fixture:
        pd = max((i for (i, _) in table), default=0)
        depth = fixture["nvars"] - pd
        if (pd, depth) != (fixture["pd"], fixture["depth"]):
            probs.append("pd, depth = %r, want %r" % ((pd, depth), (fixture["pd"], fixture["depth"])))
    return probs


def check_embedding(res, level, image_codim):
    """res["maps"]: (i, j, source_dim, rank) of the induced map from the
    projected ideal's Tor into the source's.  The embedded-syzygies theorem
    makes it injective for i <= level - 2 in rows 2 and 3; the source
    dimensions are the image's Eagon-Northcott numbers."""
    probs = []
    want_slots = [(i, j) for i in range(level - 1) for j in (2, 3)]
    got_slots = [(i, j) for i, j, _, _ in res["maps"]]
    if got_slots != want_slots:
        probs.append("maps at %r, want %r" % (got_slots, want_slots))
    en = minimal_degree_ideal_table(image_codim)
    for i, j, src, rank in res["maps"]:
        if rank != src:
            probs.append("map at (%d,%d) has rank %d on a %d-dim source" % (i, j, rank, src))
        if src != en.get((i, j), 0):
            probs.append("source at (%d,%d) is %d, want %d" % (i, j, src, en.get((i, j), 0)))
    return probs


# -- groebner-generic ---------------------------------------------------------
# Polynomials are term dicts {exponent tuple: coefficient mod p}.  The order
# keys and the division below are written here from the definitions, apart
# from innerproj.monomial and innerproj.groebner.

def grevlex_key(ev):
    return (sum(ev), tuple(-e for e in reversed(ev)))


def block_key(ev):
    """One front variable, compared first; grevlex on the rest."""
    return (ev[0], grevlex_key(ev[1:]))


def _lead(f, key):
    return max(f, key=key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reduce_full(f, basis, key, p):
    """Remainder of f on division by basis (full reduction)."""
    leads = [(_lead(g, key), g) for g in basis]
    work = dict(f)
    rem = {}
    while work:
        ev = max(work, key=key)
        c = work.pop(ev)
        for lt, g in leads:
            if _divides(lt, ev):
                mult = c * pow(g[lt], p - 2, p) % p
                shift = tuple(x - y for x, y in zip(ev, lt))
                for gev, gc in g.items():
                    if gev == lt:
                        continue
                    t = tuple(x + y for x, y in zip(gev, shift))
                    v = (work.get(t, 0) - mult * gc) % p
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            rem[ev] = c
    return rem


def s_pair(f, g, key, p):
    lf, lg = _lead(f, key), _lead(g, key)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))
    out = {}
    for h, lt, sign in ((f, lf, 1), (g, lg, -1)):
        scale = sign * pow(h[lt], p - 2, p)
        shift = tuple(x - y for x, y in zip(lcm, lt))
        for ev, c in h.items():
            t = tuple(x + y for x, y in zip(ev, shift))
            v = (out.get(t, 0) + scale * c) % p
            if v:
                out[t] = v
            else:
                out.pop(t, None)
    return out


def _s_pairs_to_check(leads):
    """Pairs whose S-polynomials must be reduced to certify Buchberger's
    criterion.  A pair with coprime leading terms reduces to zero by the
    product criterion.  A pair (a, b) whose lcm is divisible by the leading
    term of some k is implied by (a, k) and (b, k) (the chain criterion), used
    only when both of those were themselves reduced or coprime, so that no
    pair is ever justified by a skipped one."""
    verified = set()
    out = []
    for b in range(len(leads)):
        for a in range(b):
            la, lb = leads[a], leads[b]
            if all(min(x, y) == 0 for x, y in zip(la, lb)):
                verified.add((a, b))
                continue
            lcm = tuple(max(x, y) for x, y in zip(la, lb))
            if any(k not in (a, b) and _divides(leads[k], lcm)
                   and (min(a, k), max(a, k)) in verified
                   and (min(b, k), max(b, k)) in verified
                   for k in range(len(leads))):
                continue
            verified.add((a, b))
            out.append((a, b))
    return out


def check_reduced_basis(label, basis, gens, key, p):
    """A reduced Groebner basis of (gens): every generator and every S-pair
    reduces to zero (Buchberger's criterion, pairs pruned as in
    _s_pairs_to_check), every element is monic, and no term of an element is
    divisible by the leading term of another."""
    probs = []
    if not basis:
        return ["%s: empty basis" % label]
    leads = [_lead(g, key) for g in basis]
    for k, (g, lt) in enumerate(zip(basis, leads)):
        if g[lt] != 1:
            probs.append("%s: element %d is not monic" % (label, k))
        for m, other in enumerate(leads):
            if m != k and any(_divides(other, ev) for ev in g):
                probs.append("%s: element %d is not reduced by element %d" % (label, k, m))
                break
    for k, f in enumerate(gens):
        if reduce_full(f, basis, key, p):
            probs.append("%s: generator %d does not reduce to zero" % (label, k))
    for a, b in _s_pairs_to_check(leads):
        if reduce_full(s_pair(basis[a], basis[b], key, p), basis, key, p):
            probs.append("%s: S-pair (%d,%d) does not reduce to zero" % (label, a, b))
    return probs


def evaluate(f, point, p):
    total = 0
    for ev, c in f.items():
        v = c
        for x, e in zip(point, ev):
            if e:
                v = v * pow(x, e, p) % p
        total += v
    return total % p


def check_groebner_job(res, fixture, p):
    probs = []
    probs += check_reduced_basis("grevlex basis", res["grevlex"], res["gens"], grevlex_key, p)
    probs += check_reduced_basis("block basis", res["block"], res["gens"], block_key, p)
    # The generators reducing to zero put the ideal inside each basis' span;
    # equal Hilbert series (below) close the grevlex side, and membership of
    # every block element in it closes the block side.
    for k, g in enumerate(res["block"]):
        if reduce_full(g, res["grevlex"], grevlex_key, p):
            probs.append("block basis: element %d is outside the ideal" % k)
    if tuple(res["hilbert_numerator"]) != tuple(fixture["hilbert_numerator"]):
        probs.append("Hilbert numerator %r, the weighted original has %r"
                     % (tuple(res["hilbert_numerator"]), tuple(fixture["hilbert_numerator"])))
    if not res["elim_gens"]:
        probs.append("eliminated ideal has no generators")
    for k, pt in enumerate(res["image_points"]):
        if any(evaluate(g, pt, p) for g in res["elim_gens"]):
            probs.append("an eliminated generator does not vanish at image point %d" % k)
    if res["elim_degree"] != fixture["degree"]:
        probs.append("elimination image has degree %d, want %d"
                     % (res["elim_degree"], fixture["degree"]))
    dims = res["dimension_identity"]
    if [m for m, _, _ in dims] != list(range(9)):
        probs.append("dimension identity checked in degrees %r, want 0..8" % [m for m, _, _ in dims])
    for m, lhs, total in dims:
        if lhs != total:
            probs.append("dimension identity fails in degree %d: %d != %d" % (m, lhs, total))
    return probs


def check_against_reference(label, basis, reference):
    """The reduced basis against one computed by another program; both are
    canonical for the order, so they agree as sets of term dicts."""
    got = {tuple(sorted(g.items())) for g in basis}
    want = {tuple(sorted(g.items())) for g in reference}
    if got == want:
        return []
    return ["%s: %d elements differ from the reference basis" % (label, len(got ^ want))]
