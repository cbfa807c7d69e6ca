"""Hilbert series, dimension, degree and delta from leading-term ideals.

The numerator N(t) with HS(R/I) = N(t)/(1-t)^n is computed from the
monomial ideal of leading terms by the standard pivot-splitting recursion
  N(M) = N(M + (x)) + t * N(M : x)
on a most-frequent variable x.  Numerator coefficients live in Z: the
series of the quotient by the leading-term ideal is a purely combinatorial
object, independent of the coefficient field.
"""

from dataclasses import dataclass
from math import comb

from .monomial import GrevLex, minimalize, mono_divides, monomials_of_degree, total_degree


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a, b, shift=0):
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        out[shift + j] += y
    return out


def _numerator(gens, memo):
    """Numerator for the quotient by the monomial ideal with the given
    minimal generators (exponent tuples)."""
    if not gens:
        return [1]
    key = gens
    hit = memo.get(key)
    if hit is not None:
        return hit
    if any(total_degree(g) == 0 for g in gens):
        return [0]
    supports = [[i for i, e in enumerate(g) if e] for g in gens]
    if all(len(s) == 1 for s in supports):
        # pairwise distinct variables by minimality: product formula
        out = [1]
        for g in gens:
            d = total_degree(g)
            factor = [1] + [0] * (d - 1) + [-1]
            out = _poly_mul(out, factor)
        memo[key] = out
        return out
    counts = {}
    for s in supports:
        if len(s) > 1:
            for i in s:
                counts[i] = counts.get(i, 0) + 1
    pivot = max(sorted(counts), key=lambda i: counts[i])
    plus = minimalize(
        [g for g in gens if g[pivot] == 0]
        + [tuple(1 if i == pivot else 0 for i in range(len(gens[0])))]
    )
    colon = minimalize(
        [tuple(e - 1 if i == pivot and e > 0 else e for i, e in enumerate(g)) for g in gens]
    )
    out = _poly_add(_numerator(plus, memo), _numerator(colon, memo), shift=1)
    while out and out[-1] == 0:
        out.pop()
    memo[key] = out
    return out


@dataclass(frozen=True)
class HilbertData:
    """Numerical invariants of R/I read off the Hilbert series.

    numerator: coefficients of N(t) with HS(R/I) = N(t)/(1-t)^nvars.
    dim_proj:  dimension of the projective scheme (-1 when empty).
    degree:    value of the reduced numerator at t=1.
    codim:     projective codimension, nvars - 1 - dim_proj.
    delta:     degree - codim.
    """

    nvars: int
    numerator: tuple
    dim_proj: int
    degree: int
    codim: int
    delta: int

    def hilbert_function(self, d):
        """Dimension of (R/I)_d, the number of standard monomials."""
        if d < 0:
            return 0
        n = self.nvars
        total = 0
        for k, c in enumerate(self.numerator):
            if k <= d and c:
                total += c * comb(n - 1 + d - k, n - 1)
        return total

    def hf_table(self, upto):
        return [self.hilbert_function(d) for d in range(upto + 1)]


def hilbert(ideal):
    """HilbertData of R/ideal; uses the grevlex leading-term ideal.
    Cached per ideal instance (the series is re-read by every report)."""
    cached = ideal.__dict__.get("_hilbert")
    if cached is not None:
        return cached
    n = ideal.ring.nvars
    gens = minimalize(ideal.groebner(GrevLex()).leading_exponents())
    num = _numerator(gens, {})
    while num and num[-1] == 0:
        num.pop()
    reduced = list(num)
    c = 0
    while reduced and sum(reduced) == 0:
        # exact division by (1 - t)
        q = []
        acc = 0
        for x in reduced:
            acc += x
            q.append(acc)
        assert q and q[-1] == 0
        q.pop()
        reduced = q
        c += 1
    degree = sum(reduced)
    if not num:
        # unit ideal: empty scheme
        data = HilbertData(n, (), -1, 0, n, -n)
    else:
        dim_affine = n - c
        dim_proj = dim_affine - 1
        codim = n - dim_affine
        data = HilbertData(n, tuple(num), dim_proj, degree, codim, degree - codim)
    ideal.__dict__["_hilbert"] = data
    return data


def standard_monomial_count(lead_exponents, nvars, d):
    """Brute-force count of degree-d monomials outside the monomial ideal;
    independent check for hilbert_function."""
    lead = minimalize(lead_exponents)
    return sum(
        1
        for m in monomials_of_degree(nvars, d)
        if not any(mono_divides(g, m) for g in lead)
    )
