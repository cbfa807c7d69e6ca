"""Graded module presentations for the homology engine.

Every module here is presented degree by degree: an ordered basis for each
graded piece plus sparse columns for multiplication by each ring variable.
That interface covers infinitely generated situations (an ideal viewed as
a module over the subring missing the projection variable, quotients of
one ideal by another) just as well as cyclic ones.

Bases are triangular and canonical.  For an ideal I with reduced Groebner
basis G under the front-block order, the degree-d piece has basis
    f_u = u - NF(u),   u running over the degree-d leading-term monomials,
which is triangular with respect to the order.  Under the block order the
front-free u give exactly a basis of the pieces of the eliminated ideal,
so subquotient and filtration-step bases are the front-divisible u.  NF(u)
has only standard monomials, so u is the one leading-term monomial of f_u,
with coefficient 1: expressing an element of I_d in the basis is a
coefficient read, the coordinate on f_u being the coefficient of u.  The
same basis gives R/I its multiplication, since NF(u) = u - f_u.
"""

from .monomial import Block, GrevLex, minimalize, mono_divides, monomials_of_degree


class _IdealPieces:
    """Shared per-ideal cache of leading-term monomials and triangular
    basis polynomials."""

    def __init__(self, ideal):
        self.ideal = ideal
        self.ring = ideal.ring
        self.order = Block(front=1) if ideal.ring.nvars > 1 else GrevLex()
        self.gb = ideal.groebner(self.order)
        self.min_lt = minimalize(self.gb.leading_exponents())
        self._lt = {}
        self._fs = {}
        self._index = {}

    def lt_monomials(self, d):
        """Degree-d monomials of the leading-term ideal, descending in the
        basis order."""
        if d not in self._lt:
            if d < 0:
                mons = ()
            else:
                mons = tuple(
                    sorted(
                        (
                            m
                            for m in monomials_of_degree(self.ring.nvars, d)
                            if any(mono_divides(g, m) for g in self.min_lt)
                        ),
                        key=self.order.key,
                        reverse=True,
                    )
                )
            self._lt[d] = mons
            self._index[d] = {u: k for k, u in enumerate(mons)}
        return self._lt[d]

    def index(self, d):
        self.lt_monomials(d)
        return self._index[d]

    def basis_poly(self, d, u):
        """f_u = u - NF(u): the canonical element of I_d with leading term u."""
        f = self._fs.get(u)
        if f is None:
            mono = self.ring.monomial(u)
            f = mono - self.gb.normal_form(mono)
            self._fs[u] = f
        return f

    def expand(self, h, d):
        """Coefficients of h in the degree-d triangular basis, as a sparse
        dict {basis index: coefficient}.  h must lie in I_d.  u is the one
        leading-term monomial of f_u, so the coefficient of f_u in h is
        the coefficient of u in h."""
        index = self.index(d)
        return {index[ev]: c for ev, c in h.terms.items() if ev in index}


class GradedModuleSpec:
    """Degreewise basis + multiplication presentation of a graded module
    built from one ideal, with the ideal's shared pieces.

    acting: indices of the variables the homology engine may wedge over.
    Multiplication by ring variable 0, the projection center, is always
    available besides the acting roster: as a module map, or as the
    canonical section when x0_section is set.  finitely_generated is
    0 in acting: every module here is finitely generated over the full
    ring, and over the subring missing the center it is in general not,
    so there the flag is False and every Betti window counts as truncated.
    """

    def __init__(self, label, ideal, acting, x0_section=False):
        self.label = label
        self.ideal = ideal
        self.ring = ideal.ring
        self.pieces = _cached(ideal, ("pieces",), lambda: _IdealPieces(ideal))
        self.acting = tuple(acting)
        self.finitely_generated = 0 in self.acting
        self.x0_section = x0_section
        self._piece = {}
        self._mult = {}
        self._weights_on = None

    # subclass hooks -------------------------------------------------------
    def _compute_piece(self, d):
        raise NotImplementedError

    def _compute_mult(self, v, d):
        raise NotImplementedError

    def _weights_valid(self):
        return self.ideal.is_multihomogeneous()

    # public ---------------------------------------------------------------
    def piece(self, d):
        if d not in self._piece:
            self._piece[d] = tuple(self._compute_piece(d)) if d >= 0 else ()
        return self._piece[d]

    def dim(self, d):
        return len(self.piece(d))

    def mult(self, v, d):
        """Columns of multiplication by variable v from piece(d) to
        piece(d+1); one sparse dict per source basis vector."""
        if v not in self.acting and v != 0:
            raise ValueError("%s: variable %d outside the acting roster" % (self.label, v))
        key = (v, d)
        if key not in self._mult:
            self._mult[key] = self._compute_mult(v, d)
        return self._mult[key]

    def use_weights(self):
        if self._weights_on is None:
            self._weights_on = self.ring.weights is not None and self._weights_valid()
        return self._weights_on

    def weight(self, d, k):
        """Multiweight of the k-th basis vector of piece(d), or () when
        weights are off (everything then lands in one block)."""
        if not self.use_weights():
            return ()
        return self.ring.mono_weight(self.piece(d)[k])

    def __repr__(self):
        return "GradedModuleSpec(%s)" % self.label


class _IdealModuleSpec(GradedModuleSpec):
    """An ideal I of R as a graded module, over R itself or over the
    subring on the acting variables."""

    def _compute_piece(self, d):
        return self.pieces.lt_monomials(d)

    def _compute_mult(self, v, d):
        xs = self.ring.var(v)
        cols = []
        for u in self.piece(d):
            cols.append(self.pieces.expand(xs * self.pieces.basis_poly(d, u), d + 1))
        return cols


class _QuotientRingSpec(GradedModuleSpec):
    """R/I with standard-monomial bases; x_v * m is u = m x_v when u is
    standard, and NF(u) = u - f_u off the cached basis otherwise."""

    def _compute_piece(self, d):
        lt = self.pieces.index(d)
        return sorted(
            (m for m in monomials_of_degree(self.ring.nvars, d) if m not in lt),
            key=self.pieces.order.key,
            reverse=True,
        )

    def _compute_mult(self, v, d):
        index = {m: k for k, m in enumerate(self.piece(d + 1))}
        p = self.ring.char
        cols = []
        for m in self.piece(d):
            u = m[:v] + (m[v] + 1,) + m[v + 1:]
            if u in index:
                cols.append({index[u]: 1})
            else:
                f = self.pieces.basis_poly(d + 1, u)
                cols.append({index[ev]: -c % p for ev, c in f.terms.items() if ev != u})
        return cols


class _FiltrationStepSpec(GradedModuleSpec):
    """The subquotient of elements with front-degree between 1 and step,
    modulo the front-free part, as a module over the acting (front-free)
    variables: basis u with 1 <= d0(u) <= step.  With step None there is
    no upper bound and the module is I / (I intersect front-free subring).

    Multiplication by an acting variable is the ideal multiplication
    followed by dropping front-free basis components (the quotient
    projection).  Multiplication by the front variable itself is not
    module-theoretic here; the columns produced for v=0 are the canonical
    section push x0*f_u followed by projection (clamped at the step),
    meaningful on homology under the quadratic/smooth hypotheses and
    flagged by x0_section.  Both project the ideal's shared columns.
    """

    def __init__(self, ideal, step):
        label = "subquotient" if step is None else "filtration<=%d" % step
        super().__init__(label, ideal, range(1, ideal.ring.nvars), x0_section=True)
        self.step = step

    def _in_window(self, u):
        return u[0] >= 1 and (self.step is None or u[0] <= self.step)

    def _compute_piece(self, d):
        return tuple(u for u in self.pieces.lt_monomials(d) if self._in_window(u))

    def _compute_mult(self, v, d):
        tgt_index = {u: k for k, u in enumerate(self.piece(d + 1))}
        full_tgt = self.pieces.lt_monomials(d + 1)
        full_cols = ideal_spec(self.ideal).mult(v, d)
        cols = []
        for u, full in zip(self.pieces.lt_monomials(d), full_cols):
            if not self._in_window(u):
                continue
            col = {}
            for k, c in full.items():
                w = full_tgt[k]
                if w[0] == 0:
                    continue
                if not self._in_window(w):
                    # acting variables never raise the front degree; only the
                    # v=0 section can overflow the step, and it clamps
                    if v != 0:
                        raise AssertionError(
                            "filtration violated: %r escaped step %d" % (w, self.step)
                        )
                    continue
                col[tgt_index[w]] = c
            cols.append(col)
        return cols


def _cached(ideal, key, builder):
    """Specs, and the one _IdealPieces they share, are cached on the ideal
    so repeated requests share piece and homology caches (one source of
    truth per slot)."""
    cache = ideal.__dict__.setdefault("_specs", {})
    if key not in cache:
        cache[key] = builder()
    return cache[key]


def _ring_spec(cls, kind, ideal, over):
    """The `kind` module over the full ring ('full') or over the subring on
    the non-front variables ('tail').  Both rosters present the same graded
    vector space with the same multiplication, so the two specs share one
    piece cache and one mult cache."""

    def build():
        acting = range(0 if over == "full" else 1, ideal.ring.nvars)
        spec = cls("%s/%s" % (kind, over), ideal, acting)
        spec._piece, spec._mult = _cached(
            ideal, (kind, "caches"), lambda: (spec._piece, spec._mult)
        )
        return spec

    return _cached(ideal, (kind, over), build)


def ideal_spec(ideal, over="full"):
    """I as a module over the full ring ('full') or over the subring on
    the non-front variables ('tail')."""
    return _ring_spec(_IdealModuleSpec, "ideal", ideal, over)


def quotient_spec(ideal, over="full"):
    """R/I as a module over the full ring or the non-front subring."""
    return _ring_spec(_QuotientRingSpec, "quotient", ideal, over)


def subquotient_spec(ideal):
    """I modulo its front-free part, over the non-front variables."""
    if ideal.ring.nvars < 2:
        raise ValueError("subquotient needs at least two variables")
    return _cached(ideal, ("subquotient",), lambda: _FiltrationStepSpec(ideal, None))


def filtration_step_spec(ideal, step):
    if step < 1:
        raise ValueError("filtration step must be >= 1")
    return _cached(ideal, ("filtration", step), lambda: _FiltrationStepSpec(ideal, step))
