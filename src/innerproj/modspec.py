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
so subquotient and filtration-step bases are the front-divisible u, and
expressing any element of I_d in the basis is leading-term stripping.
"""

from .monomial import Block, GrevLex, mono_divides, monomials_of_degree


class _IdealPieces:
    """Shared per-ideal cache of leading-term monomials, triangular basis
    polynomials and expansion helpers."""

    def __init__(self, ideal):
        self.ideal = ideal
        self.ring = ideal.ring
        self.order = Block(front=1) if ideal.ring.nvars > 1 else GrevLex()
        self.gb = ideal.groebner(self.order)
        self._min_lt = None
        self._lt = {}
        self._fs = {}
        self._index = {}

    def minimal_lt(self):
        if self._min_lt is None:
            lead = list(self.gb.leading_exponents())
            keep = []
            for g in sorted(lead, key=lambda e: (sum(e), e)):
                if not any(mono_divides(h, g) for h in keep):
                    keep.append(g)
            self._min_lt = tuple(keep)
        return self._min_lt

    def lt_monomials(self, d):
        """Degree-d monomials of the leading-term ideal, descending in the
        basis order."""
        if d not in self._lt:
            if d < 0:
                mons = ()
            else:
                gens = self.minimal_lt()
                mons = tuple(
                    sorted(
                        (
                            m
                            for m in monomials_of_degree(self.ring.nvars, d)
                            if any(mono_divides(g, m) for g in gens)
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
        dict {basis index: coefficient}.  h must lie in I_d."""
        index = self.index(d)
        p = self.ring.char
        work = dict(h.terms)
        out = {}
        while work:
            ev = max(work, key=self.order.key)
            k = index.get(ev)
            if k is None:
                raise ValueError("element not in the ideal piece: stray term %r" % (ev,))
            c = work[ev]
            out[k] = c
            for tev, tc in self.basis_poly(d, ev).terms.items():
                v = (work.get(tev, 0) - c * tc) % p
                if v:
                    work[tev] = v
                else:
                    work.pop(tev, None)
        return out


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
    """R/I with standard-monomial bases; multiplication is normal form."""

    def _compute_piece(self, d):
        if d < 0:
            return ()
        in_lt = set(self.pieces.lt_monomials(d))
        return tuple(
            sorted(
                (m for m in monomials_of_degree(self.ring.nvars, d) if m not in in_lt),
                key=self.pieces.order.key,
                reverse=True,
            )
        )

    def _compute_mult(self, v, d):
        index = {m: k for k, m in enumerate(self.piece(d + 1))}
        cols = []
        for m in self.piece(d):
            prod = self.ring.monomial(m) * self.ring.var(v)
            nf = self.pieces.gb.normal_form(prod)
            cols.append({index[ev]: c for ev, c in nf.terms.items()})
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
    flagged by x0_section.
    """

    def __init__(self, ideal, step, label):
        super().__init__(label, ideal, range(1, ideal.ring.nvars), x0_section=True)
        self.step = step

    def _in_window(self, u):
        return u[0] >= 1 and (self.step is None or u[0] <= self.step)

    def _compute_piece(self, d):
        return tuple(u for u in self.pieces.lt_monomials(d) if self._in_window(u))

    def _compute_mult(self, v, d):
        src = self.piece(d)
        tgt_index = {u: k for k, u in enumerate(self.piece(d + 1))}
        full_tgt = self.pieces.lt_monomials(d + 1)
        xs = self.ring.var(v)
        cols = []
        for u in src:
            full = self.pieces.expand(xs * self.pieces.basis_poly(d, u), d + 1)
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


def ideal_spec(ideal, over="full", label=None):
    """I as a module over the full ring ('full') or over the subring on
    the non-front variables ('tail')."""
    acting = range(0 if over == "full" else 1, ideal.ring.nvars)
    return _cached(
        ideal,
        ("ideal", over),
        lambda: _IdealModuleSpec(label or "ideal/%s" % over, ideal, acting),
    )


def quotient_spec(ideal, over="full", label=None):
    """R/I as a module over the full ring or the non-front subring."""
    acting = range(0 if over == "full" else 1, ideal.ring.nvars)
    return _cached(
        ideal,
        ("quotient", over),
        lambda: _QuotientRingSpec(label or "quotient/%s" % over, ideal, acting),
    )


def subquotient_spec(ideal, label=None):
    """I modulo its front-free part, over the non-front variables."""
    if ideal.ring.nvars < 2:
        raise ValueError("subquotient needs at least two variables")
    return _cached(
        ideal,
        ("subquotient",),
        lambda: _FiltrationStepSpec(ideal, None, label or "subquotient"),
    )


def filtration_step_spec(ideal, step, label=None):
    if step < 1:
        raise ValueError("filtration step must be >= 1")
    return _cached(
        ideal,
        ("filtration", step),
        lambda: _FiltrationStepSpec(ideal, step, label or "filtration<=%d" % step),
    )

