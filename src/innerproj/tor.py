"""Koszul homology: graded Betti numbers and induced maps on Tor.

For a module spec M over the acting variables W, the slot (i, j) is
  Tor_i(M)_{i+j} = H_i of ( ... -> Wedge^{i+1}W (x) M_{j-1}
                                -> Wedge^i W (x) M_j
                                -> Wedge^{i-1}W (x) M_{j+1} -> ... ),
computed as  nullity(d_i at (i,j)) - rank(d_{i+1} at (i+1,j-1)).

When the module is multihomogeneous for the ring's weights the chain
spaces split by total multiweight and the differential preserves it, so
every rank computation shatters into small independent blocks; without
weights everything sits in one block and the same code runs unchanged.

Induced maps.  A linear map f from the chain space C at (i, j) of one
complex to the chain space D at (i, j') of another sends the cycles Z of C
to D / B, B the boundaries of D, with rank dim (f(Z) + B) - dim B; for a
chain map that is the rank of the induced map on homology.  Rank-only
reports read it off one stacked matrix, without homology bases:

    rank [[d_C, f], [0, d_D]] = rank d_C(i, j) + dim (f(Z) + B).

Proof: the image of (c, b) -> (d c, f c + d b) projects onto im d_C, and
the part of it the projection kills is {(0, f z + d b) : z in Z, b}, that
is 0 (+) (f(Z) + B).  So for any linear f, chain map or not,
    rank = stacked rank - rank d_C(i, j) - rank d_D(i+1, j'-1);
both corrections are memoised differential ranks, and the stacked matrix
splits into the same multiweight blocks as d.

Homology bases are canonical: kernels and boundary spans are kept in
reduced echelon form, and representatives are cycles reduced modulo
boundaries, so induced-map matrices are reproducible across runs.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .linalg import (
    Echelon,
    kernel_of_columns,
    quotient_reps,
    span_echelon,
    sparse_rows_rank,
)


def _tuple_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _shift_block(mu, delta):
    """Target block key under a map of weight delta; () means no shift."""
    return mu if not delta else _tuple_add(mu, delta)


def _koszul_cols(sources, mult, tid, p):
    """Columns of the Koszul differential
        d(T (x) b) = sum_k (-1)^k (T minus t_k) (x) t_k b
    on the chain elements `sources`, one sparse dict each.

    The target element (T', b') gets row tid[(T', b')]; a target missing
    from tid is given the next free id, so an empty dict yields consistent
    local coordinates for one block and a filled one fixed positions.
    """
    cols = []
    for T, b in sources:
        col = {}
        for k, t in enumerate(T):
            Trest = T[:k] + T[k + 1:]
            s = 1 if k % 2 == 0 else p - 1
            for b2, c in mult[t][b].items():
                loc = tid.setdefault((Trest, b2), len(tid))
                v = (col.get(loc, 0) + s * c) % p
                if v:
                    col[loc] = v
                else:
                    col.pop(loc, None)
        cols.append(col)
    return cols


# A chain-level map T (x) b -> sum_b2 cols[b][b2] * T' (x) b2 between equal
# wedge degrees: cols is a piece matrix (one sparse column per basis vector
# of the source piece) and T' adds `shift` to every wedge index of T.
_ChainMap = namedtuple("_ChainMap", "cols shift")


def _relabel(T, shift):
    return tuple(t + shift for t in T) if shift else T


class _Complex:
    """Cached chain-level data of the Koszul complex of one module spec."""

    def __init__(self, spec, weights_on):
        self.spec = spec
        self.p = spec.ring.char
        self.acting = spec.acting
        self.weights_on = weights_on
        self._blocks = {}
        self._pos = {}
        self._diff = {}
        self._rank = {}
        self._x0rank = {}
        self._cycles = {}
        self._bound = {}
        self._hom = {}

    # -- chain bases -------------------------------------------------------
    def _var_weight(self, v):
        if not self.weights_on:
            return ()
        return self.spec.ring.weights[v]

    def _piece_weights(self, j):
        dim = self.spec.dim(j)
        if not self.weights_on:
            return [()] * dim
        return [self.spec.weight(j, k) for k in range(dim)]

    def _subset_weight(self, T):
        if not self.weights_on:
            return ()
        wt = [0] * len(self.spec.ring.weights[0])
        for v in T:
            for k, x in enumerate(self.spec.ring.weights[v]):
                wt[k] += x
        return tuple(wt)

    def _source_buckets(self, i, j):
        """Transient {multiweight: [(T, b), ...]} for the chain space at
        (i, j); built on demand and not cached, so large slots can be
        processed block by block and released."""
        out = {}
        if 0 <= i <= len(self.acting) and j >= 0:
            dim = self.spec.dim(j)
            if dim:
                bw = self._piece_weights(j)
                for T in combinations(self.acting, i):
                    wt = self._subset_weight(T)
                    for b in range(dim):
                        mu = _tuple_add(wt, bw[b]) if self.weights_on else ()
                        out.setdefault(mu, []).append((T, b))
        return out

    def blocks(self, i, j):
        """{multiweight: [(T, b), ...]} for the chain space at (i, j),
        cached together with block-local positions (homology paths only;
        rank paths stream through _source_buckets instead)."""
        key = (i, j)
        if key in self._blocks:
            return self._blocks[key]
        out = self._source_buckets(i, j)
        pos = {}
        for lst in out.values():
            for k, tb in enumerate(lst):
                pos[tb] = k
        self._blocks[key] = out
        self._pos[key] = pos
        return out

    def positions(self, i, j):
        """{(T, b): index of the element inside its multiweight block}."""
        self.blocks(i, j)
        return self._pos[(i, j)]

    def chain_dim(self, i, j):
        n = len(self.acting)
        if i < 0 or i > n or j < 0:
            return 0
        return comb(n, i) * self.spec.dim(j)

    # -- differential ------------------------------------------------------
    def _mults(self, j):
        return {v: self.spec.mult(v, j) for v in self.acting}

    def diff(self, i, j):
        """Columns of d_i: (i,j) -> (i-1,j+1), blockwise.

        Returns {mu: [sparse col, ...]} where column k belongs to the k-th
        source element of block mu and its entries are local indices in the
        target block mu.
        """
        key = (i, j)
        if key not in self._diff:
            src = self.blocks(i, j)
            mult = self._mults(j) if i >= 1 and src else None
            tgt = self.positions(i - 1, j + 1)
            self._diff[key] = {
                mu: _koszul_cols(lst, mult, tgt, self.p) for mu, lst in src.items()
            }
        return self._diff[key]

    def rank_d(self, i, j):
        """Rank of d_i at (i, j); 0 outside the complex.  Streamed one
        block at a time without materializing the chain space."""
        key = (i, j)
        if key in self._rank:
            return self._rank[key]
        total = 0
        if 1 <= i <= len(self.acting) and j >= 0 and self.spec.dim(j):
            mult = self._mults(j)
            for lst in self._source_buckets(i, j).values():
                total += sparse_rows_rank(_koszul_cols(lst, mult, {}, self.p), self.p)
        self._rank[key] = total
        return total

    def x0_map(self, j):
        """Center multiplication from piece j, as a chain map."""
        return _ChainMap(self.spec.mult(0, j), 0)

    def x0_induced_rank(self, i, jsrc):
        """Rank of the map induced on homology by center multiplication,
        slot (i, jsrc) -> (i, jsrc + 1), by the stacked identity; memoised,
        as the mapping cone asks for every slot twice."""
        key = (i, jsrc)
        if key not in self._x0rank:
            self._x0rank[key] = _stacked_rank(
                self, i, jsrc, self, jsrc + 1, self.x0_map(jsrc), self._var_weight(0)
            )
        return self._x0rank[key]

    def slot_dim(self, i, j):
        """dim Tor_i(M)_{i+j}."""
        if i < 0 or j < 0 or i > len(self.acting):
            return 0
        return self.chain_dim(i, j) - self.rank_d(i, j) - self.rank_d(i + 1, j - 1)

    # -- homology ----------------------------------------------------------
    def cycles(self, i, j):
        """Canonical kernel bases of d_i at (i,j), per block."""
        key = (i, j)
        if key not in self._cycles:
            self._cycles[key] = {
                mu: kernel_of_columns(cols, self.p) for mu, cols in self.diff(i, j).items()
            }
        return self._cycles[key]

    def boundaries(self, i, j):
        """Echelon spans of the image of d_{i+1} inside (i, j), per block."""
        key = (i, j)
        if key in self._bound:
            return self._bound[key]
        out = {}
        for mu, cols in self.diff(i + 1, j - 1).items():
            out[mu] = span_echelon(cols, self.p)
        self._bound[key] = out
        return out

    def boundary_ech(self, i, j, mu):
        ech = self.boundaries(i, j).get(mu)
        if ech is None:
            ech = Echelon(self.p)
            self.boundaries(i, j)[mu] = ech
        return ech

    def homology(self, i, j):
        """{mu: [representative vectors]}: cycles reduced mod boundaries,
        re-echelonized; the canonical basis of the slot."""
        key = (i, j)
        if key in self._hom:
            return self._hom[key]
        out = {}
        cyc = self.cycles(i, j)
        for mu, zs in cyc.items():
            reps = quotient_reps(zs, self.boundary_ech(i, j, mu), self.p)
            if reps:
                out[mu] = reps
        self._hom[key] = out
        return out

    def hom_dim(self, i, j):
        return sum(len(v) for v in self.homology(i, j).values())


def get_complex(spec, weights_on=None):
    if weights_on is None:
        weights_on = spec.use_weights()
    cache = getattr(spec, "_complexes", None)
    if cache is None:
        cache = {}
        spec._complexes = cache
    if weights_on not in cache:
        cache[weights_on] = _Complex(spec, weights_on)
    return cache[weights_on]


# -- Betti tables -----------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{i,j} = dim Tor_i(M)_{i+j} over a window.

    truncation_flag is True when entries might continue past the window:
    a nonzero boundary column or row, or a module that is not finitely
    generated over the acting variables (whose tables never end).
    """

    label: str
    acting_names: tuple
    i_max: int
    j_max: int
    entries: dict = field(compare=False)
    truncation_flag: bool
    finitely_generated: bool

    def entry(self, i, j):
        return self.entries.get((i, j), 0)

    def nonzero(self):
        return {k: v for k, v in self.entries.items() if v}

    def max_nonzero_col(self):
        cols = [i for (i, j), v in self.entries.items() if v]
        return max(cols) if cols else -1

    def format(self):
        """Rows indexed by j, columns by i, '-' for zero entries."""
        lines = []
        width = max([len(str(v)) for v in self.entries.values()] + [1])
        head = "j\\i " + " ".join(str(i).rjust(width) for i in range(self.i_max + 1))
        lines.append(head)
        for j in range(self.j_max + 1):
            row = [str(j).ljust(4)]
            for i in range(self.i_max + 1):
                v = self.entry(i, j)
                row.append((str(v) if v else "-").rjust(width))
            lines.append(" ".join(row))
        if self.truncation_flag:
            lines.append("(window may truncate nonzero entries)")
        return "\n".join(lines)


def betti_window(spec, i_max=None, j_max=None):
    """Betti table of the spec over the window 0<=i<=i_max, 0<=j<=j_max.

    Defaults: i_max covers the whole acting roster; j_max is the largest
    generator degree plus four (covers the regularity of every shipped
    fixture; truncation_flag makes an undersized window loud, not silent).
    """
    if i_max is None:
        i_max = len(spec.acting)
    if j_max is None:
        j_max = spec.ideal.max_gen_degree() + 4
    cx = get_complex(spec)
    entries = {}
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            entries[(i, j)] = cx.slot_dim(i, j)
    col_trunc = i_max < len(spec.acting) and any(
        entries[(i_max, j)] for j in range(j_max + 1)
    )
    row_trunc = any(entries[(i, j_max)] for i in range(i_max + 1))
    flag = col_trunc or row_trunc or not spec.finitely_generated
    return BettiTable(
        label=spec.label,
        acting_names=tuple(spec.ring.varnames[v] for v in spec.acting),
        i_max=i_max,
        j_max=j_max,
        entries=entries,
        truncation_flag=flag,
        finitely_generated=spec.finitely_generated,
    )


def ideal_table_from_quotient(bt_quotient):
    """Betti table of I read off the table of R/I, both over the full ring
    with the whole roster (as geometry.quotient_table gives it).

    R is free over itself, so the exact sequence 0 -> I -> R -> R/I -> 0
    gives
        beta_{i,j}(I) = beta_{i+1,j-1}(R/I)   for i >= 0,
    plus the term beta_{0,0}(I) = 1 - beta_{0,0}(R/I), which is 1 only for
    the unit ideal (R/I = 0, I = R).  The window is shifted one row down,
    and the truncation flag carries over: the ideal table's last row is the
    quotient table's last row shifted.
    """
    entries = {
        (i, j): bt_quotient.entry(i + 1, j - 1)
        for i in range(bt_quotient.i_max + 1)
        for j in range(bt_quotient.j_max + 2)
    }
    entries[(0, 0)] = 1 - bt_quotient.entry(0, 0)
    return BettiTable(
        label=bt_quotient.label.replace("quotient", "ideal", 1),
        acting_names=bt_quotient.acting_names,
        i_max=bt_quotient.i_max,
        j_max=bt_quotient.j_max + 1,
        entries=entries,
        truncation_flag=bt_quotient.truncation_flag,
        finitely_generated=bt_quotient.finitely_generated,
    )


# -- derived numerics -------------------------------------------------------

def check_n2p(bt, cap=None):
    """Largest p such that the ideal table bt is generated in degree 2 with
    linear syzygies through homological step p-1 (rows j >= 3 vanish there).

    Returns 0 when generation is not purely quadratic.  A fully clean table
    is truncated by `cap` when given (the geometric ceiling, codimension),
    else by the window width.
    """
    if bt.entry(0, 2) == 0:
        return 0
    for j in range(bt.j_max + 1):
        if j != 2 and bt.entry(0, j):
            return 0
    limit = bt.i_max + 1
    p = 0
    for i in range(limit):
        if any(bt.entry(i, j) for j in range(3, bt.j_max + 1)):
            break
        p = i + 1
    if cap is not None:
        p = min(p, cap)
    return p


@dataclass(frozen=True)
class DepthReport:
    pd: int
    depth: int
    dim_affine: int
    is_acm: bool


def pd_depth(bt_quotient, hilbert_data):
    """Projective dimension and depth of R/I from its (untruncated) table,
    via depth = numvars - pd; ACM means depth equals the Krull dimension."""
    if bt_quotient.truncation_flag:
        raise ValueError(
            "window truncates the table; widen it before reading pd/depth"
        )
    pd = bt_quotient.max_nonzero_col()
    n = hilbert_data.nvars
    depth = n - pd
    dim_affine = hilbert_data.dim_proj + 1
    return DepthReport(pd=pd, depth=depth, dim_affine=dim_affine, is_acm=(depth == dim_affine))


# -- induced maps on Tor ----------------------------------------------------

@dataclass(frozen=True)
class TorMapReport:
    """Rank data of an induced map between Tor slots.

    well_defined is None on rank-only reports; matrix reports record
    whether images of cycles were cycles and every block's boundaries
    landed in boundaries.  Only the subquotient x0 section can fail this,
    outside its quadratic/smooth hypotheses, so its reports always carry
    matrices and the certificate.
    """

    map_label: str
    i: int
    j_source: int
    j_target: int
    source_dim: int
    target_dim: int
    rank: int
    injective: bool
    surjective: bool
    well_defined: object = None
    blocks: object = None

    @property
    def isomorphism(self):
        return self.injective and self.surjective


def _stacked_rank(cx_src, i, j_src, cx_dst, j_dst, chain_map, delta):
    """Rank of the map chain_map induces from slot (i, j_src) of cx_src to
    slot (i, j_dst) of cx_dst, by the stacked identity of the module
    docstring, one multiweight block at a time.

    Rows d c (+) f c sit beside rows 0 (+) d b for the target boundary
    generators b.  The d c entries live at wedge degree i-1 and the f c,
    d b entries at wedge degree i, so one id map keeps them apart.  The
    blocks only boundaries reach add rank d_dst there, which the
    correction takes back off.
    """
    if not cx_src.chain_dim(i, j_src):
        return 0
    p = cx_src.p
    cols, shift = chain_map
    src = cx_src._source_buckets(i, j_src)
    bnd = cx_dst._source_buckets(i + 1, j_dst - 1)
    mult_src = cx_src._mults(j_src) if i >= 1 else None
    mult_dst = cx_dst._mults(j_dst - 1) if bnd else None
    ndelta = tuple(-x for x in delta)
    keys = set(src)
    keys.update(_shift_block(nu, ndelta) for nu in bnd)
    total = 0
    for mu in keys:
        tid = {}
        sources = src.get(mu, ())
        rows = _koszul_cols(sources, mult_src, tid, p)
        for row, (T, b) in zip(rows, sources):
            T = _relabel(T, shift)
            for b2, c in cols[b].items():
                row[tid.setdefault((T, b2), len(tid))] = c
        rows += _koszul_cols(bnd.get(_shift_block(mu, delta), ()), mult_dst, tid, p)
        total += sparse_rows_rank(rows, p)
    return total - cx_src.rank_d(i, j_src) - cx_dst.rank_d(i + 1, j_dst - 1)


def _push_vector(vec, src_list, chain_map, tgt_pos, p):
    """Apply a chain map to a vector given in local source-block coords."""
    cols, shift = chain_map
    out = {}
    for k, c in vec.items():
        T, b = src_list[k]
        T = _relabel(T, shift)
        for b2, c2 in cols[b].items():
            local = tgt_pos.get((T, b2))
            if local is None:
                continue
            v = (out.get(local, 0) + c * c2) % p
            if v:
                out[local] = v
            else:
                out.pop(local, None)
    return out


def _induced_matrix(cx_src, i, j_src, cx_dst, j_dst, chain_map, delta):
    """Matrices of the induced map w.r.t. canonical homology bases, plus
    well-definedness verdicts (cycles to cycles, boundaries to boundaries).

    The boundary check runs over every source block: a block without
    homology can still send boundaries outside the target boundaries."""
    p = cx_src.p
    src_blocks = cx_src.blocks(i, j_src)
    hom_src = cx_src.homology(i, j_src)
    hom_dst = cx_dst.homology(i, j_dst)
    tgt_pos = cx_dst.positions(i, j_dst)
    diff_dst = cx_dst.diff(i, j_dst)
    ok = True
    rank = 0
    blocks = {}
    for mu, src_list in src_blocks.items():
        kappa = _shift_block(mu, delta)
        bech = cx_dst.boundary_ech(i, j_dst, kappa)
        for bvec in cx_src.boundary_ech(i, j_src, mu).rows:
            if bech.reduce(_push_vector(bvec, src_list, chain_map, tgt_pos, p)):
                ok = False
        reps = hom_src.get(mu)
        if not reps:
            continue
        dst_reps = hom_dst.get(kappa, [])
        dst_ech = Echelon(p)
        for r in dst_reps:
            dst_ech.insert(dict(r))
        mat = []
        rank_ech = Echelon(p)
        for z in reps:
            img = _push_vector(z, src_list, chain_map, tgt_pos, p)
            # cycle check in the target slot
            dcols = diff_dst.get(kappa, [])
            bound_img = {}
            for k, c in img.items():
                if k < len(dcols):
                    for r2, c2 in dcols[k].items():
                        v = (bound_img.get(r2, 0) + c * c2) % p
                        if v:
                            bound_img[r2] = v
                        else:
                            bound_img.pop(r2, None)
            if bound_img:
                ok = False
            red = bech.reduce(img)
            if rank_ech.insert(dict(red)) is not None:
                rank += 1
            res, coeffs = dst_ech.reduce_track(red)
            if res:
                ok = False
            row = [0] * len(dst_reps)
            for rr, cc in coeffs.items():
                row[rr] = cc
            mat.append(tuple(row))
        blocks[mu] = tuple(mat)
    return rank, ok, blocks


def _map_report(label, cx_src, i, j_src, cx_dst, j_dst, chain_map, delta, with_matrix, rank=None):
    """Report of the induced map: matrices and the certificate when
    with_matrix is set, else the stacked rank (`rank` when the caller
    already holds it)."""
    src_dim = cx_src.slot_dim(i, j_src)
    dst_dim = cx_dst.slot_dim(i, j_dst)
    ok = blocks = None
    if with_matrix:
        rank, ok, blocks = _induced_matrix(cx_src, i, j_src, cx_dst, j_dst, chain_map, delta)
    elif rank is None:
        rank = _stacked_rank(cx_src, i, j_src, cx_dst, j_dst, chain_map, delta)
    return TorMapReport(
        map_label=label,
        i=i,
        j_source=j_src,
        j_target=j_dst,
        source_dim=src_dim,
        target_dim=dst_dim,
        rank=rank,
        injective=(rank == src_dim),
        surjective=(rank == dst_dim),
        well_defined=ok,
        blocks=blocks,
    )


def tor_x0_map(spec, i, j, with_matrix=False):
    """Induced multiplication by the center variable:
    Tor_i(M)_{i+j} -> Tor_i(M)_{i+j+1} over the acting roster.

    Without matrices the rank is the memoised stacked rank.  A spec whose
    center action is a chosen section (x0_section) always gets the matrix
    report, as only its certificate says where the rank means anything."""
    cx = get_complex(spec)
    with_matrix = with_matrix or spec.x0_section
    return _map_report(
        "x0_multiplication", cx, i, j, cx, j + 1, cx.x0_map(j), cx._var_weight(0),
        with_matrix, None if with_matrix else cx.x0_induced_rank(i, j),
    )


def tor_quotient_map(ideal, i, j, with_matrix=False):
    """Induced map Tor_i(I) -> Tor_i(I/I') over the non-front subring,
    from the projection killing the front-free part of the ideal.

    Both specs come from the same ideal, so bases align by construction:
    the subquotient basis is the front-divisible part of the ideal basis.
    """
    from .modspec import ideal_spec, subquotient_spec

    src_spec = ideal_spec(ideal, over="tail")
    subq_spec = subquotient_spec(ideal)
    weights_on = src_spec.use_weights() and subq_spec.use_weights()
    cx_src = get_complex(src_spec, weights_on)
    cx_dst = get_complex(subq_spec, weights_on)
    dst_index = {u: k for k, u in enumerate(subq_spec.piece(j))}
    cols = []
    for u in src_spec.piece(j):
        k = dst_index.get(u)
        cols.append({} if k is None else {k: 1})
    return _map_report(
        "inclusion_phi", cx_src, i, j, cx_dst, j, _ChainMap(cols, 0), (), with_matrix
    )


def tor_inclusion_map(sub_ideal, big_ideal, i, j, with_matrix=False):
    """Induced map Tor_i over the small ring of the eliminated ideal into
    Tor_i over the big ring of the ambient ideal, realized on chains by
    re-rostering wedge indices (small var k is big var k+1) and expanding
    lifted basis polynomials in the big triangular basis."""
    from .modspec import ideal_spec

    if sub_ideal.ring.nvars != big_ideal.ring.nvars - 1:
        raise ValueError("small ring must drop exactly the front variable")
    if sub_ideal.ring.char != big_ideal.ring.char:
        raise ValueError("characteristic mismatch")
    big_spec = ideal_spec(big_ideal, over="full")
    for g in sub_ideal.gens:
        if not big_ideal.contains(g.lift_front(big_ideal.ring)):
            raise ValueError("small ideal does not embed: generator outside the big ideal")
    sub_spec = ideal_spec(sub_ideal, over="full")
    weights_on = (
        sub_spec.use_weights()
        and big_spec.use_weights()
        and big_spec.ring.weights[1:] == sub_spec.ring.weights
    )
    cx_src = get_complex(sub_spec, weights_on)
    cx_dst = get_complex(big_spec, weights_on)
    cols = [
        big_spec.pieces.expand(sub_spec.pieces.basis_poly(j, w).lift_front(big_spec.ring), j)
        for w in sub_spec.piece(j)
    ]
    return _map_report(
        "embedded_f", cx_src, i, j, cx_dst, j, _ChainMap(cols, 1), (), with_matrix
    )


@dataclass(frozen=True)
class MappingConeVerdict:
    i: int
    j: int
    lhs: int
    coker: int
    ker: int
    ok: bool


def mapping_cone_identity(spec_r, spec_s, i, j):
    """Check dim Tor_i over R at (i,j) against the long-exact-sequence
    bookkeeping over S:
      lhs = coker(x0 on Tor_i^S at j-1 -> j) + ker(x0 on Tor_{i-1}^S at j -> j+1).
    """
    cx_r = get_complex(spec_r)
    lhs = cx_r.slot_dim(i, j)
    up = tor_x0_map(spec_s, i, j - 1) if j >= 1 else None
    coker_rank = up.rank if up else 0
    coker = get_complex(spec_s).slot_dim(i, j) - coker_rank
    if i >= 1:
        down = tor_x0_map(spec_s, i - 1, j)
        ker = down.source_dim - down.rank
    else:
        ker = 0
    return MappingConeVerdict(i=i, j=j, lhs=lhs, coker=coker, ker=ker, ok=(lhs == coker + ker))
