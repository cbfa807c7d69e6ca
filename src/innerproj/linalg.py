"""Exact sparse linear algebra over GF(p).

Vectors are dicts {column: coefficient} with coefficients in [1, p) and
integer column labels.  The central object is Echelon, a fully reduced
row-echelon basis of a subspace.  Pivots are the first nonzero entry in
canonical column order, and stored rows are mutually reduced, so the basis
held at any moment is the unique reduced echelon basis of its span; every
derived object (kernels, homology representatives, induced-map matrices)
is therefore reproducible across runs.
"""

from .field import inv_mod


def sparse_rows_rank(rows, p):
    """Rank over GF(p) of sparse dict rows, by forward-only elimination.

    Pivot rows are stored normalized with the pivot key stripped and are
    never revisited (no reduced-echelon maintenance), which keeps fill-in
    far below what full reduction causes on these matrices.  Incoming
    dicts are consumed: callers must pass rows they no longer need.
    """
    by_piv = {}
    rank = 0
    for vec in rows:
        while vec:
            piv = min(vec)
            row = by_piv.get(piv)
            if row is None:
                inv = inv_mod(vec[piv], p)
                del vec[piv]
                by_piv[piv] = {c: a * inv % p for c, a in vec.items()}
                rank += 1
                break
            c0 = vec.pop(piv)
            for col, a in row.items():
                v = (vec.get(col, 0) - c0 * a) % p
                if v:
                    vec[col] = v
                else:
                    vec.pop(col, None)
    return rank


class Echelon:
    """Reduced row-echelon basis of a growing subspace of k^N.

    Each stored row has pivot coefficient 1 and no nonzero entry in any
    other row's pivot column.  With track=True every row carries a parallel
    combination vector over caller-supplied labels; pushing a dependent
    vector then reveals the dependency, which is how kernels are read off.
    """

    def __init__(self, p, track=False):
        self.p = p
        self.track = track
        self.rows = []
        self.combos = []
        self.pivot_of_row = []
        self.row_of_pivot = {}

    @property
    def rank(self):
        return len(self.rows)

    def _axpy(self, vec, c, row):
        """vec -= c * row, in place."""
        p = self.p
        for col, a in row.items():
            v = (vec.get(col, 0) - c * a) % p
            if v:
                vec[col] = v
            else:
                vec.pop(col, None)

    def reduce_track(self, vec, combo=None):
        """Reduce vec modulo the row span; one pass suffices because stored
        rows vanish at each other's pivot columns.

        Returns (residual, coeffs) with vec == sum coeffs[i]*rows[i] + residual.
        """
        res = {c: a % self.p for c, a in vec.items() if a % self.p}
        coeffs = {}
        for col in [c for c in res if c in self.row_of_pivot]:
            c0 = res.get(col, 0)
            if not c0:
                continue
            r = self.row_of_pivot[col]
            coeffs[r] = c0
            self._axpy(res, c0, self.rows[r])
            if combo is not None:
                self._axpy(combo, c0, self.combos[r])
        return res, coeffs

    def reduce(self, vec):
        return self.reduce_track(vec)[0]

    def insert(self, vec, label=None):
        """Add vec to the span.

        Returns None if vec was new (absorbed), or the dependency combo
        (over labels seen so far, including this one) when track=True and
        vec was already in the span.  Untracked inserts return the pivot
        column for new vectors and None for dependent ones.
        """
        p = self.p
        combo = {} if self.track else None
        res, _ = self.reduce_track(vec, combo)
        if self.track:
            combo[label] = 1
        if not res:
            return combo if self.track else None
        piv = min(res)
        inv = inv_mod(res[piv], p)
        row = {c: (a * inv) % p for c, a in res.items()}
        if self.track:
            combo = {c: (a * inv) % p for c, a in combo.items()}
        for i, other in enumerate(self.rows):
            c = other.get(piv)
            if c:
                self._axpy(other, c, row)
                if self.track:
                    self._axpy(self.combos[i], c, combo)
        idx = len(self.rows)
        self.rows.append(row)
        if self.track:
            self.combos.append(combo)
        self.pivot_of_row.append(piv)
        self.row_of_pivot[piv] = idx
        return None if self.track else piv

    def basis(self):
        """Rows sorted by pivot column: the canonical reduced basis."""
        order = sorted(range(len(self.rows)), key=lambda i: self.pivot_of_row[i])
        return [self.rows[i] for i in order]


def kernel_of_columns(cols, p):
    """Canonical kernel basis of the map sending unit vector j to cols[j].

    Returned vectors are dicts over 0..len(cols)-1 in reduced echelon form.
    """
    ech = Echelon(p, track=True)
    found = []
    for j, v in enumerate(cols):
        dep = ech.insert(v, label=j)
        if dep is not None:
            found.append(dep)
    out = Echelon(p)
    for v in found:
        out.insert(v)
    return out.basis()


def span_echelon(vectors, p):
    ech = Echelon(p)
    for v in vectors:
        ech.insert(v)
    return ech


def quotient_reps(z_basis, b_ech, p):
    """Canonical representatives of (span z_basis) modulo the space in b_ech.

    When the boundary space sits inside the cycle span (the homology case)
    the representatives are themselves cycles.
    """
    ech = Echelon(p)
    for z in z_basis:
        ech.insert(b_ech.reduce(z))
    return ech.basis()


def dense_inverse(mat, p):
    """Inverse of a small dense matrix (list of row lists) over GF(p);
    None when singular."""
    n = len(mat)
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col] % p), None)
        if piv is None:
            return None
        a[row], a[piv] = a[piv], a[row]
        inv = inv_mod(a[row][col] % p, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] % p:
                c = a[r][col]
                a[r] = [(x - c * y) % p for x, y in zip(a[r], a[row])]
        row += 1
    return [r[n:] for r in a]
