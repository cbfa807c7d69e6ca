"""Span tracing of innerproj's layers, from outside the program.

`Tracer.install()` replaces the public entry points of each layer with
wrappers that record one span (name, start, end, parent, job id) per call,
plus the counts the per-layer metrics need; `uninstall()` puts the
originals back, so untraced rounds run the unmodified program.  A function
imported by name into other innerproj modules is replaced there too.

Spans are kept in flat arrays while the run lasts and written out at its
end.  A span's self time is its duration minus the durations of its direct
children, which on one thread cover disjoint parts of it.
"""

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# innerproj re-exports the function hilbert under the submodule's name.
docs, geometry, groebner, hilbert, linalg, modspec, pei, tor = (
    importlib.import_module("innerproj." + m)
    for m in ("docs", "geometry", "groebner", "hilbert", "linalg", "modspec", "pei", "tor")
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.job = -1
        self.job_scale = {}  # job id -> factor that rescales its wall times
        self.counts = {}
        self._saved = []

    # -- recording ------------------------------------------------------------
    def _nid(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, before=None, after=None):
        """Wrap fn; before(args) runs ahead of the call, after(args, out)
        once it returns, both outside the timed interval."""
        nid = self._nid(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_job.append(self.job)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, before):
        def wrapper(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------
    def _patch_function(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("innerproj"):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, val))
                        setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self):
        c = self.count
        fn, meth = self._patch_function, self._patch_method

        def spanned(name, before=None, after=None):
            return lambda f: self.span(name, f, before, after)

        fn(docs, "parse_text", spanned("docs.parse"))
        meth(docs.IdealDocument, "to_ideal", spanned("docs.parse"))
        fn(geometry, "inner_project", spanned("geometry.inner_project"))
        fn(geometry, "tangent_at", spanned("geometry.tangent_at"))
        fn(geometry, "move_point", spanned("geometry.move_point"))
        fn(geometry, "apply_change_to_ideal", spanned("geometry.move_point"))
        fn(groebner, "buchberger", spanned(
            "groebner.buchberger", after=lambda a, out: c("groebner.basis_elems", len(out))))
        fn(groebner, "normal_form", spanned("groebner.normal_form"))
        fn(groebner, "eliminate", spanned("groebner.eliminate"))
        fn(hilbert, "hilbert", spanned("hilbert"))
        fn(pei, "stabilization", spanned("pei.stabilization"))
        fn(pei, "dimension_identity", spanned("pei.dimension_identity"))
        # Pieces are cached behind GradedModuleSpec.piece, which is called
        # once per basis element; the span goes on the computing hook.
        for cls in _subclasses(modspec.GradedModuleSpec):
            if "_compute_piece" in cls.__dict__:
                meth(cls, "_compute_piece", spanned("modspec.piece"))

        def mult_before(a):
            spec, v, d = a
            c("modspec.mult.hits", (v, d) in spec._mult)

        meth(modspec.GradedModuleSpec, "mult", spanned("modspec.mult", before=mult_before))

        def rank_before(a):
            cx, i, j = a
            c("tor.rank_d.hits", (i, j) in cx._rank)

        meth(tor._Complex, "rank_d", spanned("tor.rank_d", before=rank_before))
        meth(tor._Complex, "x0_induced_rank", spanned("tor.x0_induced_rank"))
        for attr in ("cycles", "boundaries", "homology"):
            meth(tor._Complex, attr, spanned("tor.homology"))

        def rows_before(a):
            n = len(a[0])
            c("linalg.rows", n)
            c("tor.chain_cols", n)
            if n > self.counts.get("linalg.max_block_rows", 0):
                self.counts["linalg.max_block_rows"] = n

        fn(linalg, "sparse_rows_rank", spanned(
            "linalg.sparse_rows_rank", before=rows_before,
            after=lambda a, out: c("linalg.rank", out)))
        for attr in ("kernel_of_columns", "span_echelon"):
            fn(linalg, attr, lambda f: self.counter(f, lambda a: c("tor.chain_cols", len(a[0]))))
        meth(linalg.Echelon, "insert", spanned(
            "linalg.echelon", before=lambda a: c("linalg.echelon.inserts")))
        meth(linalg.Echelon, "reduce", spanned("linalg.echelon"))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results --------------------------------------------------------------
    def self_times(self):
        """{span name: total self seconds}, each span rescaled by its job's
        factor (1 where none was recorded)."""
        n = len(self.span_start)
        child = [0.0] * n
        for k in range(n):
            par = self.span_parent[k]
            if par >= 0:
                child[par] += self.span_end[k] - self.span_start[k]
        out = {}
        for k in range(n):
            name = self.names[self.span_name[k]]
            own = self.span_end[k] - self.span_start[k] - child[k]
            out[name] = out.get(name, 0.0) + own * self.job_scale.get(self.span_job[k], 1.0)
        return out

    def calls(self):
        out = {}
        for nid in self.span_name:
            name = self.names[nid]
            out[name] = out.get(name, 0) + 1
        return out

    def write(self, path):
        """Tab-separated spans, one a line: name, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for k in range(len(self.span_start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.span_name[k]], self.span_start[k],
                    self.span_end[k], self.span_parent[k], self.span_job[k]))


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _subclasses(sub)
    return out


def layer_metrics(tracer, jobs):
    """The per-layer metrics of BENCHMARK.json, per traced job."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    per_job = lambda x: x / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("docs.parse", "geometry.inner_project", "geometry.tangent_at",
                 "geometry.move_point", "groebner.buchberger", "groebner.normal_form",
                 "groebner.eliminate", "hilbert", "pei.stabilization",
                 "pei.dimension_identity", "modspec.piece", "modspec.mult",
                 "tor.rank_d", "tor.x0_induced_rank", "tor.homology",
                 "linalg.sparse_rows_rank", "linalg.echelon"):
        m[name + ".self_s"] = (per_job(self_s.get(name, 0.0)), "s/job")
    for name in ("groebner.buchberger", "groebner.normal_form", "modspec.mult",
                 "tor.rank_d", "linalg.sparse_rows_rank"):
        m[name + ".calls"] = (per_job(calls.get(name, 0)), "calls/job")
    m["groebner.basis_elems"] = (per_job(counts.get("groebner.basis_elems", 0)), "elems/job")
    m["modspec.mult.hit_ratio"] = (
        ratio(counts.get("modspec.mult.hits", 0), calls.get("modspec.mult", 0)), "ratio")
    m["tor.rank_d.hit_ratio"] = (
        ratio(counts.get("tor.rank_d.hits", 0), calls.get("tor.rank_d", 0)), "ratio")
    m["tor.chain_cols"] = (per_job(counts.get("tor.chain_cols", 0)), "cols/job")
    m["linalg.rows"] = (per_job(counts.get("linalg.rows", 0)), "rows/job")
    m["linalg.rank"] = (per_job(counts.get("linalg.rank", 0)), "rows/job")
    m["linalg.pivot_ratio"] = (
        ratio(counts.get("linalg.rank", 0), counts.get("linalg.rows", 0)), "ratio")
    m["linalg.max_block_rows"] = (counts.get("linalg.max_block_rows", 0), "rows")
    m["linalg.echelon.inserts"] = (per_job(counts.get("linalg.echelon.inserts", 0)), "inserts/job")
    return m
