"""Command-line surface: ideal documents in, computations out.

Exit codes: 0 success; 1 a computation or promised identity failed;
2 usage error (bad flags, malformed documents, unknown names); 3 a
computation budget was exceeded (oversized fixture request, or a
budget-skipped check under `verify`).  Every subcommand prints text by
default; --json switches to a stable machine schema (documented field
names, keys sorted).
"""

import argparse
import json
import sys
from dataclasses import asdict

from .docs import DocumentError, from_ideal, load
from .fixtures import BudgetExceeded, gen_variety, kinds
from .geometry import classify, inner_project, pointed, successive_project
from .groebner import eliminate
from .modspec import ideal_spec, quotient_spec, subquotient_spec
from .monomial import Block, GrevLex
from .pei import stabilization
from .poly import poly_str
from .tor import betti_window
from .verify import (
    CHECKS,
    SEGRE_BUDGET,
    UnknownCheckError,
    report_json,
    report_text,
    run_checks,
    suite_failed,
)


def _dump(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


def _resolve_point(doc, spec):
    """A labeled point of the document, or literal integer coordinates
    ("1,0,0,0" or "1 0 0 0")."""
    try:
        return doc.point(spec)
    except KeyError:
        pass
    try:
        coords = tuple(int(x) for x in spec.replace(",", " ").split())
    except ValueError:
        raise DocumentError(
            "point %r is neither a label of the document nor integer coordinates"
            % spec
        ) from None
    if len(coords) != len(doc.varnames):
        raise DocumentError(
            "point needs %d coordinates, got %d" % (len(doc.varnames), len(coords))
        )
    return coords


def _write_or_print(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _basis_strings(ideal, order):
    gb = ideal.groebner(order)
    return [poly_str(g, order) for g in gb]


# -- subcommands ------------------------------------------------------------

def cmd_gb(args):
    doc = load(args.doc)
    order = GrevLex() if args.order == "grevlex" else Block(front=1)
    basis = _basis_strings(doc.to_ideal(), order)
    if args.json:
        print(_dump({"order": args.order, "size": len(basis), "basis": basis}))
    else:
        for line in basis:
            print(line)
    return 0


def cmd_eliminate(args):
    doc = load(args.doc)
    front = args.front or doc.varnames[0]
    if front != doc.varnames[0]:
        raise DocumentError(
            "elimination removes the leading variable %r; reorder the document "
            "to put %r first" % (doc.varnames[0], front)
        )
    if len(doc.varnames) < 2:
        raise DocumentError("need at least two variables to eliminate one")
    image = eliminate(doc.to_ideal())
    out = from_ideal(image, meta=[("eliminated", front)])
    _write_or_print(out.to_json() if args.json else out.to_text(), args.output)
    return 0


def cmd_pei(args):
    doc = load(args.doc)
    if len(doc.varnames) < 2:
        raise DocumentError("need at least two variables to eliminate one")
    filt = stabilization(doc.to_ideal())
    upto = filt.max_front_degree if args.upto is None else args.upto
    if upto < 0:
        raise DocumentError("--upto must be >= 0")
    steps = [
        {"index": i, "basis": _basis_strings(filt.step(i), GrevLex())}
        for i in range(upto + 1)
    ]
    if args.json:
        print(
            _dump(
                {
                    "stabilization_index": filt.stabilization_index,
                    "max_front_degree": filt.max_front_degree,
                    "steps": steps,
                }
            )
        )
    else:
        print("stabilization_index %d" % filt.stabilization_index)
        print("max_front_degree %d" % filt.max_front_degree)
        for step in steps:
            print("step %d:" % step["index"])
            for line in step["basis"]:
                print("  " + line)
    return 0


def cmd_betti(args):
    doc = load(args.doc)
    ideal = doc.to_ideal()
    if args.module == "subquotient":
        if args.ring == "R":
            raise DocumentError(
                "the subquotient module only lives over the subring; use --ring S"
            )
        spec = subquotient_spec(ideal)
    else:
        over = "full" if args.ring == "R" else "tail"
        maker = quotient_spec if args.module == "quotient" else ideal_spec
        spec = maker(ideal, over=over)
    bt = betti_window(spec, args.imax, args.jmax)
    if args.json:
        entries = [
            [i, j, v] for (i, j), v in sorted(bt.entries.items()) if v
        ]
        print(
            _dump(
                {
                    "label": bt.label,
                    "acting": list(bt.acting_names),
                    "i_max": bt.i_max,
                    "j_max": bt.j_max,
                    "truncated": bt.truncation_flag,
                    "entries": entries,
                }
            )
        )
    else:
        print(bt.format())
    return 0


def cmd_project(args):
    doc = load(args.doc)
    point = _resolve_point(doc, args.point)
    image, rep = inner_project(pointed(doc.to_ideal(), point))
    out = from_ideal(image, meta=[("projected_from", str(args.point))])
    if args.json:
        print(_dump({"report": asdict(rep), "image": json.loads(out.to_json())}))
    else:
        for key, value in asdict(rep).items():
            print("%s: %s" % (key, value))
    if args.output:
        _write_or_print(out.to_text(), args.output)
    return 0


def cmd_chain(args):
    doc = load(args.doc)
    if args.point is None:
        if not doc.points:
            raise DocumentError(
                "document has no labeled points; pass --point explicitly"
            )
        start = doc.points[0][1]
    else:
        start = _resolve_point(doc, args.point)
    result = successive_project(
        pointed(doc.to_ideal(), start), args.steps, strict=not args.permissive
    )
    final = result.final_ideal
    out = from_ideal(final, meta=[("chain_steps", str(args.steps))]) if final else None
    if args.json:
        payload = {
            "steps": [asdict(r) for r in result.reports],
            "warnings": list(result.warnings),
            "final": json.loads(out.to_json()) if out else None,
        }
        print(_dump(payload))
    else:
        for k, rep in enumerate(result.reports):
            print(
                "step %d: P^%d -> P^%d | quadrics %d -> %d | pd %d -> %d | "
                "depth %d -> %d | delta %d -> %d | smooth %s"
                % (
                    k,
                    rep.n_before,
                    rep.n_after,
                    rep.beta02_before,
                    rep.beta02_after,
                    rep.pd_before,
                    rep.pd_after,
                    rep.depth_before,
                    rep.depth_after,
                    rep.delta_before,
                    rep.delta_after,
                    rep.smooth,
                )
            )
        for w in result.warnings:
            print("warning: %s" % w)
    if args.output and out:
        _write_or_print(out.to_text(), args.output)
    return 0


def cmd_classify(args):
    doc = load(args.doc)
    rep = classify(doc.to_ideal())
    if args.json:
        print(_dump(asdict(rep)))
    else:
        for key, value in asdict(rep).items():
            print("%s: %s" % (key, value))
    return 0


def cmd_gen(args):
    try:
        doc = gen_variety(args.kind, tuple(args.params), char=args.char)
    except BudgetExceeded:
        raise
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    _write_or_print(doc.to_json() if args.json else doc.to_text(), args.output)
    return 0


def cmd_verify(args):
    if args.list:
        for name, (_, description) in CHECKS.items():
            print("%-20s %s" % (name, description))
        return 0
    results = run_checks(args.checks or None, segre_budget=args.budget)
    sys.stdout.write(report_json(results) if args.json else report_text(results))
    if suite_failed(results):
        return 1
    return 3 if any(r.status == "skip" for r in results) else 0


# -- parser -----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="innerproj",
        description="Exact computations on homogeneous ideals: Groebner "
        "bases, elimination filtrations, graded Betti tables, and inner "
        "projections over a prime field.",
        epilog="exit codes: 0 success, 1 computation/check failure, "
        "2 usage error, 3 budget exceeded",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", help="reduced Groebner basis of a document's ideal")
    p.add_argument("doc", help="ideal document (text or JSON)")
    p.add_argument(
        "--order",
        choices=("grevlex", "block-x0"),
        default="grevlex",
        help="monomial order; block-x0 makes the leading variable dominant",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser(
        "eliminate", help="image ideal after eliminating the leading variable"
    )
    p.add_argument("doc")
    p.add_argument(
        "--front",
        help="name of the variable to eliminate (must be the document's first)",
    )
    p.add_argument("-o", "--output", help="write the image document here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser(
        "pei", help="partial elimination filtration by leading-variable degree"
    )
    p.add_argument("doc")
    p.add_argument(
        "--upto",
        type=int,
        help="largest filtration step to print (default: through stabilization)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pei)

    p = sub.add_parser("betti", help="graded Betti table over a window")
    p.add_argument("doc")
    p.add_argument(
        "--module",
        choices=("quotient", "ideal", "subquotient"),
        default="quotient",
        help="which module to resolve",
    )
    p.add_argument(
        "--ring",
        choices=("R", "S"),
        default="R",
        help="acting variables: R = all, S = all but the leading one",
    )
    p.add_argument("--imax", type=int, help="last homological step")
    p.add_argument("--jmax", type=int, help="last table row")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser(
        "project", help="inner projection from a point of the variety"
    )
    p.add_argument("doc")
    p.add_argument(
        "--point",
        required=True,
        help="point label from the document, or literal coordinates like 1,0,0,0",
    )
    p.add_argument("-o", "--output", help="write the image document here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser(
        "chain", help="successive inner projections with per-step reports"
    )
    p.add_argument("doc")
    p.add_argument("--steps", type=int, required=True, help="number of projections")
    p.add_argument(
        "--point",
        help="starting center (label or coordinates; default: the document's "
        "first labeled point); later centers are picked automatically",
    )
    p.add_argument(
        "--permissive",
        action="store_true",
        help="record identity violations as warnings instead of refusing",
    )
    p.add_argument("-o", "--output", help="write the final image document here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser(
        "classify", help="numeric classification by degree minus codimension"
    )
    p.add_argument("doc")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gen", help="generate a classical variety document")
    p.add_argument("kind", help="one of: %s" % ", ".join(kinds()))
    p.add_argument("params", nargs="*", type=int, help="integer parameters")
    p.add_argument("-o", "--output", help="write the document here (default: stdout)")
    p.add_argument("--char", type=int, default=32003, help="field characteristic")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run the named verification checks")
    p.add_argument(
        "checks",
        nargs="*",
        help="check names (default: all); see --list",
    )
    p.add_argument("--list", action="store_true", help="list known checks and exit")
    p.add_argument(
        "--budget",
        type=float,
        default=SEGRE_BUDGET,
        help="soft wall-clock budget in seconds for the large Segre check",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (DocumentError, UnknownCheckError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print("failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
