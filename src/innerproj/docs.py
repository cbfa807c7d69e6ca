"""Ideal documents: a hand-editable text format and a parallel JSON
rendering for ideals with labeled points and free-form metadata.

Text format, one declaration per line (# starts a comment):

    char 32003
    vars x0 x1 x2 x3
    weights 3,0 2,1 1,2 0,3
    point p0 1 0 0 0
    meta kind rnc
    gen x0*x2 - x1^2

`weights` is optional (one comma-separated vector per variable); points
are integer coordinates modulo char; generator expressions use the
package's polynomial grammar against the declared variables.
"""

import json
from dataclasses import dataclass

from .field import DEFAULT_CHAR, is_prime
from .groebner import Ideal
from .parser import parse_polynomial
from .poly import PolyRing, poly_str


@dataclass(frozen=True)
class IdealDocument:
    varnames: tuple
    gens: tuple
    char: int = DEFAULT_CHAR
    weights: object = None
    points: tuple = ()
    meta: tuple = ()

    def __post_init__(self):
        if not is_prime(self.char):
            raise ValueError("characteristic %d is not prime" % self.char)
        if len(set(self.varnames)) != len(self.varnames) or not self.varnames:
            raise ValueError("variable names must be nonempty and distinct")
        if self.weights is not None and (
            len(self.weights) != len(self.varnames)
            or len({len(w) for w in self.weights}) > 1
        ):
            raise ValueError("need one equal-length weight vector per variable")
        for label, coords in self.points:
            if len(coords) != len(self.varnames):
                raise ValueError("point %s has wrong coordinate count" % label)

    # -- algebra -----------------------------------------------------------
    def ring(self):
        w = tuple(tuple(v) for v in self.weights) if self.weights is not None else None
        return PolyRing(tuple(self.varnames), char=self.char, weights=w)

    def to_ideal(self):
        ring = self.ring()
        return Ideal(ring, [parse_polynomial(ring, s) for s in self.gens])

    def point(self, label):
        for name, coords in self.points:
            if name == label:
                return coords
        raise KeyError("no point labeled %r" % label)

    # -- text form ---------------------------------------------------------
    def to_text(self):
        lines = ["char %d" % self.char, "vars %s" % " ".join(self.varnames)]
        if self.weights is not None:
            lines.append(
                "weights %s"
                % " ".join(",".join(str(x) for x in w) for w in self.weights)
            )
        for label, coords in self.points:
            lines.append("point %s %s" % (label, " ".join(str(x) for x in coords)))
        for k, v in self.meta:
            lines.append("meta %s %s" % (k, v))
        for g in self.gens:
            lines.append("gen %s" % g)
        return "\n".join(lines) + "\n"

    # -- JSON form ---------------------------------------------------------
    def to_json(self):
        payload = {
            "char": self.char,
            "vars": list(self.varnames),
            "gens": list(self.gens),
            "points": [{"label": l, "coords": list(c)} for l, c in self.points],
            "meta": {k: v for k, v in self.meta},
        }
        if self.weights is not None:
            payload["weights"] = [list(w) for w in self.weights]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def document(varnames, gens, char=DEFAULT_CHAR, weights=None, points=(), meta=()):
    """Normalizing constructor: everything to tuples, meta sorted by key."""
    return IdealDocument(
        varnames=tuple(varnames),
        gens=tuple(gens),
        char=char,
        weights=tuple(tuple(w) for w in weights) if weights is not None else None,
        points=tuple((str(l), tuple(c)) for l, c in points),
        meta=tuple(sorted((str(k), str(v)) for k, v in meta)),
    )


def from_ideal(ideal, points=(), meta=()):
    ring = ideal.ring
    return document(
        ring.varnames,
        [poly_str(g) for g in ideal.gens],
        char=ring.char,
        weights=ring.weights,
        points=points,
        meta=meta,
    )


class DocumentError(ValueError):
    pass


def parse_text(text):
    char = DEFAULT_CHAR
    varnames = None
    weights = None
    points = []
    meta = []
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if key == "char":
                char = int(rest)
            elif key == "vars":
                varnames = tuple(rest.split())
            elif key == "weights":
                weights = tuple(
                    tuple(int(x) for x in chunk.split(",")) for chunk in rest.split()
                )
            elif key == "point":
                label, *coords = rest.split()
                points.append((label, tuple(int(x) for x in coords)))
            elif key == "meta":
                mk, _, mv = rest.partition(" ")
                meta.append((mk, mv.strip()))
            elif key == "gen":
                gens.append(rest)
            else:
                raise DocumentError("unknown declaration %r" % key)
        except DocumentError:
            raise
        except ValueError as exc:
            raise DocumentError("line %d: %s" % (lineno, exc)) from exc
    if varnames is None:
        raise DocumentError("missing 'vars' declaration")
    try:
        doc = document(
            varnames, gens, char=char, weights=weights, points=points, meta=meta
        )
        doc.to_ideal()  # parse every generator now so errors carry positions
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return doc


def parse_json(text):
    try:
        payload = json.loads(text)
        doc = document(
            payload["vars"],
            payload["gens"],
            char=payload.get("char", DEFAULT_CHAR),
            weights=payload.get("weights"),
            points=[
                (pt["label"], tuple(pt["coords"]))
                for pt in payload.get("points", [])
            ],
            meta=sorted(payload.get("meta", {}).items()),
        )
        doc.to_ideal()
    except DocumentError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise DocumentError("bad JSON document: %s" % exc) from exc
    return doc


def load(path):
    """Read a document from disk; JSON when the payload looks like JSON,
    text otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_text(text)
