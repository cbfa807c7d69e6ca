"""Exponent vectors and monomial orders.

A monomial is a dense tuple of non-negative ints, one entry per ring
variable.  An order is its sort key (larger key = larger monomial), so
sorting and leading-term extraction share one code path.  Keys are
componentwise additive in the exponent vector, which is exactly the
multiplicativity law m1 > m2  =>  m*m1 > m*m2.
"""

from itertools import combinations


def total_degree(ev):
    return sum(ev)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """Quotient a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def minimalize(gens):
    """Minimal generators of the monomial ideal of gens, by (degree, exponent)."""
    out = []
    for g in sorted(set(gens), key=lambda g: (total_degree(g), g)):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in a fixed deterministic order.

    Yields ascending-lex tuples: for nvars=2, d=2 gives (0,2), (1,1), (2,0).
    """
    if nvars == 0:
        if d == 0:
            yield ()
        return
    # stars and bars via combinations of bar positions, emitted in an order
    # that is ascending lexicographic on the exponent tuple
    for bars in combinations(range(d + nvars - 1), nvars - 1):
        ev = []
        prev = -1
        for b in bars:
            ev.append(b - prev - 1)
            prev = b
        ev.append(d + nvars - 2 - prev)
        yield tuple(ev)


class GrevLex:
    """Graded reverse lexicographic order.

    Higher total degree wins; on equal degree the monomial with the smaller
    exponent on the last variable that differs (scanning from the right)
    wins.
    """

    def key(self, ev):
        return (sum(ev), tuple(-e for e in reversed(ev)))

    def __repr__(self):
        return "GrevLex()"

    def __eq__(self, other):
        return type(other) is GrevLex

    def __hash__(self):
        return hash("grevlex")


class Block:
    """Elimination order: compare the first `front` variables by grevlex,
    break ties with `inner` on the remaining variables.

    Any monomial involving a front variable beats any monomial free of
    them, which is what makes the x0-free part of a Groebner basis generate
    the elimination ideal.
    """

    def __init__(self, front=1, inner=None):
        if front < 1:
            raise ValueError("block order needs at least one front variable")
        self.front = front
        self.inner = inner if inner is not None else GrevLex()

    def key(self, ev):
        head, tail = ev[: self.front], ev[self.front:]
        return (sum(head), tuple(-e for e in reversed(head)), self.inner.key(tail))

    def __repr__(self):
        return "Block(front=%d, inner=%r)" % (self.front, self.inner)

    def __eq__(self, other):
        return (
            type(other) is Block
            and other.front == self.front
            and other.inner == self.inner
        )

    def __hash__(self):
        return hash(("block", self.front, self.inner))

