"""A fixed reference computation that measures how fast the machine runs
Python right now.

The machine this benchmark was tuned on is shared: its speed for the same
pure-Python work drifts by 20-50 % over seconds and minutes, far more than
the bounds of BENCHMARK.json.  Every job is therefore timed between two runs
of this kernel, and its wall time is rescaled to a machine on which the
kernel takes REF_SECONDS.  The kernel is the benchmark's own code, so a
change to innerproj cannot move it: it does what the program's hot paths do
(sparse elimination over GF(p) in dicts, products of exponent-tuple
polynomials) on fixed data.
"""

import random
import time

P = 32003
REF_SECONDS = 0.05

_rng = random.Random(20081007)
_ROWS = [{_rng.randrange(160): _rng.randrange(1, P) for _ in range(5)} for _ in range(160)]
_F = {tuple(_rng.randrange(3) for _ in range(6)): _rng.randrange(1, P) for _ in range(40)}
_G = {tuple(_rng.randrange(3) for _ in range(6)): _rng.randrange(1, P) for _ in range(40)}


def _kernel():
    by_piv = {}
    for r in _ROWS:
        vec = dict(r)
        while vec:
            piv = min(vec)
            row = by_piv.get(piv)
            if row is None:
                inv = pow(vec.pop(piv), P - 2, P)
                by_piv[piv] = {c: a * inv % P for c, a in vec.items()}
                break
            c0 = vec.pop(piv)
            for col, a in row.items():
                v = (vec.get(col, 0) - c0 * a) % P
                if v:
                    vec[col] = v
                else:
                    vec.pop(col, None)
    for _ in range(12):
        out = {}
        for e1, c1 in _F.items():
            for e2, c2 in _G.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % P
    return len(by_piv), len(out)


def measure():
    """Wall seconds of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
