"""A fixed reference computation that measures how fast the machine runs now.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over minutes, and a fixed pure-Python loop slows and speeds up with
it. Timing ``reference()`` next to each call into the program and scaling
the call's time by ``REF_S / reference time`` gives the call's time at a
fixed reference speed: the machine's drift cancels, while a change to the
program still moves the scaled time one for one.

The reference uses no orbitrank code, so no change to the program can move
it. Like the program's hot paths, it is exact rational arithmetic on
sparse dict-based polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Nominal seconds of one reference() call, the speed that scaled times refer to.
REF_S = 0.040

_BASE = {(i, j, (i * j) % 3): Fraction(2 * i - 3, j + 1) for i in range(5) for j in range(5)}
_SIZE = 652  # terms in _BASE cubed


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def reference() -> float:
    """Seconds one run of the reference computation takes now."""
    start = perf_counter()
    terms = len(_mul(_mul(_BASE, _BASE), _BASE))
    seconds = perf_counter() - start
    if terms != _SIZE:
        raise RuntimeError(f"reference computation gave {terms} terms, expected {_SIZE}")
    return seconds
