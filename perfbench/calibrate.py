"""A fixed reference computation that measures the machine, not qasc.

On the shared 2-vCPU host the speed of identical work drifts by a quarter
or more over minutes, longer than a run, so the best-of-repeats inside a
run cannot remove it.  A run therefore also times this reference, in
processes of its own that never import qasc, and scales its end-to-end
timings by REF_NOMINAL_S / (the reference time it measured).

The reference does what qasc's exact layers spend their time on: products
of sparse bivariate polynomials stored as {(i, j): Fraction} dicts.  Its
inputs are fixed, so no seed and no change to qasc can move it.  It is
timed in UNITS units of a few ms each, and a run takes the best of each
unit over its calibration processes, as it does for the units of a check.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

UNITS = 24
# the best-of sum on the 2-vCPU Xeon (2.1 GHz) in a quiet phase
REF_NOMINAL_S = 0.052


def _poly(rng: random.Random, terms: int) -> dict:
    return {(rng.randint(0, 5), rng.randint(0, 3)): Fraction(rng.randint(-40, 40) or 1,
                                                             rng.randint(1, 40))
            for _ in range(terms)}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def run() -> list[float]:
    """Seconds of each unit: one product of fixed polynomials each."""
    rng = random.Random("calibrate")
    pairs = [(_poly(rng, 14), _poly(rng, 14)) for _ in range(UNITS)]
    units = []
    for a, b in pairs:
        t0 = time.perf_counter()
        _mul(_mul(a, b), a)
        units.append(time.perf_counter() - t0)
    return units
