"""Seeded synthetic length spectra and invariants for the benchmark.

Lengths are drawn with density proportional to e^(2L) on the window
[systole, systole + width]: the prime geodesic theorem (Margulis) gives
N(L) ~ e^(2L) / (2L) for closed hyperbolic 3-manifolds, so the local density
of primitive lengths grows like e^(2L).  Angles, lift signs and
multiplicities are uniform.  The same arguments give byte-identical text.

Nothing here comes from a real manifold; the files only have the shape and
growth of real census data, which is what the evaluators' cost depends on.
"""

from __future__ import annotations

import json
import math
import random

L_MAX = 12.0
DIGITS = 9  # decimals kept per length and angle, so files stay small and exact


def spectrum_doc(seed: int, entries: int, systole: float, width: float,
                 oriented: bool, mult_spread: int = 0) -> dict:
    """Spectrum document with ``entries`` distinct entries.

    The first entry has length exactly ``systole``, so the shortest length,
    which sets the oracles' truncation depth, does not depend on the seed.
    ``mult_spread`` = 0 gives multiplicity 1 everywhere; otherwise each
    multiplicity is uniform on 1..1+mult_spread.
    """
    if entries < 1 or systole <= 0 or width <= 0 or systole + width > L_MAX:
        raise ValueError("need entries >= 1 and 0 < systole < systole + width <= l_max")
    rng = random.Random(seed)
    lo, hi = math.exp(2.0 * systole), math.exp(2.0 * (systole + width))
    angle_top = 2.0 * math.pi if oriented else math.pi
    seen: set[tuple[float, float, int]] = set()
    rows = []
    while len(rows) < entries:
        length = (systole if not rows
                  else round(0.5 * math.log(lo + rng.random() * (hi - lo)), DIGITS))
        angle = round(rng.random() * angle_top, DIGITS)
        spin = rng.choice((1, -1))
        mult = 1 + rng.randint(0, mult_spread)
        key = (length, angle, spin)
        if length < systole or angle >= angle_top or key in seen:
            continue
        seen.add(key)
        rows.append({"length": length, "angle": angle, "spin_sign": spin,
                     "multiplicity": mult})
    rows.sort(key=lambda r: (r["length"], r["angle"], r["spin_sign"]))
    return {"label": f"perfbench-{seed}", "oriented": oriented,
            "l_max": L_MAX, "entries": rows}


def invariants_doc(seed: int) -> dict:
    """Volume, Chern-Simons and eta for weights 1..10, enough for every
    identity and prediction the workloads run."""
    rng = random.Random(seed)
    return {
        "label": f"perfbench-inv-{seed}",
        "volume": round(rng.uniform(1.0, 8.0), DIGITS),
        "cs": round(rng.uniform(-0.5, 0.5), DIGITS),
        "eta": {str(k): round(rng.uniform(-0.5, 0.5), DIGITS)
                for k in range(1, 11)},
    }


def dumps(doc: dict) -> str:
    """Canonical text: fixed key order, shortest round-trip floats."""
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"
