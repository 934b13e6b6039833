"""Direct timings of single layer calls on fixed-size inputs.

Each figure is the median over a few repetitions, taken in a process of its
own after one untimed call has filled the level tables that every later
call would find filled.  The operands are drawn from the seed; their sizes
are fixed.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List


def _median_per_call(calls: List[Callable], repeats: int) -> float:
    """Median over repeats of the seconds per call of one pass over calls."""
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for call in calls:
            call()
        per_call.append((time.perf_counter() - t0) / len(calls))
    return statistics.median(per_call)


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo, hi) * rng.choice((-1, 1))


def measure(q, seed: int) -> Dict[str, float]:
    """Kernel metrics, named as in BENCHMARK.json."""
    from qweyl.weylcore import JET

    rng = random.Random(seed)
    out: Dict[str, float] = {}

    def cyclo(level: int, bits: int):
        return q.Cyclo(level, [_signed(rng, 2 ** (bits - 1), 2 ** bits) for _ in range(level - 1)])

    def mul_calls(pairs):
        return [lambda a=a, b=b: a * b for a, b in pairs]

    for key, level, bits in (("l23", 23, 32), ("l31", 31, 32), ("l31_wide", 31, 60)):
        pairs = [(cyclo(level, bits), cyclo(level, bits)) for _ in range(200)]
        out[f"scalars.cyclo_mul_us.{key}"] = 1e6 * _median_per_call(mul_calls(pairs), 7)

    for deg in (50, 100):
        pairs = [tuple(q.LaurentPoly({e: _signed(rng, 1, 2 ** 48) for e in range(deg + 1)})
                       for _ in range(2)) for _ in range(6)]
        out[f"scalars.laurent_mul_us.deg{deg}"] = 1e6 * _median_per_call(mul_calls(pairs), 5)

    values = [cyclo(31, 32) for _ in range(100)]
    values[0].embed()  # fills the per-level table of cos and sin of 2 pi / 31
    out["scalars.embed_us.l31"] = 1e6 * _median_per_call(
        [lambda v=v: q.embed(v) for v in values], 5)

    q.Cyclo.zeta(23)  # per-level reduction table, shared by every context
    out["weylcore.pair_expansion_ms.jet_l23"] = 1e3 * statistics.median(
        _cold_pair_expansion(q.AlgebraContext(1, JET, level=23), 23) for _ in range(3))

    ctx = q.AlgebraContext.symbolic(1)
    e23 = q.specialize_endomorphism(q.lift_phi(ctx, q.parse_weyl("x1^2", ctx)), 23)
    image = q.theta(q.CenterPoly.r(1, 1), 23)
    q.apply_endo(e23, image)  # fills the interned l=23 rewrite table
    out["morphisms.apply_endo_ms.l23"] = 1e3 * _median_per_call(
        [lambda: q.apply_endo(e23, image)], 3)

    q.Cyclo.zeta(31)
    out["poisson.context_ms.l31"] = 1e3 * _median_per_call([lambda: q.PoissonContext(31)], 3)
    return out


def _cold_pair_expansion(ctx, level: int) -> float:
    """Seconds to build d^l x^l on a context made by the constructor, which
    is not interned and so starts with an empty table."""
    t0 = time.perf_counter()
    ctx._pair_expansion(level, level)
    return time.perf_counter() - t0
