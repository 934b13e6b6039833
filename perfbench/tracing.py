"""Per-layer timing by wrapping qweyl's functions from outside the package.

`install` replaces each listed function or method, wherever a qweyl module
holds it, with a wrapper that counts calls and adds up wall time of the
outermost call.  The coarse functions also record a span: name, start and
end in perf_counter nanoseconds, the index of the enclosing span and the
level it ran at.  Everything stays in memory in a Recorder until the job
ends.  Nothing inside src/qweyl is edited.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter_ns


class Recorder:
    """Call counts, inclusive nanoseconds and spans of one traced job."""

    def __init__(self):
        self.stats: Dict[str, List[int]] = {}  # name -> [calls, ns, depth, rows]
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, level]
        self._stack: List[int] = []

    def _stat(self, name: str) -> List[int]:
        return self.stats.setdefault(name, [0, 0, 0, 0])

    def counted(self, name: str, fn: Callable) -> Callable:
        """Count calls and time the outermost one; no span (hot paths)."""
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            if stat[2]:
                return fn(*args, **kwargs)
            stat[2] = 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += _clock() - t0
                stat[2] = 0

        return wrapper

    def spanned(self, name: str, fn: Callable,
                level_of: Optional[Callable] = None) -> Callable:
        """Like counted, and record a span for every call."""
        stat = self._stat(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            stat[0] += 1
            idx = len(spans)
            level = level_of(*args) if level_of else None
            spans.append([name, _clock(), 0, stack[-1] if stack else -1, level])
            stack.append(idx)
            stat[2] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = spans[idx][2] = _clock()
                stack.pop()
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += end - spans[idx][1]

        return wrapper

    def rows_built(self, name: str, fn: Callable) -> Callable:
        """Time a memoizing context method and count the memo rows it adds."""
        stat = self._stat(name)
        timed = self.counted(name, fn)

        def wrapper(ctx, *args):
            before = len(ctx._exp_cache)
            try:
                return timed(ctx, *args)
            finally:
                stat[3] += len(ctx._exp_cache) - before

        return wrapper

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0])[1] / 1e9

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def span_seconds(self, name: str, level: int) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[4] == level) / 1e9

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics of the job, named as in BENCHMARK.json."""
        return {
            "hatmap.hat_step_s": self.seconds("hatmap.hat_step"),
            "hatmap.hat_step_l31_s": self.span_seconds("hatmap.hat_step", 31),
            "morphisms.specialize_s": self.seconds("morphisms.specialize"),
            "morphisms.apply_endo_s": self.seconds("morphisms.apply_endo"),
            "center.theta_s": self.seconds("center.theta"),
            "center.theta_inverse_s": self.seconds("center.theta_inverse"),
            "scalars.embed_calls": self.calls("scalars.embed"),
            "scalars.embed_s": self.seconds("scalars.embed"),
            "weylcore.mul_calls": self.calls("weylcore.mul"),
            "weylcore.mul_s": self.seconds("weylcore.mul"),
            "weylcore.power_s": self.seconds("weylcore.power"),
            "scalars.cyclo_mul_calls": self.calls("scalars.cyclo_mul"),
            "scalars.cyclo_mul_s": self.seconds("scalars.cyclo_mul"),
            "scalars.jet_mul_calls": self.calls("scalars.jet_mul"),
            "weylcore.pair_expansion_s": self.seconds("weylcore.pair_expansion"),
            "weylcore.pair_expansion_rows": self.stats.get("weylcore.pair_expansion", [0] * 4)[3],
            "poisson.context_s": self.seconds("poisson.context"),
            "poisson.bracket_s": self.seconds("poisson.bracket"),
            "exprio.parse_weyl_s": self.seconds("exprio.parse_weyl"),
            "exprio.print_weyl_s": self.seconds("exprio.print_weyl"),
            "scalars.laurent_mul_calls": self.calls("scalars.laurent_mul"),
            "scalars.laurent_mul_s": self.seconds("scalars.laurent_mul"),
        }


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Rebind every qweyl module attribute that holds `original`."""
    for name, mod in list(sys.modules.items()):
        if name == "qweyl" or name.startswith("qweyl."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _replace_method(cls, names, wrapper: Callable) -> None:
    for name in names:
        setattr(cls, name, wrapper)


def install(rec: Recorder) -> None:
    """Wrap the layer functions of the imported qweyl package."""
    from qweyl import center, exprio, hatmap, morphisms, poisson, scalars, weylcore

    _replace_method(scalars.Cyclo, ("__mul__", "__rmul__"),
                    rec.counted("scalars.cyclo_mul", scalars.Cyclo.__mul__))
    _replace_method(scalars.LaurentPoly, ("__mul__", "__rmul__"),
                    rec.counted("scalars.laurent_mul", scalars.LaurentPoly.__mul__))
    _replace_method(scalars.Jet, ("__mul__", "__rmul__"),
                    rec.counted("scalars.jet_mul", scalars.Jet.__mul__))
    # the module-level embed delegates to this method for every Cyclo
    _replace_method(scalars.Cyclo, ("embed",), rec.counted("scalars.embed", scalars.Cyclo.embed))
    _replace_method(weylcore.AlgebraContext, ("_pair_expansion",),
                    rec.rows_built("weylcore.pair_expansion",
                                   weylcore.AlgebraContext._pair_expansion))
    _replace_method(poisson.PoissonContext, ("__init__",),
                    rec.spanned("poisson.context", poisson.PoissonContext.__init__,
                                lambda pc, level, qpow=1: level))

    _replace_everywhere(weylcore.mul, rec.counted("weylcore.mul", weylcore.mul))

    def ctx_level(a, *rest):
        return a.context.level

    for fn, name, level_of in (
        (weylcore.power, "weylcore.power", None),
        (morphisms.specialize_endomorphism, "morphisms.specialize", lambda e, level, q=1: level),
        (morphisms.apply_endo, "morphisms.apply_endo", lambda e, *rest: e.context.level),
        (center.theta, "center.theta", lambda p, level, q=1: level),
        (center.theta_inverse, "center.theta_inverse", ctx_level),
        (poisson.bracket_of_lifts, "poisson.bracket", ctx_level),
        (hatmap.hat_step, "hatmap.hat_step", lambda e, p, level, q=1: level),
        (hatmap.hat_endo, "hatmap.hat_endo", None),
        (hatmap.transport_limit, "hatmap.transport_limit", None),
        (exprio.parse_weyl, "exprio.parse_weyl", None),
        (exprio.print_weyl, "exprio.print_weyl", None),
    ):
        _replace_everywhere(fn, rec.spanned(name, fn, level_of))
