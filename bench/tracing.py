"""In-process traced run: spans around calls into each layer's public functions.

The spans are recorded here, in the benchmark, by replacing each public
function of a layer module with a timing wrapper in every pleijel module
namespace that refers to it; no file of the package changes.  A layer's
self time is its spans' duration minus the time of the spans they caused.
Between ops every functools cache in the package is cleared, so each op
does the same cold work as a fresh ``python -m pleijel.cli`` process.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from verify import Outcome
from workloads import Op

LAYERS = ("series", "constants", "numerics", "admissibility", "cli", "checks",
          "htype_algebra", "monotonicity")


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "pleijel" or name.startswith("pleijel.")) and mod is not None]


def _public_functions(module) -> dict[str, object]:
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[name] = obj
    return out


class Tracer:
    """Span statistics per function, plus the series kernel's own counts."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        import pleijel.cli  # noqa: F401  (loads every layer)
        from pleijel.core import PrecisionUnreachable

        self.cli = sys.modules["pleijel.cli"]
        self.unreachable_error = PrecisionUnreachable
        modules = _package_modules()
        self.caches = list({id(obj): obj for mod in modules for obj in vars(mod).values()
                            if hasattr(obj, "cache_clear")}.values())
        self.originals = {}
        for layer in LAYERS:
            for name, fn in _public_functions(sys.modules[f"pleijel.{layer}"]).items():
                self.originals[id(fn)] = (f"{layer}.{name}", fn)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self.originals.items()}
        # (module, attribute, original, wrapper) for every reference to a traced function
        self.patches = [(mod, attr, obj, wrappers[id(obj)])
                        for mod in modules for attr, obj in list(vars(mod).items())
                        if id(obj) in wrappers]
        self.reset()

    # -- spans ---------------------------------------------------------------

    def reset(self) -> None:
        self.stack: list[list[float]] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.c_misses = 0
        self.terms = 0
        self.unreachable = 0
        self.width_ratios: list[float] = []

    def _wrap(self, name: str, fn):
        observe = self._observe_c_series if name == "series.c_series" else None
        signature = inspect.signature(inspect.unwrap(fn)) if observe else None

        def span(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]  # start, time covered by child spans
            self.stack.append(frame)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs, signature.bind(*args, **kwargs))
            finally:
                duration = time.perf_counter() - frame[0]
                self.stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if self.stack:
                    self.stack[-1][1] += duration

        return span

    def _observe_c_series(self, fn, args, kwargs, bound):
        # call with the caller's own arguments: they are the cache key
        bound.apply_defaults()
        misses = fn.cache_info().misses
        try:
            result = fn(*args, **kwargs)
        except self.unreachable_error as exc:
            self.unreachable += 1
            self.c_misses += 1
            self.terms += exc.terms_used
            raise
        if fn.cache_info().misses > misses:
            eps, relative = bound.arguments["eps"], bound.arguments["relative"]
            self.c_misses += 1
            self.terms += result.terms_used
            self.width_ratios.append(result.tail_bound / (eps * result.value if relative else eps))
        return result

    @contextlib.contextmanager
    def installed(self):
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self.patches:
                setattr(mod, attr, original)

    # -- running ops ---------------------------------------------------------

    def run(self, op: Op) -> Outcome:
        """One CLI op in this process, from cold caches, as `python -m pleijel.cli` would."""
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(op.args))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # noqa: BLE001 - an uncaught error is what a user sees as exit 1
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - start
        written = Path(op.output).read_text() if op.output and code == 0 else None
        return Outcome(op, seconds, code, out.getvalue(), err.getvalue(), written)

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer numbers of the pass just traced (counts and seconds)."""
        by_layer = defaultdict(float)
        for name, t in self.self_time.items():
            by_layer[name.split(".")[0]] += t
        terms = self.terms
        series_self = self.self_time["series.c_series"]
        metrics = {
            "series.c_series.calls": self.calls["series.c_series"],
            "series.c_series.misses": self.c_misses,
            "series.c_series.self_s": series_self,
            "series.terms": terms,
            "series.ns_per_term": series_self / terms * 1e9 if terms else 0.0,
            "series.width_over_eps": (statistics.median(self.width_ratios)
                                      if self.width_ratios else 0.0),
            "series.unreachable": self.unreachable,
            "constants.gamma_bar_exact.self_s": self.self_time["constants.gamma_bar_exact"],
            "numerics.zeta.self_s": self.self_time["numerics.zeta"],
            "htype_algebra.group_mul.calls": self.calls["htype_algebra.group_mul"],
            "trace.wall_s": wall,
            "trace.self_sum_share": sum(by_layer.values()) / wall,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = by_layer[layer]
        for suite in ("tables", "consistency", "monotonicity", "admissibility", "algebra"):
            metrics[f"checks.{suite}.s"] = self.total[f"checks.check_{suite}"]
        return metrics
