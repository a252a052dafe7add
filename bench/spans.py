"""In-memory span tracer for the benchmark's traced run.

``instrument`` replaces every public function of the ``cnma`` layer modules,
at every module attribute it is reached through (``cnma.bayes.run_chains`` as
well as ``cnma.mcmc.run_chains``), by a wrapper that opens a span named after
the defining module and function, calls the original and closes the span. A
few private stages of ``bayes.fit`` are wrapped too, so that the self time of
``fit`` excludes them. Names that do not exist are skipped: a function that a
later version of the package deletes reports zero calls.

The per-block partial log posteriors handed to ``run_chains`` are wrapped in
``bayes.partial`` spans, which counts them exactly and moves their time from
the sampler's loop to the model that defines them.

Every wrapper returns exactly what the original returns, so traced and
untraced runs produce bit-identical draws.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("network", "design", "numerics", "bayes", "mcmc", "freq", "effects")

# private stages of bayes.fit, wrapped so its self time excludes them
PRIVATE_STAGES = (
    ("bayes", None, "_d_preconditioner"),
    ("bayes", None, "_initial_vectors"),
    ("bayes", "_ArmModel", "reported_draws"),
    ("bayes", "_ContrastModel", "reported_draws"),
)

PARTIAL = "bayes.partial"


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s


class Tracer:
    """Records spans and folds each into per-(tag, name) totals as it closes.

    An open span is (name, start, time covered by its children); its parent is
    the span below it on the stack. On close, its duration is added to its
    own totals and to its parent's child time, so a span's self time is its
    duration minus the part its child spans cover. ``tag`` labels the spans
    opened while it is set, e.g. with the model kind being fitted.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.tag = ""
        self._open: list[list] = []
        self.stats: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._open.pop()
        duration = self.clock() - start
        stats = self.stats[(self.tag, name)]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        if self._open:
            self._open[-1][2] += duration

    @contextlib.contextmanager
    def tagged(self, tag: str):
        previous, self.tag = self.tag, tag
        try:
            yield
        finally:
            self.tag = previous

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def total(self, *names: str, tags=None) -> SpanStats:
        """Sum of the named spans' totals over ``tags`` (default: every tag)."""
        out = SpanStats()
        for (tag, span), stats in self.stats.items():
            if span in names and (tags is None or tag in tags):
                out.add(stats)
        return out

    def by_layer(self, tags=None) -> dict[str, SpanStats]:
        """Totals per layer, the layer being the first part of a span's name."""
        out = {layer: SpanStats() for layer in LAYERS}
        for (tag, span), stats in self.stats.items():
            if tags is None or tag in tags:
                out.setdefault(span.split(".")[0], SpanStats()).add(stats)
        return out


def _run_chains_wrapper(tracer: Tracer, run_chains):
    traced = tracer.wrap("mcmc.run_chains", run_chains)

    @functools.wraps(run_chains)
    def wrapper(*args, **kwargs):
        partials = kwargs.get("partials")
        if partials is not None:
            kwargs["partials"] = [tracer.wrap(PARTIAL, p) for p in partials]
        return traced(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer modules' functions for the duration of the block."""
    modules = {}
    for name in LAYERS:
        try:
            modules[name] = importlib.import_module(f"cnma.{name}")
        except ModuleNotFoundError:  # a layer a later version removed
            continue
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                if (layer, attr) == ("mcmc", "run_chains"):
                    wrappers[obj] = _run_chains_wrapper(tracer, obj)
                else:
                    wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)

    patched = []  # (owner, attribute, original)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, attr, obj))
    for layer, cls_name, attr in PRIVATE_STAGES:
        owner = modules.get(layer)
        if owner is not None and cls_name is not None:
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if inspect.isfunction(fn):
            wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
            patched.append((owner, attr, fn))

    for owner, attr, fn in patched:
        setattr(owner, attr, wrappers[fn])
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)
