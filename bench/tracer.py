"""Layer tracing from outside the library.

Every public module-level function of each ``suffcause.<module>`` is wrapped
where another module (or the benchmark) reaches it: names imported into a
caller's namespace, module objects a caller holds (``from . import oracle``)
and, when the defining module never calls the function by name itself, the
module attribute that call-time imports read. A call whose caller is already
inside the same layer runs unwrapped, so only cross-module calls become
spans. Spans and counters stay in memory; the benchmark reads them per pass.

A layer's self time is its span time minus the time of its child spans.
Counters are derived from the arguments and results seen at the boundary,
never from library internals.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "covsign", "oracle", "scm", "causes", "graph", "signs", "expansion", "modelfile")
BENCH = "bench"


class DrawLedger:
    """Outcome of each generator draw, read off the calls that follow it.

    A draw that raised ``GenerationError`` is a generation error. A drawn
    model whose claims were then verified is accepted unless one
    verification raised ``ConditioningError`` (zero-probability
    conditioning). A drawn model that reached no verification before the
    next draw or the end of the command failed the assertion match.
    """

    OUTCOMES = ("gen_errors", "assert_mismatch", "zero_prob", "accepted")

    def __init__(self):
        self.counts = dict.fromkeys(self.OUTCOMES, 0)
        self._pending: str | None = None

    def _settle(self) -> None:
        if self._pending == "drawn":
            self.counts["assert_mismatch"] += 1
        elif self._pending == "verified":
            self.counts["accepted"] += 1
        elif self._pending == "zero_prob":
            self.counts["zero_prob"] += 1
        self._pending = None

    def draw(self, raised: BaseException | None) -> None:
        self._settle()
        if raised is None:
            self._pending = "drawn"
        else:
            self.counts["gen_errors"] += 1

    def verify(self, raised: BaseException | None) -> None:
        if self._pending is None:
            return
        if raised is not None and type(raised).__name__ == "ConditioningError":
            self._pending = "zero_prob"
        elif self._pending == "drawn":
            self._pending = "verified"

    def close(self) -> dict[str, int]:
        self._settle()
        return dict(self.counts)


class Tracer:
    """Span stack plus per-layer self time, call counts and named counters."""

    def __init__(self):
        self.active = False
        self._stack: list[list] = []  # [layer, start, child_time]
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.ledger = DrawLedger()

    def top(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def push(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def pop(self) -> float:
        end = time.perf_counter()
        layer, start, child = self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    @contextlib.contextmanager
    def bench_span(self, paused: bool = False):
        """A span of the benchmark's own; ``paused`` leaves library calls untraced."""
        was_active = self.active
        self.active = not paused
        self.push(BENCH)
        try:
            yield
        finally:
            self.pop()
            self.active = was_active


def _after_joint(t: Tracer, args, kwargs, result, exc, dur):
    model = args[0] if args else kwargs["model"]
    t.add("scm.joint_calls", 1)
    t.add("scm.joint_s", dur)
    if exc is None:
        t.add("scm.worlds", model.world_count())
        t.add("scm.support_rows", len(result.rows))


def _after_query(t: Tracer, args, kwargs, result, exc, dur):
    t.add("oracle.queries", 1)
    t.add("oracle.rows_scanned", len((args[0] if args else kwargs["dist"]).rows))


def _after_verify(t: Tracer, args, kwargs, result, exc, dur):
    _after_query(t, args, kwargs, result, exc, dur)
    t.ledger.verify(exc)


def _after_draw(t: Tracer, args, kwargs, result, exc, dur):
    t.add("oracle.draws", 1)
    t.add("oracle.generator_s", dur)
    t.ledger.draw(exc)


def _after_canonical(t: Tracer, args, kwargs, result, exc, dur):
    table = args[0] if args else kwargs["table"]
    t.add("causes.canonical_builds", 1)
    t.add("causes.conjunctions", 3 ** len(table.parents))


def _after_dsep(t: Tracer, args, kwargs, result, exc, dur):
    t.add("graph.dsep_calls", 1)


def _after_witness(t: Tracer, args, kwargs, result, exc, dur):
    t.add("graph.witness_calls", 1)
    t.add("graph.witness_s", dur)


def _after_paths(t: Tracer, args, kwargs, result, exc, dur):
    if exc is None:
        t.add("graph.paths_enumerated", len(result))


def _after_assoc(t: Tracer, args, kwargs, result, exc, dur):
    t.add("signs.assoc_calls", 1)


def _after_facts(t: Tracer, args, kwargs, result, exc, dur):
    t.add("covsign.facts_builds", 1)


def _after_load(t: Tracer, args, kwargs, result, exc, dur):
    t.add("modelfile.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _after_parse(t: Tracer, args, kwargs, result, exc, dur):
    t.add("modelfile.bytes", len((args[0] if args else kwargs["text"]).encode()))


HOOKS = {
    ("scm", "joint_distribution"): _after_joint,
    ("oracle", "conditional_covariance"): _after_query,
    ("oracle", "conditional_independent"): _after_query,
    ("oracle", "verify_claim"): _after_verify,
    ("oracle", "random_instance"): _after_draw,
    ("causes", "canonical_representation"): _after_canonical,
    ("graph", "d_separated"): _after_dsep,
    ("graph", "find_unblocked_path"): _after_witness,
    ("graph", "directed_paths"): _after_paths,
    ("signs", "monotonically_associated"): _after_assoc,
    ("signs", "qualitative_cov_sign"): _after_assoc,
    ("covsign", "facts_from_scm"): _after_facts,
    ("modelfile", "load_model"): _after_load,
    ("modelfile", "parse_model"): _after_parse,
}


def _wrap(tracer: Tracer, layer: str, fn, hook):
    def wrapper(*args, **kwargs):
        if not tracer.active or tracer.top() == layer:
            return fn(*args, **kwargs)
        tracer.push(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            dur = tracer.pop()
            if hook is not None:
                hook(tracer, args, kwargs, None, exc, dur)
            raise
        dur = tracer.pop()
        if hook is not None:
            hook(tracer, args, kwargs, result, None, dur)
        return result

    return functools.update_wrapper(wrapper, fn)


def _names_used(module) -> set[str]:
    """Global names read by code defined in ``module`` (nested code included)."""
    names: set[str] = set()

    def visit(code):
        names.update(code.co_names)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const)

    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            visit(obj.__code__)
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    visit(member.__code__)
    return names


def install(tracer: Tracer):
    """Wrap every layer boundary; return (proxies by layer, restore callable)."""
    modules = {name: sys.modules[f"suffcause.{name}"] for name in LAYERS}
    package = sys.modules["suffcause"]
    wrappers: dict[int, object] = {}
    by_layer: dict[str, dict[str, object]] = {}
    for layer, mod in modules.items():
        by_layer[layer] = {}
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            w = _wrap(tracer, layer, obj, HOOKS.get((layer, name)))
            wrappers[id(obj)] = w
            by_layer[layer][name] = w
    # stand-ins for the module objects that other modules hold
    proxies = {
        layer: types.SimpleNamespace(**{**vars(mod), **by_layer[layer]}) for layer, mod in modules.items()
    }

    saved: list[tuple[object, str, object]] = []

    def patch(ns, name, value):
        saved.append((ns, name, getattr(ns, name)))
        setattr(ns, name, value)

    used_inside = {layer: _names_used(mod) for layer, mod in modules.items()}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                home = obj.__module__ == mod.__name__
                if not home or name not in used_inside[layer]:
                    patch(mod, name, wrappers[id(obj)])
            elif isinstance(obj, types.ModuleType) and obj.__name__.startswith("suffcause."):
                other = obj.__name__.rsplit(".", 1)[1]
                if other in proxies and other != layer:
                    patch(mod, name, proxies[other])
    for name, obj in list(vars(package).items()):
        if inspect.isfunction(obj) and id(obj) in wrappers:
            patch(package, name, wrappers[id(obj)])

    def restore() -> None:
        for ns, name, value in reversed(saved):
            setattr(ns, name, value)

    return proxies, restore
