"""Traced run: spans around each layer's public entry, and the layer report.

Spans are recorded from this package only -- :func:`install` replaces the
public entry points with wrappers for the duration of a traced run and
:meth:`Patches.undo` puts the originals back.  Each span records its
name, its parent (the enclosing span on the same thread), a request tag,
wall time (``perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across the client and server processes) and thread CPU time
(``thread_time``), so wall minus CPU shows waiting.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import threading
import time

DATASETS = ("citeseer", "yeast", "dblp", "youtube")
SIZES = (4, 8, 16, 32)

#: Every per-layer metric: (name, unit, better).  A traced run prints all
#: of them; a layer the workload bypasses reads 0.
LAYER_METRICS: list[tuple[str, str, str]] = [
    ("matching.filters.s", "s", "lower"),
    ("matching.filters.cpu_s", "s", "lower"),
    ("matching.filters.candidates", "count", "lower"),
    ("matching.candidate_space.s", "s", "lower"),
    ("matching.candidate_space.bytes_peak", "B", "lower"),
    ("matching.ordering.s", "s", "lower"),
    ("matching.ordering.enum", "count", "lower"),
    ("matching.enumeration.s", "s", "lower"),
    ("matching.enumeration.cpu_s", "s", "lower"),
    ("matching.enumeration.steps", "count", "lower"),
    ("matching.enumeration.steps_per_s", "1/s", "higher"),
    ("matching.enumeration.limit_hit_ratio", "1", "lower"),
    *[
        (f"grid.{ds}.q{size}.{part}", "s", "lower")
        for ds in DATASETS
        for size in SIZES
        for part in ("plan_s", "enum_s")
    ],
    ("api.matcher.plan_self_s", "s", "lower"),
    ("api.matcher.execute_self_s", "s", "lower"),
    ("graphs.canonical.s", "s", "lower"),
    ("graphs.canonical.calls", "count", "lower"),
    ("service.cache.get_s", "s", "lower"),
    ("service.cache.hits", "count", "higher"),
    ("service.cache.misses", "count", "lower"),
    ("service.cache.hit_ratio", "1", "higher"),
    ("service.cache.evictions", "count", "lower"),
    ("server.store.get_s", "s", "lower"),
    ("server.store.put_s", "s", "lower"),
    ("server.store.puts", "count", "lower"),
    ("service.service.s", "s", "lower"),
    ("service.service.cpu_s", "s", "lower"),
    ("service.service.self_s", "s", "lower"),
    ("server.protocol.parse_s", "s", "lower"),
    ("server.protocol.format_s", "s", "lower"),
    ("server.http.wait_s", "s", "lower"),
    ("server.http.edge_s", "s", "lower"),
    ("client.light.latency_p50_s", "s", "lower"),
    ("client.light.latency_p90_s", "s", "lower"),
    ("client.light.lateness_s", "s", "lower"),
    ("client.light.backlog", "count", "lower"),
    ("client.heavy.latency_p50_s", "s", "lower"),
    ("client.heavy.latency_p90_s", "s", "lower"),
    ("client.heavy.lateness_s", "s", "lower"),
    ("client.heavy.backlog", "count", "lower"),
    ("client.sent", "count", "higher"),
    ("client.ok", "count", "higher"),
    ("rl.rollout.s", "s", "lower"),
    ("rl.rollout.calls", "count", "higher"),
    ("rl.rollout.used_ratio", "1", "higher"),
    ("core.features.s", "s", "lower"),
    ("core.policy.forward_s", "s", "lower"),
    ("core.policy.calls", "count", "lower"),
    ("rl.ppo.s", "s", "lower"),
    ("rl.ppo.cpu_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("host.ref_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

#: Request tag of the code running in this context (set per grid query,
#: and per HTTP request on the server's event loop once its body parsed).
_TAG: contextvars.ContextVar = contextvars.ContextVar("perfbench_tag", default=None)
#: The ``parse_head`` span of the HTTP request being read in this task,
#: which learns its tag only when the body is decoded.
_PENDING: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_pending", default=None
)


class Span:
    """One timed call: wall and thread-CPU interval plus counts."""

    __slots__ = ("id", "name", "parent", "tag", "t0", "t1", "c0", "c1", "counts")

    def __init__(self, id, name, parent, tag, t0=0.0, t1=0.0, c0=0.0, c1=0.0):
        self.id = id
        self.name = name
        self.parent = parent
        self.tag = tag
        self.t0, self.t1, self.c0, self.c1 = t0, t1, c0, c1
        self.counts: dict[str, int] = {}

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0

    def to_row(self) -> list:
        return [self.id, self.name, self.parent, self.tag,
                self.t0, self.t1, self.c0, self.c1, self.counts]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        span = cls(*row[:8])
        span.counts = row[8]
        return span


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: id(MatchingContext) -> the order an orderer produced for it.
        self.produced: dict[int, tuple] = {}
        self.caches: dict[int, object] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def start(self, name: str, tag=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tag is None:
            tag = parent.tag if parent is not None else _TAG.get()
        span = Span(next(self._ids), name, parent.id if parent else None, tag)
        self.spans.append(span)
        stack.append(span)
        span.c0 = time.thread_time()
        span.t0 = time.perf_counter()
        return span

    def stop(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        span.c1 = time.thread_time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def set_tag(self, tag) -> None:
        _TAG.set(tag)

    @property
    def pending_rollout(self):
        return getattr(self._local, "rollout", None)

    @pending_rollout.setter
    def pending_rollout(self, span) -> None:
        self._local.rollout = span


def traced(rec: Recorder, name: str, fn, *, tag_of=None, after=None,
           skip_nested: bool = False):
    """``fn`` wrapped in a span named ``name``.

    ``after(span, args, result)`` attaches counts once the call returned;
    ``skip_nested`` records only the outermost of directly nested calls
    of one layer (a filter delegating to another filter).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_nested:
            top = rec.current()
            if top is not None and top.name == name:
                return fn(*args, **kwargs)
        span = rec.start(name, tag_of(args) if tag_of is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.stop(span)
        if after is not None:
            after(span, args, result)
        return result

    return wrapper


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class Patches:
    """Attribute replacements that :meth:`undo` reverts in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def method(self, rec: Recorder, cls: type, attr: str, name: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.set(cls, attr, classmethod(traced(rec, name, raw.__func__, **kw)))
        else:
            self.set(cls, attr, traced(rec, name, raw, **kw))

    def function(self, rec: Recorder, fn, name: str, **kw) -> None:
        """Wrap a module-level function under every name it is bound to.

        Modules that imported it with ``from ... import`` hold their own
        reference, so each ``repro`` module binding ``fn`` is patched.
        """
        wrapper = traced(rec, name, fn, **kw)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(rec: Recorder) -> Patches:
    """Wrap the public entry of every layer; returns the undo handle."""
    from repro.api.matcher import Matcher
    from repro.core.features import FeatureBuilder
    from repro.core.policy import PolicyNetwork
    from repro.graphs import canonical
    from repro.matching.candidates import CandidateFilter
    from repro.matching.context import MatchingContext
    from repro.matching.enumeration import Enumerator
    from repro.matching.ordering.base import Orderer
    from repro.rl import rollout
    from repro.rl.ppo import PPOTrainer
    from repro.server import protocol
    from repro.server.store import PlanStore
    from repro.service.cache import PlanCache
    from repro.service.requests import MatchRequest
    from repro.service.service import MatchService

    patches = Patches()

    def count_candidates(span, args, result):
        span.counts["candidates"] = int(result.total_size())

    for cls in _subclasses(CandidateFilter):
        fn = cls.__dict__.get("filter")
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            patches.method(rec, cls, "filter", "matching.filters",
                           after=count_candidates, skip_nested=True)

    space_property = MatchingContext.__dict__["space"]
    build_space = space_property.fget

    def space(self):
        if self.has_space:
            return build_space(self)
        span = rec.start("matching.candidate_space")
        try:
            built = build_space(self)
        finally:
            rec.stop(span)
        span.counts["bytes"] = int(built.memory_bytes())
        return built

    patches.set(MatchingContext, "space", property(space))

    def remember_order(span, args, result):
        rec.produced[id(args[1])] = tuple(int(u) for u in result)

    for cls in _subclasses(Orderer):
        if "order_context" in cls.__dict__:
            patches.method(rec, cls, "order_context", "matching.ordering",
                           after=remember_order, skip_nested=True)

    def count_steps(span, args, result):
        steps = int(result.num_enumerations)
        span.counts["steps"] = steps
        span.counts["limit_hit"] = int(result.limit_reached)
        if rec.produced.get(id(args[1])) == tuple(int(u) for u in args[2]):
            span.counts["ordered_enum"] = steps

    patches.method(rec, Enumerator, "run_context", "matching.enumeration",
                   after=count_steps)

    def score_rollout(span, args, result):
        rollout_span = rec.pending_rollout
        if rollout_span is not None:
            rollout_span.counts["used"] = int(result.solved)
            rec.pending_rollout = None

    patches.method(rec, Matcher, "plan", "api.matcher.plan")
    patches.method(rec, Matcher, "execute", "api.matcher.execute",
                   after=score_rollout)
    patches.function(rec, canonical.canonical_form, "graphs.canonical")

    def count_hit(span, args, result):
        span.counts["hit"] = int(result is not None)
        rec.caches[id(args[0])] = args[0]

    patches.method(rec, PlanCache, "get", "service.cache.get", after=count_hit)
    patches.method(rec, PlanCache, "put", "service.cache.put")
    patches.method(rec, PlanStore, "get", "server.store.get")
    patches.method(rec, PlanStore, "put", "server.store.put")
    patches.method(rec, MatchService, "submit", "service.service.submit",
                   tag_of=lambda args: args[1].tag)

    def parse_head(head):
        _TAG.set(None)
        span = rec.start("server.protocol.parse")
        try:
            return original_parse_head(head)
        finally:
            rec.stop(span)
            _PENDING.set(span)

    original_parse_head = protocol.parse_head
    patches.set(protocol, "parse_head", functools.wraps(original_parse_head)(parse_head))

    from_dict = MatchRequest.__dict__["from_dict"].__func__

    def tagged_from_dict(cls, payload):
        request = from_dict(cls, payload)
        pending = _PENDING.get()
        if pending is not None and pending.tag is None:
            pending.tag = request.tag
        _TAG.set(request.tag)
        return request

    patches.set(MatchRequest, "from_dict", classmethod(tagged_from_dict))
    patches.function(rec, protocol.format_response, "server.protocol.format")

    def arm_rollout(span, args, result):
        rec.pending_rollout = span

    patches.function(rec, rollout.collect_trajectory, "rl.rollout", after=arm_rollout)
    patches.method(rec, FeatureBuilder, "static_features", "core.features")
    patches.method(rec, FeatureBuilder, "step_features", "core.features")
    patches.method(rec, PolicyNetwork, "forward", "core.policy.forward")
    patches.method(rec, PPOTrainer, "update", "rl.ppo.update")
    return patches


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's wall time minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.t0, span.t1))
    return {
        span.id: span.wall - covered(children.get(span.id, []), span.t0, span.t1)
        for span in spans
    }


def layer_metrics(spans: list[Span], extra: dict[str, float] | None = None) -> dict:
    """Aggregate spans into every metric of :data:`LAYER_METRICS`."""
    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, attr="wall"):
        return sum(getattr(s, attr) for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    out["matching.filters.s"] = total("matching.filters")
    out["matching.filters.cpu_s"] = total("matching.filters", "cpu")
    out["matching.filters.candidates"] = count("matching.filters", "candidates")
    out["matching.candidate_space.s"] = total("matching.candidate_space")
    out["matching.candidate_space.bytes_peak"] = max(
        (s.counts.get("bytes", 0) for s in by_name.get("matching.candidate_space", ())),
        default=0,
    )
    out["matching.ordering.s"] = total("matching.ordering")
    out["matching.ordering.enum"] = count("matching.enumeration", "ordered_enum")
    enum_s = total("matching.enumeration")
    runs = len(by_name.get("matching.enumeration", ()))
    steps = count("matching.enumeration", "steps")
    out["matching.enumeration.s"] = enum_s
    out["matching.enumeration.cpu_s"] = total("matching.enumeration", "cpu")
    out["matching.enumeration.steps"] = steps
    out["matching.enumeration.steps_per_s"] = steps / enum_s if enum_s else 0.0
    out["matching.enumeration.limit_hit_ratio"] = (
        count("matching.enumeration", "limit_hit") / runs if runs else 0.0
    )
    out["api.matcher.plan_self_s"] = sum(
        selfs[s.id] for s in by_name.get("api.matcher.plan", ())
    )
    out["api.matcher.execute_self_s"] = sum(
        selfs[s.id] for s in by_name.get("api.matcher.execute", ())
    )
    out["graphs.canonical.s"] = total("graphs.canonical")
    out["graphs.canonical.calls"] = len(by_name.get("graphs.canonical", ()))
    gets = by_name.get("service.cache.get", ())
    hits = count("service.cache.get", "hit")
    out["service.cache.get_s"] = total("service.cache.get")
    out["service.cache.hits"] = hits
    out["service.cache.misses"] = len(gets) - hits
    out["service.cache.hit_ratio"] = hits / len(gets) if gets else 0.0
    out["server.store.get_s"] = total("server.store.get")
    out["server.store.put_s"] = total("server.store.put")
    out["server.store.puts"] = len(by_name.get("server.store.put", ()))
    out["service.service.s"] = total("service.service.submit")
    out["service.service.cpu_s"] = total("service.service.submit", "cpu")
    out["service.service.self_s"] = sum(
        selfs[s.id] for s in by_name.get("service.service.submit", ())
    )
    out["server.protocol.parse_s"] = total("server.protocol.parse")
    out["server.protocol.format_s"] = total("server.protocol.format")
    rollouts = by_name.get("rl.rollout", ())
    out["rl.rollout.s"] = total("rl.rollout")
    out["rl.rollout.calls"] = len(rollouts)
    out["rl.rollout.used_ratio"] = (
        count("rl.rollout", "used") / len(rollouts) if rollouts else 0.0
    )
    out["core.features.s"] = total("core.features")
    out["core.policy.forward_s"] = total("core.policy.forward")
    out["core.policy.calls"] = len(by_name.get("core.policy.forward", ()))
    out["rl.ppo.s"] = total("rl.ppo.update")
    out["rl.ppo.cpu_s"] = total("rl.ppo.update", "cpu")
    out["trace.spans"] = len(spans)
    if extra:
        out.update(extra)
    return out


def http_split(spans: list[Span], client: dict[str, tuple[float, float]]) -> dict:
    """``server.http.wait_s`` and ``.edge_s`` from spans joined on the tag.

    ``client`` maps a request tag to the client's (send start, response
    read end) on the shared monotonic clock.  Wait is ``parse_head`` end
    to ``submit`` start (body read, decode, executor queue); edge is the
    client's round trip outside the server's parse-to-format window.
    """
    first: dict[tuple[str, str], Span] = {}
    for span in spans:
        if span.tag is not None and span.name in (
            "server.protocol.parse", "service.service.submit", "server.protocol.format"
        ):
            first.setdefault((span.name, span.tag), span)
    wait = edge = 0.0
    for tag, (sent, done) in client.items():
        parse = first.get(("server.protocol.parse", tag))
        submit = first.get(("service.service.submit", tag))
        fmt = first.get(("server.protocol.format", tag))
        if parse is None or submit is None or fmt is None:
            continue
        wait += submit.t0 - parse.t1
        edge += (done - sent) - (fmt.t1 - parse.t0)
    return {"server.http.wait_s": wait, "server.http.edge_s": edge}


def report_lines(metrics: dict) -> list[str]:
    """The per-layer report: every metric with its unit."""
    return [f"{name} = {metrics[name]:.6g} {UNITS[name]}" for name, _, _ in LAYER_METRICS]
