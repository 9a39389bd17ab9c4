"""Per-layer spans recorded from the benchmark's side of each layer.

The traced run wraps the public calls into each layer - the gateway's
``route``, the plan cache's lookups, the optimizer passed as the
service's ``optimize=``, the compiled start-up decision, and plan
execution - and records one span per call: name, start, end, parent
span and request id.  Nothing under ``src/`` is edited; the wrappers
are installed on the objects and modules the service calls through and
removed afterwards.

Spans stay in memory until :meth:`SpanRecorder.write` at the end of the
run.  A span's self time is its duration minus its children's.
"""

import json
import time

import repro.service.service as service_module
from repro.service.decision import CompiledDecision

REQUEST = "service.request"
ROUTE = "gateway.route"
LOOKUP = "cache.lookup"
OPTIMIZE = "optimizer.optimize"
DECISION = "decision.choose"
EXECUTE = "executor.execute"


class SpanRecorder:
    """Collects spans while :attr:`enabled`; one stack, one thread."""

    def __init__(self):
        #: ``[name, start, end, parent index, request id]`` per span.
        self.spans = []
        self.enabled = False
        self.request_id = -1
        self._stack = []
        self._patches = []

    def wrap(self, name, function):
        """``function`` recording a ``name`` span per call when enabled."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attribute, name):
        """Replace ``owner.attribute`` by a traced wrapper until :meth:`unpatch`."""
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, had_own, vars(owner).get(attribute)))
        setattr(owner, attribute, self.wrap(name, original))

    def unpatch(self):
        while self._patches:
            owner, attribute, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def install_layers(self):
        """Wrap the layers shared by every service instance."""
        self.patch(CompiledDecision, "choose", DECISION)
        self.patch(CompiledDecision, "choose_memoized", DECISION)
        self.patch(service_module, "execute_plan", EXECUTE)
        self.patch(service_module, "execute_midquery", EXECUTE)

    def attach(self, service):
        """Wrap the per-instance layers of a service or gateway."""
        shards = getattr(service, "shards", None)
        if shards is None:
            self.patch(service.cache, "entry_for", LOOKUP)
            return
        self.patch(service, "route", ROUTE)
        for shard in shards:
            self.patch(shard.service.cache, "entry_for_signature", LOOKUP)

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                )
                handle.write("\n")


def layer_times(spans, first, scale):
    """Summed duration per span name, and summed self time of requests.

    Covers ``spans[first:]``; each duration is multiplied by
    ``scale(request id)``.  Returns ``(totals, request_self)``:
    ``totals[name]`` adds up the duration of every span of that name;
    ``request_self`` adds up each request span's duration minus its
    direct children's.
    """
    totals = {}
    child_time = {}
    durations = {}
    for index in range(first, len(spans)):
        name, start, end, parent, request = spans[index]
        duration = (end - start) * scale(request)
        durations[index] = duration
        totals[name] = totals.get(name, 0.0) + duration
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + duration
    request_self = sum(
        duration - child_time.get(index, 0.0)
        for index, duration in durations.items()
        if spans[index][0] == REQUEST
    )
    return totals, request_self
