"""One workload run: set-up, closed-loop passes, checks, metrics.

A single client on the calling thread sends the round's requests one
after the other through the service's public ``run``; each waits for
its rows before the next is sent.  A *pass* is one whole round.  The
run repeats passes until ``seconds`` of pass time have elapsed, and at
least :data:`MIN_PASSES` times, so every run attempts whole rounds of
the same requests.

Every request is checked after its timer stops: its rows against the
independent oracle, and on a seeded sample its chosen plan's cost
against run-time optimization.  The service's accounting is checked
at the end of every round, and every round must charge exactly the
same simulated cost.

Times are at reference speed (see :mod:`refspeed`).  Throughput counts
every request of every untraced pass.  The latency percentiles are
over the round's requests, each taking the median of its times across
the passes, so that a request that happened to meet a pause of the
machine in one pass does not count as slow.

With ``trace`` the passes alternate untraced and traced; the traced
ones give the per-layer figures and the pair gives the tracing
overhead.
"""

import gc
import math
import os
import random
import resource
import statistics
import threading
import time

from repro.common.errors import ReproError
from repro.optimizer import optimize_dynamic

from oracle import (
    RowOracle,
    cache_counts,
    conservation_errors,
    costs_agree,
    plan_cost_gap,
)
from refspeed import NOMINAL_SECONDS, PassClock, kernel_median
from spans import (
    DECISION,
    EXECUTE,
    LOOKUP,
    OPTIMIZE,
    REQUEST,
    ROUTE,
    SpanRecorder,
    layer_times,
)
from workloads import WORKLOADS, deploy, generate_round, warmup_requests

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Untraced passes a run makes at least, so that each request's
#: median time has three samples.
MIN_PASSES = 3

#: Requests per run whose chosen plan is checked against run-time
#: optimization (``g_i = d_i``).
PLAN_SAMPLE = 20


class PassTotals:
    """Accounting summed over the passes of one kind (traced or not)."""

    def __init__(self):
        self.passes = 0
        self.requests = 0
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.simulated = 0.0
        self.rows = 0
        self.io = {}
        self.checkpoints = 0
        self.switches = 0
        self.reoptimized = 0
        self.lookups = 0
        self.hits = 0
        self.evictions = 0
        self.layers = {}
        self.request_self = 0.0
        #: One list per pass: each request's scaled seconds (None if it failed).
        self.latencies = []

    def add_result(self, result):
        execution = result.execution
        self.simulated += execution.simulated_seconds()
        self.rows += execution.row_count
        for key, value in execution.io_snapshot.items():
            self.io[key] = self.io.get(key, 0) + value
        report = getattr(execution, "midquery", None)
        if report is not None:
            self.checkpoints += report.checkpoints
            self.switches += report.switches
        self.reoptimized += bool(result.reoptimized)


class Run:
    """State and outcome of one workload run."""

    def __init__(
        self,
        name,
        seed,
        seconds,
        trace,
        round_size=None,
        out_dir=None,
        setup_repeats=SETUP_REPEATS,
    ):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.round_size = round_size
        self.out_dir = out_dir
        self.setup_repeats = 1 if trace else setup_repeats
        self.recorder = SpanRecorder() if trace else None
        self.errors = []
        self.failed = 0
        self.attempted = 0
        self.totals = {False: PassTotals(), True: PassTotals()}
        self.pass_simulated = []
        self.plan_checks = 0
        self.setup_seconds = []
        self.setup_optimizer = (0, 0.0)
        self.realized_ratio = 1.0

    # ------------------------------------------------------------------

    def setup(self):
        """Deploy the workload, several times when measuring set-up."""
        spec, seed = self.spec, self.seed
        optimize = optimize_dynamic
        if self.recorder is not None:
            optimize = self.recorder.wrap(OPTIMIZE, optimize_dynamic)

        def warmup(catalog, shapes):
            return warmup_requests(spec, catalog, shapes, seed)

        deployment = None
        for _ in range(self.setup_repeats):
            if deployment is not None:
                deployment.close()
            gc.collect()
            before = kernel_median()
            if self.recorder is not None:
                self.recorder.enabled = True
            started = time.perf_counter()
            deployment = deploy(spec, warmup, optimize)
            elapsed = time.perf_counter() - started
            if self.recorder is not None:
                self.recorder.enabled = False
            scale = NOMINAL_SECONDS / ((before + kernel_median()) / 2.0)
            self.setup_seconds.append(elapsed * scale)
        if self.recorder is not None:
            calls = [s for s in self.recorder.spans if s[0] == OPTIMIZE]
            self.setup_optimizer = (
                len(calls),
                sum(s[2] - s[1] for s in calls) * scale,
            )
        if spec.warm:
            self.errors += conservation_errors(
                deployment.service, deployment.requests_sent
            )
        self.deployment = deployment

    def prepare(self):
        """Generate the round and its expected results (untimed)."""
        deployment = self.deployment
        self.round = generate_round(
            self.spec, deployment.catalog, deployment.shapes, self.seed, self.round_size
        )
        self.oracle = RowOracle(deployment.catalog)
        self.expected = [self.oracle.expected(request) for request in self.round]
        order = list(range(len(self.round)))
        random.Random("plan-sample/%d" % self.seed).shuffle(order)
        self.plan_candidates = set(order[: 2 * PLAN_SAMPLE])
        self.plan_results = {}

    # ------------------------------------------------------------------

    def one_pass(self, traced):
        """Serve the round once; returns the pass's wall seconds."""
        deployment = self.deployment
        recorder = self.recorder
        if not self.spec.warm:
            deployment.new_service()
        service = deployment.service
        serve = deployment.run
        if traced:
            recorder.install_layers()
            recorder.attach(service)
            serve = recorder.wrap(REQUEST, deployment.run)
            span_start = len(recorder.spans)
            first_id = self.attempted
            recorder.enabled = True
        totals = self.totals[traced]
        before = cache_counts(service)
        sample_plans = totals.passes == 0 and not traced
        oracle, expected = self.oracle, self.expected
        latencies, segments = [], []
        simulated = 0.0
        gc.collect()
        clock = PassClock()
        pass_started = time.perf_counter()
        for index, request in enumerate(self.round):
            if traced:
                recorder.request_id = self.attempted
            self.attempted += 1
            segments.append(clock.segment())
            started = time.perf_counter()
            try:
                result = serve(request)
            except ReproError as error:
                latencies.append(None)
                self.failed += 1
                self.errors.append("request %d failed: %s" % (index, error))
                clock.tick()
                continue
            latencies.append(time.perf_counter() - started)
            if oracle.served(request, result.execution.records) != expected[index]:
                self.errors.append(
                    "request %d (%s): rows differ from the oracle"
                    % (index, request.shape.name)
                )
            simulated += result.execution.simulated_seconds()
            totals.add_result(result)
            if sample_plans and index in self.plan_candidates:
                report = getattr(result.execution, "midquery", None)
                if report is None or report.switches == 0:
                    self.plan_results[index] = result.chosen
            clock.tick()
        wall = time.perf_counter() - pass_started
        scales = clock.finish()
        if traced:
            recorder.enabled = False
            recorder.unpatch()
        request_scales = [scales[segment] for segment in segments]
        scaled = [
            None if seconds is None else seconds * scale
            for seconds, scale in zip(latencies, request_scales)
        ]
        served = [seconds for seconds in scaled if seconds is not None]
        after = cache_counts(service)
        totals.passes += 1
        totals.latencies.append(scaled)
        totals.requests += len(served)
        totals.seconds += sum(served)
        totals.raw_seconds += sum(s for s in latencies if s is not None)
        totals.lookups += after["lookups"] - before["lookups"]
        totals.hits += after["hits"] - before["hits"]
        totals.evictions += after["evictions"] - before["evictions"]
        if traced:
            layers, request_self = layer_times(
                recorder.spans,
                span_start,
                lambda request: request_scales[request - first_id],
            )
            for name, seconds in layers.items():
                totals.layers[name] = totals.layers.get(name, 0.0) + seconds
            totals.request_self += request_self
        self.pass_simulated.append(simulated)
        if not self.spec.warm:
            self.errors += conservation_errors(service, deployment.requests_sent)
        return wall

    def measure(self):
        """Passes until ``seconds`` of pass time (whole rounds only)."""
        minimum = 2 if self.trace else MIN_PASSES
        elapsed, passes = 0.0, 0
        while passes < minimum or elapsed < self.seconds:
            traced = self.trace and passes % 2 == 1
            elapsed += self.one_pass(traced)
            passes += 1
        if self.spec.warm:
            self.errors += conservation_errors(
                self.deployment.service, self.deployment.requests_sent
            )
        if len(set(self.pass_simulated)) != 1:
            self.errors.append(
                "simulated cost differs between identical rounds: %r"
                % sorted(set(self.pass_simulated))
            )

    def check_plans(self):
        """``g_i = d_i`` on the first switch-free requests of the sample."""
        catalog = self.deployment.catalog
        for index in sorted(self.plan_results)[:PLAN_SAMPLE]:
            request = self.round[index]
            chosen_cost, optimal_cost = plan_cost_gap(
                catalog, request.shape, request.bindings, self.plan_results[index]
            )
            self.plan_checks += 1
            if not costs_agree(chosen_cost, optimal_cost):
                self.errors.append(
                    "request %d: chosen plan costs %.6g, run-time optimum %.6g"
                    % (index, chosen_cost, optimal_cost)
                )
        if self.plan_checks == 0:
            self.errors.append("no request was eligible for the plan-cost check")

    def replay_without_reopt(self):
        """Simulated cost of the same round with mid-query re-optimization off."""
        deployment = self.deployment
        deployment.new_service()
        simulated = 0.0
        for index, request in enumerate(self.round):
            result = deployment.run(request, reopt_policy="off")
            rows = self.oracle.served(request, result.execution.records)
            if rows != self.expected[index]:
                self.errors.append(
                    "request %d: rows differ without re-optimization" % index
                )
            simulated += result.execution.simulated_seconds()
        self.realized_ratio = self.pass_simulated[0] / simulated

    def execute(self):
        self.setup()
        self.prepare()
        self.measure()
        self.check_plans()
        if self.trace and self.spec.reopt_policy not in (None, "off"):
            self.replay_without_reopt()
        if threading.active_count() != 1:
            self.errors.append("%d threads alive" % threading.active_count())
        self.deployment.close()
        if self.recorder is not None and self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            self.recorder.write(
                os.path.join(
                    self.out_dir, "spans-%s-seed%d.jsonl" % (self.spec.name, self.seed)
                )
            )
        return self

    # ------------------------------------------------------------------

    def end_to_end(self):
        totals = self.totals[False]
        per_request = sorted(
            statistics.median(s for s in samples if s is not None)
            for samples in zip(*totals.latencies)
            if any(s is not None for s in samples)
        )
        return {
            "throughput_rps": (totals.requests / totals.seconds, "1/s"),
            "latency_p50_ms": (1e3 * percentile(per_request, 0.50), "ms"),
            "latency_p99_ms": (1e3 * percentile(per_request, 0.99), "ms"),
            "sim_ms_per_req": (1e3 * totals.simulated / totals.requests, "ms"),
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }

    def per_layer(self):
        totals = self.totals[True]
        plain = self.totals[False]
        n = float(totals.requests)
        layers = totals.layers
        busy = totals.seconds
        setup_calls, setup_seconds = self.setup_optimizer
        optimizer_seconds = layers.get(OPTIMIZE, 0.0)
        served_calls = sum(
            1 for span in self.recorder.spans if span[0] == OPTIMIZE and span[4] >= 0
        )
        # Every traced pass serves the same round: count its calls once.
        round_calls = served_calls // totals.passes
        io = totals.io
        return {
            "gateway.route_us": (1e6 * layers.get(ROUTE, 0.0) / n, "us"),
            "cache.lookup_us": (1e6 * layers.get(LOOKUP, 0.0) / n, "us"),
            "cache.hit_ratio": (totals.hits / float(totals.lookups), "ratio"),
            "cache.evictions_per_kreq": (1e3 * totals.evictions / n, "1/kreq"),
            "cache.reoptimizations_per_kreq": (1e3 * totals.reoptimized / n, "1/kreq"),
            "optimizer.calls": (setup_calls + round_calls, "count"),
            "optimizer.ms_per_call": (
                1e3
                * (setup_seconds + optimizer_seconds)
                / max(1, setup_calls + served_calls),
                "ms",
            ),
            "optimizer.share": (optimizer_seconds / busy, "ratio"),
            "decision.us_per_req": (1e6 * layers.get(DECISION, 0.0) / n, "us"),
            "decision.share": (layers.get(DECISION, 0.0) / busy, "ratio"),
            "executor.ms_per_req": (1e3 * layers.get(EXECUTE, 0.0) / n, "ms"),
            "executor.share": (layers.get(EXECUTE, 0.0) / busy, "ratio"),
            "executor.rows_per_req": (totals.rows / n, "rows"),
            "storage.pages_read_per_req": (io["pages_read"] / n, "pages"),
            "storage.pages_written_per_req": (io["pages_written"] / n, "pages"),
            "storage.records_per_req": (io["records_processed"] / n, "records"),
            "storage.index_probes_per_req": (io["index_probes"] / n, "probes"),
            "midquery.checkpoints_per_req": (totals.checkpoints / n, "count"),
            "midquery.switches": (1e3 * totals.switches / n, "1/kreq"),
            "midquery.realized_ratio": (self.realized_ratio, "ratio"),
            "service.self_us_per_req": (1e6 * totals.request_self / n, "us"),
            "trace.overhead_ratio": (
                (totals.seconds / n) / (plain.seconds / plain.requests),
                "ratio",
            ),
        }

    def metrics(self):
        return self.per_layer() if self.trace else self.end_to_end()

    def raw_summary(self):
        """Unscaled figures, printed for reference only."""
        totals = self.totals[False]
        return {
            "raw_throughput_rps": totals.requests / totals.raw_seconds,
            "speed_vs_reference": totals.seconds / totals.raw_seconds,
            "passes": totals.passes + self.totals[True].passes,
            "plan_checks": self.plan_checks,
        }


def percentile(ordered, fraction):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]
