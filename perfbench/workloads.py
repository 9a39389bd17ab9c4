"""The three serving workloads: fixed databases, seeded request streams.

Each workload is a fixed database (catalog, rows and query shapes come
from constants below, so every seed serves the same compiled
statements over the same data) plus a request stream generated from the
run's ``--seed``: the order of requests and every binding value.

Streams are *stratified*, so that two seeds put the same amount of work
in front of the program: each shape gets exactly its Zipf share of the
round (largest-remainder rounding), each request category (in-bounds,
drifting, lying) gets exactly its share of every shape, and within one
shape and category the selectivity vectors form an evenly spread point
set (:func:`lattice`).  The seed shifts every point set by up to
:data:`JITTER` and decides the order of the requests.
"""

import math
import random

from repro import Database, QueryService, populate_database
from repro.catalog.synthetic import (
    DOMAIN_FACTOR_RANGE,
    JOIN_ATTRIBUTES,
    JOIN_DOMAIN_FACTOR,
    SyntheticRelationSpec,
    build_synthetic_catalog,
)
from repro.cost.parameters import Bindings
from repro.optimizer import optimize_dynamic
from repro.optimizer.query import QuerySpec
from repro.service.sharding import ShardedQueryService
from repro.workloads.queries import (
    SELECTION_ATTRIBUTE,
    make_join_predicates,
    make_selection_predicate,
)

#: Seed of every workload's catalog statistics and stored rows.
DATA_SEED = 7

#: Seed of every workload's query-shape set.
SHAPE_SEED = 11

#: Relations in every workload's database.
RELATIONS = 8

#: Selectivity ranges a lying request declares, and that its data
#: actually has: outside narrowed compile-time bounds, so the lie shows
#: at the first pipeline breaker, not in the staleness check.
LIE_DECLARED = (0.0, 0.02)
LIE_ACTUAL = (0.5, 0.9)

#: Requests whose selectivities stay inside the compile-time bounds.
NORMAL = "normal"
#: Requests drawing selectivities from all of [0, 1]: stale plans.
DRIFT = "drift"
#: Requests declaring tiny selectivities while the data qualifies at a
#: far higher rate: only a pipeline breaker can see the lie.
LIE = "lie"


class WorkloadSpec:
    """Make-up of one workload; see the README for the reasons."""

    def __init__(
        self,
        name,
        chain_length,
        shapes,
        zipf_s,
        selectivity_range,
        round_size,
        engine,
        capacity,
        cardinalities=(100, 1000),
        compile_bounds=(0.0, 1.0),
        shards=0,
        reopt_policy=None,
        warm=True,
        drift_share=0.0,
        lie_share=0.0,
    ):
        self.name = name
        self.chain_length = chain_length
        self.shapes = shapes
        self.zipf_s = zipf_s
        self.selectivity_range = selectivity_range
        self.round_size = round_size
        self.engine = engine
        self.capacity = capacity
        #: Smallest and largest relation; the others are spread evenly.
        self.cardinalities = cardinalities
        self.compile_bounds = compile_bounds
        #: 0 serves through ``QueryService.run``; N through the sharded
        #: gateway ``ShardedQueryService.run`` with N shards.
        self.shards = shards
        self.reopt_policy = reopt_policy
        #: Warm workloads compile every shape during set-up; cold ones
        #: start every round on an empty plan cache.
        self.warm = warm
        self.drift_share = drift_share
        self.lie_share = lie_share


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "zipf-exec",
            chain_length=4,
            shapes=40,
            zipf_s=1.1,
            selectivity_range=(0.0, 1.0),
            round_size=2000,
            engine="batch",
            capacity=64,
        ),
        WorkloadSpec(
            "wide-select",
            chain_length=8,
            shapes=16,
            zipf_s=1.1,
            selectivity_range=(0.2, 0.4),
            round_size=1000,
            cardinalities=(150, 400),
            engine="batch",
            capacity=64,
            shards=2,
        ),
        WorkloadSpec(
            "drift-churn",
            chain_length=4,
            shapes=24,
            zipf_s=0.8,
            selectivity_range=(0.0, 0.2),
            compile_bounds=(0.0, 0.2),
            round_size=1000,
            cardinalities=(40, 240),
            engine="row",
            capacity=8,
            reopt_policy="auto",
            warm=False,
            drift_share=0.15,
            lie_share=0.20,
        ),
    )
}


class Request:
    """One generated invocation: a shape and its bindings."""

    __slots__ = ("shape", "bindings", "values")

    def __init__(self, shape, bindings, values):
        self.shape = shape
        self.bindings = bindings
        #: ``{relation: upper bound of R.a}``, the user-variable values
        #: the data is filtered by (what the result check recomputes).
        self.values = values


# ----------------------------------------------------------------------
# Fixed database and shapes
# ----------------------------------------------------------------------


def relation_specs(spec):
    """Relations ``R1..Rn`` with the paper's domain-size distribution.

    Like ``default_relation_specs`` but over the workload's own
    cardinality range: join attributes get the fixed join domain
    factor, the selection attribute a seeded one from the paper's
    0.2-1.25 range.
    """
    rng = random.Random("%s/relations/%d" % (spec.name, DATA_SEED))
    low, high = spec.cardinalities
    specs = []
    for i in range(RELATIONS):
        cardinality = low + (high - low) * i // (RELATIONS - 1)
        domains = {}
        for attribute in ("a", "b", "c"):
            if attribute in JOIN_ATTRIBUTES:
                factor = JOIN_DOMAIN_FACTOR
            else:
                factor = rng.uniform(*DOMAIN_FACTOR_RANGE)
            domains[attribute] = max(1, int(round(cardinality * factor)))
        specs.append(
            SyntheticRelationSpec(
                "R%d" % (i + 1), cardinality, domain_sizes=domains
            )
        )
    return specs


def build_catalog(spec):
    """The workload's catalog (program code: part of set-up)."""
    return build_synthetic_catalog(relation_specs(spec), seed=DATA_SEED)


def shape_orders(spec, catalog):
    """Relation orders of the workload's chain shapes.

    Distinct orders give distinct join-predicate sets (a chain and its
    reverse are the same query), hence distinct plan-cache signatures.
    """
    names = list(catalog.relation_names())
    rng = random.Random("%s/%d" % (spec.name, SHAPE_SEED))
    orders, seen = [], set()
    while len(orders) < spec.shapes:
        order = rng.sample(names, spec.chain_length)
        key = frozenset(frozenset(pair) for pair in zip(order, order[1:]))
        if key not in seen:
            seen.add(key)
            orders.append(order)
    return orders


def build_shapes(spec, catalog):
    """The workload's compiled statements, most popular first."""
    low, high = spec.compile_bounds
    expected = min(max(0.05, low), high)
    shapes = []
    for index, order in enumerate(shape_orders(spec, catalog)):
        selections = {
            name: make_selection_predicate(
                name, expected, selectivity_bounds=spec.compile_bounds
            )
            for name in order
        }
        shapes.append(
            QuerySpec(
                relations=order,
                selections=selections,
                join_predicates=make_join_predicates(order, "chain"),
                name="%s-%02d" % (spec.name, index),
            )
        )
    return shapes


# ----------------------------------------------------------------------
# Seeded request streams
# ----------------------------------------------------------------------


def apportion(total, weights):
    """Integer counts summing to ``total``, proportional to ``weights``."""
    scale = total / float(sum(weights))
    raw = [weight * scale for weight in weights]
    counts = [int(value) for value in raw]
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


#: Irrational steps of the Kronecker point sets: fractional parts of
#: the square roots of the first primes.
_STEPS = [
    math.sqrt(prime) % 1.0
    for prime in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
]

#: Largest shift the seed gives a point set, per coordinate.
JITTER = 0.005


def lattice(rng, count, dimensions):
    """``count`` points spread evenly over the unit cube, seeded jitter.

    A Kronecker sequence - point ``j`` has coordinate ``frac(shift_k +
    j * step_k)`` - whose shifts the seed draws from ``[0, JITTER)``:
    every seed's set covers the cube, its corners (where the heavy
    requests sit) included, nearly the same way, so the work a round
    holds hardly depends on the seed.
    """
    shifts = [rng.random() * JITTER for _ in range(dimensions)]
    return [
        [(shifts[k] + j * _STEPS[k]) % 1.0 for k in range(dimensions)]
        for j in range(count)
    ]


def make_bindings(shape, catalog, declared, actual):
    """Bindings telling the optimizer ``declared`` and filtering by ``actual``."""
    bindings = Bindings()
    values = {}
    for relation in shape.relations:
        predicate = shape.selection_for(relation)
        domain = catalog.domain_size(relation, SELECTION_ATTRIBUTE)
        values[relation] = actual[relation] * domain
        bindings.bind(predicate.selectivity_parameter, declared[relation])
        bindings.bind_variable(predicate.comparison.operand.name, values[relation])
    return bindings, values


def _category_ranges(spec):
    low, high = spec.selectivity_range
    return {
        NORMAL: ((low, high), (low, high)),
        DRIFT: ((0.0, 1.0), (0.0, 1.0)),
        LIE: (LIE_DECLARED, LIE_ACTUAL),
    }


def generate_round(spec, catalog, shapes, seed, size=None):
    """The run's request round: ``size`` requests, fixed by ``seed``."""
    size = spec.round_size if size is None else size
    rng = random.Random("%s/stream/%d" % (spec.name, seed))
    popularity = [1.0 / (rank + 1) ** spec.zipf_s for rank in range(len(shapes))]
    shares = [1.0 - spec.drift_share - spec.lie_share, spec.drift_share, spec.lie_share]
    ranges = _category_ranges(spec)
    slots = []
    for shape, count in zip(shapes, apportion(size, popularity)):
        per_category = apportion(count, shares)
        for category, members in zip((NORMAL, DRIFT, LIE), per_category):
            width = spec.chain_length * (2 if category == LIE else 1)
            for point in lattice(rng, members, width):
                slots.append((shape, category, point))
    rng.shuffle(slots)
    requests = []
    for shape, category, point in slots:
        (told_low, told_high), (true_low, true_high) = ranges[category]
        declared, actual = {}, {}
        for k, relation in enumerate(shape.relations):
            declared[relation] = told_low + (told_high - told_low) * point[k]
            if category == LIE:
                u = point[k + spec.chain_length]
                actual[relation] = true_low + (true_high - true_low) * u
            else:
                actual[relation] = declared[relation]
        bindings, values = make_bindings(shape, catalog, declared, actual)
        requests.append(Request(shape, bindings, values))
    return requests


def warmup_requests(spec, catalog, shapes, seed):
    """One in-bounds request per shape, compiling the plan cache."""
    rng = random.Random("%s/warmup/%d" % (spec.name, seed))
    low, high = spec.selectivity_range
    requests = []
    for shape in shapes:
        draw = {relation: rng.uniform(low, high) for relation in shape.relations}
        bindings, values = make_bindings(shape, catalog, draw, draw)
        requests.append(Request(shape, bindings, values))
    return requests


# ----------------------------------------------------------------------
# The program under test
# ----------------------------------------------------------------------


class Deployment:
    """A loaded database, one service over it, and its shapes."""

    def __init__(self, spec, catalog, database, shapes, optimize):
        self.spec = spec
        self.catalog = catalog
        self.database = database
        self.shapes = shapes
        self.optimize = optimize
        self.service = None
        self.requests_sent = 0

    def new_service(self):
        """A fresh service (empty plan cache) over the loaded database."""
        spec = self.spec
        common = dict(
            capacity=spec.capacity,
            optimize=self.optimize,
            execution_mode=spec.engine,
            reopt_policy=spec.reopt_policy,
        )
        if spec.shards:
            self.service = ShardedQueryService(
                self.database, shards=spec.shards, **common
            )
        else:
            self.service = QueryService(self.database, max_workers=1, **common)
        self.requests_sent = 0
        return self.service

    def run(self, request, reopt_policy=None):
        """Serve one request through the public entry point."""
        self.requests_sent += 1
        return self.service.run(
            request.shape, request.bindings, reopt_policy=reopt_policy
        )

    def close(self):
        if self.service is not None:
            self.service.shutdown()
            self.service = None


def deploy(spec, warmup, optimize=optimize_dynamic):
    """Set-up: catalog, rows, load, service construction and warm-up."""
    catalog = build_catalog(spec)
    database = Database(catalog)
    populate_database(database, seed=DATA_SEED)
    shapes = build_shapes(spec, catalog)
    deployment = Deployment(spec, catalog, database, shapes, optimize)
    deployment.new_service()
    if spec.warm:
        for request in warmup(catalog, shapes):
            deployment.run(request)
    return deployment
