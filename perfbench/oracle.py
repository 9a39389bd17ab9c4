"""Checks of the program's answers that do not trust the program.

* :class:`RowOracle` recomputes every request's result from the rows
  ``generate_rows`` produces, with plain-Python filters and hash joins.
  It uses none of the program's storage, executor or optimizer, and it
  compares against nothing stored from an earlier run.
* :func:`plan_cost_gap` is the paper's ``g_i = d_i`` property: the plan
  the dynamic plan chose at start-up costs what run-time optimization's
  plan costs, under the request's own bindings.
* :func:`conservation_errors` checks the service's own accounting
  against the number of requests the client sent.
"""

import copy

from repro.algebra.physical import Materialized
from repro.catalog.synthetic import generate_rows
from repro.optimizer import optimize_runtime
from repro.scenarios.scenario import predicted_execution_seconds
from repro.workloads.queries import SELECTION_ATTRIBUTE

from workloads import DATA_SEED

#: Relative tolerance of the ``g_i = d_i`` cost comparison.
COST_TOLERANCE = 1e-9


def row_digest(rows):
    """Order-independent identity of a multiset of value tuples."""
    rows = sorted(rows)
    return len(rows), hash(tuple(rows))


class RowOracle:
    """Expected result rows of chain queries over the synthetic data."""

    def __init__(self, catalog):
        self.catalog = catalog
        self._base = {}
        self._columns = {}

    def _rows(self, relation):
        rows = self._base.get(relation)
        if rows is None:
            rows = list(generate_rows(self.catalog, relation, seed=DATA_SEED))
            self._base[relation] = rows
        return rows

    def columns(self, shape):
        """Qualified output columns of a shape, in comparison order."""
        key = tuple(shape.relations)
        columns = self._columns.get(key)
        if columns is None:
            columns = sorted(
                "%s.%s" % (relation, attribute.name)
                for relation in shape.relations
                for attribute in self.catalog.schema(relation)
            )
            self._columns[key] = columns
        return columns

    def expected(self, request):
        """Digest of the rows ``request`` must return.

        Each relation is filtered by ``a < value``; the chain
        ``R[i].b = R[i+1].c`` is then joined left to right, building a
        hash table on the next relation's ``c``.
        """
        shape = request.shape
        filtered = []
        for relation in shape.relations:
            bound = request.values[relation]
            rows = [
                {"%s.%s" % (relation, name): value for name, value in row.items()}
                for row in self._rows(relation)
                if row[SELECTION_ATTRIBUTE] < bound
            ]
            filtered.append((relation, rows))
        left_relation, joined = filtered[0]
        for relation, rows in filtered[1:]:
            table = {}
            for row in rows:
                table.setdefault(row["%s.c" % relation], []).append(row)
            probe_key = "%s.b" % left_relation
            step = []
            for row in joined:
                for match in table.get(row[probe_key], ()):
                    merged = dict(row)
                    merged.update(match)
                    step.append(merged)
            joined = step
            left_relation = relation
        columns = self.columns(shape)
        return row_digest(tuple(row[c] for c in columns) for row in joined)

    def served(self, request, records):
        """Digest of the rows the service returned for ``request``."""
        columns = self.columns(request.shape)
        rows = []
        for record in records:
            fields = record.as_dict()
            if len(fields) != len(columns):
                return (-1, sorted(fields))
            rows.append(tuple(fields[c] for c in columns))
        return row_digest(rows)


def _without_checkpoints(plan, memo=None):
    """``plan`` with each run-time checkpoint replaced by its subplan.

    A request that re-optimized mid-query without switching executes
    its start-up plan over checkpoints; putting the original subplans
    back gives the start-up plan the cost comparison is about.
    """
    memo = {} if memo is None else memo
    if id(plan) in memo:
        return memo[id(plan)]
    if isinstance(plan, Materialized):
        result = _without_checkpoints(plan.original, memo)
    else:
        children = list(plan.inputs())
        stripped = [_without_checkpoints(child, memo) for child in children]
        if all(new is old for new, old in zip(stripped, children)):
            result = plan
        else:
            result = copy.copy(plan)
            replace = {id(old): new for old, new in zip(children, stripped)}
            for attribute, value in vars(plan).items():
                if id(value) in replace:
                    setattr(result, attribute, replace[id(value)])
    memo[id(plan)] = result
    return result


def plan_cost_gap(catalog, query, bindings, chosen):
    """``(chosen cost, run-time optimal cost)`` under ``bindings``."""
    plan = _without_checkpoints(chosen)
    space = query.parameter_space
    chosen_cost = predicted_execution_seconds(plan, catalog, space, bindings)
    optimal = optimize_runtime(catalog, query, bindings).plan
    optimal_cost = predicted_execution_seconds(optimal, catalog, space, bindings)
    return chosen_cost, optimal_cost


def costs_agree(chosen_cost, optimal_cost):
    scale = max(abs(chosen_cost), abs(optimal_cost), 1e-12)
    return abs(chosen_cost - optimal_cost) <= COST_TOLERANCE * scale


def service_stats(service):
    """A service's statistics; a gateway's exact aggregate over its shards."""
    stats = service.stats()
    return getattr(stats, "total", stats)


def cache_counts(service):
    """Plan-cache counters of a service or gateway."""
    return service_stats(service).cache


def conservation_errors(service, sent):
    """Accounting identities the service must satisfy after ``sent`` requests."""
    errors = []
    stats = service_stats(service)
    cache = stats.cache
    if stats.requests != sent:
        errors.append(
            "service counted %d requests, client sent %d" % (stats.requests, sent)
        )
    if cache["hits"] + cache["misses"] != cache["lookups"]:
        errors.append("cache hits + misses != lookups: %r" % (cache,))
    if cache["lookups"] != sent:
        errors.append("cache lookups %d != requests %d" % (cache["lookups"], sent))
    outcomes = getattr(service, "request_outcomes", None)
    if outcomes is not None:
        counts = outcomes()
        settled = (
            counts["completed"]
            + counts["failed_over"]
            + counts["failed"]
            + counts["rejected"]
        )
        if counts["submitted"] != sent or settled != sent:
            errors.append("gateway outcomes %r do not sum to %d" % (counts, sent))
    return errors
