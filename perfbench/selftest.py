"""Fast self-test of the benchmark: its checks pass, and they can fail.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it makes a short run (a 60-request round, one
set-up, the minimum number of passes) and requires every check to
pass.  Then it serves the same round again twice, once with one result
row corrupted and once with each sampled request's chosen plan swapped
for a costlier one, and requires the row check and the ``g_i = d_i``
check respectively to report the fault.  Exits 0 when all of that
holds.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.optimizer import optimize_runtime  # noqa: E402
from repro.storage.records import Record  # noqa: E402

from measure import Run  # noqa: E402
from workloads import WORKLOADS, make_bindings  # noqa: E402

ROUND = 60


def short_run(name):
    run = Run(name, seed=1, seconds=0.0, trace=False, round_size=ROUND, setup_repeats=1)
    run.setup()
    run.prepare()
    return run


def corrupt_one_row(result):
    """Change one value of the first row, or add a row to an empty result."""
    records = result.execution.records
    if records:
        fields = records[0].as_dict()
        column = sorted(fields)[0]
        fields[column] += 1
        records[0] = Record(fields)
    else:
        records.append(Record({"R1.a": -1}))


def costlier_plan(run, request):
    """Run-time optimization's plan for the opposite selectivities."""
    shape = request.shape
    opposite = {}
    for relation in shape.relations:
        parameter = shape.selection_for(relation).selectivity_parameter
        opposite[relation] = 1.0 - request.bindings.parameter(parameter)
    bindings, _ = make_bindings(shape, run.deployment.catalog, opposite, opposite)
    return optimize_runtime(run.deployment.catalog, shape, bindings).plan


def intercept(run, change):
    """Route the run's requests through ``change(index, request, result)``."""
    serve = run.deployment.run
    position = {id(request): index for index, request in enumerate(run.round)}

    def changed(request, **kwargs):
        result = serve(request, **kwargs)
        change(position[id(request)], request, result)
        return result

    run.deployment.run = changed


def check_workload(name):
    failures = []
    run = short_run(name)
    run.measure()
    run.check_plans()
    if run.errors or run.failed or run.plan_checks == 0:
        failures.append("clean run reported %r" % (run.errors[:3],))

    bad_rows = short_run(name)

    def corrupt(index, request, result):
        if index == 0:
            corrupt_one_row(result)

    intercept(bad_rows, corrupt)
    bad_rows.one_pass(False)
    if not any("rows differ" in error for error in bad_rows.errors):
        failures.append("a corrupted row went unnoticed")
    bad_rows.deployment.close()

    bad_plans = short_run(name)

    def swap(index, request, result):
        if index in bad_plans.plan_candidates:
            result.chosen = costlier_plan(bad_plans, request)

    intercept(bad_plans, swap)
    bad_plans.one_pass(False)
    bad_plans.check_plans()
    if not any("chosen plan costs" in error for error in bad_plans.errors):
        failures.append("a costlier chosen plan went unnoticed")
    bad_plans.deployment.close()
    run.deployment.close()
    return failures


def main():
    status = 0
    for name in WORKLOADS:
        failures = check_workload(name)
        print("%-12s %s" % (name, "ok" if not failures else "; ".join(failures)))
        status = status or bool(failures)
    return status


if __name__ == "__main__":
    sys.exit(main())
