"""Ablation — spatial replication vs time redundancy (re-execution).

The related work ([9]–[11]) tolerates transient faults by re-executing
tasks; the paper's fail-silent host model calls for spatial
replication.  The bench shows both halves of the trade-off on the
strict 3TS requirement:

* under independent *transient* faults, a 2-attempt re-execution plan
  matches scenario 1's SRGs with zero extra hosts (but double CPU on
  the controller's host);
* under a *permanent* fault (the pull-the-plug experiment), only the
  spatially replicated mapping keeps the command reliable.
"""

import pytest

from repro.experiments import (
    baseline_implementation,
    bind_control_functions,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.mapping import Implementation
from repro.model import BOTTOM
from repro.reliability import communicator_srgs
from repro.runtime import ScriptedFaults, Simulator
from repro.synthesis import (
    ReexecutionPlan,
    TransientReexecutionFaults,
    synthesize_reexecution,
)


def test_bench_reexecution(benchmark, report):
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()

    plan = benchmark(synthesize_reexecution, spec, arch)

    reexec_srgs = communicator_srgs(
        spec, plan.implementation, arch, plan.attempts
    )
    replication_srgs = communicator_srgs(
        spec, scenario1_implementation(), arch
    )
    assert reexec_srgs["u1"] >= 0.9975 - 1e-9
    assert replication_srgs["u1"] >= 0.9975 - 1e-9

    # Permanent fault: unplug h2 and observe u2 at runtime.
    functions_spec = three_tank_spec(
        lrc_u=0.9975, functions=bind_control_functions()
    )
    unplug = ScriptedFaults(host_outages={"h2": [(0, None)]})

    base = baseline_implementation()
    time_plan = ReexecutionPlan(
        Implementation(dict(base.assignment), base.sensor_binding),
        {"t1": 2, "t2": 2},
    )
    reexec_result = Simulator(
        functions_spec, arch, time_plan.implementation,
        faults=TransientReexecutionFaults(unplug, time_plan), seed=1,
    ).run(40)
    reexec_u2_dead = all(
        v is BOTTOM for v in reexec_result.values["u2"][4:]
    )

    replicated_result = Simulator(
        functions_spec, arch, scenario1_implementation(),
        faults=unplug, seed=1,
    ).run(40)
    replicated_u2_alive = all(
        v is not BOTTOM for v in replicated_result.values["u2"][4:]
    )

    assert reexec_u2_dead
    assert replicated_u2_alive

    report(
        "Ablation — replication [this paper] vs re-execution [9-11]",
        [
            ("SRG(u1), replication (scenario 1)", "0.998000002",
             f"{replication_srgs['u1']:.9f}"),
            ("SRG(u1), re-execution plan", "same math (transient)",
             f"{reexec_srgs['u1']:.9f}"),
            ("extra hosts used: replication / re-execution", "n/a",
             f"{scenario1_implementation().replication_count() - 6} / 0"),
            ("total executions: replication / re-execution", "n/a",
             f"{scenario1_implementation().replication_count()} / "
             f"{plan.total_executions()}"),
            ("u2 survives a PERMANENT h2 fault, replication",
             "yes (pull-the-plug)", "yes" if replicated_u2_alive else "no"),
            ("u2 survives a PERMANENT h2 fault, re-execution",
             "no (same host)", "no" if reexec_u2_dead else "yes"),
        ],
    )
