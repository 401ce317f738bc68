"""Hypothesis strategies for generating valid design artifacts.

The strategies mirror the layered construction of
``repro.experiments.random_systems`` but let Hypothesis drive every
shape decision, so shrinking produces minimal counterexamples.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.mapping import Implementation, TimeDependentImplementation
from repro.model import Communicator, FailureModel, Specification, Task

STEP = 40
INPUT_PERIODS = (10, 20, 40)

lrcs = st.floats(min_value=0.01, max_value=1.0,
                 allow_nan=False, allow_infinity=False)
reliabilities = st.floats(min_value=0.5, max_value=1.0,
                          allow_nan=False, allow_infinity=False)
models = st.sampled_from(list(FailureModel))


@st.composite
def specifications(
    draw,
    max_layers: int = 3,
    max_tasks_per_layer: int = 3,
    max_inputs: int = 3,
):
    """Generate a layered, memory-free, race-free specification."""
    layers = draw(st.integers(min_value=1, max_value=max_layers))
    inputs = draw(st.integers(min_value=1, max_value=max_inputs))
    communicators = []
    available = []  # (name, period)
    for index in range(inputs):
        period = draw(st.sampled_from(INPUT_PERIODS))
        name = f"in{index}"
        communicators.append(
            Communicator(name, period=period, lrc=draw(lrcs), init=0.0)
        )
        available.append((name, period))

    tasks = []
    for layer in range(1, layers + 1):
        read_time = (layer - 1) * STEP
        count = draw(
            st.integers(min_value=1, max_value=max_tasks_per_layer)
        )
        produced = []
        for index in range(count):
            chosen = draw(
                st.lists(
                    st.sampled_from(range(len(available))),
                    min_size=1,
                    max_size=min(3, len(available)),
                    unique=True,
                )
            )
            ports = []
            defaults = {}
            for pick in chosen:
                name, period = available[pick]
                ports.append((name, read_time // period))
                defaults[name] = 0.0
            out_name = f"c{layer}_{index}"
            communicators.append(
                Communicator(
                    out_name, period=STEP, lrc=draw(lrcs), init=0.0
                )
            )
            arity = len(ports)
            tasks.append(
                Task(
                    f"t{layer}_{index}",
                    inputs=ports,
                    outputs=[(out_name, layer)],
                    model=draw(models),
                    defaults=defaults,
                    function=(
                        lambda *values, _n=arity: float(sum(values[:_n]))
                    ),
                )
            )
            produced.append((out_name, STEP))
        available.extend(produced)
    return Specification(communicators, tasks)


@st.composite
def architectures(draw, max_hosts: int = 4, max_sensors: int = 3):
    """Generate an architecture with random reliabilities."""
    host_count = draw(st.integers(min_value=1, max_value=max_hosts))
    sensor_count = draw(st.integers(min_value=1, max_value=max_sensors))
    hosts = [
        Host(f"h{i}", draw(reliabilities)) for i in range(host_count)
    ]
    sensors = [
        Sensor(f"s{i}", draw(reliabilities)) for i in range(sensor_count)
    ]
    metrics = ExecutionMetrics(
        default_wcet=draw(st.integers(min_value=1, max_value=5)),
        default_wctt=draw(st.integers(min_value=1, max_value=3)),
    )
    return Architecture(hosts=hosts, sensors=sensors, metrics=metrics)


@st.composite
def partial_systems(draw, **spec_kwargs):
    """Generate a triple whose implementation is partial (or absent).

    Drives the abstract-interpretation engine's partial-design mode: a
    random subset of tasks keeps its host assignment and a random
    subset of input communicators keeps its sensor binding; dropping
    everything yields ``None`` (the fully free design).
    """
    spec, arch, impl = draw(systems(**spec_kwargs))
    kept_tasks = draw(
        st.sets(st.sampled_from(sorted(spec.tasks)))
        if spec.tasks
        else st.just(set())
    )
    inputs = sorted(spec.input_communicators())
    kept_inputs = draw(
        st.sets(st.sampled_from(inputs)) if inputs else st.just(set())
    )
    assignment = {
        task: impl.hosts_of(task) for task in sorted(kept_tasks)
    }
    binding = {
        comm: impl.sensors_of(comm) for comm in sorted(kept_inputs)
    }
    if not assignment and not binding:
        return spec, arch, None
    return spec, arch, Implementation(assignment, binding)


def _implementation(draw, spec, arch):
    """Draw a full static mapping of *spec* onto *arch*."""
    hosts = arch.host_names()
    sensors = arch.sensor_names()
    assignment = {}
    for name in sorted(spec.tasks):
        subset = draw(
            st.lists(
                st.sampled_from(hosts),
                min_size=1,
                max_size=min(2, len(hosts)),
                unique=True,
            )
        )
        assignment[name] = set(subset)
    binding = {
        comm: {draw(st.sampled_from(sensors))}
        for comm in sorted(spec.input_communicators())
    }
    return Implementation(assignment, binding)


@st.composite
def systems(draw, **spec_kwargs):
    """Generate a full (specification, architecture, mapping) triple."""
    spec = draw(specifications(**spec_kwargs))
    arch = draw(architectures())
    return spec, arch, _implementation(draw, spec, arch)


@st.composite
def cyclic_specifications(draw, max_feedback: int = 3, **spec_kwargs):
    """Generate a layered specification plus feedback ports (memory).

    A layered specification from :func:`specifications` gets between
    one and *max_feedback* extra ports, each letting a task at layer
    ``m`` read the output of a task at layer ``m`` or later at its own
    read instant ``(m - 1) * STEP`` — before that output's write time,
    so the port is lagged and reads the previous iteration's write.
    A task reading its own output is a self-loop; a later layer's
    output read by an earlier one closes a multi-task cycle through
    the same-iteration edges of the layers in between.  Every failure
    model stays possible, so independent tasks break some cycles.
    """
    spec = draw(specifications(**spec_kwargs))
    # Task name -> layer; outputs of layer m are written at m * STEP.
    layer_of = {
        name: task.outputs[0].instance for name, task in spec.tasks.items()
    }
    writer_of = {
        task.outputs[0].communicator: name
        for name, task in spec.tasks.items()
    }
    candidates = [
        (reader, comm)
        for reader in sorted(spec.tasks)
        for comm in sorted(writer_of)
        if layer_of[writer_of[comm]] >= layer_of[reader]
        and comm not in spec.tasks[reader].input_communicators()
    ]
    feedback = draw(
        st.lists(
            st.sampled_from(candidates),
            min_size=1,
            max_size=max_feedback,
            unique=True,
        )
    )
    extra: dict[str, list[str]] = {}
    for reader, comm in feedback:
        extra.setdefault(reader, []).append(comm)
    tasks = []
    for name, task in spec.tasks.items():
        ports = [(p.communicator, p.instance) for p in task.inputs]
        ports += [(comm, layer_of[name] - 1) for comm in extra.get(name, [])]
        tasks.append(
            Task(
                name,
                inputs=ports,
                outputs=[(p.communicator, p.instance) for p in task.outputs],
                model=task.model,
                defaults={comm: 0.0 for comm, _ in ports},
                function=lambda *values: float(sum(values)),
            )
        )
    return Specification(list(spec.communicators.values()), tasks)


@st.composite
def cyclic_systems(draw, max_phases: int = 3, **spec_kwargs):
    """Generate a triple with communicator cycles with memory.

    The specification comes from :func:`cyclic_specifications`; the
    mapping is a :class:`TimeDependentImplementation` of one to
    *max_phases* independently drawn static phases.
    """
    spec = draw(cyclic_specifications(**spec_kwargs))
    arch = draw(architectures())
    phases = draw(st.integers(min_value=1, max_value=max_phases))
    return spec, arch, TimeDependentImplementation(
        [_implementation(draw, spec, arch) for _ in range(phases)]
    )
