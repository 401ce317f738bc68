"""Specification graphs and memory-freedom (Section 3 of the paper).

Two graph views of a specification are provided:

* the exact *specification graph* ``G_S``: one vertex per communicator
  instance ``(c, i)`` with ``i in {0, ..., pi_S / pi_c}`` and one vertex
  per task; edges from read instances to tasks, from tasks to written
  instances, and *persistence* edges between successive instances of a
  communicator that are not overwritten in between;

* the *communicator dependency graph*: one vertex per communicator, an
  edge ``c -> c'`` labelled by every task that reads ``c`` and writes
  ``c'``.  Data-flow paths in ``G_S`` project onto paths here, so a
  communicator cycle in ``G_S`` corresponds to a cycle in this graph.

A *communicator cycle* is a path in ``G_S`` from some instance of a
communicator to another instance of the same communicator that passes
through at least one task.  A specification is *memory-free* if it has
no communicator cycle; Proposition 1 (SRG >= LRC implies reliability)
is proved for memory-free specifications.  For specifications with
memory, a cycle is *safe* only if it contains at least one task with
the independent input failure model, which breaks the propagation of
unreliable values around the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import networkx as nx

from repro.model.specification import Specification
from repro.model.task import FailureModel, Task


@dataclass
class SpecificationGraph:
    """The exact specification graph ``G_S = (V_S, E_S)``.

    Vertices are either strings (task names) or ``(name, instance)``
    tuples (communicator instances).  The underlying
    :class:`networkx.DiGraph` is exposed as :attr:`graph`.
    """

    spec: Specification
    graph: nx.DiGraph = field(init=False)

    def __post_init__(self) -> None:
        self.graph = _build_specification_graph(self.spec)

    def communicator_vertices(self, name: str) -> list[tuple[str, int]]:
        """Return all instance vertices of communicator *name*."""
        return sorted(
            v
            for v in self.graph.nodes
            if isinstance(v, tuple) and v[0] == name
        )

    def task_vertices(self) -> list[str]:
        """Return all task vertices."""
        return sorted(v for v in self.graph.nodes if isinstance(v, str))

    def has_communicator_cycle(self) -> bool:
        """Return ``True`` iff some communicator cycle exists in ``G_S``."""
        return bool(self.communicator_cycles())

    def communicator_cycles(self) -> list[str]:
        """Return the communicators that lie on a communicator cycle.

        A communicator ``c`` is returned when some path from an
        instance ``(c, i)`` reaches another instance ``(c, i')`` while
        passing through at least one task vertex.
        """
        cyclic: list[str] = []
        for name in self.spec.communicators:
            starts = self.communicator_vertices(name)
            if self._reaches_self_through_task(name, starts):
                cyclic.append(name)
        return cyclic

    def _reaches_self_through_task(
        self, name: str, starts: Iterable[tuple[str, int]]
    ) -> bool:
        # Search for a path start -> ... -> (name, j) whose interior
        # contains a task vertex.  We track, per visited vertex, whether
        # a task has been traversed on the way there; a vertex may need
        # to be revisited once with the flag set.
        for start in starts:
            seen: set[tuple[object, bool]] = set()
            stack: list[tuple[object, bool]] = [(start, False)]
            while stack:
                vertex, via_task = stack.pop()
                if (vertex, via_task) in seen:
                    continue
                seen.add((vertex, via_task))
                for succ in self.graph.successors(vertex):
                    succ_via = via_task or isinstance(succ, str)
                    if (
                        isinstance(succ, tuple)
                        and succ[0] == name
                        and via_task
                    ):
                        return True
                    stack.append((succ, succ_via))
        return False


def _build_specification_graph(spec: Specification) -> nx.DiGraph:
    graph = nx.DiGraph()
    period = spec.period()
    periods = spec.periods()
    instance_counts = {
        name: period // comm.period
        for name, comm in spec.communicators.items()
    }
    for name, count in instance_counts.items():
        for i in range(count + 1):
            graph.add_node((name, i))
    written: dict[str, set[int]] = {name: set() for name in spec.communicators}
    for task in spec.tasks.values():
        graph.add_node(task.name)
        for port in task.inputs:
            graph.add_edge((port.communicator, port.instance), task.name)
        for port in task.outputs:
            graph.add_edge(task.name, (port.communicator, port.instance))
            written[port.communicator].add(port.instance)
    # Persistence edges: (c, i) -> (c, i') for i < i' when no task
    # writes any instance i'' with i < i'' <= i'.  It suffices to link
    # consecutive instances whose successor is not written.
    for name, count in instance_counts.items():
        for i in range(count):
            if (i + 1) not in written[name]:
                graph.add_edge((name, i), (name, i + 1))
    del periods  # periods only needed for validation done by Specification
    return graph


def communicator_dependency_graph(spec: Specification) -> nx.DiGraph:
    """Return the communicator dependency graph of *spec*.

    Vertices are communicator names.  An edge ``c -> c'`` carries
    attribute ``tasks``: the list of tasks reading ``c`` and writing
    ``c'``, and ``models``: their failure models.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(spec.communicators)
    for task in spec.tasks.values():
        for src in sorted(task.input_communicators()):
            for dst in sorted(task.output_communicators()):
                if graph.has_edge(src, dst):
                    graph[src][dst]["tasks"].append(task.name)
                    graph[src][dst]["models"].append(task.model)
                else:
                    graph.add_edge(
                        src, dst, tasks=[task.name], models=[task.model]
                    )
    return graph


def is_memory_free(spec: Specification) -> bool:
    """Return ``True`` iff *spec* has no communicator cycle.

    Memory-freedom is the hypothesis of Proposition 1: with it, the
    long-run reliable fraction of every communicator equals its SRG
    with probability 1.
    """
    return not SpecificationGraph(spec).has_communicator_cycle()


def _dependency_order(cycle: list[str]) -> list[str]:
    """Rotate *cycle* so its smallest element comes first.

    ``nx.simple_cycles`` yields each elementary cycle in traversal
    (dependency) order but with an arbitrary starting vertex; the
    stable rotation keeps the data-flow order intact — successive
    entries are real dependency-graph edges — while making the
    reported cycle deterministic.
    """
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


@dataclass(frozen=True)
class CycleWitness:
    """One communicator cycle with the tasks that realise each edge.

    ``communicators[i]`` flows into ``communicators[i + 1]`` (indices
    wrapping around) through the tasks in ``edge_tasks[i]``; the tasks
    on the final, wrapping edge are the ones that *close* the cycle.
    ``safe`` is ``True`` when some edge carries a task with the
    independent input failure model, which stops unreliable values
    from propagating around the cycle forever.
    """

    communicators: tuple[str, ...]
    edge_tasks: tuple[tuple[str, ...], ...]
    safe: bool

    def closing_tasks(self) -> tuple[str, ...]:
        """Return the tasks on the edge that closes the cycle."""
        return self.edge_tasks[-1]

    def describe(self) -> str:
        """Render the witness path, e.g. ``b -[t1]-> c -[t2]-> b``."""
        parts: list[str] = []
        for name, tasks in zip(self.communicators, self.edge_tasks):
            parts.append(f"{name} -[{','.join(tasks)}]->")
        parts.append(self.communicators[0])
        return " ".join(parts)


def dependency_cycle_witnesses(graph: nx.DiGraph) -> list[CycleWitness]:
    """Return a :class:`CycleWitness` per elementary cycle of *graph*.

    *graph* must carry ``tasks``/``models`` edge attributes as built by
    :func:`communicator_dependency_graph`.  Cycles are reported in
    dependency order (stable min-first rotation) and sorted for
    determinism.
    """
    witnesses: list[CycleWitness] = []
    for cycle in nx.simple_cycles(graph):
        ordered = _dependency_order(list(cycle))
        edges = list(zip(ordered, ordered[1:] + ordered[:1]))
        edge_tasks = tuple(
            tuple(sorted(graph[u][v]["tasks"])) for u, v in edges
        )
        safe = any(
            FailureModel.INDEPENDENT in graph[u][v]["models"]
            for u, v in edges
        )
        witnesses.append(
            CycleWitness(
                communicators=tuple(ordered),
                edge_tasks=edge_tasks,
                safe=safe,
            )
        )
    witnesses.sort(key=lambda w: w.communicators)
    return witnesses


def cycle_witnesses(spec: Specification) -> list[CycleWitness]:
    """Return the communicator-cycle witnesses of *spec*."""
    return dependency_cycle_witnesses(communicator_dependency_graph(spec))


def find_communicator_cycles(spec: Specification) -> list[list[str]]:
    """Return the elementary communicator cycles of *spec*.

    Each cycle is reported as the list of communicator names around
    the cycle in dependency order (successive entries are actual
    dependency-graph edges), rotated so the smallest name comes first
    for determinism.
    """
    return [list(w.communicators) for w in cycle_witnesses(spec)]


def unsafe_cycles(spec: Specification) -> list[list[str]]:
    """Return the communicator cycles with no independent-model breaker.

    For each communicator cycle there must be at least one task on the
    cycle with the independent input failure model; otherwise a single
    unreliable write poisons the cycle forever and the long-run
    reliable fraction collapses to 0 (Section 3, "Specification with
    memory").  The returned cycles are the violating ones, each in
    dependency order; an empty list means every cycle is safe.
    """
    return [
        list(w.communicators)
        for w in cycle_witnesses(spec)
        if not w.safe
    ]


def srg_dependency_graph(spec: Specification) -> nx.DiGraph:
    """Return the dependency graph without independent writers' inputs.

    Independent-model tasks do not propagate input reliability, so an
    edge survives only when some task on it has another failure model.
    The cycles that survive are exactly the unsafe communicator cycles
    (single-writer rule: the tasks on an edge into ``c`` are precisely
    ``c``'s writer).
    """
    graph = communicator_dependency_graph(spec)
    pruned = nx.DiGraph()
    pruned.add_nodes_from(graph.nodes)
    for u, v, data in graph.edges(data=True):
        if any(m is not FailureModel.INDEPENDENT for m in data["models"]):
            pruned.add_edge(u, v)
    return pruned


def srg_evaluation_order(spec: Specification) -> list[str]:
    """Return a communicator order suitable for inductive SRG evaluation.

    A topological order of :func:`srg_dependency_graph`, which must be
    acyclic (guaranteed when :func:`unsafe_cycles` is empty).  Raises
    :class:`networkx.NetworkXUnfeasible` otherwise.
    """
    return list(nx.topological_sort(srg_dependency_graph(spec)))


def task_dependency_graph(spec: Specification) -> nx.DiGraph:
    """Return the task-level data-flow graph.

    Vertices are task names; an edge ``t -> t'`` means some output
    communicator of ``t`` is an input communicator of ``t'``.  Used by
    synthesis heuristics and the scheduler's precedence-aware list
    scheduling mode.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(spec.tasks)
    writer: dict[str, Task] = {}
    for task in spec.tasks.values():
        for name in task.output_communicators():
            writer[name] = task
    for task in spec.tasks.values():
        for name in task.input_communicators():
            if name in writer and writer[name].name != task.name:
                graph.add_edge(writer[name].name, task.name)
    return graph
