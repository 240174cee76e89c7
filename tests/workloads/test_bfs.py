"""Unit tests for the BFS workload."""

from collections import deque

import networkx as nx
import pytest

from repro.config import AccessMechanism, BackingStore, SystemConfig
from repro.errors import ConfigError
from repro.host.system import System
from repro.memory import FlatMemory
from repro.workloads.bfs import (
    BfsParams,
    CsrGraph,
    generate_graph,
    install_bfs,
)

SMALL = BfsParams(vertices=96, average_degree=4, work_count=20)


def reference_distances(adjacency, source):
    distance = [-1] * len(adjacency)
    distance[source] = 0
    frontier = deque([source])
    while frontier:
        vertex = frontier.popleft()
        for neighbor in adjacency[vertex]:
            if distance[neighbor] < 0:
                distance[neighbor] = distance[vertex] + 1
                frontier.append(neighbor)
    return distance


def test_params_validation():
    with pytest.raises(ConfigError):
        BfsParams(vertices=1)
    with pytest.raises(ConfigError):
        BfsParams(source=9999)
    with pytest.raises(ConfigError):
        BfsParams(average_degree=0)


def test_generated_graph_is_connected_and_undirected():
    adjacency = generate_graph(SMALL)
    assert len(adjacency) == SMALL.vertices
    for u, neighbors in enumerate(adjacency):
        for v in neighbors:
            assert u in adjacency[v], "edge must be symmetric"
        assert u not in neighbors, "no self loops"
    distances = reference_distances(adjacency, 0)
    assert all(d >= 0 for d in distances), "graph must be connected"


def test_generation_is_deterministic():
    a = generate_graph(SMALL)
    b = generate_graph(SMALL)
    assert a == b
    c = generate_graph(BfsParams(vertices=96, average_degree=4, seed=7))
    assert a != c


def test_csr_image_roundtrips():
    adjacency = generate_graph(SMALL)
    world = FlatMemory()
    graph = CsrGraph(adjacency, base_addr=0, world=world)
    # Rebuild adjacency from the functional memory image.
    for vertex in range(graph.n):
        start = world.read_word(vertex * 8)
        end = world.read_word((vertex + 1) * 8)
        stored = [
            world.read_word(graph._edges_base + i * 8) for i in range(start, end)
        ]
        assert stored == adjacency[vertex]
    # Offsets and edges, and nothing else.
    assert world.word_count() == graph.n + 1 + graph.edge_count


def test_parallel_traversal_matches_networkx():
    adjacency = generate_graph(SMALL)
    reference = nx.single_source_shortest_path_length(
        nx.Graph(
            (u, v) for u, neighbors in enumerate(adjacency) for v in neighbors
        ),
        SMALL.source,
    )
    for mechanism, backing, threads in (
        (AccessMechanism.ON_DEMAND, BackingStore.DRAM, 1),
        (AccessMechanism.PREFETCH, BackingStore.DEVICE, 4),
        (AccessMechanism.SOFTWARE_QUEUE, BackingStore.DEVICE, 4),
    ):
        config = SystemConfig(
            mechanism=mechanism, backing=backing, threads_per_core=threads
        )
        system = System(config)
        runs = install_bfs(system, SMALL, threads_per_core=threads)
        system.run_to_completion(limit_ticks=10**12)
        for vertex, distance in reference.items():
            assert runs[0].distance[vertex] == distance


def test_multicore_runs_one_traversal_per_core():
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH, cores=2, threads_per_core=2
    )
    system = System(config)
    runs = install_bfs(system, SMALL, threads_per_core=2)
    system.run_to_completion(limit_ticks=10**12)
    assert len(runs) == 2
    assert runs[0].distance == runs[1].distance
    assert runs[0].graph.base_addr != runs[1].graph.base_addr


def test_more_threads_do_not_change_the_answer():
    expected = None
    for threads in (1, 3, 8):
        config = SystemConfig(
            mechanism=AccessMechanism.PREFETCH, threads_per_core=threads
        )
        system = System(config)
        runs = install_bfs(system, SMALL, threads_per_core=threads)
        system.run_to_completion(limit_ticks=10**12)
        if expected is None:
            expected = runs[0].distance
        else:
            assert runs[0].distance == expected
