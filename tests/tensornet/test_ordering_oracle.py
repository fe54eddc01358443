"""The in-house tree-decomposition order against networkx as an oracle.

:func:`tree_decomposition_order` reproduces the order that networkx's
``treewidth_min_fill_in`` decomposition yields once peeled leaf by leaf.
networkx is a test-only dependency here: these tests skip without it.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miter import alg1_template, alg2_trace_network
from repro.noise import depolarizing, insert_random_noise
from repro.tensornet import TensorNetwork, identity_tensor, tree_decomposition_order

nx = pytest.importorskip("networkx")


def _table1_rows():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "_common.py"
    spec = importlib.util.spec_from_file_location("_table1_common", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module.TABLE1_ROWS, module.NOISE_P


TABLE1_ROWS, NOISE_P = _table1_rows()


def _networkx_order(network):
    """networkx min-fill tree decomposition, peeled into an order."""
    graph = nx.Graph()
    graph.add_nodes_from(network.all_indices())
    for edge in network.line_graph_edges():
        graph.add_edge(*edge)
    order = []
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component).copy()
        _, tree = nx.approximation.treewidth_min_fill_in(sub)
        eliminated = set()
        while tree.number_of_nodes() > 1:
            leaf = next(bag for bag in tree.nodes if tree.degree(bag) == 1)
            parent = next(iter(tree[leaf]))
            private = [v for v in leaf if v not in parent and v not in eliminated]
            order.extend(sorted(private))
            eliminated.update(private)
            tree.remove_node(leaf)
        last_bag = next(iter(tree.nodes))
        order.extend(sorted(v for v in last_bag if v not in eliminated))
        eliminated.update(last_bag)
        order.extend(sorted(set(component) - eliminated))
    return order


@pytest.mark.parametrize("row", TABLE1_ROWS, ids=lambda row: row.name)
def test_table1_networks_match_networkx(row):
    ideal = row.ideal()
    for seed in range(3):
        noisy = insert_random_noise(
            ideal, row.num_noises,
            channel_factory=lambda: depolarizing(NOISE_P), seed=seed,
        )
        networks = [alg2_trace_network(noisy, ideal)]
        template = alg1_template(noisy, ideal)
        if template is not None:
            networks.append(template.network)
        for network in networks:
            assert tree_decomposition_order(network) == _networkx_order(network)


@st.composite
def connected_networks(draw):
    """Edge networks over a random connected graph with shuffled labels."""
    size = draw(st.integers(min_value=1, max_value=24))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    labels = [f"v{i}" for i in range(size)]
    rng.shuffle(labels)
    edges = {(rng.randrange(k), k) for k in range(1, size)}  # spanning tree
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    for a in range(size):
        for b in range(a + 1, size):
            if rng.random() < density:
                edges.add((a, b))
    edges = sorted(edges)
    rng.shuffle(edges)
    tensors = [identity_tensor(labels[a], labels[b]) for a, b in edges]
    if size == 1:
        tensors = [identity_tensor(labels[0], labels[0])]
    return TensorNetwork(tensors)


@settings(max_examples=150, deadline=None)
@given(connected_networks())
def test_random_connected_graphs_match_networkx(network):
    assert tree_decomposition_order(network) == _networkx_order(network)
