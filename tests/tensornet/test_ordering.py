"""Unit tests for contraction-order heuristics."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.library import qft
from repro.tensornet import (
    ORDER_HEURISTICS,
    circuit_to_network,
    close_trace,
    contraction_order,
    interaction_graph,
    min_fill_order,
    sequential_order,
    tree_decomposition_order,
)


def sample_network():
    circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).t(2)
    return close_trace(circuit_to_network(circuit))


class TestOrders:
    @pytest.mark.parametrize("method", sorted(ORDER_HEURISTICS))
    def test_order_is_permutation_of_indices(self, method):
        net = sample_network()
        order = contraction_order(net, method)
        assert sorted(order) == sorted(net.all_indices())

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            contraction_order(sample_network(), "magic")

    @pytest.mark.parametrize("method", sorted(ORDER_HEURISTICS))
    def test_all_orders_give_same_trace(self, method):
        circuit = qft(3)
        net = close_trace(circuit_to_network(circuit))
        order = contraction_order(net, method)
        value = net.contract_scalar(order=order)
        assert np.isclose(value, np.trace(circuit.to_matrix()))

    def test_sequential_is_first_occurrence(self):
        net = sample_network()
        assert sequential_order(net) == net.all_indices()


class TestInteractionGraph:
    def test_vertices_are_indices(self):
        net = sample_network()
        graph = interaction_graph(net)
        assert list(graph) == net.all_indices()

    def test_cooccurring_indices_connected(self):
        net = sample_network()
        graph = interaction_graph(net)
        for tensor in net.tensors:
            labels = list(dict.fromkeys(tensor.indices))
            for i, a in enumerate(labels):
                for b in labels[i + 1:]:
                    assert b in graph[a] and a in graph[b]


class TestTreeDecomposition:
    def test_covers_isolated_vertices(self):
        # A network with a disconnected scalar-ish component.
        from repro.tensornet import TensorNetwork, identity_tensor

        net = TensorNetwork([
            identity_tensor("a", "b"),
            identity_tensor("c", "d"),
        ])
        order = tree_decomposition_order(net)
        assert sorted(order) == ["a", "b", "c", "d"]

    def test_disconnected_order_is_independent_of_hash_seed(self):
        """A 12-index grid plus a 5-index ring: the small component's
        order must not follow set iteration order."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.tensornet import (TensorNetwork, identity_tensor,"
            " tree_decomposition_order)\n"
            "tensors = []\n"
            "for r in range(3):\n"
            "    for c in range(4):\n"
            "        if c < 3:\n"
            "            tensors.append(identity_tensor(f'g{r}{c}', f'g{r}{c + 1}'))\n"
            "        if r < 2:\n"
            "            tensors.append(identity_tensor(f'g{r}{c}', f'g{r + 1}{c}'))\n"
            "for k in range(5):\n"
            "    tensors.append(identity_tensor(f'c{k}', f'c{(k + 1) % 5}'))\n"
            "print(tree_decomposition_order(TensorNetwork(tensors)))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        orders = set()
        for hash_seed in ("0", "3"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = src
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            orders.add(proc.stdout)
        assert len(orders) == 1

    def test_quality_on_ladder(self):
        """On a QFT trace network the tree order should not be worse than
        sequential by more than the intermediate-size metric."""
        from repro.tensornet import ContractionStats

        circuit = qft(4)
        net = close_trace(circuit_to_network(circuit))
        seq_stats, tree_stats = ContractionStats(), ContractionStats()
        net.copy().contract_scalar(
            order=sequential_order(net), stats=seq_stats
        )
        net.copy().contract_scalar(
            order=tree_decomposition_order(net), stats=tree_stats
        )
        assert (
            tree_stats.max_intermediate_size
            <= max(seq_stats.max_intermediate_size, 64)
        )


def _min_fill_order_reference(network):
    """The original full-recount min-fill implementation.

    Kept verbatim (modulo renames) as the oracle for the incremental
    version: same ``(fill, degree, label)`` selection key, recomputing
    every vertex's fill from scratch each round.
    """
    graph = interaction_graph(network)
    adjacency = {v: set(graph[v]) for v in graph}
    order = []
    while adjacency:
        best, best_key = None, None
        for vertex, nbrs in adjacency.items():
            fill = 0
            nbr_list = list(nbrs)
            for i, a in enumerate(nbr_list):
                fill += sum(
                    1 for b in nbr_list[i + 1:] if b not in adjacency[a]
                )
            key = (fill, len(nbrs), vertex)
            if best_key is None or key < best_key:
                best, best_key = vertex, key
        order.append(best)
        nbrs = adjacency.pop(best)
        for a in nbrs:
            adjacency[a].discard(best)
        nbr_list = list(nbrs)
        for i, a in enumerate(nbr_list):
            for b in nbr_list[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return order


class TestMinFill:
    def test_deterministic(self):
        net = sample_network()
        assert min_fill_order(net) == min_fill_order(net)

    @pytest.mark.parametrize("circuit_factory", [
        lambda: qft(3),
        lambda: qft(5),
        lambda: QuantumCircuit(4).h(0).cx(0, 1).cx(1, 2).cx(2, 3).t(3),
        lambda: sample_circuit(),
    ])
    def test_incremental_byte_identical_to_reference(self, circuit_factory):
        """The incremental fill bookkeeping must not change the output."""
        net = close_trace(circuit_to_network(circuit_factory()))
        assert min_fill_order(net) == _min_fill_order_reference(net)

    def test_incremental_byte_identical_on_noisy_doubled_networks(self):
        from repro.core.miter import alg2_trace_network
        from repro.noise import insert_random_noise

        for seed in range(3):
            ideal = qft(3)
            noisy = insert_random_noise(ideal, 2, seed=seed)
            net = alg2_trace_network(noisy, ideal)
            assert min_fill_order(net) == _min_fill_order_reference(net)


def sample_circuit():
    import numpy as np

    rng = np.random.default_rng(7)
    circuit = QuantumCircuit(5)
    for _ in range(20):
        a, b = rng.choice(5, size=2, replace=False)
        if rng.random() < 0.5:
            circuit.cx(int(a), int(b))
        else:
            circuit.h(int(a)).t(int(b))
    return circuit
