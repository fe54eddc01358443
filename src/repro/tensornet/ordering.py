"""Contraction-order heuristics.

The quality of a tensor-network contraction is governed by the order in
which indices are eliminated; the optimal order derives from a minimum-width
tree decomposition of the index interaction graph (Markov & Shi, SIAM J.
Comput. 2008) — the approach the paper adopts.  Exact treewidth is NP-hard,
so we provide:

* :func:`sequential_order` — first-occurrence (circuit time) order;
* :func:`min_fill_order` — the classic greedy min-fill elimination
  heuristic;
* :func:`tree_decomposition_order` — an elimination order read off the
  min-fill tree decomposition of each connected component (the
  construction of networkx's ``treewidth_min_fill_in``, reproduced
  exactly).

Both min-fill heuristics run on one elimination core, :func:`_eliminate`;
they differ only in the tie-break of the selection key and in whether
elimination stops once the remaining graph is a clique.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Sequence, Set, Tuple

from .network import TensorNetwork

#: Vertex-indexed adjacency: vertex ``i`` is the ``i``-th label in
#: first-occurrence order.
_Adjacency = Dict[int, Set[int]]


def sequential_order(network: TensorNetwork) -> List[str]:
    """Indices in first-occurrence (construction/time) order."""
    return network.all_indices()


def interaction_graph(network: TensorNetwork) -> Dict[str, Set[str]]:
    """Index co-occurrence graph of the network (Markov–Shi line graph).

    Returned as an adjacency mapping whose keys are every index label in
    first-occurrence order.
    """
    graph: Dict[str, Set[str]] = {label: set() for label in network.all_indices()}
    for a, b in network.line_graph_edges():
        graph[a].add(b)
        graph[b].add(a)
    return graph


def _indexed_graph(network: TensorNetwork) -> Tuple[List[str], _Adjacency]:
    """Labels in first-occurrence order and the graph over their positions."""
    graph = interaction_graph(network)
    labels = list(graph)
    position = {label: i for i, label in enumerate(labels)}
    adjacency = {
        i: {position[b] for b in graph[label]} for i, label in enumerate(labels)
    }
    return labels, adjacency


def _fill_count(adjacency: _Adjacency, vertex: int) -> int:
    """Missing edges among ``vertex``'s neighbourhood (its fill-in)."""
    nbrs = adjacency[vertex]
    degree = len(nbrs)
    present = sum(len(nbrs & adjacency[a]) for a in nbrs)
    return (degree * (degree - 1) - present) // 2


def _eliminate(
    adjacency: _Adjacency, rank: Sequence[int], stop_at_clique: bool
) -> List[Tuple[int, Set[int]]]:
    """Greedy min-fill elimination, consuming ``adjacency`` in place.

    Each step eliminates the vertex with the smallest
    ``(fill, degree, rank[vertex])`` key — ``rank`` must be unique per
    vertex — and connects its neighbourhood into a clique.  Returns the
    eliminated vertices with their neighbourhoods at elimination time.
    With ``stop_at_clique`` elimination ends as soon as the remaining
    graph is complete (tracked through the edge count) and the clique is
    left in ``adjacency``; otherwise every vertex is eliminated.

    Fill counts are kept incrementally, so eliminating ``u`` touches only
    its 2-neighbourhood.  Each new clique edge ``(a, b)`` fills one
    missing pair for every common neighbour of ``a`` and ``b``, and adds
    to ``a``'s fill its neighbours not adjacent to ``b`` (and the other
    way round).  Removing ``u`` afterwards drops, for each neighbour
    ``a``, the missing pairs ``(u, x)``: ``x`` is a neighbour of ``a``
    outside ``u``'s neighbourhood.  A lazy-deletion heap picks the next
    vertex: an entry whose fill or degree is out of date is skipped when
    popped.
    """
    fill = {v: _fill_count(adjacency, v) for v in adjacency}
    heap = [(fill[v], len(nbrs), rank[v], v) for v, nbrs in adjacency.items()]
    heapify(heap)
    edges = sum(len(nbrs) for nbrs in adjacency.values()) // 2
    eliminated: List[Tuple[int, Set[int]]] = []
    while adjacency:
        remaining = len(adjacency)
        if stop_at_clique and 2 * edges == remaining * (remaining - 1):
            break
        vfill, degree, _, vertex = heappop(heap)
        nbrs = adjacency.get(vertex)
        if nbrs is None or vfill != fill[vertex] or degree != len(nbrs):
            continue
        changed = set(nbrs)
        for a in nbrs:
            missing = nbrs - adjacency[a]
            missing.discard(a)
            for b in missing:
                common = adjacency[a] & adjacency[b]
                fill[a] += len(adjacency[a]) - len(common)
                fill[b] += len(adjacency[b]) - len(common)
                for w in common:
                    fill[w] -= 1
                changed |= common
                adjacency[a].add(b)
                adjacency[b].add(a)
            edges += len(missing)
        del adjacency[vertex], fill[vertex]
        changed.discard(vertex)
        edges -= len(nbrs)
        for a in nbrs:  # a's neighbours: nbrs - {a}, vertex, and the x
            fill[a] -= len(adjacency[a]) - len(nbrs)
            adjacency[a].discard(vertex)
        eliminated.append((vertex, nbrs))
        for w in changed:
            heappush(heap, (fill[w], len(adjacency[w]), rank[w], w))
    return eliminated


def min_fill_order(network: TensorNetwork) -> List[str]:
    """Greedy min-fill elimination order on the interaction graph.

    At each step, eliminate the vertex whose elimination adds the fewest
    fill-in edges (ties broken by smaller degree, then label for
    determinism), then connect its neighbourhood into a clique.
    """
    labels, adjacency = _indexed_graph(network)
    rank = [0] * len(labels)
    for r, vertex in enumerate(sorted(range(len(labels)), key=labels.__getitem__)):
        rank[vertex] = r
    eliminated = _eliminate(adjacency, rank, stop_at_clique=False)
    return [labels[vertex] for vertex, _ in eliminated]


def tree_decomposition_order(network: TensorNetwork) -> List[str]:
    """Elimination order from the min-fill tree decomposition.

    Each connected component (in order of its first index) is eliminated
    by min-fill, ties broken by degree and then first occurrence, until
    what remains is a clique.  The clique and the eliminated vertices'
    closed neighbourhoods form the bags of a tree decomposition; the
    order is recovered by repeatedly peeling a leaf bag and eliminating
    the vertices private to it — the standard way to turn a tree
    decomposition into an elimination order of the same width.
    """
    labels, adjacency = _indexed_graph(network)
    rank = range(len(labels))
    order: List[str] = []
    for component in _components(adjacency):
        graph = {v: adjacency[v] for v in component}
        eliminated = _eliminate(graph, rank, stop_at_clique=True)
        order.extend(_order_from_bags(eliminated, set(graph), labels))
    return order


def _components(adjacency: _Adjacency) -> List[List[int]]:
    """Connected components, each started from its first-occurring vertex."""
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        component, frontier = [start], [start]
        while frontier:
            for b in adjacency[frontier.pop()]:
                if b not in seen:
                    seen.add(b)
                    component.append(b)
                    frontier.append(b)
        components.append(component)
    return components


def _order_from_bags(
    eliminated: List[Tuple[int, Set[int]]], clique: Set[int], labels: List[str]
) -> List[str]:
    """Build the decomposition tree and peel it into an elimination order.

    Bags are created clique first, then one per eliminated vertex from
    the last eliminated back; each new bag hangs off the first existing
    bag that holds the vertex's neighbourhood.  Peeling always takes the
    earliest-created leaf and emits its private vertices in label order.
    """
    bags: List[frozenset] = [frozenset(clique)]
    links: List[Set[int]] = [set()]
    holders: Dict[int, List[int]] = {v: [0] for v in clique}
    for vertex, nbrs in reversed(eliminated):
        # A connected component keeps ``nbrs`` non-empty, and the bag of
        # its earliest-eliminated member (or the clique) holds all of it.
        rarest = min(nbrs, key=lambda v: len(holders[v]))
        parent = next(k for k in holders[rarest] if nbrs <= bags[k])
        bag = len(bags)
        bags.append(frozenset(nbrs | {vertex}))
        links.append({parent})
        links[parent].add(bag)
        for v in bags[bag]:
            holders.setdefault(v, []).append(bag)

    leaves = [k for k, nbr_bags in enumerate(links) if len(nbr_bags) == 1]
    heapify(leaves)
    emitted: Set[int] = set()
    order: List[str] = []
    root = 0
    for _ in range(len(bags) - 1):
        leaf = heappop(leaves)
        (root,) = links[leaf]
        private = [v for v in bags[leaf] if v not in bags[root] and v not in emitted]
        order.extend(sorted(labels[v] for v in private))
        emitted.update(private)
        links[root].discard(leaf)
        if len(links[root]) == 1:
            heappush(leaves, root)
    order.extend(sorted(labels[v] for v in bags[root] if v not in emitted))
    return order


ORDER_HEURISTICS = {
    "sequential": sequential_order,
    "min_fill": min_fill_order,
    "tree_decomposition": tree_decomposition_order,
}


def contraction_order(
    network: TensorNetwork, method: str = "tree_decomposition"
) -> List[str]:
    """Dispatch on a named ordering heuristic."""
    try:
        heuristic = ORDER_HEURISTICS[method]
    except KeyError:
        raise ValueError(
            f"unknown ordering method {method!r}; "
            f"choose from {sorted(ORDER_HEURISTICS)}"
        ) from None
    return heuristic(network)
