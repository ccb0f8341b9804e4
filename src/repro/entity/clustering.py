"""Clustering matched pairs into entity groups.

Pairwise match decisions are turned into entity clusters with union-find
(connected components over the "is a duplicate of" graph) — the standard
Data Tamer consolidation step.  A transitivity guard is available: very large
clusters produced by chains of borderline matches can be split by dropping
their weakest links.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self, elements: Optional[Iterable[Hashable]] = None):
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        if elements is not None:
            for element in elements:
                self.add(element)

    def add(self, element: Hashable) -> None:
        """Register an element as its own singleton set (idempotent)."""
        if element not in self._parent:
            self._parent[element] = element
            self._rank[element] = 0

    def __contains__(self, element: Hashable) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, element: Hashable) -> Hashable:
        """Return the canonical representative of ``element``'s set."""
        if element not in self._parent:
            raise KeyError(f"unknown element: {element!r}")
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        # path compression
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets containing ``a`` and ``b``; returns the new root."""
        self.add(a)
        self.add(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return root_a
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        return root_a

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """Whether ``a`` and ``b`` are in the same set."""
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def groups(self) -> List[Set[Hashable]]:
        """Return all sets, each as a Python set (order unspecified)."""
        by_root: Dict[Hashable, Set[Hashable]] = defaultdict(set)
        for element in self._parent:
            by_root[self.find(element)].add(element)
        return list(by_root.values())

    def group_count(self) -> int:
        """Number of disjoint sets."""
        return len({self.find(e) for e in self._parent})


class IncrementalClusters:
    """Dynamic connected components over matched-pair edges.

    The streaming curation engine's clustering state: nodes are record ids,
    edges are above-threshold match decisions.  Edge additions union the two
    components eagerly (smaller into larger); edge and node removals mark
    the affected component *dirty*, and dirty components are lazily split
    back into true connected components (a BFS bounded by the component
    size) the next time the partition is read.  The resulting
    partition is always exactly the connected components of the current
    edge set — the same partition a from-scratch :class:`UnionFind` pass
    over the same edges produces.

    Components carry integer ids that are stable for as long as the
    component's member set and internal edge set are unchanged, and
    :meth:`touched` reports the ids that were created, changed or retired
    since the reader last acknowledged them — so a reader caching per-component
    results does work proportional to what moved, not to the partition.
    """

    def __init__(self, nodes: Optional[Iterable[Hashable]] = None):
        self._adjacency: Dict[Hashable, Set[Hashable]] = {}
        self._component_of: Dict[Hashable, int] = {}
        self._members: Dict[int, Set[Hashable]] = {}
        self._dirty: Set[int] = set()
        #: ids created, changed or retired since the last clear_touched()
        self._touched: Set[int] = set()
        self._next_component = 0
        if nodes is not None:
            for node in nodes:
                self.add_node(node)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        """Number of live edges."""
        return sum(len(n) for n in self._adjacency.values()) // 2

    def _new_component(self, members: Set[Hashable]) -> int:
        component = self._next_component
        self._next_component += 1
        self._members[component] = members
        for node in members:
            self._component_of[node] = component
        self._touched.add(component)
        return component

    def add_node(self, node: Hashable) -> None:
        """Register a node as its own singleton component (idempotent)."""
        if node in self._adjacency:
            return
        self._adjacency[node] = set()
        self._new_component({node})

    def remove_node(self, node: Hashable) -> None:
        """Drop a node and all its edges; the remainder may split."""
        neighbors = self._adjacency.pop(node, None)
        if neighbors is None:
            return
        for neighbor in neighbors:
            self._adjacency[neighbor].discard(node)
        component = self._component_of.pop(node)
        self._touched.add(component)
        members = self._members[component]
        members.discard(node)
        if members:
            # the survivors may no longer be connected to each other
            self._dirty.add(component)
        else:
            del self._members[component]
            self._dirty.discard(component)

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        """Add a matched edge, unioning the two components.

        Self-loops are ignored (a node is always connected to itself).
        """
        self.add_node(a)
        self.add_node(b)
        if a == b:
            return
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        comp_a, comp_b = self._component_of[a], self._component_of[b]
        self._touched.add(comp_a)
        if comp_a == comp_b:
            return
        self._touched.add(comp_b)
        if len(self._members[comp_a]) < len(self._members[comp_b]):
            comp_a, comp_b = comp_b, comp_a
        absorbed = self._members.pop(comp_b)
        for node in absorbed:
            self._component_of[node] = comp_a
        self._members[comp_a] |= absorbed
        if comp_b in self._dirty:
            # an unsettled split folds into the surviving component
            self._dirty.discard(comp_b)
            self._dirty.add(comp_a)

    def remove_edge(self, a: Hashable, b: Hashable) -> None:
        """Drop a matched edge; the component may split (resolved lazily)."""
        if a not in self._adjacency or b not in self._adjacency[a]:
            return
        self._adjacency[a].discard(b)
        self._adjacency[b].discard(a)
        component = self._component_of[a]
        self._dirty.add(component)
        self._touched.add(component)

    def touch(self, node: Hashable) -> None:
        """Report ``node``'s component as touched at the next read.

        For readers whose per-component results also depend on node
        *content* (record versions, edge scores) the graph cannot see.
        Unknown nodes are ignored.
        """
        component = self._component_of.get(node)
        if component is not None:
            self._touched.add(component)

    def neighbors(self, node: Hashable) -> Set[Hashable]:
        """The nodes sharing an edge with ``node`` (a live view: read only)."""
        return self._adjacency[node]

    def _settle(self) -> None:
        """Split every dirty component back into true connected components.

        A component that turns out to be still connected keeps its id;
        one that really split is retired and its parts get fresh ids.
        """
        for component in self._dirty:
            members = self._members.get(component)
            if members is None:
                continue
            parts: List[Set[Hashable]] = []
            unvisited = set(members)
            while unvisited:
                start = unvisited.pop()
                reached = {start}
                frontier = [start]
                while frontier:
                    node = frontier.pop()
                    for neighbor in self._adjacency[node]:
                        if neighbor not in reached:
                            reached.add(neighbor)
                            frontier.append(neighbor)
                unvisited -= reached
                parts.append(reached)
            if len(parts) > 1:
                del self._members[component]
                for part in parts:
                    self._new_component(part)
        self._dirty.clear()

    def touched(self) -> Tuple[Set[int], Dict[int, Set[Hashable]]]:
        """What changed since :meth:`clear_touched` was last called.

        Returns ``(retired, live)``: the ids of components that no longer
        exist, and ``{id: members}`` (fresh sets) for every component that
        was created, gained or lost a node or an edge, or was
        :meth:`touch`-ed.  Components in neither collection are exactly as
        they were at the last :meth:`clear_touched`; before the first one,
        every component is reported.  Reading does not reset anything, so a
        reader that fails half-way can simply read again.
        """
        self._settle()
        live = {
            component: set(self._members[component])
            for component in self._touched
            if component in self._members
        }
        return self._touched - live.keys(), live

    def clear_touched(self) -> None:
        """Acknowledge everything :meth:`touched` currently reports."""
        self._touched = set()

    def components(self) -> List[Set[Hashable]]:
        """Return the current connected components (each a fresh set)."""
        self._settle()
        return [set(members) for members in self._members.values()]

    def component_of(self, node: Hashable) -> Set[Hashable]:
        """Return the component containing ``node`` (a fresh set)."""
        self._settle()
        return set(self._members[self._component_of[node]])


def cluster_pairs(
    all_ids: Sequence[str],
    matched_pairs: Iterable[Tuple[str, str]],
    scores: Optional[Dict[Tuple[str, str], float]] = None,
    max_cluster_size: Optional[int] = None,
) -> List[Set[str]]:
    """Cluster record ids given the pairs judged to be duplicates.

    Every id in ``all_ids`` appears in exactly one output cluster (singletons
    included).  When ``max_cluster_size`` is set and ``scores`` are supplied,
    oversized clusters are rebuilt using only their strongest links until
    they fit — a pragmatic guard against transitive-closure chaining.
    """
    uf = UnionFind(all_ids)
    pair_list = list(matched_pairs)
    for a, b in pair_list:
        uf.union(a, b)
    clusters = uf.groups()
    if max_cluster_size is None or scores is None:
        return clusters

    result: List[Set[str]] = []
    for cluster in clusters:
        if len(cluster) <= max_cluster_size:
            result.append(cluster)
            continue
        result.extend(
            _split_cluster(cluster, pair_list, scores, max_cluster_size)
        )
    return result


def _split_cluster(
    cluster: Set[str],
    pairs: Sequence[Tuple[str, str]],
    scores: Dict[Tuple[str, str], float],
    max_cluster_size: int,
) -> List[Set[str]]:
    """Rebuild an oversized cluster keeping only its strongest links."""
    internal = [
        (a, b)
        for a, b in pairs
        if a in cluster and b in cluster
    ]
    internal.sort(
        key=lambda p: scores.get(p, scores.get((p[1], p[0]), 0.0)), reverse=True
    )
    uf = UnionFind(cluster)
    sizes: Dict[str, int] = {member: 1 for member in cluster}
    for a, b in internal:
        root_a, root_b = uf.find(a), uf.find(b)
        if root_a == root_b:
            continue
        if sizes[root_a] + sizes[root_b] > max_cluster_size:
            continue
        new_root = uf.union(a, b)
        merged = sizes[root_a] + sizes[root_b]
        sizes[new_root] = merged
    return uf.groups()
