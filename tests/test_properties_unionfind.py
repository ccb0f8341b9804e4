"""Property-based tests for union-find and clustering invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entity.clustering import IncrementalClusters, UnionFind, cluster_pairs

_elements = st.integers(min_value=0, max_value=30)
_pairs = st.lists(st.tuples(_elements, _elements), max_size=40)


@given(_pairs)
@settings(max_examples=150, deadline=None)
def test_groups_partition_all_elements(pairs):
    uf = UnionFind(range(31))
    for a, b in pairs:
        uf.union(a, b)
    groups = uf.groups()
    seen = sorted(x for group in groups for x in group)
    assert seen == list(range(31))


@given(_pairs)
@settings(max_examples=150, deadline=None)
def test_connectivity_is_symmetric_and_transitive(pairs):
    uf = UnionFind(range(31))
    for a, b in pairs:
        uf.union(a, b)
    for a, b in pairs:
        assert uf.connected(a, b)
        assert uf.connected(b, a)
    # transitivity spot-check via roots: same root <=> connected
    for a, b in pairs[:10]:
        assert (uf.find(a) == uf.find(b)) == uf.connected(a, b)


@given(_pairs)
@settings(max_examples=100, deadline=None)
def test_group_count_decreases_monotonically(pairs):
    uf = UnionFind(range(31))
    previous = uf.group_count()
    for a, b in pairs:
        uf.union(a, b)
        current = uf.group_count()
        assert current <= previous
        previous = current


@given(_pairs)
@settings(max_examples=100, deadline=None)
def test_cluster_pairs_covers_every_id_once(pairs):
    ids = [str(i) for i in range(31)]
    str_pairs = [(str(a), str(b)) for a, b in pairs if a != b]
    clusters = cluster_pairs(ids, str_pairs)
    seen = sorted(x for cluster in clusters for x in cluster)
    assert seen == sorted(ids)


@given(_pairs, st.integers(min_value=2, max_value=6))
@settings(max_examples=100, deadline=None)
def test_max_cluster_size_respected(pairs, max_size):
    ids = [str(i) for i in range(31)]
    str_pairs = [(str(a), str(b)) for a, b in pairs if a != b]
    scores = {pair: 0.5 for pair in str_pairs}
    clusters = cluster_pairs(ids, str_pairs, scores=scores, max_cluster_size=max_size)
    assert all(len(cluster) <= max_size for cluster in clusters)
    seen = sorted(x for cluster in clusters for x in cluster)
    assert seen == sorted(ids)


# -- IncrementalClusters: the touched-component protocol ----------------------

_nodes = st.integers(min_value=0, max_value=11)
_graph_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), _nodes, _nodes),
        st.tuples(st.just("add_edge"), _nodes, _nodes),
        st.tuples(st.just("remove_edge"), _nodes, _nodes),
        st.tuples(st.just("remove_node"), _nodes, _nodes),
        st.tuples(st.just("touch"), _nodes, _nodes),
        st.tuples(st.just("read"), _nodes, _nodes),
    ),
    max_size=60,
)


def _partition(nodes, edges):
    """Connected components by a from-scratch union-find pass."""
    uf = UnionFind(nodes)
    for a, b in edges:
        uf.union(a, b)
    return sorted(sorted(group) for group in uf.groups())


@given(_graph_ops)
@settings(max_examples=300, deadline=None)
def test_touched_components_keep_a_mirror_exact(ops):
    """A reader that applies only ``touched()`` reports holds, at every
    read, exactly the partition a from-scratch union-find computes — so
    whatever it caches per untouched component id is still valid."""
    clusters = IncrementalClusters()
    nodes, edges = set(), set()
    mirror = {}  # component id -> members, maintained from reports alone
    touch_requests = set()

    def read():
        retired, live = clusters.touched()
        # reading is repeatable until acknowledged
        assert clusters.touched() == (retired, live)
        clusters.clear_touched()
        assert clusters.touched() == (set(), {})
        assert not retired & live.keys()
        for component in retired:
            mirror.pop(component, None)
        mirror.update(live)
        assert sorted(sorted(m) for m in mirror.values()) == _partition(nodes, edges)
        # every explicitly touched live node's component was reported
        for node in touch_requests & nodes:
            assert any(node in members for members in live.values())
        touch_requests.clear()

    for op, a, b in ops:
        if op == "add_node":
            clusters.add_node(a)
            nodes.add(a)
        elif op == "add_edge":
            clusters.add_edge(a, b)
            nodes.update((a, b))
            if a != b:
                edges.add((min(a, b), max(a, b)))
        elif op == "remove_edge":
            clusters.remove_edge(a, b)
            edges.discard((min(a, b), max(a, b)))
        elif op == "remove_node":
            clusters.remove_node(a)
            nodes.discard(a)
            edges = {edge for edge in edges if a not in edge}
            touch_requests.discard(a)
        elif op == "touch":
            clusters.touch(a)
            touch_requests.add(a)
        else:
            read()
    read()
    assert sorted(sorted(c) for c in clusters.components()) == _partition(nodes, edges)
    for node in nodes:
        assert clusters.neighbors(node) == {
            other for edge in edges if node in edge for other in edge if other != node
        }


@given(_graph_ops)
@settings(max_examples=100, deadline=None)
def test_untouched_components_keep_their_id_and_edges(ops):
    """Between two reads, a component absent from the report has the same
    id, members and internal edges it had at the first read."""
    clusters = IncrementalClusters()

    def edges_of(members):
        return {(min(a, b), max(a, b)) for a in members for b in clusters.neighbors(a)}

    known = {}  # component id -> (members, edges) as of the last read
    for op, a, b in ops:
        if op == "read":
            retired, live = clusters.touched()
            clusters.clear_touched()
            for component in retired:
                known.pop(component, None)
            for component, members in live.items():
                known[component] = (members, edges_of(members))
            for component, (members, edges) in known.items():
                if component not in live:
                    assert clusters.component_of(next(iter(members))) == members
                    assert edges_of(members) == edges
        elif op != "touch":
            getattr(clusters, op)(*((a,) if op.endswith("node") else (a, b)))
