"""Tree-cotree decomposition and tree paths."""

from collections import deque

import pytest

import meshes
from globalloops.errors import DualDisconnected, NodeNotInTree
from globalloops.forest import Tree, build_dual_tree, build_primal_tree, build_tree_cotree
from globalloops.surface import boundary_components, connected_components


def decompose(K):
    return build_tree_cotree(K, boundary_components(K))


def test_single_triangle():
    K = meshes.triangle()
    tc = decompose(K)
    assert len(tc.primal.edge_ids) == 2
    assert len(tc.leftover_per_hole) == 1
    assert tc.dual.edge_ids == set()  # one face, nothing to cross
    assert tc.candidate_edges == []


def test_annulus_leftovers_one_per_circle():
    K = meshes.annulus(6)
    holes = boundary_components(K)
    tc = decompose(K)
    assert len(tc.leftover_per_hole) == 2
    for leftover, cyc in zip(tc.leftover_per_hole, holes):
        assert leftover in set(cyc.edges)
        assert leftover not in tc.primal.edge_ids | tc.dual.edge_ids
    assert len(tc.dual.edge_ids) == K.num_faces - 1
    assert tc.candidate_edges == []


def test_boundary_tree_is_spanning_inside_each_circle():
    K = meshes.pair_of_pants()
    holes = boundary_components(K)
    tc = decompose(K)
    for cyc, leftover in zip(holes, tc.leftover_per_hole):
        inside = set(cyc.edges) & tc.primal.edge_ids
        assert len(inside) == len(cyc.edges) - 1
        assert leftover not in inside


def test_closed_torus():
    K = meshes.csaszar_torus()
    tc = decompose(K)
    assert len(tc.primal.edge_ids) == K.num_vertices - 1
    assert tc.leftover_per_hole == []
    assert len(tc.candidate_edges) == 2


def test_octahedron_dual_tree_size():
    K = meshes.octahedron()
    tc = decompose(K)
    assert len(tc.dual.edge_ids) == 7


def test_candidate_counts():
    expectations = [
        (meshes.disk(6), 0),
        (meshes.csaszar_torus(), 2),
        (meshes.moebius(6), 1),
        (meshes.klein_minus_disk(), 2),
        (meshes.genus2(), 4),
    ]
    for K, expected in expectations:
        tc = decompose(K)
        assert len(tc.candidate_edges) == expected


def test_edge_partition():
    # Primal tree, dual tree, circle leftovers and candidates split the
    # edges exactly.
    for K in (
        meshes.annulus(6),
        meshes.moebius(6),
        meshes.pair_of_pants(),
        meshes.genus2(),
        meshes.klein_minus_disk(),
    ):
        tc = decompose(K)
        groups = [
            tc.primal.edge_ids,
            tc.dual.edge_ids,
            set(tc.leftover_per_hole),
            set(tc.candidate_edges),
        ]
        assert sum(len(g) for g in groups) == K.num_edges
        assert set.union(*groups) == set(range(K.num_edges))
        for eid in tc.candidate_edges:
            assert not K.is_boundary_edge(eid)


class TestTreePaths:
    def test_trivial_path(self):
        K = meshes.annulus(6)
        tc = decompose(K)
        path = tc.dual.path(3, 3)
        assert path.nodes == (3,)
        assert path.edges == ()

    def test_adjacent_nodes(self):
        K = meshes.annulus(6)
        tc = decompose(K)
        child = next(
            n for n in range(K.num_faces) if tc.dual.parent[n] >= 0
        )
        parent = tc.dual.parent[child]
        path = tc.dual.path(child, parent)
        assert len(path.nodes) == 2
        assert path.edges == (tc.dual.parent_edge[child],)

    def test_matches_breadth_first_search(self):
        # Brute-force BFS over the tree edges is the independent oracle.
        K = meshes.disk(6)
        tc = decompose(K)
        adj = {}
        for node in range(K.num_faces):
            parent = tc.dual.parent[node]
            if parent >= 0 and parent < K.num_faces:
                eid = tc.dual.parent_edge[node]
                adj.setdefault(node, []).append((eid, parent))
                adj.setdefault(parent, []).append((eid, node))
        for a in range(K.num_faces):
            for b in range(K.num_faces):
                back = {a: (None, None)}
                queue = deque([a])
                while queue:
                    u = queue.popleft()
                    for eid, w in adj.get(u, []):
                        if w not in back:
                            back[w] = (u, eid)
                            queue.append(w)
                nodes = [b]
                edges = []
                while nodes[-1] != a:
                    prev, eid = back[nodes[-1]]
                    edges.append(eid)
                    nodes.append(prev)
                expected_nodes = tuple(reversed(nodes))
                expected_edges = tuple(reversed(edges))
                path = tc.dual.path(a, b)
                assert path.nodes == expected_nodes
                assert path.edges == expected_edges

    def test_missing_node_raises(self):
        tree = Tree(3)
        tree.add_root(0)
        tree.attach(1, 0, 7)
        with pytest.raises(NodeNotInTree):
            tree.path(0, 2)

    def test_path_between_trees_raises(self):
        torus = meshes.csaszar_torus()
        tc = decompose(meshes.disjoint_union(torus, meshes.annulus(6)))
        with pytest.raises(NodeNotInTree):
            tc.dual.path(0, torus.num_faces)
        with pytest.raises(NodeNotInTree):
            tc.primal.path(0, torus.num_vertices)


def test_one_tree_per_component():
    torus, moebius = meshes.csaszar_torus(), meshes.moebius(6)
    K = meshes.disjoint_union(torus, moebius, meshes.annulus(6))
    tc = decompose(K)
    offsets_v = [0, torus.num_vertices, torus.num_vertices + moebius.num_vertices]
    offsets_f = [0, torus.num_faces, torus.num_faces + moebius.num_faces]
    assert tc.primal.roots == offsets_v
    assert tc.dual.roots == offsets_f
    # Each face is labelled with its component, numbered as
    # connected_components numbers them.
    for cid, faces in enumerate(connected_components(K)):
        assert {tc.dual.tree_of[f] for f in faces} == {cid}
    assert len(tc.primal.edge_ids) == K.num_vertices - 3
    assert len(tc.dual.edge_ids) == K.num_faces - 3
    # Torus 2, Moebius strip 1, annulus 0.
    assert len(tc.candidate_edges) == 3


def test_split_dual_forest_raises():
    # Blocking every interior edge leaves each face its own dual tree.
    K = meshes.annulus(6)
    primal, _ = build_primal_tree(K, boundary_components(K))
    primal.edge_ids |= {e for e in range(K.num_edges) if not K.is_boundary_edge(e)}
    with pytest.raises(DualDisconnected):
        build_dual_tree(K, primal)
