"""The dual graph that the dual forest walks: face nodes joined across the
interior edges, read from ``face_edges`` and ``edge_faces``."""

from collections import deque

import meshes


def dual_neighbors(K, face):
    """(edge id, face) pairs across the interior edges of a face."""
    out = []
    for eid, _ in sorted(K.face_edges[face]):
        incident = K.edge_faces[eid]
        if len(incident) == 2:
            out.append((eid, incident[1] if incident[0] == face else incident[0]))
    return out


def test_single_triangle_is_a_star():
    K = meshes.triangle()
    assert K.num_faces == 1
    assert len(K.boundary_edge_ids) == 3
    assert all(K.edge_faces[eid] == (0,) for eid in range(K.num_edges))
    assert dual_neighbors(K, 0) == []


def test_octahedron_is_three_regular():
    K = meshes.octahedron()
    assert K.num_faces == 8
    assert K.boundary_edge_ids == []
    assert K.num_edges == 12
    assert all(len(dual_neighbors(K, f)) == 3 for f in range(8))


def test_one_dual_edge_per_primal_edge():
    K = meshes.annulus(6)
    assert len(K.edge_faces) == K.num_edges == 24
    assert all(len(incident) in (1, 2) for incident in K.edge_faces)


def test_back_maps_are_inverse():
    K = meshes.moebius(6)
    for eid, incident in enumerate(K.edge_faces):
        for f in incident:
            assert eid in {e for e, _ in K.face_edges[f]}
    for f, triple in enumerate(K.face_edges):
        for eid, _ in triple:
            assert f in K.edge_faces[eid]


def test_face_degree_is_three():
    for K in (meshes.annulus(6), meshes.csaszar_torus(), meshes.moebius(6)):
        for f in range(K.num_faces):
            assert len({eid for eid, _ in K.face_edges[f]}) == 3


def test_interior_subgraph_is_connected():
    # Restricting to face nodes and interior dual edges keeps one component.
    for K in (meshes.annulus(6), meshes.pair_of_pants(), meshes.genus2()):
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for _, w in dual_neighbors(K, u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        assert len(seen) == K.num_faces
