"""Complex construction, boundary structure, components and closure."""

import pytest

import meshes
from globalloops import surface
from globalloops.surface import (
    boundary_components,
    build_closed_complex,
    build_complex,
    classify_boundary,
    connected_components,
    euler_characteristic,
)
from globalloops.errors import (
    CountMismatch,
    DegenerateFace,
    DuplicateFace,
    IsolatedVertex,
    NonManifoldEdge,
    NotABoundaryEdge,
    PinchVertex,
)


def corpus():
    return [
        meshes.triangle(),
        meshes.two_triangles(),
        meshes.octahedron(),
        meshes.disk(6),
        meshes.annulus(6),
        meshes.csaszar_torus(),
        meshes.moebius(6),
        meshes.klein_minus_disk(),
        meshes.pair_of_pants(),
        meshes.genus2(),
    ]


class TestBuildComplex:
    def test_single_triangle(self):
        K = meshes.triangle()
        assert (K.num_vertices, K.num_edges, K.num_faces) == (3, 3, 1)
        assert all(abs(s) == 1 for _, s in K.face_edges[0])

    def test_two_triangles_shared_edge(self):
        K = meshes.two_triangles()
        assert K.num_edges == 5
        shared = K.edge_index[(1, 2)]
        assert len(K.edge_faces[shared]) == 2
        f0, f1 = K.edge_faces[shared]
        assert K.incidence(f0, shared) == -K.incidence(f1, shared)
        assert K.incidence(f0, shared) == 1
        assert K.incidence(f1, shared) == -1

    def test_nonmanifold_edge_rejected(self):
        with pytest.raises(NonManifoldEdge):
            build_complex(5, [(0, 1, 2), (0, 1, 3), (1, 0, 4)])

    def test_degenerate_face_rejected(self):
        with pytest.raises(DegenerateFace):
            build_complex(3, [(0, 1, 1)])

    def test_duplicate_face_rejected(self):
        with pytest.raises(DuplicateFace):
            build_complex(4, [(0, 1, 2), (2, 0, 1)])

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertex):
            build_complex(4, [(0, 1, 2)])

    def test_pinch_vertex_rejected(self):
        with pytest.raises(PinchVertex):
            build_complex(5, [(0, 1, 2), (0, 3, 4)])

    def test_pinch_between_closed_fans_rejected(self):
        # Two octahedra sharing vertex 0: both fans there are closed cycles.
        octa = meshes.octahedron()
        shift = [0] + [v + 5 for v in range(1, octa.num_vertices)]
        faces = octa.faces + [tuple(shift[v] for v in f) for f in octa.faces]
        with pytest.raises(PinchVertex, match="vertex 0 joins more than one face fan"):
            build_complex(2 * octa.num_vertices - 1, faces)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            build_complex(3, [(0, 1, 5)])

    def test_face_boundary_closes(self):
        # The vertex sum of every face boundary telescopes to zero.
        for K in corpus():
            for fid in range(K.num_faces):
                sums = {}
                for eid, sign in K.face_edges[fid]:
                    a, b = K.edges[eid]
                    sums[b] = sums.get(b, 0) + sign
                    sums[a] = sums.get(a, 0) - sign
                assert all(v == 0 for v in sums.values())

    def test_deterministic_construction(self):
        a = meshes.pair_of_pants()
        b = meshes.pair_of_pants()
        assert a.edges == b.edges
        assert a.face_edges == b.face_edges
        assert a.edge_faces == b.edge_faces


class TestEulerCharacteristic:
    def test_triangle(self):
        assert euler_characteristic(meshes.triangle()) == 1

    def test_seven_vertex_torus(self):
        K = meshes.csaszar_torus()
        assert (K.num_vertices, K.num_edges, K.num_faces) == (7, 21, 14)
        assert euler_characteristic(K) == 0

    def test_octahedron(self):
        assert euler_characteristic(meshes.octahedron()) == 2


class TestBoundaryComponents:
    def test_annulus_has_two_circles(self):
        assert len(boundary_components(meshes.annulus(6))) == 2

    def test_moebius_has_one_circle(self):
        cycles = boundary_components(meshes.moebius(6))
        assert len(cycles) == 1
        assert len(cycles[0].edges) == 12

    def test_closed_torus_has_none(self):
        assert boundary_components(meshes.csaszar_torus()) == []

    def test_cycles_cover_boundary_exactly(self):
        for K in corpus():
            cycles = boundary_components(K)
            seen = [e for cyc in cycles for e in cyc.edges]
            assert sorted(seen) == sorted(K.boundary_edge_ids)
            for cyc in cycles:
                n = len(cyc.vertices)
                assert len(cyc.edges) == n
                for i, eid in enumerate(cyc.edges):
                    pair = {cyc.vertices[i], cyc.vertices[(i + 1) % n]}
                    assert set(K.edges[eid]) == pair


class TestClassifyBoundary:
    def test_no_contacts(self):
        K = meshes.annulus(6)
        bp = classify_boundary(K, set())
        assert bp.num_contacts == 0
        assert bp.insulated_edges == set(K.boundary_edge_ids)

    def test_full_circle_contact_counts_as_one(self):
        K = meshes.annulus(6)
        inner = set(boundary_components(K)[0].edges)
        bp = classify_boundary(K, inner)
        assert bp.num_contacts == 1

    def test_two_arcs_on_a_twelve_cycle(self):
        # Twelve rim edges, contact arcs at positions 0..2 and 6..8; the
        # complement splits into two insulated arcs of three edges each.
        K = meshes.disk(12)
        cyc = boundary_components(K)[0]
        arc1 = {cyc.edges[i] for i in range(3)}
        arc2 = {cyc.edges[i] for i in range(6, 9)}
        bp = classify_boundary(K, arc1 | arc2)
        assert bp.num_contacts == 2
        assert sorted(map(sorted, bp.contact_components)) == sorted(
            map(sorted, [arc1, arc2])
        )
        assert len(bp.insulated_edges) == 6
        # Interface vertices belong to the insulated subcomplex.
        interface = set()
        for eid in bp.insulated_edges:
            interface.update(K.edges[eid])
        assert interface == bp.insulated_vertices
        for arc in (arc1, arc2):
            arc_vertices = set()
            for eid in arc:
                arc_vertices.update(K.edges[eid])
            assert len(arc_vertices & bp.insulated_vertices) == 2

    def test_interior_edge_rejected(self):
        K = meshes.annulus(6)
        interior = next(
            eid for eid in range(K.num_edges) if not K.is_boundary_edge(eid)
        )
        with pytest.raises(NotABoundaryEdge):
            classify_boundary(K, {interior})

    def test_single_edge_contact_warns(self):
        K = meshes.annulus(6)
        eid = boundary_components(K)[0].edges[0]
        with pytest.warns(UserWarning):
            classify_boundary(K, {eid})


class TestConnectedComponents:
    def test_two_disjoint_triangles(self):
        K = build_complex(6, [(0, 1, 2), (3, 4, 5)])
        assert len(connected_components(K)) == 2

    def test_annulus_is_connected(self):
        K = meshes.annulus(6)
        assert connected_components(K) == [list(range(K.num_faces))]

    def test_torus_with_moebius(self):
        K = meshes.disjoint_union(meshes.csaszar_torus(), meshes.moebius(6))
        parts = connected_components(K)
        assert parts == [list(range(14)), list(range(14, 26))]
        counts = []
        for face_ids in parts:
            verts = {v for f in face_ids for v in K.faces[f]}
            edges = {eid for f in face_ids for eid, _ in K.face_edges[f]}
            # No edge reaches a face of another component.
            assert {g for e in edges for g in K.edge_faces[e]} == set(face_ids)
            counts.append((len(verts), len(edges), len(face_ids)))
        assert counts == [(7, 21, 14), (12, 24, 12)]


class TestClosedComplex:
    def test_closed_surface_unchanged(self):
        K = meshes.csaszar_torus()
        closed = build_closed_complex(K)
        assert closed.num_vertices == K.num_vertices
        assert closed.num_edges == K.num_edges
        assert closed.num_faces == K.num_faces

    def test_disk_closes_to_sphere(self):
        closed = build_closed_complex(meshes.disk(6))
        assert closed.euler_characteristic == 2

    def test_annulus_closes_to_sphere(self):
        K = meshes.annulus(6)
        closed = build_closed_complex(K)
        assert (closed.num_vertices, closed.num_edges, closed.num_faces) == (2, 12, 12)
        assert closed.euler_characteristic == 2

    def test_chi_shift_equals_hole_count(self):
        for K in corpus():
            closed = build_closed_complex(K)
            holes = len(boundary_components(K))
            assert closed.euler_characteristic == euler_characteristic(K) + holes

    def test_euler_characteristic_mismatch_raises(self, monkeypatch):
        # The closed complex must gain one to the Euler characteristic per
        # boundary circle; a miscount is an internal failure, not an assert.
        monkeypatch.setattr(surface, "euler_characteristic", lambda K: 1)
        with pytest.raises(CountMismatch):
            build_closed_complex(meshes.annulus(6))

    def test_boundary_of_boundary_vanishes(self):
        for K in corpus():
            closed = build_closed_complex(K)
            for face_row in closed.d2:
                sums = {}
                for eid, fcoeff in face_row.items():
                    for v, ecoeff in closed.d1[eid].items():
                        sums[v] = sums.get(v, 0) + fcoeff * ecoeff
                assert all(v == 0 for v in sums.values())
