"""Generator classes, assembly, and their contracts."""

import re

import pytest

import meshes
from globalloops.cochain import coboundary0, evaluate, is_relative_cocycle
from globalloops.errors import NotABoundaryEdge, UnsupportedContactLayout
from globalloops.forest import build_tree_cotree
from globalloops.generators import compute_generators
from globalloops.oracle import verify
from globalloops.surface import (
    boundary_components,
    build_complex,
    classify_boundary,
    connected_components,
)


def fundamental_cycle(K, tc, eid):
    """Chain of the unique cycle in the primal tree plus one extra edge,
    oriented along the extra edge."""
    tail, head = K.edges[eid]
    chain = {eid: 1}
    path = tc.primal.path(head, tail)
    at = head
    for node, edge in zip(path.nodes, path.edges):
        a, b = K.edges[edge]
        chain[edge] = chain.get(edge, 0) + (1 if a == at else -1)
        at = b if a == at else a
    return chain


def corpus_with_contacts():
    annulus = meshes.annulus(6)
    moebius = meshes.moebius(6)
    return [
        ("disk", meshes.disk(6), set()),
        ("annulus", annulus, set()),
        ("annulus_one_arc", annulus, meshes.boundary_arc(annulus, 0, 3)),
        (
            "annulus_two_arcs",
            annulus,
            meshes.boundary_arc(annulus, 0, 3) | meshes.boundary_arc(annulus, 1, 3),
        ),
        ("pair_of_pants", meshes.pair_of_pants(), set()),
        ("torus", meshes.csaszar_torus(), set()),
        ("torus_with_hole", meshes.torus_with_hole(), set()),
        ("moebius", moebius, set()),
        ("moebius_one_arc", moebius, meshes.boundary_arc(moebius, 0, 3)),
        ("klein_minus_disk", meshes.klein_minus_disk(), set()),
        ("genus2", meshes.genus2(), set()),
    ]


class TestHandles:
    def test_disk_has_none(self):
        gens = compute_generators(meshes.disk(6))
        assert gens.ha == []

    def test_torus_has_two(self):
        K = meshes.csaszar_torus()
        gens = compute_generators(K)
        assert len(gens.ha) == 2
        assert gens.ho == [] and gens.co == []
        report = verify(K, classify_boundary(K, set()), gens)
        assert report.passed

    def test_pairing_with_fundamental_cycles(self):
        # Each handle generator pairs to 1 with its own candidate edge's
        # cycle and to 0 with the others.
        for K in (meshes.csaszar_torus(), meshes.genus2()):
            tc = build_tree_cotree(K, boundary_components(K))
            gens = compute_generators(K)
            assert len(gens.ha) == len(tc.candidate_edges)
            for i, g in enumerate(gens.ha):
                for j, eid in enumerate(tc.candidate_edges):
                    cycle = fundamental_cycle(K, tc, eid)
                    assert evaluate(g, cycle) == (1 if i == j else 0)

    def test_moebius_outputs_nothing(self):
        K = meshes.moebius(6)
        gens = compute_generators(K)
        assert gens.generators == []
        meta = gens.components[0]
        assert meta.num_candidate_edges == 1
        assert meta.num_twisted_edges == 1
        assert not meta.orientable
        assert meta.anchor_edge is not None

    def test_klein_minus_disk_has_one(self):
        K = meshes.klein_minus_disk()
        gens = compute_generators(K)
        meta = gens.components[0]
        assert meta.num_candidate_edges == 2
        assert meta.num_twisted_edges >= 1
        assert len(gens.ha) == meta.num_candidate_edges - 1 == 1
        report = verify(K, classify_boundary(K, set()), gens)
        assert report.passed


class TestHoles:
    def test_disk_has_none(self):
        assert compute_generators(meshes.disk(6)).ho == []

    def test_annulus_has_one(self):
        K = meshes.annulus(6)
        gens = compute_generators(K)
        assert len(gens.ho) == 1
        (g,) = gens.ho
        # Support: interior edges touching the non-fixed circle, which is
        # the inner one (smaller vertex ids).
        cycles = boundary_components(K)
        members = set(cycles[0].vertices)
        expected = {
            eid
            for eid, (a, b) in enumerate(K.edges)
            if (a in members) != (b in members)
        }
        assert set(g.support) == expected
        assert not expected & set(K.boundary_edge_ids)

    def test_matches_vertex_coboundary(self):
        K = meshes.pair_of_pants()
        gens = compute_generators(K)
        cycles = boundary_components(K)
        assert len(gens.ho) == 2
        for g, cyc in zip(gens.ho, cycles):
            assert g == coboundary0(K, {v: 1 for v in cyc.vertices})

    def test_pair_of_pants_has_two(self):
        K = meshes.pair_of_pants()
        gens = compute_generators(K)
        assert len(gens.ho) == 2
        report = verify(K, classify_boundary(K, set()), gens)
        assert report.passed


class TestContacts:
    def test_single_arc_yields_nothing_orientable(self):
        K = meshes.annulus(6)
        gens = compute_generators(K, meshes.boundary_arc(K, 0, 3))
        assert gens.co == []
        assert gens.num_contacts == 1

    def test_two_arcs_yield_one_crossing(self):
        K = meshes.annulus(6)
        contact = meshes.boundary_arc(K, 0, 3) | meshes.boundary_arc(K, 1, 3)
        gens = compute_generators(K, contact)
        assert len(gens.co) == 1
        report = verify(K, classify_boundary(K, contact), gens)
        assert report.passed

    def test_moebius_torsion_branch(self):
        K = meshes.moebius(6)
        contact = meshes.boundary_arc(K, 0, 3)
        gens = compute_generators(K, contact)
        assert len(gens.co) == 1
        assert gens.betti1 == 1
        report = verify(K, classify_boundary(K, contact), gens)
        assert report.passed

    def test_full_circle_contact_rejected(self):
        K = meshes.annulus(6)
        inner = set(boundary_components(K)[0].edges)
        with pytest.raises(UnsupportedContactLayout):
            compute_generators(K, inner)

    def test_moebius_two_ports(self):
        # Non-orientable branch with more than one contact: one transport
        # generator plus the extra anchored one.
        K = meshes.moebius(8)
        cyc = boundary_components(K)[0]
        contact = {cyc.edges[0], cyc.edges[1], cyc.edges[8], cyc.edges[9]}
        gens = compute_generators(K, contact)
        assert len(gens.co) == 2 == gens.num_contacts
        report = verify(K, classify_boundary(K, contact), gens)
        assert report.passed

    def test_klein_minus_disk_with_port(self):
        K = meshes.klein_minus_disk()
        contact = meshes.boundary_arc(K, 0, 2)
        gens = compute_generators(K, contact)
        assert sorted(g.kind for g in gens.generators) == ["co", "ha"]
        report = verify(K, classify_boundary(K, contact), gens)
        assert report.passed


class TestAssembly:
    def test_sphere_is_empty(self):
        gens = compute_generators(meshes.octahedron())
        assert gens.generators == []
        assert gens.betti1 == 0

    def test_all_generators_are_relative_cocycles(self):
        for name, K, contact in corpus_with_contacts():
            bp = classify_boundary(K, contact)
            gens = compute_generators(K, contact)
            for gen in gens.generators:
                ok, reason = is_relative_cocycle(K, gen.cochain, bp)
                assert ok, f"{name}: {reason}"

    def test_coefficients_stay_small(self):
        for name, K, contact in corpus_with_contacts():
            gens = compute_generators(K, contact)
            for gen in gens.generators:
                values = set(gen.cochain.coeffs.values())
                assert values <= {-2, -1, 1, 2}, f"{name}: {values}"

    def test_counts_match_oracle(self):
        for name, K, contact in corpus_with_contacts():
            bp = classify_boundary(K, contact)
            gens = compute_generators(K, contact)
            report = verify(K, bp, gens)
            assert report.passed, f"{name}: {report.failures}"

    def test_disjoint_union_reindexes(self):
        torus = meshes.csaszar_torus()
        annulus = meshes.annulus(6)
        K = meshes.disjoint_union(torus, annulus)
        gens = compute_generators(K)
        kinds = sorted(g.kind for g in gens.generators)
        assert kinds == ["ha", "ha", "ho"]
        components = {g.component for g in gens.generators}
        assert components == {0, 1}
        # Handle supports stay inside the torus block, the hole generator
        # inside the annulus block.
        torus_pairs = {
            frozenset(e) for e in K.edges if max(e) < torus.num_vertices
        }
        for gen in gens.generators:
            pairs = {frozenset(K.edges[eid]) for eid in gen.cochain.support}
            if gen.kind == "ha":
                assert pairs <= torus_pairs
            else:
                assert not pairs & torus_pairs
        report = verify(K, classify_boundary(K, set()), gens)
        assert report.passed

    def test_two_disjoint_moebius_strips(self):
        # Each component carries its own twisted edge and anchor; with one
        # port per strip both torsion-branch generators appear.
        K = meshes.disjoint_union(meshes.moebius(6), meshes.moebius(5))
        gens = compute_generators(K)
        assert gens.generators == []
        assert gens.num_twisted_edges == 2
        anchors = [m.anchor_edge for m in gens.components]
        assert all(a is not None for a in anchors)
        contact = meshes.boundary_arc(K, 0, 2) | meshes.boundary_arc(K, 1, 2)
        with_ports = compute_generators(K, contact)
        assert [g.kind for g in with_ports.generators] == ["co", "co"]
        assert {g.component for g in with_ports.generators} == {0, 1}
        report = verify(K, classify_boundary(K, contact), with_ports)
        assert report.passed

    def test_deterministic_output(self):
        K1 = meshes.genus2()
        K2 = meshes.genus2()
        a = compute_generators(K1)
        b = compute_generators(K2)
        assert [g.kind for g in a.generators] == [g.kind for g in b.generators]
        assert [g.cochain for g in a.generators] == [g.cochain for g in b.generators]
        assert a.components == b.components


def component_alone(K, face_ids, contact):
    """One component rebuilt as its own complex, with a map from its edge
    ids back to the edge ids of K."""
    verts = sorted({v for f in face_ids for v in K.faces[f]})
    local = {v: i for i, v in enumerate(verts)}
    sub = build_complex(
        len(verts), [tuple(local[v] for v in K.faces[f]) for f in face_ids]
    )
    to_parent = [K.edge_index[(verts[a], verts[b])] for a, b in sub.edges]
    sub_contact = {s for s, e in enumerate(to_parent) if e in contact}
    return sub, sub_contact, to_parent


class TestSinglePass:
    """The pass over the whole complex speaks in the complex's own ids."""

    def two_annuli(self):
        return meshes.disjoint_union(meshes.annulus(6), meshes.annulus(6))

    def test_non_boundary_contact_names_mesh_edge(self):
        K = self.two_annuli()
        eid = K.edge_index[(13, 19)]
        assert not K.is_boundary_edge(eid)
        with pytest.raises(NotABoundaryEdge, match=re.escape(f"edge (13, 19) (id {eid})")):
            compute_generators(K, {eid})

    def test_full_circle_contact_names_mesh_vertex(self):
        K = self.two_annuli()
        circle = boundary_components(K)[2]
        assert circle.vertices[0] == 12
        with pytest.raises(
            UnsupportedContactLayout, match="entire boundary circle through vertex 12"
        ):
            compute_generators(K, set(circle.edges))

    def test_one_edge_port_warning_names_mesh_edge(self):
        K = self.two_annuli()
        eid = K.edge_index[(12, 13)]
        with pytest.warns(UserWarning, match=re.escape("single edge (12, 13)")):
            compute_generators(K, {eid})

    def test_union_matches_components_computed_alone(self):
        K, contact = meshes.mixed_surface()
        gens = compute_generators(K, contact)
        parts = connected_components(K)
        assert len(gens.components) == len(parts) == 5
        for cid, face_ids in enumerate(parts):
            sub, sub_contact, to_parent = component_alone(K, face_ids, contact)
            alone = compute_generators(sub, sub_contact)
            mapped = [
                (g.kind, {to_parent[e]: v for e, v in g.cochain.coeffs.items()})
                for g in alone.generators
            ]
            ours = [
                (g.kind, dict(g.cochain.coeffs))
                for g in gens.generators
                if g.component == cid
            ]
            assert ours == mapped, cid
            (meta,) = alone.components
            expected_anchor = (
                None if meta.anchor_edge is None else to_parent[meta.anchor_edge]
            )
            assert gens.components[cid].anchor_edge == expected_anchor
            assert gens.components[cid].betti1 == meta.betti1
