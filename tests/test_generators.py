"""Generator classes, assembly, and their contracts."""

import re

import pytest

import globalloops
import meshes
import reference
from globalloops.errors import NotABoundaryEdge, UnsupportedContactLayout
from globalloops.forest import Tree, build_tree_cotree
from globalloops.generators import ComponentMeta, compute_generators
from globalloops.oracle import verify
from globalloops.surface import (
    BoundaryCycle,
    boundary_components,
    build_complex,
    classify_boundary,
)
from globalloops.transport import is_twisted
from reference import coboundary0, connected_components, edge_faces, evaluate, of_kind


def primal_tree(K):
    """The primal forest as a tree, from the reference search that
    ``test_forest`` holds the package's marks to."""
    return reference.build_primal_tree(K, boundary_components(K))[0]


def fundamental_cycle(K, primal, eid):
    """Chain of the unique cycle in the primal tree plus one extra edge,
    oriented along the extra edge."""
    tail, head = K.edges[eid]
    chain = {eid: 1}
    path = reference.tree_path(primal, head, tail)
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
        assert of_kind(gens, "ha") == []

    def test_torus_has_two(self):
        K = meshes.csaszar_torus()
        gens = compute_generators(K)
        assert len(of_kind(gens, "ha")) == 2
        assert of_kind(gens, "ho") == [] and of_kind(gens, "co") == []
        report = verify(K, classify_boundary(K, set()), gens)
        assert report.passed

    def test_pairing_with_fundamental_cycles(self):
        # Each handle generator pairs to 1 with its own candidate edge's
        # cycle and to 0 with the others.
        for K in (meshes.csaszar_torus(), meshes.genus2()):
            _, _, candidates = build_tree_cotree(K, boundary_components(K))
            primal = primal_tree(K)
            gens = compute_generators(K)
            assert len(of_kind(gens, "ha")) == len(candidates)
            for i, g in enumerate(of_kind(gens, "ha")):
                for j, eid in enumerate(candidates):
                    cycle = fundamental_cycle(K, primal, eid)
                    assert evaluate(g, cycle) == (1 if i == j else 0)

    def test_moebius_outputs_nothing(self):
        K = meshes.moebius(6)
        gens = compute_generators(K)
        assert gens.generators == []
        meta = gens.components[0]
        assert len(meta.candidate_edges) == 1
        assert len(meta.twisted_edges) == 1
        assert not gens.orientable
        assert meta.anchor_edge is not None

    def test_klein_minus_disk_has_one(self):
        K = meshes.klein_minus_disk()
        gens = compute_generators(K)
        meta = gens.components[0]
        assert len(meta.candidate_edges) == 2
        assert len(meta.twisted_edges) >= 1
        assert len(of_kind(gens, "ha")) == len(meta.candidate_edges) - 1 == 1
        report = verify(K, classify_boundary(K, set()), gens)
        assert report.passed


class TestHoles:
    def test_disk_has_none(self):
        assert of_kind(compute_generators(meshes.disk(6)), "ho") == []

    def test_annulus_has_one(self):
        K = meshes.annulus(6)
        gens = compute_generators(K)
        assert len(of_kind(gens, "ho")) == 1
        (g,) = of_kind(gens, "ho")
        # Support: interior edges touching the non-fixed circle, which is
        # the inner one (smaller vertex ids).
        cycles = boundary_components(K)
        members = set(cycles[0].vertices)
        expected = {
            eid
            for eid, (a, b) in enumerate(K.edges)
            if (a in members) != (b in members)
        }
        assert set(g.coeffs) == expected
        assert not expected & set(K.boundary_edge_ids)

    def test_matches_vertex_coboundary(self):
        K = meshes.pair_of_pants()
        gens = compute_generators(K)
        cycles = boundary_components(K)
        assert len(of_kind(gens, "ho")) == 2
        for g, cyc in zip(of_kind(gens, "ho"), cycles):
            assert g.coeffs == coboundary0(K, {v: 1 for v in cyc.vertices}).coeffs

    def test_pair_of_pants_has_two(self):
        K = meshes.pair_of_pants()
        gens = compute_generators(K)
        assert len(of_kind(gens, "ho")) == 2
        report = verify(K, classify_boundary(K, set()), gens)
        assert report.passed


class TestContacts:
    def test_single_arc_yields_nothing_orientable(self):
        K = meshes.annulus(6)
        gens = compute_generators(K, meshes.boundary_arc(K, 0, 3))
        assert of_kind(gens, "co") == []
        assert len(gens.components[0].contact_components) == 1

    def test_two_arcs_yield_one_crossing(self):
        K = meshes.annulus(6)
        contact = meshes.boundary_arc(K, 0, 3) | meshes.boundary_arc(K, 1, 3)
        gens = compute_generators(K, contact)
        assert len(of_kind(gens, "co")) == 1
        report = verify(K, classify_boundary(K, contact), gens)
        assert report.passed

    def test_moebius_torsion_branch(self):
        K = meshes.moebius(6)
        contact = meshes.boundary_arc(K, 0, 3)
        gens = compute_generators(K, contact)
        assert len(of_kind(gens, "co")) == 1
        assert len(gens.generators) == 1
        report = verify(K, classify_boundary(K, contact), gens)
        assert report.passed

    def test_full_circle_contact_rejected(self):
        K = meshes.annulus(6)
        inner = set(boundary_components(K)[0].edges)
        with pytest.raises(UnsupportedContactLayout):
            compute_generators(K, inner)

    def test_each_circle_is_tested_for_full_contact(self):
        # Two components, five circles: contact all round any one circle is
        # refused, named by that circle's first vertex; leaving one of its
        # edges insulated makes a valid layout.
        K = meshes.disjoint_union(meshes.annulus(6), meshes.pair_of_pants())
        circles = boundary_components(K)
        assert len(circles) == 5
        for cyc in circles:
            with pytest.raises(
                UnsupportedContactLayout,
                match=f"entire boundary circle through vertex {cyc.vertices[0]};",
            ):
                compute_generators(K, set(cyc.edges))
            contact = set(cyc.edges[:-1])
            gens = compute_generators(K, contact)
            assert sum(len(m.contact_components) for m in gens.components) == 1
            report = verify(K, classify_boundary(K, contact), gens)
            assert report.passed, report.failures

    def test_moebius_two_ports(self):
        # Non-orientable branch with more than one contact: one transport
        # generator plus the extra anchored one.
        K = meshes.moebius(8)
        cyc = boundary_components(K)[0]
        contact = {cyc.edges[0], cyc.edges[1], cyc.edges[8], cyc.edges[9]}
        gens = compute_generators(K, contact)
        assert len(of_kind(gens, "co")) == 2 == len(gens.components[0].contact_components)
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

    def test_all_generators_are_relative_cocycles(self):
        for name, K, contact in corpus_with_contacts():
            bp = classify_boundary(K, contact)
            gens = compute_generators(K, contact)
            assert all(verify(K, bp, gens).cocycle_ok), name

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

    @pytest.mark.filterwarnings("ignore:contact component")
    @pytest.mark.parametrize("kind", meshes.SAMPLE_KINDS)
    def test_each_generator_is_its_own_zero_free_dict(self, kind):
        # Cochain1 keeps the dict it is handed, so no two generators may
        # share one, and none may hold a zero.
        for seed in range(3 if kind != "mixed_surface" else 1):
            K = meshes.sample(kind, seed)
            contact = meshes.random_contact_arc(K, seed) if K.boundary_edge_ids else set()
            coeffs = [g.cochain.coeffs for g in compute_generators(K, contact).generators]
            assert not any(0 in c.values() for c in coeffs), (kind, seed)
            assert len(set(map(id, coeffs))) == len(coeffs), (kind, seed)

    def test_scrambled_unions_hold_pants(self):
        # A component with three circles and so two hole generators, which
        # walks the boundary of a pants relabelled at random.
        for seed in range(3):
            gens = compute_generators(meshes.sample("scrambled", seed))
            holes = [sum(g.kind == "ho" and g.component == c for g in gens.generators)
                     for c in range(len(gens.components))]
            assert 2 in holes, seed

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
            pairs = {frozenset(K.edges[eid]) for eid in gen.cochain.coeffs}
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
        assert [len(m.twisted_edges) for m in gens.components] == [1, 1]
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
        assert [g.cochain.coeffs for g in a.generators] == [
            g.cochain.coeffs for g in b.generators
        ]
        assert a.components == b.components


class TestAnchorEdge:
    """One anchor edge per non-orientable component: the last twisted
    candidate in dual-forest preorder, which the handle chain drops and the
    extra contact generator anchors to.  ``TestSinglePass`` checks that it
    agrees with a run on the component alone."""

    def cases(self):
        wl = meshes.workloads()
        chain = wl.connect_sum([wl.klein(4, 4) for _ in range(8)])
        return [
            ("mixed_surface", *meshes.mixed_surface()),
            ("klein_chain", build_complex(chain.num_vertices, chain.faces), set()),
        ]

    def test_anchor_is_the_dropped_twisted_candidate(self):
        for name, K, contact in self.cases():
            gens = compute_generators(K, contact)
            holes = classify_boundary(K, contact).hole_components
            _, dual, candidates = build_tree_cotree(K, holes)
            rank = dual.preorder()
            incident = edge_faces(K)
            for cid, meta in enumerate(gens.components):
                own = [e for e in candidates if dual.tree_of[incident[e][0]] == cid]
                twisted = [e for e in own if is_twisted(K, dual, e)]
                if not twisted:
                    assert meta.anchor_edge is None, (name, cid)
                    continue
                anchor = max(twisted, key=lambda e: (rank[incident[e][0]], e))
                assert meta.anchor_edge == anchor, (name, cid)
                ha = [g for g in gens.generators if (g.component, g.kind) == (cid, "ha")]
                kept = [e for e in own if e != anchor]
                assert len(ha) == len(kept) == len(meta.candidate_edges) - 1
                # Each handle generator is its own candidate's, +1 there.
                assert all(g.cochain.coeffs.get(e) == 1 for e, g in zip(kept, ha))
                co = [g for g in gens.generators if (g.component, g.kind) == (cid, "co")]
                if co:
                    assert anchor in co[-1].cochain.coeffs, (name, cid)
            assert verify(K, classify_boundary(K, contact), gens).passed, name


class TestPreorder:
    """The dual forest is ranked only when a chain has two edges to order."""

    def test_not_ranked_without_a_chain(self, monkeypatch):
        def refuse(self):
            raise AssertionError("ranked a forest with nothing to order")

        monkeypatch.setattr(Tree, "preorder", refuse)
        for name, K, contact in corpus_with_contacts():
            if not contact and reference.is_orientable(K):
                compute_generators(K)

    def test_ranked_once_on_mixed_surface(self, monkeypatch):
        calls = []
        rank = Tree.preorder

        def counted(self):
            calls.append(self)
            return rank(self)

        monkeypatch.setattr(Tree, "preorder", counted)
        K, contact = meshes.mixed_surface()
        assert verify(K, classify_boundary(K, contact), compute_generators(K, contact)).passed
        assert len(calls) == 1


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

    def test_readme_library_sequence_warns_once(self):
        # The README's calls on a one-edge port: compute_generators warns,
        # naming this file, and classify_boundary adds nothing.
        K = meshes.annulus(6)
        contact_edges = meshes.boundary_arc(K, 0, 1)
        with pytest.warns(UserWarning, match="one-edge port") as record:
            K = globalloops.build_complex(K.num_vertices, K.faces)
            gens = globalloops.compute_generators(K, contact_edges)
            bp = globalloops.classify_boundary(K, contact_edges)
            report = globalloops.verify(K, bp, gens)
        assert report.passed, report.failures
        assert [w.filename for w in record] == [__file__]

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
            # The component's record holds the same lists in K's ids.
            (meta,) = alone.components
            verts = sorted({v for f in face_ids for v in K.faces[f]})
            edges = to_parent.__getitem__
            expected = ComponentMeta(
                [
                    BoundaryCycle([verts[v] for v in cyc.vertices], list(map(edges, cyc.edges)))
                    for cyc in meta.circles
                ],
                [list(map(edges, comp)) for comp in meta.contact_components],
                list(map(edges, meta.candidate_edges)),
                list(map(edges, meta.twisted_edges)),
                None if meta.anchor_edge is None else edges(meta.anchor_edge),
            )
            assert gens.components[cid] == expected, cid

    @pytest.mark.parametrize(
        "name, K, contact",
        corpus_with_contacts() + [("mixed_surface", *meshes.mixed_surface())],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_records_split_the_partition_and_the_candidates(self, name, K, contact):
        # The records hold every circle, contact component and candidate
        # edge once, each on the component of its faces; the twisted edges
        # are the candidates that is_twisted flags, the anchor last.
        gens = compute_generators(K, contact)
        partition = classify_boundary(K, contact)
        _, dual, candidates = build_tree_cotree(K, partition.hole_components)
        incident = edge_faces(K)
        tree_of = [dual.tree_of[faces[0]] for faces in incident]
        rank = dual.preorder()
        metas = gens.components
        for field, whole in (
            ("circles", partition.hole_components),
            ("contact_components", partition.contact_components),
            ("candidate_edges", candidates),
        ):
            assert sorted(x for m in metas for x in getattr(m, field)) == sorted(whole)
        for cid, meta in enumerate(metas):
            owned = [c.edges[0] for c in meta.circles] + [c[0] for c in meta.contact_components]
            assert {tree_of[e] for e in owned + meta.candidate_edges} <= {cid}
            first_faces = [rank[incident[e][0]] for e in meta.twisted_edges]
            assert first_faces == sorted(first_faces)
            assert set(meta.twisted_edges) == {
                e for e in meta.candidate_edges if is_twisted(K, dual, e)
            }
            assert meta.anchor_edge == (meta.twisted_edges or [None])[-1]
