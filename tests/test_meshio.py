"""OFF parsing, contact files, report round-trip, VTK overlay."""

import pytest

import meshes
from globalloops.generators import compute_generators
from globalloops.errors import ContactSpecError, NotABoundaryEdge, OffParseError
from globalloops.meshio import (
    parse_contacts,
    parse_off,
    render_report,
    report_dict,
    report_to_generators,
    write_off,
    write_vtk,
)
from globalloops.meshio import load_off

GOOD_OFF = """OFF
# a lone triangle
3 1 0
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
3 0 1 2
"""


class TestOffParsing:
    def test_good_file(self):
        nv, coords, faces = parse_off(GOOD_OFF)
        assert nv == 3
        assert coords[1] == (1.0, 0.0, 0.0)
        assert faces == [(0, 1, 2)]

    def test_missing_header(self):
        with pytest.raises(OffParseError) as err:
            parse_off("3 1 0\n")
        assert err.value.line == 1

    def test_bad_coordinate_arity(self):
        bad = "OFF\n1 0 0\n0.0 0.0\n"
        with pytest.raises(OffParseError) as err:
            parse_off(bad)
        assert err.value.line == 3

    def test_quad_faces_rejected(self):
        bad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        with pytest.raises(OffParseError) as err:
            parse_off(bad)
        assert err.value.line == 7

    def test_out_of_range_index(self):
        bad = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n"
        with pytest.raises(OffParseError) as err:
            parse_off(bad)
        assert err.value.line == 6

    def test_truncated_file(self):
        bad = "OFF\n3 1 0\n0 0 0\n"
        with pytest.raises(OffParseError):
            parse_off(bad)

    def test_round_trip_through_disk(self, tmp_path):
        K = meshes.annulus(6)
        path = tmp_path / "annulus.off"
        write_off(path, K)
        K2 = load_off(path)
        assert K2.faces == K.faces
        assert K2.edges == K.edges


class TestContactParsing:
    def test_comments_and_blanks(self):
        K = meshes.annulus(6)
        a, b = K.edges[K.boundary_edge_ids[0]]
        text = f"# contacts\n\n{a} {b}\n  # trailing\n"
        assert parse_contacts(text, K) == {K.boundary_edge_ids[0]}

    def test_reversed_pair_accepted(self):
        K = meshes.annulus(6)
        a, b = K.edges[K.boundary_edge_ids[0]]
        assert parse_contacts(f"{b} {a}\n", K) == {K.boundary_edge_ids[0]}

    def test_malformed_line(self):
        K = meshes.annulus(6)
        with pytest.raises(ContactSpecError) as err:
            parse_contacts("1 2 3\n", K)
        assert err.value.line == 1

    def test_unknown_edge(self):
        K = meshes.annulus(6)
        with pytest.raises(NotABoundaryEdge):
            parse_contacts("0 7\n", K)

    def test_interior_edge(self):
        K = meshes.annulus(6)
        interior = next(
            eid for eid in range(K.num_edges) if not K.is_boundary_edge(eid)
        )
        a, b = K.edges[interior]
        with pytest.raises(NotABoundaryEdge):
            parse_contacts(f"{a} {b}\n", K)


class TestReport:
    def test_round_trip_exact(self):
        import json

        K = meshes.annulus(6)
        contact = meshes.boundary_arc(K, 0, 3) | meshes.boundary_arc(K, 1, 3)
        gens = compute_generators(K, contact)
        report = json.loads(render_report(report_dict(K, gens)))
        rebuilt = report_to_generators(report, K)
        assert len(rebuilt) == len(gens.generators)
        for (kind, component, cochain), gen in zip(rebuilt, gens.generators):
            assert kind == gen.kind
            assert component == gen.component
            assert cochain == gen.cochain

    def test_meta_fields(self):
        K = meshes.moebius(6)
        gens = compute_generators(K)
        report = report_dict(K, gens)
        meta = report["meta"]
        assert meta["N_ho"] == 1
        assert meta["N_co"] == 0
        assert meta["E_M"] == 1
        assert meta["E_M_II"] == 1
        assert meta["orientable"] is False
        assert meta["betti1"] == 0
        assert meta["components"][0]["component_id"] == 0

    def test_rendering_is_deterministic(self):
        K = meshes.pair_of_pants()
        r1 = render_report(report_dict(K, compute_generators(K)))
        r2 = render_report(report_dict(K, compute_generators(K)))
        assert r1 == r2


class TestVtk:
    def test_overlay_structure(self, tmp_path):
        K = meshes.annulus(6)
        gens = compute_generators(K)
        path = tmp_path / "overlay.vtk"
        write_vtk(path, K, gens)
        text = path.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert "DATASET POLYDATA" in text
        points_line = next(l for l in text if l.startswith("POINTS"))
        assert points_line.split()[1] == str(K.num_vertices)
        lines_line = next(l for l in text if l.startswith("LINES"))
        n_segments = sum(len(g.cochain.coeffs) for g in gens.generators)
        assert lines_line.split()[1] == str(n_segments)
        assert "SCALARS generator_index int 1" in text
        assert "SCALARS coefficient int 1" in text

    def test_needs_coordinates(self, tmp_path):
        K = meshes.csaszar_torus()
        gens = compute_generators(K)
        with pytest.raises(ValueError):
            write_vtk(tmp_path / "t.vtk", K, gens)
