"""OFF parsing, contact files, report round-trip and bytes, VTK overlay."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meshes
from globalloops.cli import main
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
from globalloops.oracle import verify
from globalloops.surface import boundary_components, classify_boundary

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


def reference_render(report):
    """The byte contract of ``render_report``."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


counts = st.integers(0, 10**6)
# Quotes, backslashes, control and non-ASCII characters exercise escaping.
texts = st.text(st.sampled_from('ab "\\/\n\t\x00\x7f\u00e9\u2028\U0001f600')) | st.text()
edge_records = st.fixed_dictionaries(
    {"v_a": counts, "v_b": counts, "coefficient": st.integers(-(10**30), 10**30)}
)
generator_records = st.fixed_dictionaries(
    {
        "class": st.sampled_from(["ha", "ho", "co"]) | texts,
        "component_id": st.integers(0, 40),
        "edges": st.lists(edge_records, max_size=5),
    }
)
component_metas = st.fixed_dictionaries(
    {
        "component_id": counts,
        "N_ho": counts,
        "N_co": counts,
        "E_M": counts,
        "E_M_II": counts,
        "orientable": st.booleans(),
        "betti1": counts,
    }
)
metas = st.fixed_dictionaries(
    {
        "components": st.lists(component_metas, max_size=4),
        "N_ho": counts,
        "N_co": counts,
        "E_M": counts,
        "E_M_II": counts,
        "orientable": st.booleans(),
        "betti1": counts,
    }
)
verifications = st.fixed_dictionaries(
    {
        "betti1_relative": counts,
        "generator_count": counts,
        "cocycle_ok": st.lists(st.booleans(), max_size=4),
        "independence_ok": st.booleans(),
        "orientable": st.booleans(),
        "torsion_coefficients": st.lists(st.just(2), max_size=3),
        "dimension_formula_ok": st.booleans(),
        "failures": st.lists(texts, max_size=3),
        "passed": st.booleans(),
    }
)
reports = st.fixed_dictionaries(
    {"generators": st.lists(generator_records, max_size=5), "meta": metas},
    optional={"verification": verifications},
)

EDGELESS = {"class": "ho", "component_id": 3, "edges": []}
WIDE = {"class": "ha", "component_id": 0,
        "edges": [{"v_a": 0, "v_b": 10**12, "coefficient": -(10**20)}]}
META = {"components": [], "N_ho": 0, "N_co": 0, "E_M": 0, "E_M_II": 0,
        "orientable": True, "betti1": 0}
FAILED = {"betti1_relative": 1, "generator_count": 0, "cocycle_ok": [],
          "independence_ok": True, "orientable": False,
          "torsion_coefficients": [2], "dimension_formula_ok": False,
          "failures": ['count "0" \\ expected 1 \u2014 caf\u00e9'], "passed": False}


class TestRenderBytes:
    @settings(deadline=None)
    @given(reports)
    @example({"generators": [], "meta": META})
    @example({"generators": [EDGELESS, WIDE], "meta": META, "verification": FAILED})
    def test_equals_indented_json(self, report):
        assert render_report(report) == reference_render(report)

    def test_cli_report_on_every_class_with_arcs(self, tmp_path):
        # Five components, two contact arcs on every circle of eight or more
        # edges and one two-edge arc on each shorter circle.
        K, contact = meshes.mixed_surface()
        for k, cyc in enumerate(boundary_components(K)):
            if not contact & set(cyc.edges):
                contact |= meshes.boundary_arc(K, k, 2)
        mesh, contacts, out = (tmp_path / n for n in ("m.off", "c.txt", "r.json"))
        write_off(mesh, K)
        contacts.write_text(
            "".join(f"{K.edges[e][0]} {K.edges[e][1]}\n" for e in sorted(contact))
        )
        argv = ["compute", str(mesh), "--contacts", str(contacts), "--out", str(out)]
        assert main([*argv, "--verify"]) == 0

        gens = compute_generators(K, contact)
        report = report_dict(K, gens, verify(K, classify_boundary(K, contact), gens))
        assert len(report["meta"]["components"]) == 5
        assert out.read_text() == reference_render(report)


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
