"""OFF parsing, contact files, report round-trip and bytes, VTK overlay."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meshes
import reference
import test_golden
from globalloops import meshio
from globalloops.cli import main
from globalloops.cochain import Cochain1
from globalloops.generators import (
    ComponentMeta,
    Generator,
    GeneratorSet,
    compute_generators,
)
from globalloops.errors import ContactSpecError, NotABoundaryEdge, OffParseError
from globalloops.meshio import (
    parse_contacts,
    parse_off,
    report_dict,
    report_text,
    write_off,
    write_vtk,
)
from globalloops.meshio import load_off
from globalloops.oracle import VerificationReport, verify
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


@st.composite
def mutated_off(draw):
    """Valid OFF text of a small mesh, then a few mutations of its lines."""
    K = meshes.sample(
        draw(st.sampled_from(("random_disk", "random_annulus", "scrambled"))),
        draw(st.integers(0, 10**6)),
    )
    lines = ["OFF", f"{K.num_vertices} {K.num_faces} {K.num_edges}"]
    lines += [f"{v}.5 {-v} 1e-3" for v in range(K.num_vertices)]
    lines += [f"3 {a} {b} {c}" for a, b, c in K.faces]
    junk = st.sampled_from(["x", "nan", "-inf", "1e3", "0x1", "+2", "-1", "3.0", "1_0", "99999999999999999999"])
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        i = min(at, len(lines) - 1)
        kind = draw(st.sampled_from(
            ["comment", "tail comment", "blank", "tabs", "truncate", "extra", "replace", "quad", "trailing", "counts"]
        ))
        if kind == "comment":
            lines.insert(at, "# " + draw(st.sampled_from(["", "3 0 1 2", "OFF", "#"])))
        elif kind == "tail comment":
            lines[i] += draw(st.sampled_from(["#", " # 1 2", "\t#x"]))
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", " \t "])))
        elif kind == "tabs":
            lines[i] = lines[i].replace(" ", "\t")
        elif kind == "truncate":
            text = "\n".join(lines)
            lines = text[: draw(st.integers(0, len(text)))].split("\n")
        elif kind == "extra":
            lines[i] += " " + draw(junk)
        elif kind == "replace":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(junk)
            lines[i] = " ".join(tokens)
        elif kind == "quad":
            lines[i] = "4 0 1 2 3"
        elif kind == "trailing":
            lines.append(draw(st.sampled_from(["3 0 1 2", "0 0 0", "OFF", "x"])))
        else:
            counts = ["-1 2 0", "2 -1 0", "1 2", "0 0 -5", "2 1e9 0", "99999999999999999999 1 0"]
            lines[min(1, len(lines) - 1)] = draw(st.sampled_from(counts))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def parsed(parse, text):
    """The parse as text (NaN equals itself there), or the line and message
    of the OffParseError; any other exception escapes."""
    try:
        return repr(parse(text))
    except OffParseError as exc:
        return exc.line, str(exc)


@settings(deadline=None, max_examples=300)
@given(mutated_off())
@example("OFF\n99999999999999999999 1 0\n0 0 0\n")
@example("OFF\r\n1 1 0\r\n0 0 0 # origin\r\n\r\n3 0 0 0\r\n")
def test_off_parser_matches_the_original(text):
    assert parsed(parse_off, text) == parsed(reference.parse_off, text)


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
        report = json.loads(report_text(K, gens))
        rebuilt = reference.report_to_generators(report, K)
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
        r1 = report_text(K, compute_generators(K))
        r2 = report_text(K, compute_generators(K))
        assert r1 == r2


def reference_render(report):
    """The byte contract of ``report_text``: ``render_report``'s definition."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# Generator sets over one small complex, so that an edge often carries
# different values in different generators.
SMALL = meshes.octahedron()
counts = st.integers(0, 10**6)
# Quotes, backslashes, control and non-ASCII characters exercise escaping.
texts = st.text(st.sampled_from('ab "\\/\n\t\x00\x7f\u00e9\u2028\U0001f600')) | st.text()
cochains = st.dictionaries(
    st.integers(0, SMALL.num_edges - 1),
    st.integers(-(10**30), 10**30).filter(bool),
    max_size=6,
).map(Cochain1)
generator_records = st.builds(
    Generator,
    kind=st.sampled_from(["ha", "ho", "co"]) | texts,
    component=st.integers(0, 40),
    cochain=cochains,
)
component_metas = st.builds(
    ComponentMeta,
    component_id=counts,
    num_holes=counts,
    num_contacts=counts,
    num_candidate_edges=counts,
    num_twisted_edges=counts,
    orientable=st.booleans(),
    betti1=counts,
    anchor_edge=st.none() | counts,
)
generator_sets = st.builds(
    GeneratorSet,
    generators=st.lists(generator_records, max_size=5),
    components=st.lists(component_metas, max_size=4),
)
verifications = st.builds(
    VerificationReport,
    betti1_relative=counts,
    generator_count=counts,
    cocycle_ok=st.lists(st.booleans(), max_size=4),
    independence_ok=st.booleans(),
    orientable=st.booleans(),
    torsion_coefficients=st.lists(st.just(2), max_size=3),
    dimension_formula_ok=st.booleans(),
    failures=st.lists(texts, max_size=3),
)

# Edge 0 carries two values, one generator has no edges, and the
# coefficient is wider than 64 bits.
SHARED_EDGE = GeneratorSet(
    generators=[
        Generator("ha", 0, Cochain1({0: 1, 3: -(10**20)})),
        Generator("ho", 3, Cochain1()),
        Generator("co", 1, Cochain1({0: -1})),
    ],
    components=[ComponentMeta(0, 1, 1, 2, 0, True, 2)],
)
FAILED = VerificationReport(
    betti1_relative=1, generator_count=0, cocycle_ok=[], independence_ok=True,
    orientable=False, torsion_coefficients=[2], dimension_formula_ok=False,
    failures=['count "0" \\ expected 1 \u2014 caf\u00e9'],
)


def mixed_surface_files(tmp_path):
    """``mixed_surface`` with two contact arcs on every circle of eight or
    more edges and one two-edge arc on each shorter circle, written out;
    returns the complex, the contacts, the compute argv and the report path."""
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
    return K, contact, argv, out


class TestRenderBytes:
    @settings(deadline=None)
    @given(generator_sets, st.none() | verifications)
    @example(GeneratorSet(), None)
    @example(SHARED_EDGE, FAILED)
    def test_equals_indented_json(self, generators, verification):
        expected = reference_render(report_dict(SMALL, generators, verification))
        assert report_text(SMALL, generators, verification) == expected

    def test_cli_report_on_every_class_with_arcs(self, tmp_path):
        K, contact, argv, out = mixed_surface_files(tmp_path)
        assert main([*argv, "--verify"]) == 0

        gens = compute_generators(K, contact)
        report = report_dict(K, gens, verify(K, classify_boundary(K, contact), gens))
        assert len(report["meta"]["components"]) == 5
        assert out.read_text() == reference_render(report)

    def test_cli_builds_no_report_dict(self, tmp_path, monkeypatch):
        # The CLI writes the text straight from the generator set; one dict
        # per support edge must not come back on its path.
        def refuse(*args, **kwargs):
            raise AssertionError("compute built the structured report")

        monkeypatch.setattr(meshio, "report_dict", refuse)
        _, _, argv, out = mixed_surface_files(tmp_path)
        assert main([*argv, "--verify"]) == 0
        assert json.loads(out.read_text())["verification"]["passed"]


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

    @pytest.mark.filterwarnings("ignore:contact component")
    def test_matches_the_row_writer(self, tmp_path):
        # Byte-equal to the original writer on every golden input with
        # coordinates.
        written = []
        for name, factory in sorted(test_golden.corpus().items()):
            K, contact_edges = factory()
            if K.coords is None:
                continue
            gens = compute_generators(K, contact_edges)
            write_vtk(tmp_path / "new.vtk", K, gens)
            reference.write_vtk(tmp_path / "old.vtk", K, gens)
            new, old = (tmp_path / "new.vtk").read_bytes(), (tmp_path / "old.vtk").read_bytes()
            assert new == old, name
            written.append(name)
        assert {"annulus+arc", "moebius", "loops-heavy-3", "verify-small-1"} <= set(written)

    def test_needs_coordinates(self, tmp_path):
        K = meshes.csaszar_torus()
        gens = compute_generators(K)
        with pytest.raises(ValueError):
            write_vtk(tmp_path / "t.vtk", K, gens)
