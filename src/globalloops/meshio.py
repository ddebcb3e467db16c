"""File formats: OFF meshes, contact-edge lists, JSON reports, VTK overlays.

Report output is byte-deterministic: keys are sorted, edge records are
sorted, and no timestamps appear anywhere in the body.

The report text is exactly ``json.dumps(report, indent=2, sort_keys=True)``
followed by a newline, but ``render_report`` does not produce it that way:
CPython's C encoder only runs when ``indent`` is None, so an indented dump
sends every edge record (one per support edge of every generator) through
the pure-Python encoder, which costs more than computing the generators.  The
writer instead knows the schema: each edge record is one ``%``-format of a
fixed template and each generator record a fixed frame around it, while
the small remaining blocks (``meta``, ``verification``) are dumped by
``json`` and indented one level further.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path

from .cochain import Cochain1
from .errors import ContactSpecError, NotABoundaryEdge, OffParseError
from .generators import GeneratorSet
from .surface import SurfaceComplex, build_complex


def parse_off(text: str) -> tuple[int, list[tuple[float, float, float]], list[tuple[int, int, int]]]:
    """Parse OFF text into (vertex count, coordinates, triangle list).

    Only triangles are accepted.  Parse errors carry 1-based line numbers.
    """
    lines = text.splitlines()
    pos = 0

    def next_tokens():
        nonlocal pos
        while pos < len(lines):
            lineno = pos + 1
            raw = lines[pos].split("#", 1)[0].strip()
            pos += 1
            if raw:
                return lineno, raw.split()
        return len(lines), None

    lineno, tokens = next_tokens()
    if tokens is None or tokens != ["OFF"]:
        raise OffParseError(lineno, "expected OFF header")
    lineno, tokens = next_tokens()
    if tokens is None or len(tokens) != 3:
        raise OffParseError(lineno, "expected 'vertices faces edges' counts")
    try:
        nv, nf, _ = (int(t) for t in tokens)
    except ValueError:
        raise OffParseError(lineno, "counts must be integers") from None
    if nv < 0 or nf < 0:
        raise OffParseError(lineno, "counts must be nonnegative")

    coords = []
    for _ in range(nv):
        lineno, tokens = next_tokens()
        if tokens is None:
            raise OffParseError(lineno, "unexpected end of file in vertex block")
        if len(tokens) != 3:
            raise OffParseError(lineno, f"expected 3 coordinates, got {len(tokens)}")
        try:
            coords.append(tuple(float(t) for t in tokens))
        except ValueError:
            raise OffParseError(lineno, "coordinates must be numbers") from None

    faces = []
    for _ in range(nf):
        lineno, tokens = next_tokens()
        if tokens is None:
            raise OffParseError(lineno, "unexpected end of file in face block")
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise OffParseError(lineno, "face indices must be integers") from None
        if not values or values[0] != 3 or len(values) != 4:
            raise OffParseError(lineno, "only triangular faces ('3 i j k') are supported")
        tri = tuple(values[1:])
        for v in tri:
            if not 0 <= v < nv:
                raise OffParseError(lineno, f"vertex index {v} out of range")
        faces.append(tri)

    lineno, tokens = next_tokens()
    if tokens is not None:
        raise OffParseError(lineno, "trailing content after face block")
    return nv, coords, faces


def load_off(path: str | Path) -> SurfaceComplex:
    text = Path(path).read_text(encoding="utf-8")
    nv, coords, faces = parse_off(text)
    return build_complex(nv, faces, coords=coords)


def write_off(path: str | Path, complex: SurfaceComplex) -> None:
    lines = ["OFF", f"{complex.num_vertices} {complex.num_faces} {complex.num_edges}"]
    coords = complex.coords or [(0.0, 0.0, 0.0)] * complex.num_vertices
    for x, y, z in coords:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in complex.faces:
        lines.append(f"3 {a} {b} {c}")
    Path(path).write_text("\n".join(lines) + "\n")


def parse_contacts(text: str, complex: SurfaceComplex) -> set[int]:
    """Parse a contact file: one 'i j' vertex pair per line.

    Blank lines and '#' comments are ignored.  Every pair must name a
    boundary edge of the mesh; unknown or interior pairs raise
    NotABoundaryEdge.
    """
    boundary = set(complex.boundary_edge_ids)
    out: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ContactSpecError(lineno, f"expected 'i j', got {raw.strip()!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ContactSpecError(lineno, "vertex ids must be integers") from None
        pair = (i, j) if i < j else (j, i)
        eid = complex.edge_index.get(pair)
        if eid is None:
            raise NotABoundaryEdge(f"line {lineno}: ({i}, {j}) is not an edge of the mesh")
        if eid not in boundary:
            raise NotABoundaryEdge(f"line {lineno}: ({i}, {j}) is not a boundary edge")
        out.add(eid)
    return out


def load_contacts(path: str | Path, complex: SurfaceComplex) -> set[int]:
    return parse_contacts(Path(path).read_text(encoding="utf-8"), complex)


def report_dict(
    complex: SurfaceComplex, generators: GeneratorSet, verification=None
) -> dict:
    """Structured report with one record per generator plus a meta block."""
    gen_records = []
    for gen in generators.generators:
        edges = [
            {
                "v_a": complex.edges[eid][0],
                "v_b": complex.edges[eid][1],
                "coefficient": val,
            }
            for eid, val in gen.cochain.items_sorted()
        ]
        gen_records.append(
            {"class": gen.kind, "component_id": gen.component, "edges": edges}
        )
    comp_records = []
    for meta in generators.components:
        comp_records.append(
            {
                "component_id": meta.component_id,
                "N_ho": meta.num_holes,
                "N_co": meta.num_contacts,
                "E_M": meta.num_candidate_edges,
                "E_M_II": meta.num_twisted_edges,
                "orientable": meta.orientable,
                "betti1": meta.betti1,
            }
        )
    report = {
        "generators": gen_records,
        "meta": {
            "components": comp_records,
            "N_ho": generators.num_holes,
            "N_co": generators.num_contacts,
            "E_M": generators.num_candidate_edges,
            "E_M_II": generators.num_twisted_edges,
            "orientable": generators.orientable,
            "betti1": generators.betti1,
        },
    }
    if verification is not None:
        report["verification"] = {
            "betti1_relative": verification.betti1_relative,
            "generator_count": verification.generator_count,
            "cocycle_ok": verification.cocycle_ok,
            "independence_ok": verification.independence_ok,
            "orientable": verification.orientable,
            "torsion_coefficients": verification.torsion_coefficients,
            "dimension_formula_ok": verification.dimension_formula_ok,
            "failures": verification.failures,
            "passed": verification.passed,
        }
    return report


_EDGE_FIELDS = operator.itemgetter("coefficient", "v_a", "v_b")
_EDGE = (
    "        {\n"
    '          "coefficient": %d,\n'
    '          "v_a": %d,\n'
    '          "v_b": %d\n'
    "        }"
)
_GENERATOR = (
    "    {\n"
    '      "class": %s,\n'
    '      "component_id": %d,\n'
    '      "edges": %s\n'
    "    }"
)


def _render_generator(record: dict) -> str:
    edges = record["edges"]
    if edges:
        rows = ",\n".join(map(_EDGE.__mod__, map(_EDGE_FIELDS, edges)))
        edges_text = f"[\n{rows}\n      ]"
    else:
        edges_text = "[]"
    return _GENERATOR % (
        json.dumps(record["class"]),
        record["component_id"],
        edges_text,
    )


def render_report(report: dict) -> str:
    """Report text, byte-equal to ``json.dumps(report, indent=2,
    sort_keys=True) + "\\n"`` (see the module docstring)."""
    # One final join over the pieces, so the text is copied only once.
    out = []
    separator = "{\n  "
    for key in sorted(report):
        out.append(f"{separator}{json.dumps(key)}: ")
        separator = ",\n  "
        value = report[key]
        if key == "generators" and value:
            out.append("[\n")
            for i, record in enumerate(value):
                if i:
                    out.append(",\n")
                out.append(_render_generator(record))
            out.append("\n  ]")
        else:
            out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
    out.append("\n}\n")
    return "".join(out)


def report_to_generators(
    report: dict, complex: SurfaceComplex
) -> list[tuple[str, int, Cochain1]]:
    """Rebuild (class, component, cochain) triples from a parsed report."""
    out = []
    for record in report["generators"]:
        coeffs = {}
        for item in record["edges"]:
            pair = (item["v_a"], item["v_b"])
            coeffs[complex.edge_index[pair]] = item["coefficient"]
        out.append((record["class"], record["component_id"], Cochain1(coeffs)))
    return out


def write_vtk(path: str | Path, complex: SurfaceComplex, generators: GeneratorSet) -> None:
    """Line-set overlay of generator supports (legacy ASCII POLYDATA).

    Each supported edge becomes one line cell; cell data carries the
    generator index and the integer coefficient.
    """
    if complex.coords is None:
        raise ValueError("VTK export needs vertex coordinates")
    segments = []
    for gi, gen in enumerate(generators.generators):
        for eid, val in gen.cochain.items_sorted():
            a, b = complex.edges[eid]
            segments.append((a, b, gi, val))

    lines = [
        "# vtk DataFile Version 3.0",
        "generator support overlay",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {complex.num_vertices} float",
    ]
    for x, y, z in complex.coords:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    lines.append(f"LINES {len(segments)} {3 * len(segments)}")
    for a, b, _, _ in segments:
        lines.append(f"2 {a} {b}")
    lines.append(f"CELL_DATA {len(segments)}")
    lines.append("SCALARS generator_index int 1")
    lines.append("LOOKUP_TABLE default")
    for _, _, gi, _ in segments:
        lines.append(str(gi))
    lines.append("SCALARS coefficient int 1")
    lines.append("LOOKUP_TABLE default")
    for _, _, _, val in segments:
        lines.append(str(val))
    Path(path).write_text("\n".join(lines) + "\n")
