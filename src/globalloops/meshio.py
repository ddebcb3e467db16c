"""File formats: OFF meshes, contact-edge lists, JSON reports, VTK overlays.

Report output is byte-deterministic: keys are sorted, edge records are
sorted, and no timestamps appear anywhere in the body.

The report text is defined as ``render_report(report_dict(...))``, that is
``json.dumps(report, indent=2, sort_keys=True)`` followed by a newline.  The
CLI does not produce it that way.  CPython's C encoder only runs when
``indent`` is None, so an indented dump sends every edge record (one per
support edge of every generator) through the pure-Python encoder, and
``report_dict`` first builds one dict per support edge that nothing else
reads.  ``report_text`` writes the same bytes straight from the
``GeneratorSet``: each edge record is one ``%``-format of a fixed template,
made once per distinct (edge, coefficient) pair, and each generator record a
fixed frame around them, while the small ``meta`` and ``verification``
blocks, built by the helper ``report_dict`` also uses, are dumped by
``json`` and indented one level further.  ``report_dict`` stays for library
callers that want the report as data.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

from .errors import ContactSpecError, NotABoundaryEdge, OffParseError
from .generators import GeneratorSet
from .surface import SurfaceComplex, build_complex


def parse_off(text: str) -> tuple[int, list[tuple[float, float, float]], list[tuple[int, int, int]]]:
    """Parse OFF text into (vertex count, coordinates, triangle list).

    Only triangles are accepted.  Parse errors carry 1-based line numbers.
    Each line is split once.  The blocks read no more lines than the text
    has, so header counts, which come from outside, size nothing.
    """
    lines = text.splitlines()
    rows = _token_lines(lines)
    end = len(lines), None
    lineno, tokens = next(rows, end)
    if tokens != ["OFF"]:
        raise OffParseError(lineno, "expected OFF header")
    lineno, tokens = next(rows, end)
    if tokens is None or len(tokens) != 3:
        raise OffParseError(lineno, "expected 'vertices faces edges' counts")
    try:
        nv, nf, _ = map(int, tokens)
    except ValueError:
        raise OffParseError(lineno, "counts must be integers") from None
    if nv < 0 or nf < 0:
        raise OffParseError(lineno, "counts must be nonnegative")

    coords = []
    for lineno, tokens in islice(rows, min(nv, len(lines))):
        if len(tokens) != 3:
            raise OffParseError(lineno, f"expected 3 coordinates, got {len(tokens)}")
        try:
            coords.append(tuple(map(float, tokens)))
        except ValueError:
            raise OffParseError(lineno, "coordinates must be numbers") from None
    if len(coords) < nv:
        raise OffParseError(len(lines), "unexpected end of file in vertex block")

    faces = []
    for lineno, tokens in islice(rows, min(nf, len(lines))):
        try:
            values = tuple(map(int, tokens))
        except ValueError:
            raise OffParseError(lineno, "face indices must be integers") from None
        if len(values) != 4 or values[0] != 3:
            raise OffParseError(lineno, "only triangular faces ('3 i j k') are supported")
        tri = values[1:]
        for v in tri:
            if not 0 <= v < nv:
                raise OffParseError(lineno, f"vertex index {v} out of range")
        faces.append(tri)
    if len(faces) < nf:
        raise OffParseError(len(lines), "unexpected end of file in face block")

    lineno, tokens = next(rows, end)
    if tokens is not None:
        raise OffParseError(lineno, "trailing content after face block")
    return nv, coords, faces


def _token_lines(lines):
    """(line number, tokens) of each line with content outside a '#' comment."""
    for lineno, line in enumerate(lines, 1):
        tokens = (line.split("#", 1)[0] if "#" in line else line).split()
        if tokens:
            yield lineno, tokens


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
        if not complex.is_boundary_edge(eid):
            raise NotABoundaryEdge(f"line {lineno}: ({i}, {j}) is not a boundary edge")
        out.add(eid)
    return out


def load_contacts(path: str | Path, complex: SurfaceComplex) -> set[int]:
    return parse_contacts(Path(path).read_text(encoding="utf-8"), complex)


def _summary(generators: GeneratorSet, verification=None) -> dict:
    """The report's ``meta`` block, and its ``verification`` block if given."""
    summary = {
        "meta": {
            "components": [
                {
                    "component_id": meta.component_id,
                    "N_ho": meta.num_holes,
                    "N_co": meta.num_contacts,
                    "E_M": meta.num_candidate_edges,
                    "E_M_II": meta.num_twisted_edges,
                    "orientable": meta.orientable,
                    "betti1": meta.betti1,
                }
                for meta in generators.components
            ],
            "N_ho": generators.num_holes,
            "N_co": generators.num_contacts,
            "E_M": generators.num_candidate_edges,
            "E_M_II": generators.num_twisted_edges,
            "orientable": generators.orientable,
            "betti1": generators.betti1,
        }
    }
    if verification is not None:
        summary["verification"] = {
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
    return summary


def report_dict(
    complex: SurfaceComplex, generators: GeneratorSet, verification=None
) -> dict:
    """Structured report with one record per generator plus a meta block."""
    edges = complex.edges
    gen_records = [
        {
            "class": gen.kind,
            "component_id": gen.component,
            "edges": [
                {"v_a": edges[eid][0], "v_b": edges[eid][1], "coefficient": val}
                for eid, val in gen.cochain.items_sorted()
            ],
        }
        for gen in generators.generators
    ]
    return {"generators": gen_records, **_summary(generators, verification)}


def render_report(report: dict) -> str:
    """The report text of a structured report: the definition that
    ``report_text`` matches byte for byte."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


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


class _EdgeRecords(dict):
    """``(edge id, coefficient)`` -> edge record text, formatted on first use."""

    def __init__(self, edges: list[tuple[int, int]]):
        super().__init__()
        self.edges = edges

    def __missing__(self, item: tuple[int, int]) -> str:
        eid, val = item
        a, b = self.edges[eid]
        text = self[item] = _EDGE % (val, a, b)
        return text


def report_text(
    complex: SurfaceComplex, generators: GeneratorSet, verification=None
) -> str:
    """Report text, byte-equal to ``render_report(report_dict(complex,
    generators, verification))`` (see the module docstring)."""
    records = _EdgeRecords(complex.edges)
    # The pieces are joined once at the end, not concatenated as they come.
    out = ['{\n  "generators": [']
    separator = "\n"
    for gen in generators.generators:
        items = gen.cochain.items_sorted()
        rows = ",\n".join(map(records.__getitem__, items))
        out.append(separator)
        out.append(_GENERATOR % (
            json.dumps(gen.kind),
            gen.component,
            f"[\n{rows}\n      ]" if items else "[]",
        ))
        separator = ",\n"
    out.append("\n  ]" if generators.generators else "]")
    for key, value in sorted(_summary(generators, verification).items()):
        block = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        out.append(f',\n  "{key}": {block}')
    out.append("\n}\n")
    return "".join(out)


def write_vtk(path: str | Path, complex: SurfaceComplex, generators: GeneratorSet) -> None:
    """Line-set overlay of generator supports (legacy ASCII POLYDATA).

    Each supported edge becomes one line cell; cell data carries the
    generator index and the integer coefficient.
    """
    if complex.coords is None:
        raise ValueError("VTK export needs vertex coordinates")
    edges = complex.edges
    supports = [gen.cochain.items_sorted() for gen in generators.generators]
    cells = sum(map(len, supports))
    lines = [
        "# vtk DataFile Version 3.0",
        "generator support overlay",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {complex.num_vertices} float",
    ]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in complex.coords]
    lines.append(f"LINES {cells} {3 * cells}")
    lines += ["2 %d %d" % edges[eid] for items in supports for eid, _ in items]
    lines += [f"CELL_DATA {cells}", "SCALARS generator_index int 1", "LOOKUP_TABLE default"]
    lines += [str(gi) for gi, items in enumerate(supports) for _ in items]
    lines += ["SCALARS coefficient int 1", "LOOKUP_TABLE default"]
    lines += [str(val) for items in supports for _, val in items]
    Path(path).write_text("\n".join(lines) + "\n")
