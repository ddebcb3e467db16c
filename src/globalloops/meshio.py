"""File formats: OFF meshes, contact-edge lists, JSON reports, VTK overlays.

OFF and contact files are read as UTF-8, a byte-order mark allowed.

The report is ``json.dumps(report, indent=2, sort_keys=True)`` plus a
newline: keys and edge records are sorted and no timestamps appear, so it
is byte-deterministic.  ``report_text`` writes it from the generator set:
a generator's edge records are one template repeated once per edge, since
``json`` sends an indented dump through its pure-Python encoder, and only
the small ``meta`` and ``verification`` blocks are dumped by ``json``.
``report_dict`` parses that text, for library callers that want data.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import islice
from pathlib import Path

from .errors import ContactSpecError, NotABoundaryEdge, OffParseError
from .generators import GeneratorSet
from .surface import SurfaceComplex, build_complex


def parse_off(text: str) -> tuple[int, list[tuple[float, float, float]], list[tuple[int, int, int]]]:
    """Parse OFF text into (vertex count, coordinates, triangle list).

    Only triangles are accepted.  Parse errors carry 1-based line numbers;
    an error at the end of the file names its last line, or line 1 when the
    text has none.  Well-formed text is read in blocks (``_parse_blocks``);
    any other text goes to the line-by-line reader, which raises the error.
    Both split the text with ``splitlines`` and each line with
    ``str.split``.  The blocks read no more lines than the text has, so
    header counts, which come from outside, size nothing.
    """
    lines = text.splitlines()
    return ("#" not in text and _parse_blocks(lines)) or _parse_lines(lines)


def _parse_blocks(lines):
    """The parse of text with no '#', an 'OFF' line, a line of three
    integer counts, nv rows of three numbers and nf rows '3 i j k' with
    indices in range, then nothing but whitespace; None for any other text.
    Each block is converted by one ``map`` over its tokens."""
    if len(lines) < 2 or lines[0].split() != ["OFF"]:
        return None
    try:
        nv, nf, _ = map(int, lines[1].split())
    except ValueError:
        return None
    end = 2 + nv + nf
    if nv < 0 or nf < 0 or len(lines) < end or "".join(lines[end:]).strip():
        return None
    vertex_tokens = _row_tokens(lines[2:2 + nv], 3)
    face_tokens = _row_tokens(lines[2 + nv:end], 4)
    if vertex_tokens is None or face_tokens is None or face_tokens[::4].count("3") != nf:
        return None
    del face_tokens[::4]
    try:
        numbers = map(float, vertex_tokens)
        coords = list(zip(numbers, numbers, numbers))
        values = list(map(int, face_tokens))
    except ValueError:
        return None
    if values and (min(values) < 0 or max(values) >= nv):
        return None
    indices = iter(values)
    return nv, coords, list(zip(indices, indices, indices))


def _row_tokens(rows, width):
    """The tokens of ``rows`` in order, or None unless each row has
    ``width`` of them.  The rows hold no '#', so in one split of the rows
    joined by ' # ' (and one after the last) each row ends at a '#' token,
    and every ``width + 1``-th token is one of those when, and only when,
    each row has ``width`` tokens."""
    tokens = " # ".join(rows + [""]).split()
    if tokens[width::width + 1] != ["#"] * len(rows):
        return None
    del tokens[width::width + 1]
    return tokens


def _parse_lines(lines):
    """The parse of any text, line by line, or the OffParseError of its
    first fault."""
    rows = _token_lines(lines)
    last = max(len(lines), 1)
    end = last, None
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
        raise OffParseError(last, "unexpected end of file in vertex block")

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
        raise OffParseError(last, "unexpected end of file in face block")

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
    text = Path(path).read_text(encoding="utf-8-sig")
    nv, coords, faces = parse_off(text)
    return build_complex(nv, faces, coords=coords)


def parse_contacts(text: str, complex: SurfaceComplex) -> set[int]:
    """Parse a contact file: one 'i j' vertex pair per line.

    Blank lines and '#' comments are ignored.  Every pair must name a
    boundary edge of the mesh; unknown or interior pairs raise
    NotABoundaryEdge.
    """
    out: set[int] = set()
    lines = text.splitlines()
    for lineno, tokens in _token_lines(lines):
        if len(tokens) != 2:
            raw = lines[lineno - 1].strip()
            raise ContactSpecError(lineno, f"expected 'i j', got {raw!r}")
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
    return parse_contacts(Path(path).read_text(encoding="utf-8-sig"), complex)


def _summary(generators: GeneratorSet, verification=None) -> dict:
    """The report's ``meta`` block, and its ``verification`` block if given."""
    betti1 = Counter(gen.component for gen in generators.generators)
    rows = [
        {
            "component_id": cid,
            "N_ho": len(meta.circles),
            "N_co": len(meta.contact_components),
            "E_M": len(meta.candidate_edges),
            "E_M_II": len(meta.twisted_edges),
            "orientable": not meta.twisted_edges,
            "betti1": betti1[cid],
        }
        for cid, meta in enumerate(generators.components)
    ]
    totals = {k: sum(row[k] for row in rows) for k in ("N_ho", "N_co", "E_M", "E_M_II")}
    summary = {
        "meta": {
            "components": rows,
            **totals,
            "orientable": generators.orientable,
            "betti1": len(generators.generators),
        }
    }
    if verification is not None:
        summary["verification"] = {**verification._asdict(), "passed": verification.passed}
    return summary


def report_dict(
    complex: SurfaceComplex, generators: GeneratorSet, verification=None
) -> dict:
    """The report as data: one record per generator plus a meta block."""
    return json.loads(report_text(complex, generators, verification))


def render_report(report: dict) -> str:
    """The report text of a structured report; the inverse of
    ``report_dict``."""
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


def report_text(
    complex: SurfaceComplex, generators: GeneratorSet, verification=None
) -> str:
    """The report text: one record per generator, its edges by id, plus
    the meta block and, if given, the verification block (see the module
    docstring)."""
    edges = complex.edges
    # The pieces are joined once at the end, not concatenated as they come.
    out = ['{\n  "generators": [']
    separator = "\n"
    for gen in generators.generators:
        coeffs = gen.cochain.coeffs
        values = []
        for eid in sorted(coeffs):
            values.append(coeffs[eid])
            values += edges[eid]
        rows = ",\n".join([_EDGE] * len(coeffs)) % tuple(values)
        out.append(separator)
        out.append(_GENERATOR % (
            json.dumps(gen.kind),
            gen.component,
            f"[\n{rows}\n      ]" if coeffs else "[]",
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
    supports = [sorted(gen.cochain.coeffs.items()) for gen in generators.generators]
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
