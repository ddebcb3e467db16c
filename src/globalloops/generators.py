"""Construction of the three generator classes and the assembled basis.

One pass classifies the boundary and grows the primal and dual spanning
forests over the whole complex (one tree per connected component, see
``forest``).  The candidate edges, boundary circles and contact components
are then grouped by component, a face's component being the index of its
dual tree, and per component the pipeline produces:

* handle generators, one per candidate edge (edges in neither spanning
  tree), via self-pair transport around the dual tree; on non-orientable
  components the twisted candidates (an O(1) sign test, see
  ``transport``) are combined pairwise against a fixed anchor edge
  instead,
* hole generators, one per boundary circle except a fixed one, as vertex
  coboundaries of circle indicators,
* contact generators, one per contact component except a fixed one, via
  transport between contact edges, plus one extra generator anchored at the
  twisted edge when the component is non-orientable.

Every id is the complex's own.  All coefficients are integers; the same
representatives serve as a basis over the reals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cochain import Cochain1
from .errors import CountMismatch, UnsupportedContactLayout
from .forest import Tree, build_tree_cotree
from .surface import (
    BoundaryCycle,
    BoundaryPartition,
    SurfaceComplex,
    classify_boundary,
)
from .transport import is_twisted, transport

HANDLE = "ha"
HOLE = "ho"
CONTACT = "co"


@dataclass
class Generator:
    kind: str  # "ha" | "ho" | "co"
    component: int
    cochain: Cochain1


@dataclass
class ComponentMeta:
    """Per-component bookkeeping mirrored into reports."""

    component_id: int
    num_holes: int
    num_contacts: int
    num_candidate_edges: int
    num_twisted_edges: int
    orientable: bool
    betti1: int
    anchor_edge: int | None = None  # twisted edge all combinations anchor to


@dataclass
class GeneratorSet:
    generators: list[Generator] = field(default_factory=list)
    components: list[ComponentMeta] = field(default_factory=list)
    # The boundary partition the generators were built on, for ``verify``.
    partition: BoundaryPartition | None = None

    def of_kind(self, kind: str) -> list[Cochain1]:
        return [g.cochain for g in self.generators if g.kind == kind]

    @property
    def ha(self) -> list[Cochain1]:
        return self.of_kind(HANDLE)

    @property
    def ho(self) -> list[Cochain1]:
        return self.of_kind(HOLE)

    @property
    def co(self) -> list[Cochain1]:
        return self.of_kind(CONTACT)

    @property
    def num_holes(self) -> int:
        return sum(m.num_holes for m in self.components)

    @property
    def num_contacts(self) -> int:
        return sum(m.num_contacts for m in self.components)

    @property
    def num_candidate_edges(self) -> int:
        return sum(m.num_candidate_edges for m in self.components)

    @property
    def num_twisted_edges(self) -> int:
        return sum(m.num_twisted_edges for m in self.components)

    @property
    def orientable(self) -> bool:
        return all(m.orientable for m in self.components)

    @property
    def betti1(self) -> int:
        return len(self.generators)


def handles(
    complex: SurfaceComplex, dual: Tree, candidates: list[int]
) -> tuple[list[Cochain1], list[int], int | None]:
    """Handle generators from one component's sorted candidate edges.

    Returns (generators, twisted candidate edges, anchor edge).  Twisted
    candidates are the ones whose self-pair loop reverses orientation; when
    present, the minimal one becomes the anchor, is dropped from the output,
    and every other twisted candidate is rebuilt by combining its two
    face-to-face transports toward the anchor.
    """
    by_edge: dict[int, Cochain1] = {}
    twisted: list[int] = []
    for eid in candidates:
        if is_twisted(complex, dual, eid):
            twisted.append(eid)
        else:
            f1, f2 = complex.edge_faces[eid]
            by_edge[eid] = transport(complex, dual, f1, f2, eid, eid)

    if not twisted:
        return [by_edge[eid] for eid in candidates], [], None

    anchor = min(twisted)
    for eid in twisted:
        if eid != anchor:
            faces = complex.edge_faces[eid]
            by_edge[eid] = _to_anchor(complex, dual, faces, eid, anchor, (eid, anchor))
    gens = [by_edge[eid] for eid in candidates if eid != anchor]
    return gens, twisted, anchor


def _to_anchor(complex, dual, faces, edge, anchor, keep):
    """Sum of two transports from ``edge``, on faces[0] and faces[1], to the
    anchor on its first and second face; the edges in ``keep`` take the
    first transport's value alone."""
    fa1, fa2 = complex.edge_faces[anchor]
    out = dict(transport(complex, dual, faces[0], fa1, edge, anchor).coeffs)
    for k, v in transport(complex, dual, faces[1], fa2, edge, anchor).coeffs.items():
        if k not in keep:
            out[k] = out.get(k, 0) + v
    return Cochain1(out)


def holes(complex: SurfaceComplex, cycles: list[BoundaryCycle]) -> list[Cochain1]:
    """Hole generators: vertex coboundary of each non-fixed circle indicator.

    ``cycles`` are one component's circles in ascending order of minimal
    vertex id; the fixed circle is the last one.  The support of each
    generator consists exactly of the edges with one endpoint on the circle,
    so no boundary edge is touched and the result is a relative cocycle even
    under full insulation.
    """
    out = []
    for cyc in cycles[:-1]:
        members = set(cyc.vertices)
        coeffs: dict[int, int] = {}
        for v in cyc.vertices:
            for eid, w in complex.vertex_edges[v]:
                if w not in members:
                    # Indicator coboundary: +1 when the circle holds the head.
                    coeffs[eid] = 1 if complex.edges[eid][1] == v else -1
        out.append(Cochain1(coeffs))
    return out


def contacts(
    complex: SurfaceComplex,
    dual: Tree,
    comps: list[list[int]],
    anchor: int | None,
) -> list[Cochain1]:
    """Contact generators from one component's contact components.

    ``comps`` are in ascending order of minimal vertex id.  One transport
    generator per contact component short of the fixed (last) one; a
    non-orientable component, which has an anchor edge, gets one extra
    generator built from the two paths to the anchor.
    """
    fixed_edge = min(comps[-1])
    fixed_face = complex.edge_faces[fixed_edge][0]
    out = []
    for comp in comps[:-1]:
        eid = min(comp)
        face = complex.edge_faces[eid][0]
        out.append(transport(complex, dual, face, fixed_face, eid, fixed_edge))

    if anchor is not None:
        both = (fixed_face, fixed_face)
        out.append(_to_anchor(complex, dual, both, fixed_edge, anchor, (anchor,)))
    return out


def _expected_counts(meta: ComponentMeta) -> tuple[int, int, int]:
    n_ha = meta.num_candidate_edges - (1 if meta.num_twisted_edges else 0)
    n_ho = max(meta.num_holes - 1, 0)
    if meta.num_contacts == 0:
        n_co = 0
    elif meta.orientable:
        n_co = meta.num_contacts - 1
    else:
        n_co = meta.num_contacts
    return n_ha, n_ho, n_co


def _reject_full_circle_contacts(partition: BoundaryPartition) -> None:
    circle_of_edge = {
        eid: cyc for cyc in partition.hole_components for eid in cyc.edges
    }
    for j, comp in enumerate(partition.contact_components):
        cyc = circle_of_edge[comp[0]]
        if len(comp) == len(cyc.edges):
            raise UnsupportedContactLayout(
                f"contact component {j} covers the entire boundary circle "
                f"through vertex {cyc.vertices[0]}; leave at least one "
                "insulated edge on each circle with contacts"
            )


def compute_generators(
    complex: SurfaceComplex, contact_edges: set[int] | frozenset[int] = frozenset()
) -> GeneratorSet:
    """Compute the full generator basis in one pass over the complex.

    Components come in ascending order of their minimal face id; generators
    and metadata (anchor edges included) use the complex's own edge ids.
    The boundary partition is kept on the result for ``oracle.verify``.
    """
    partition = classify_boundary(complex, contact_edges)
    _reject_full_circle_contacts(partition)
    dual, candidate_edges = build_tree_cotree(complex, partition.hole_components)

    # The dual forest has exactly one tree per component (build_tree_cotree
    # raises otherwise), rooted at its minimal face in ascending order.
    components = range(len(dual.roots))
    comp_of_face = dual.tree_of

    def component_of(eid: int) -> int:
        return comp_of_face[complex.edge_faces[eid][0]]

    candidates: list[list[int]] = [[] for _ in components]
    for eid in candidate_edges:
        candidates[component_of(eid)].append(eid)
    cycles: list[list[BoundaryCycle]] = [[] for _ in components]
    for cyc in partition.hole_components:
        cycles[component_of(cyc.edges[0])].append(cyc)
    contact_comps: list[list[list[int]]] = [[] for _ in components]
    for comp in partition.contact_components:
        contact_comps[component_of(comp[0])].append(comp)

    out = GeneratorSet(partition=partition)
    for cid in components:
        ha, twisted, anchor = handles(complex, dual, candidates[cid])
        ho = holes(complex, cycles[cid])
        co = (
            contacts(complex, dual, contact_comps[cid], anchor)
            if contact_comps[cid]
            else []
        )
        meta = ComponentMeta(
            component_id=cid,
            num_holes=len(cycles[cid]),
            num_contacts=len(contact_comps[cid]),
            num_candidate_edges=len(candidates[cid]),
            num_twisted_edges=len(twisted),
            orientable=not twisted,
            betti1=len(ha) + len(ho) + len(co),
            anchor_edge=anchor,
        )
        expected = _expected_counts(meta)
        if (len(ha), len(ho), len(co)) != expected:
            raise CountMismatch(
                f"class sizes {(len(ha), len(ho), len(co))} do not match {expected}"
            )
        out.generators += (
            [Generator(HANDLE, cid, g) for g in ha]
            + [Generator(HOLE, cid, g) for g in ho]
            + [Generator(CONTACT, cid, g) for g in co]
        )
        out.components.append(meta)
    return out
