"""Construction of the three generator classes and the assembled basis.

One pass classifies the boundary, warns of a one-edge contact component,
refuses a circle that is contact all round (UnsupportedContactLayout), and
grows the primal and dual spanning forests over the whole complex (one tree
per connected component, see ``forest``).
The candidate edges, boundary circles and contact components are then
grouped by component, a face's component being the index of its dual tree,
and per component the pipeline produces:

* handle generators, one per candidate edge (edges in neither spanning
  tree), via self-pair transport around the dual tree; on non-orientable
  components the twisted candidates (an O(1) sign test, see ``forest``)
  are chained instead, each combined with the next, and the last one is
  the anchor edge,
* hole generators, one per boundary circle except a fixed one, as vertex
  coboundaries of circle indicators,
* contact generators, one per contact component but the last, via
  transport to the next one, whatever circle it lies on, plus one from the
  last to the anchor edge when the component is non-orientable.

Both chains follow one depth-first preorder of the dual forest: contact
components by the face of their minimal edge, twisted candidates by their
first face.  Neighbours in a sorted preorder are at most their Euler-tour
distance apart, so a contact chain's paths, and a twisted chain's
first-face paths, sum to at most 2(F_c - 1) on F_c faces, whatever the
layout.  The chains recombine one fixed target per class unimodularly, so
the class sizes stand.

Every id is the complex's own.  Each generator is a ``Cochain1`` of integer
coefficients, checked as a relative cocycle only by ``oracle.verify``; the
same representatives serve as a basis over the reals.

Only when asked, ``GeneratorSet.cycles`` yields one relative 1-cycle per
generator, closed through the primal forest, the witness with which
``oracle.verify`` certifies a basis over the integers.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from collections.abc import Iterator
from functools import cache

from .errors import NodeNotInTree, UnsupportedContactLayout
from .forest import DualTree, Tree, build_tree_cotree, is_twisted, transport
from .surface import BoundaryCycle, SurfaceComplex, classify_boundary

HANDLE = "ha"
HOLE = "ho"
CONTACT = "co"


class Cochain1:
    """Integer-valued 1-cochain stored as a sparse edge -> coefficient map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        if coeffs is None:
            coeffs = {}
        elif 0 in coeffs.values():
            coeffs = {k: v for k, v in coeffs.items() if v}
        self.coeffs = coeffs

    def __repr__(self) -> str:
        return f"Cochain1({dict(sorted(self.coeffs.items()))!r})"


class Generator(namedtuple("Generator", "kind component cochain")):
    __slots__ = ()  # kind is "ha", "ho" or "co"; cochain a Cochain1


class ComponentMeta(
    namedtuple(
        "ComponentMeta",
        "circles contact_components candidate_edges twisted_edges anchor_edge",
        defaults=(None,),
    )
):
    """One component's record: the lists ``compute_generators`` sized its
    classes from, whose lengths the report counts (N_ho, N_co, E_M and
    E_M_II).  The circles come by minimal vertex id, the last one fixed; the
    twisted candidates in preorder, the last one the anchor edge, which the
    handle chain drops."""

    __slots__ = ()


class GeneratorSet(
    namedtuple("GeneratorSet", "generators components primal", defaults=((), (), None))
):
    """The basis, each component's record and the primal forest, for
    ``cycles``.  No boundary partition: ``oracle.verify`` takes the caller's."""

    __slots__ = ()

    @property
    def orientable(self) -> bool:
        return not any(m.twisted_edges for m in self.components)

    def cycles(self, complex: SurfaceComplex) -> Iterator[dict[int, int]]:
        """Yield one relative 1-cycle per generator, as {edge id:
        coefficient}, component by component and class by class as the
        generators come: the witness of ``oracle.verify``'s pairing check,
        read off each component's record in ``components``.  Raises
        ValueError when there are generators but no primal forest to close
        them through.  A caller that caps the work counts the entries as
        they come, and stops before the rest are built.

        Paths run in the primal forest of ``forest.build_primal_tree``,
        whose edges the dual forest does not cross and which are not
        candidates.  Per component:

        * per handle generator, its candidate edge e plus the primal path
          from the head of e back to its tail,
        * per hole generator, the primal path from an insulated vertex of
          its circle to one of the fixed circle, a vertex that starts an
          edge of no contact component of the record,
        * per contact generator of the chain, the run of one contact
          component, each but the last in the record's order, oriented
          along its circle; for the extra one of a non-orientable
          component, the anchor edge's loop.

        Contact generators are nonzero on contact edges only at the minimal
        edge of each run (2 there for the one that ends at the anchor).
        The anchor loop and every twisted loop subtract each run times
        their coefficient at its minimal edge, so that no contact generator
        pairs with them; the pairing matrix then peels class by class:
        handles and holes, the contact chain from the run left out, the
        anchor loop, the twisted chain.
        """
        if not self.generators:
            return
        primal = self.primal
        if primal is None:
            raise ValueError("no primal forest to close the witness cycles through")
        for meta in self.components:
            circles, anchor, runs = meta.circles, meta.anchor_edge, []
            if meta.contact_components:
                sign = {
                    eid: 1 if complex.edges[eid][0] == v else -1
                    for cyc in circles
                    for v, eid in zip(cyc.vertices, cyc.edges)
                }
                runs = [{eid: sign[eid] for eid in comp} for comp in meta.contact_components]
            # Beside contact runs, the anchor loop and each twisted loop
            # cancel every run at its minimal edge.
            cancels = anchor is not None and bool(runs)
            twisted = set(meta.twisted_edges) if cancels else ()

            def closed(eid: int) -> dict[int, int]:
                loop = _loop(complex, primal, eid)
                if eid in twisted:
                    for run in runs:
                        _cancel(loop, run, min(run))
                return loop

            yield from (closed(eid) for eid in meta.candidate_edges if eid != anchor)
            if circles:
                contact = set().union(*meta.contact_components)
                fixed = _insulated_vertex(circles[-1], contact)
                for cyc in circles[:-1]:
                    yield _path(complex, primal, _insulated_vertex(cyc, contact), fixed)
            yield from runs[:-1]
            if cancels:
                yield closed(anchor)


def _by_component(complex: SurfaceComplex, dual: DualTree, candidate_edges, partition):
    """Per component of the dual forest, in its order: the candidate edges,
    the boundary circles and the contact components on it, each in the
    order they are given."""
    comp_of_face, edge_half = dual.tree_of, complex.edge_half
    out = [([], [], []) for _ in dual.roots]
    for eid in candidate_edges:
        out[comp_of_face[edge_half[eid] // 3]][0].append(eid)
    for cyc in partition.hole_components:
        out[comp_of_face[edge_half[cyc.edges[0]] // 3]][1].append(cyc)
    for comp in partition.contact_components:
        out[comp_of_face[edge_half[comp[0]] // 3]][2].append(comp)
    return out


def _faces(complex: SurfaceComplex, eid: int) -> tuple[int, int]:
    """The lower and the upper face of interior edge ``eid``."""
    h = complex.edge_half[eid]
    return h // 3, complex.twin[h] // 3


def _insulated_vertex(cyc: BoundaryCycle, contact) -> int:
    """The first vertex of ``cyc`` that starts an insulated edge."""
    return next(v for v, eid in zip(cyc.vertices, cyc.edges) if eid not in contact)


def _path(complex: SurfaceComplex, primal: Tree, a: int, b: int) -> dict[int, int]:
    """The primal path from vertex ``a`` to vertex ``b`` as a chain: +1 on
    an edge it runs along from tail to head, -1 against."""
    parent, parent_edge, depth = primal.parent, primal.parent_edge, primal.depth
    edges, out, ends = complex.edges, {}, (a, b)
    # As in ``transport``: the deeper end rises, then both step together.
    for _ in range(depth[a] - depth[b]):
        eid = parent_edge[a]
        out[eid] = 1 if edges[eid][0] == a else -1
        a = parent[a]
    for _ in range(depth[b] - depth[a]):
        eid = parent_edge[b]
        out[eid] = -1 if edges[eid][0] == b else 1
        b = parent[b]
    while a != b:
        eid = parent_edge[a]
        out[eid] = 1 if edges[eid][0] == a else -1
        eid = parent_edge[b]
        out[eid] = -1 if edges[eid][0] == b else 1
        a, b = parent[a], parent[b]
        if a < 0 or b < 0:
            raise NodeNotInTree(f"vertices {ends[0]} and {ends[1]} are not in one primal tree")
    return out


def _loop(complex: SurfaceComplex, primal: Tree, eid: int) -> dict[int, int]:
    """Candidate ``eid`` closed by the primal path from its head to its tail."""
    tail, head = complex.edges[eid]
    out = _path(complex, primal, head, tail)
    out[eid] = 1
    return out


def _cancel(cycle: dict[int, int], run: dict[int, int], eid: int) -> None:
    """Subtract from ``cycle`` the multiple of ``run`` that clears edge ``eid``."""
    factor = cycle.get(eid, 0) * run[eid]
    if factor:
        for k, v in run.items():
            value = cycle.get(k, 0) - factor * v
            if value:
                cycle[k] = value
            else:
                del cycle[k]


def handles(
    complex: SurfaceComplex, dual: DualTree, candidates: list[int], preorder
) -> tuple[list[dict[int, int]], list[int], int | None]:
    """Handle generators from one component's sorted candidate edges.

    Returns (generators, twisted candidate edges, anchor edge).  Twisted
    candidates are the ones whose self-pair loop reverses orientation.
    When present they are ordered by the rank ``preorder()`` gives their
    first face in the dual forest; each one but the last is rebuilt from
    its two face-to-face transports toward the next one, and the last one
    is the anchor edge, dropped from the output.
    """
    by_edge: dict[int, dict[int, int]] = {}
    twisted: list[int] = []
    for eid in candidates:
        if is_twisted(complex, dual, eid):
            twisted.append(eid)
        else:
            f1, f2 = _faces(complex, eid)
            by_edge[eid] = transport(complex, dual, f1, f2, eid, eid)

    if not twisted:
        return [by_edge[eid] for eid in candidates], [], None

    twisted = _in_preorder(complex, preorder, twisted)
    for eid, succ in zip(twisted, twisted[1:]):
        faces = _faces(complex, eid)
        by_edge[eid] = _to_anchor(complex, dual, faces, eid, succ, (eid, succ))
    anchor = twisted[-1]
    gens = [by_edge[eid] for eid in candidates if eid != anchor]
    return gens, twisted, anchor


def _to_anchor(complex, dual, faces, edge, anchor, keep):
    """Sum of two transports from ``edge``, on faces[0] and faces[1], to the
    twisted ``anchor`` (in ``handles`` the next twisted candidate, in
    ``contacts`` the anchor edge) on its first and second face; the edges in
    ``keep`` take the first transport's value alone.  The sum may hold
    zeros, which ``Cochain1`` drops."""
    fa1, fa2 = _faces(complex, anchor)
    out = transport(complex, dual, faces[0], fa1, edge, anchor)
    for k, v in transport(complex, dual, faces[1], fa2, edge, anchor).items():
        if k not in keep:
            out[k] = out.get(k, 0) + v
    return out


def _in_preorder(complex: SurfaceComplex, preorder, eids: list[int]) -> list[int]:
    """``eids`` sorted by the preorder rank of their first faces."""
    if len(eids) < 2:
        return eids
    rank = preorder()
    return sorted(eids, key=lambda eid: rank[complex.edge_half[eid] // 3])


def holes(complex: SurfaceComplex, cycles: list[BoundaryCycle]) -> list[dict[int, int]]:
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
            for eid in complex.vertex_edges[v]:
                a, b = complex.edges[eid]
                if (b if a == v else a) not in members:
                    # Indicator coboundary: +1 when the circle holds the head.
                    coeffs[eid] = 1 if b == v else -1
        out.append(coeffs)
    return out


def contacts(
    complex: SurfaceComplex,
    dual: DualTree,
    comps: list[list[int]],
    anchor: int | None,
    preorder,
) -> list[dict[int, int]]:
    """Contact generators from one component's contact components.

    Each one, on the face of its minimal edge, is ordered by the preorder
    rank of that face and transported to the next; a non-orientable
    component with any gets one more, built from the two paths from the
    last one to the anchor edge, the last twisted candidate (see ``handles``).
    """
    ends = _in_preorder(complex, preorder, list(map(min, comps)))
    faces = [complex.edge_half[eid] // 3 for eid in ends]
    out = [
        transport(complex, dual, faces[j - 1], faces[j], ends[j - 1], ends[j])
        for j in range(1, len(ends))
    ]
    if anchor is not None and ends:
        both = (faces[-1], faces[-1])
        out.append(_to_anchor(complex, dual, both, ends[-1], anchor, (anchor,)))
    return out


def compute_generators(
    complex: SurfaceComplex, contact_edges: set[int] | frozenset[int] = frozenset()
) -> GeneratorSet:
    """Compute the full generator basis in one pass over the complex.

    Components come in ascending order of their minimal face id; generators
    and metadata (anchor edges included) use the complex's own edge ids.
    Each component's lists are kept on its ``ComponentMeta``, for the report
    and the witness cycles.  Warns, naming the caller, of each one-edge port.
    """
    partition = classify_boundary(complex, contact_edges)
    for j, comp in enumerate(partition.contact_components):
        if len(comp) == 1:
            warnings.warn(
                f"contact component {j} consists of a single edge "
                f"{complex.edges[comp[0]]}; a one-edge port is physically dubious",
                stacklevel=2,
            )
    for cyc in partition.hole_components:
        if partition.contact_edges.issuperset(cyc.edges):
            raise UnsupportedContactLayout(
                "a contact component covers the entire boundary circle "
                f"through vertex {cyc.vertices[0]}; leave at least one "
                "insulated edge on each circle with contacts"
            )
    primal, dual, candidate_edges = build_tree_cotree(complex, partition.hole_components)

    # The dual forest has exactly one tree per component (build_tree_cotree
    # raises otherwise), rooted at its minimal face in ascending order.
    per_component = _by_component(complex, dual, candidate_edges, partition)
    # Ranked on first use: only a chain of two or more edges needs an order.
    preorder = cache(dual.preorder)
    generators, metas = [], []
    for cid, (candidates, circles, comps) in enumerate(per_component):
        ha, twisted, anchor = handles(complex, dual, candidates, preorder)
        ho = holes(complex, circles)
        co = contacts(complex, dual, comps, anchor, preorder)
        generators += [
            Generator(kind, cid, Cochain1(g))
            for kind, gens in ((HANDLE, ha), (HOLE, ho), (CONTACT, co))
            for g in gens
        ]
        metas.append(ComponentMeta(circles, comps, candidates, twisted, anchor))
    return GeneratorSet(generators, metas, primal)
