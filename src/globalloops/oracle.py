"""Independent verification of a generator set, by exact counts and a
pairing certificate.

The oracle re-derives every incidence sign from the raw faces, so a bug in
the pipeline's tables cannot hide from it.  It numbers the edges as the
complex's edge list does, after checking that list against the faces, and
keeps flat lists: each edge's faces and signs, and each face's edges.  One
union-find over vertex ids counts circles, contact components and vertex
classes.  It reads the contact edge ids of the partition its caller
classifies from the input, and of the pipeline's output only the generators
and the witness cycles, each id as it is; an id off this incidence is a
failure.  The rest of the oracle's own boundary is insulated.

Premise: no edge has a third face (one raises ValueError).  The ranks of
the relative complex and the torsion are then counts, and no check
eliminates:

* The relative d0 is a graph incidence matrix less the insulated vertices'
  rows, of rank V_rel - b0 over any field, b0 counting the vertex classes
  with no insulated vertex.
* In the left kernel of the relative d1, an edge between faces f and g
  forces c_f s_f + c_g s_g = 0 and a contact edge forces c_f = 0; insulated
  edges have no column.  Over Q or an odd prime a sign contradiction forces
  0, so rank d1 = F - b2, b2 counting the face components with a consistent
  sign and no contact edge.  The Betti number is the rational one.
* The only torsion is Z/2, one per non-orientable face component: the face
  boundary map of the closed-up complex (each circle collapsed to a point)
  has the orientable components as left kernel over GF(p), all of them
  over GF(2).
* The cocycle check is exact integer arithmetic.
* Basis over Z.  H^1 relative to the insulated part is free here (H_0 is),
  of rank the Betti number.  ``GeneratorSet.cycles`` offers a relative
  1-cycle z_j per generator g_i, with its boundary on insulated vertices
  so that <g, z> is well defined on classes.  If the generators number the
  Betti number and the matrix <g_i, z_j> is unimodular, evaluation on the
  z_j inverts the generators' map from Z^k into H^1, which is then onto: a
  basis over Z modulo relative coboundaries, certified in
  O(E + sum |g| + sum |z|), the sum ``verify`` holds to its cap.  ``_peel``
  proves the matrix unimodular; a doubled generator leaves a 2.  It is
  sound, not complete: a recombination such as the hole plus the contact
  generator of an annulus with an arc on each circle stalls it.  The
  pipeline's own generators peel on every input tried.

The cap on that sum, ``DEFAULT_WORK_CAP``, is defined in ``errors`` beside
``MeshTooLargeForOracle`` and re-exported here, so the command line shows
it without loading this module, which it imports only under ``--verify``.

The dense references these counts are tested against, the sparse modular
rank the oracle once used and the closed-up complex live in
``tests/reference.py``.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import DEFAULT_WORK_CAP, MeshTooLargeForOracle
from .surface import BoundaryPartition, SurfaceComplex


class _Incidence:
    """The complex's edge list checked against its raw faces, as flat
    tables: edge e lies on face0[e] with sign0[e] and, unless it is a
    boundary edge (face1[e] == -1), on face1[e] with sign1[e].  A face pair
    a < b finds its edge by the key a * V + b.  ValueError when a face has a
    pair the list lacks, or the list repeats a pair, holds one reversed or
    out of range, or has one on no face or on a third."""

    def __init__(self, complex):
        self.num_vertices = n = complex.num_vertices
        self.edges = edges = complex.edges  # per edge: its vertex pair, lower id first
        index = {a * n + b: eid for eid, (a, b) in enumerate(edges)}
        if len(index) < len(edges) or not all(0 <= a < b < n for a, b in edges):
            raise ValueError("edge list repeats a pair or has one reversed or out of range")
        get = index.get
        self.face0, self.face1 = face0, face1 = [-1] * len(edges), [-1] * len(edges)
        self.sign0, self.sign1 = sign0, sign1 = [0] * len(edges), [0] * len(edges)
        self.half = half = []  # half-edge 3f + i: the edge of face f's side ab, bc or ca
        for fid, (a, b, c) in enumerate(complex.faces):
            for u, w in ((a, b), (b, c), (c, a)):
                if u < w:
                    sign, eid = 1, get(u * n + w)
                else:
                    sign, eid = -1, get(w * n + u)
                if eid is None:
                    raise ValueError(f"face {fid} has the pair {u} {w}, not in the edge list")
                if face0[eid] < 0:
                    face0[eid], sign0[eid] = fid, sign
                elif face1[eid] < 0:
                    face1[eid], sign1[eid] = fid, sign
                else:
                    raise ValueError(f"edge {eid} lies on a third face, {fid}")
                half.append(eid)
        if -1 in face0:
            raise ValueError(f"edge {face0.index(-1)} lies on no face")
        self.boundary = {e for e, f in enumerate(face1) if f < 0}


def _relative(inc: _Incidence, contact: set[int]):
    """The insulated part of ``inc`` and the rank of the relative vertex
    coboundary.  ``contact`` holds the contact edges' ids; every other
    boundary edge is insulated.  Returns the insulated edge ids, their
    vertices and rank d0 = V_rel - b0, where a vertex on no edge counts on
    both sides."""
    insulated = inc.boundary - contact
    insulated_vertices = {v for eid in insulated for v in inc.edges[eid]}
    root = _roots(inc.num_vertices, inc.edges)
    b0 = len(set(root)) - len({root[v] for v in insulated_vertices})
    return insulated, insulated_vertices, len(root) - len(insulated_vertices) - b0


def _face_components(inc: _Incidence) -> tuple[list[int], list[bool]]:
    """Sign propagation over faces joined through shared edges: the
    component of each face and, per component, whether the propagation met
    no contradiction in it (the component is orientable)."""
    half = inc.half
    face0, sign0, face1, sign1 = inc.face0, inc.sign0, inc.face1, inc.sign1
    component = [-1] * (len(half) // 3)
    sign = [0] * len(component)
    orientable: list[bool] = []
    for seed in range(len(component)):
        if sign[seed]:
            continue
        c, ok = len(orientable), True
        component[seed], sign[seed] = c, 1
        queue = [seed]
        for fid in queue:  # the list grows while it is walked
            own = sign[fid]
            for eid in half[3 * fid : 3 * fid + 3]:
                other = face0[eid] if face1[eid] == fid else face1[eid]
                if other < 0:  # a boundary edge
                    continue
                # Adjacent faces must induce opposite signs on the edge.
                want = -own * sign0[eid] * sign1[eid]
                if sign[other] == 0:
                    component[other], sign[other] = c, want
                    queue.append(other)
                elif sign[other] != want:
                    ok = False
        orientable.append(ok)
    return component, orientable


def _roots(n: int, pairs) -> list[int]:
    """Union-find over the vertex ids 0..n-1 joined by ``pairs``: the root
    of each vertex's class, by id.  Every find halves its path."""
    parent = list(range(n))
    # Links point up a forest (unions join roots), so a find takes < n steps.
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    for v in range(n):
        r = v
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[v] = r
    return parent


def _classes(inc: _Incidence, edge_ids) -> int:
    """The number of vertex classes that the edges ``edge_ids`` join."""
    pairs = [inc.edges[eid] for eid in edge_ids]
    root = _roots(inc.num_vertices, pairs)
    return len({root[v] for pair in pairs for v in pair})


def _in_range(chain: dict[int, int], n: int) -> bool:
    """Whether every edge id of ``chain`` lies in 0..n-1."""
    return not chain or (min(chain) >= 0 and max(chain) < n)


def _boundary(inc: _Incidence, chain: dict[int, int]) -> set[int]:
    """The vertices where the boundary of a chain is nonzero."""
    total: dict[int, int] = {}
    for eid, val in chain.items():
        a, b = inc.edges[eid]
        total[a] = total.get(a, 0) - val
        total[b] = total.get(b, 0) + val
    return {v for v, val in total.items() if val}


def _pairing(cochains, chains) -> list[dict[int, int]]:
    """Row i holds the nonzero values <cochains[i], chains[j]> by column j,
    summed through one index from each edge to the chains on it."""
    through: dict[int, list[tuple[int, int]]] = {}
    for j, chain in enumerate(chains):
        for eid, val in chain.items():
            through.setdefault(eid, []).append((j, val))
    rows = []
    for cochain in cochains:
        row: dict[int, int] = {}
        for eid, val in cochain.items():
            for j, c in through.get(eid, ()):
                row[j] = row.get(j, 0) + val * c
        rows.append({j: v for j, v in row.items() if v})
    return rows


def _peel(rows: list[dict[int, int]]) -> str | None:
    """Peel sparse integer rows: take a row with one nonzero left, which
    must be +-1, and delete its column from the other rows.  When every row
    is taken, the taken entries form a square submatrix, triangular in the
    order taken, of determinant +-1.  Returns the failure, or None; the
    rows are consumed."""
    column: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            column.setdefault(j, []).append(i)
    ready = [i for i, row in enumerate(rows) if len(row) <= 1]
    taken = 0
    while ready:
        i = ready.pop()
        if not rows[i]:  # an integer combination of the rows taken before
            return "generators are dependent modulo relative coboundaries"
        ((j, val),) = rows[i].items()
        if val not in (1, -1):
            return (
                f"pairing matrix is not unimodular: generator {i} pairs to "
                f"{val} with cycle {j} once the others are peeled"
            )
        taken += 1
        for other in column.pop(j):
            if other != i:
                del rows[other][j]
                if len(rows[other]) <= 1:
                    ready.append(other)
    if taken < len(rows):
        return f"pairing matrix does not peel: {len(rows) - taken} generators stall"
    return None


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "betti1_relative generator_count cocycle_ok independence_ok orientable"
        " torsion_coefficients dimension_formula_ok failures",
    )
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def verify(
    complex: SurfaceComplex,
    partition: BoundaryPartition,
    generators,
    cap: int = DEFAULT_WORK_CAP,
) -> VerificationReport:
    """Full validation of a generator set against the oracle, in one order:
    E and the generators' entries are counted, the edge list is checked
    against the faces (ValueError on a mismatch), the witness cycles that
    ``generators.cycles`` yields are counted into the same budget as they
    come, and only then the other tables are built.  A count past ``cap``
    raises MeshTooLargeForOracle as soon as it is seen.

    Checks, in order: every contact id is a boundary edge; every generator
    is a relative cocycle; the count matches the Betti number; the witness
    cycles are relative cycles and pair with the generators unimodularly
    (``independence_ok``: with the count, a basis over Z modulo relative
    coboundaries; a set with no primal forest offers no cycles and fails
    it); the components with a twisted edge match the non-orientable ones;
    the per-class sizes match the dimension formulas.
    """
    work = complex.num_edges + sum(len(g.cochain.coeffs) for g in generators.generators)
    if work > cap:
        raise MeshTooLargeForOracle(
            f"the edges and the generators hold {work} entries, past the oracle cap of {cap}"
        )
    inc = _Incidence(complex)
    cycles = None  # a set with generators but no primal forest offers none
    if generators.primal is not None or not generators.generators:
        # Counted as they come, so a refusal builds none of the rest.
        cycles, left = [], cap - work
        for cycle in generators.cycles(complex):
            left -= len(cycle)
            if left < 0:
                raise MeshTooLargeForOracle(f"the witness cycles pass {cap - work} entries")
            cycles.append(cycle)
    contact = set(partition.contact_edges)
    failures = [f"contact edge {e} is not a boundary edge" for e in sorted(contact - inc.boundary)]
    contact &= inc.boundary
    insulated, insulated_vertices, rank_d0 = _relative(inc, contact)
    component, orientable = _face_components(inc)

    # 1. Relative cocycle condition, using the oracle's own incidence.
    face0, sign0, face1, sign1 = inc.face0, inc.sign0, inc.face1, inc.sign1
    cocycle_ok = []
    for gi, gen in enumerate(generators.generators):
        coeffs = gen.cochain.coeffs
        ok = insulated.isdisjoint(coeffs) and _in_range(coeffs, len(inc.edges))
        if ok:
            face_sums: dict[int, int] = {}
            for eid, val in coeffs.items():
                fid = face0[eid]
                face_sums[fid] = face_sums.get(fid, 0) + sign0[eid] * val
                fid = face1[eid]
                if fid >= 0:
                    face_sums[fid] = face_sums.get(fid, 0) + sign1[eid] * val
            ok = not any(face_sums.values())
        cocycle_ok.append(ok)
        if not ok:
            failures.append(f"generator {gi} is not a relative cocycle")

    # 2. Count against the Betti number, with rank d1 = F - b2.
    touched = {component[face0[eid]] for eid in contact}
    b2 = sum(1 for c, ok in enumerate(orientable) if ok and c not in touched)
    betti = len(inc.edges) - len(insulated) - (len(component) - b2) - rank_d0
    count = len(generators.generators)
    if count != betti:
        failures.append(f"{count} generators but Betti number is {betti}")

    # 3. A basis over Z: the pipeline's cycles, each checked to be a
    # relative cycle here, pair with the generators in a matrix that must
    # peel to a unit triangle.
    if cycles is None:
        basis_failures = ["no witness cycles: the generator set holds no forests"]
    else:
        basis_failures = [
            f"cycle {j} is not a relative cycle"
            for j, cycle in enumerate(cycles)
            if not _in_range(cycle, len(inc.edges))
            or not insulated_vertices.issuperset(_boundary(inc, cycle))
        ]
    if not basis_failures:
        fault = _peel(_pairing([g.cochain.coeffs for g in generators.generators], cycles))
        basis_failures += [fault] if fault else []
    independence_ok = not basis_failures
    failures += basis_failures

    # 4. Components with a twisted edge vs non-orientable components, each
    # with one Z/2 of torsion.  The pipeline's twisted edge count sums over
    # its components, so this also holds it to the mesh's orientability.
    torsion = [2] * orientable.count(False)
    twisted_components = sum(1 for m in generators.components if m.twisted_edges)
    if twisted_components != len(torsion):
        failures.append(
            f"pipeline reports {twisted_components} components with twisted edges, "
            f"oracle {len(torsion)} non-orientable"
        )

    # 5. Class sizes against the dimension formulas, with the hole and
    # contact counts recomputed on the oracle side.
    metas = generators.components
    found = Counter(g.kind for g in generators.generators)
    expected = Counter()
    for m in metas:
        expected["ho"] += max(len(m.circles) - 1, 0)
        if m.contact_components:
            expected["co"] += len(m.contact_components) - (0 if m.twisted_edges else 1)
        expected["ha"] += len(m.candidate_edges) - (1 if m.twisted_edges else 0)
    circles = sum(len(m.circles) for m in metas)
    comps = sum(len(m.contact_components) for m in metas)
    formula_failures = [
        f"pipeline reports {reported} {what}, oracle {n}"
        for what, reported, n in (
            ("boundary circles", circles, _classes(inc, inc.boundary)),
            ("contact components", comps, _classes(inc, contact)),
        )
        if reported != n
    ]
    formula_failures += [
        f"{found[kind]} {name} generators, expected {expected[kind]}"
        for kind, name in (("ho", "hole"), ("co", "contact"), ("ha", "handle"))
        if found[kind] != expected[kind]
    ]
    dimension_formula_ok = not formula_failures
    failures.extend(formula_failures)

    return VerificationReport(
        betti1_relative=betti,
        generator_count=count,
        cocycle_ok=cocycle_ok,
        independence_ok=independence_ok,
        orientable=all(orientable),
        torsion_coefficients=torsion,
        dimension_formula_ok=dimension_formula_ok,
        failures=failures,
    )
