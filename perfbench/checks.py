"""Output checks that do not rely on the code under test.

Expected class sizes come from how each input was constructed (see
``workloads``).  The cocycle check recomputes signed face incidence from the
generated face list: for every face, the signed sum of a generator's
coefficients on its three edges must vanish, and no generator may touch an
insulated boundary edge.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict

from workloads import Input


class Incidence:
    """Signed face incidence and the insulated edges of one input."""

    def __init__(self, inp: Input):
        self.faces_of: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        for fid, (a, b, c) in enumerate(inp.surface.faces):
            for u, w in ((a, b), (b, c), (c, a)):
                pair, sign = ((u, w), 1) if u < w else ((w, u), -1)
                self.faces_of[pair].append((fid, sign))
        contacts = {(min(u, w), max(u, w)) for arc in inp.surface.arcs for u, w in arc}
        self.insulated = {
            pair for pair, fl in self.faces_of.items()
            if len(fl) == 1 and pair not in contacts
        }


def check_report(text: str, inp: Input, inc: Incidence) -> tuple[list[str], int]:
    """Problems found in one CLI report, and the report's total support size."""
    report = json.loads(text)
    exp = inp.expected
    problems = []
    gens = report["generators"]
    kinds = Counter(g["class"] for g in gens)
    for kind in ("ha", "ho", "co"):
        if kinds[kind] != exp[kind]:
            problems.append(f"{kinds[kind]} {kind} generators, expected {exp[kind]}")
    meta = report["meta"]
    for key in ("orientable", "E_M", "N_ho", "N_co"):
        if meta[key] != exp[key]:
            problems.append(f"meta {key} is {meta[key]}, expected {exp[key]}")
    if meta["betti1"] != exp["ha"] + exp["ho"] + exp["co"]:
        problems.append(f"meta betti1 is {meta['betti1']}")
    got = sorted(
        (c["E_M"], c["N_ho"], c["N_co"], c["orientable"]) for c in meta["components"]
    )
    want = sorted(
        (c.candidate_edges, c.holes, c.contacts, c.orientable)
        for c in inp.surface.components
    )
    if got != want:
        problems.append(f"components {got}, expected {want}")
    if inp.verify and not report.get("verification", {}).get("passed"):
        problems.append("verification did not pass")

    support = 0
    for gi, gen in enumerate(gens):
        coeffs = {(e["v_a"], e["v_b"]): e["coefficient"] for e in gen["edges"]}
        support += len(coeffs)
        problems += _cocycle_problems(gi, coeffs, inc)
    return problems, support


def _cocycle_problems(gi: int, coeffs: dict, inc: Incidence) -> list[str]:
    if not coeffs:
        return [f"generator {gi} is zero"]
    face_sum: dict[int, int] = defaultdict(int)
    for pair, value in coeffs.items():
        if pair not in inc.faces_of:
            return [f"generator {gi} uses {pair}, which is not an edge"]
        if pair in inc.insulated:
            return [f"generator {gi} touches insulated edge {pair}"]
        for fid, sign in inc.faces_of[pair]:
            face_sum[fid] += sign * value
    bad = [fid for fid, total in face_sum.items() if total]
    return [f"generator {gi} is not a cocycle on face {bad[0]}"] if bad else []


def check_library(gens, verification, inp: Input) -> tuple[list[str], int]:
    """Problems in the library sequence's results, and their support size."""
    exp = inp.expected
    kinds = Counter(g.kind for g in gens.generators)
    problems = [
        f"library: {kinds[k]} {k} generators, expected {exp[k]}"
        for k in ("ha", "ho", "co") if kinds[k] != exp[k]
    ]
    if len(gens.components) != exp["components"]:
        problems.append(f"library: {len(gens.components)} components")
    if gens.orientable != exp["orientable"]:
        problems.append(f"library: orientable={gens.orientable}")
    if verification is not None and not verification.passed:
        problems.append(f"library: verification failed: {verification.failures}")
    return problems, sum(len(g.cochain.coeffs) for g in gens.generators)
