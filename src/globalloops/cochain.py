"""Sparse integer edge cochains, the form every generator takes.

``Cochain1`` wraps a dict mapping edge id to an integer coefficient and
drops stored zeros.  Whether a cochain is a relative cocycle is checked in
one place only: ``oracle.verify``, on the oracle's own incidence.
"""

from __future__ import annotations


class Cochain1:
    """Integer-valued 1-cochain stored as a sparse edge -> coefficient map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {k: v for k, v in coeffs.items() if v} if coeffs else {}

    def __repr__(self) -> str:
        return f"Cochain1({dict(sorted(self.coeffs.items()))!r})"
