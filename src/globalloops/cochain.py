"""Sparse integer edge cochains, the form every generator takes.

``Cochain1`` wraps a dict mapping edge id to an integer coefficient and
normalizes stored zeros away.  Whether a cochain is a relative cocycle is
checked in one place only: ``oracle.verify``, on the oracle's own incidence.
"""

from __future__ import annotations

from collections.abc import Mapping


def normalized(coeffs: Mapping[int, int]) -> dict[int, int]:
    return {k: v for k, v in coeffs.items() if v}


class Cochain1:
    """Integer-valued 1-cochain stored as a sparse edge -> coefficient map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self.coeffs = normalized(coeffs) if coeffs else {}

    def __getitem__(self, edge_id: int) -> int:
        return self.coeffs.get(edge_id, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cochain1) and self.coeffs == other.coeffs

    def items_sorted(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        return f"Cochain1({dict(self.items_sorted())!r})"
