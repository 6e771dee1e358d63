"""Dimension tables for square-integrable harmonic forms.

Everything here is table-driven bookkeeping: the dimension of the
square-integrable harmonic k-forms on the fibered-boundary spaces indexed
by the circle-bundle degree b with their cohomological identification
labels, the weighted-cohomology interval spaces entering the gluing
argument, and the deformation moduli count with its interior/boundary
split.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = [
    "ModuliDim", "TableEntry", "l2_hodge_dim", "moduli_dim", "wh_interval",
    "l2_hodge_table",
]


def _check_b(b):
    if not isinstance(b, int) or isinstance(b, bool) or not 1 <= b <= 9:
        raise ValueError("circle-bundle degree b must be an integer in 1..9")


def _check_k(k):
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= 4:
        raise ValueError("form degree k must be an integer in 0..4")


def l2_hodge_dim(b: int, k: int) -> int:
    """Dimension of the square-integrable harmonic k-forms: trivial in
    every degree except 2, where it equals 11 - b."""
    _check_b(b)
    _check_k(k)
    return 11 - b if k == 2 else 0


class ModuliDim(int):
    """Total moduli dimension; behaves as the integer 3(10 - b) and
    carries the (interior, boundary) split as an attribute."""

    def __new__(cls, total: int, split):
        obj = super().__new__(cls, total)
        obj._split = (int(split[0]), int(split[1]))
        return obj

    @property
    def split(self):
        return self._split

    def __repr__(self):
        return f"ModuliDim({int(self)}, split={self._split})"


def moduli_dim(b: int) -> ModuliDim:
    """Moduli dimension 3(10 - b) of the deformation family, split as
    3(9 - b) interior directions plus 3 boundary ones."""
    _check_b(b)
    return ModuliDim(3 * (10 - b), (3 * (9 - b), 3))


def wh_interval(degree: int, gamma) -> Optional[int]:
    """Dimension of the weighted interval cohomology on (0, eps) with the
    squared-inverse measure: in degree 0 it is one-dimensional exactly
    when the weight lies below -1/2; in degree 1 it vanishes for every
    nonzero weight and is undefined at weight 0, where the range of the
    differential is not closed (returned as None)."""
    gamma = float(gamma)
    if degree == 0:
        return 1 if gamma < -0.5 else 0
    if degree == 1:
        return None if gamma == 0.0 else 0
    raise ValueError("interval cohomology is tabulated in degrees 0 and 1")


class TableEntry(NamedTuple):
    k: int
    label: str
    dim: int


_TABLE_LABELS = {
    0: "H^0(X,B)",
    1: "H^1(X,B)",
    2: "Im(IH^2(X,B) -> IH^2_0(X,B))",
    3: "IH^3_0(X,B)",
    4: "Im(IH^4_0(X,B) -> H^4(X-B))",
}


def l2_hodge_table(b: int):
    """Five-row table of square-integrable harmonic form dimensions with
    their cohomological identification labels."""
    _check_b(b)
    return [TableEntry(k, _TABLE_LABELS[k], l2_hodge_dim(b, k))
            for k in range(5)]
