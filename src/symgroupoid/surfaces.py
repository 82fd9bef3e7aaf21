"""Surface models: quivers, geodesic-function catalogs, Casimir constraints.

Genus two lives on six/seven-vertex quivers (the two-wing chart and its
one-vertex extension); genus three on the twelve-vertex glued lattice chart
for size four, with an added twist vertex ``a_t``; genus four on the size-five
chart in which the dual geodesic depends on two variables only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .quiver import Quiver, Seed
from .squares import amalgamated_quiver, kname


# -- genus two: six- and seven-vertex quivers ---------------------------------


def _renamed_active(n: int, rename: dict) -> Quiver:
    """Non-frozen part of the amalgamated lattice quiver under new names."""
    amalg = amalgamated_quiver(n)
    active = [v for v in amalg.vertices if v not in amalg.frozen]
    arrows = [(rename[u], rename[v], w) for u, v, w in amalg.arrows() if not {u, v} & amalg.frozen]
    return Quiver.from_arrows([rename[v] for v in active], arrows)


def _with_vertex(q: Quiver, v: str, arrows: list) -> Quiver:
    """``q`` with one more vertex ``v`` and the given arrows added."""
    return Quiver.from_arrows(list(q.vertices) + [v], q.arrows() + arrows, q.frozen)


def genus2_original_quiver() -> Quiver:
    rename = {
        kname(0, 1): "f",
        kname(0, 2): "e",
        kname(1, 1): "a",
        kname(1, 2): "b",
        kname(2, 1): "d",
        kname(2, 2): "c",
    }
    return _renamed_active(3, rename)


def genus2_k33_quiver() -> Quiver:
    return genus2_original_quiver().mutate_matrix("f")


def genus2_papillon_quiver() -> Quiver:
    return genus2_original_quiver().mutate_matrix("e")


def genus2_x7_quiver() -> Quiver:
    """Two-wing quiver with the third wing pair (f, g) closing the triangle."""
    return _with_vertex(genus2_papillon_quiver(), "g", [("g", "f", 4), ("e", "g", 2)])


# -- genus three: twelve-vertex charts ----------------------------------------


def _g3_rename() -> dict:
    rows = "abcd"
    out = {}
    for r in range(4):
        for c in (1, 2, 3):
            out[kname(r, c)] = f"{rows[r]}{c}"
    return out


def genus3_original_quiver() -> Quiver:
    return _renamed_active(4, _g3_rename())


SYMMETRIZING_SEQUENCE = ["a1", "d1", "c2", "b3"]


def genus3_symmetric_quiver() -> Quiver:
    q = genus3_original_quiver()
    for k in SYMMETRIZING_SEQUENCE:
        q = q.mutate_matrix(k)
    return q


def genus3_extended_quiver() -> Quiver:
    """Original chart plus the twist vertex, order four, balanced in/out."""
    return _with_vertex(
        genus3_original_quiver(), "at", [("at", "a3", 2), ("at", "a1", 2), ("b3", "at", 2), ("d1", "at", 2)]
    )


def genus3_wing_quiver() -> Quiver:
    """The chart where the dual geodesic is a two-letter word: mutate the
    original at a3 then a2 and attach the twist wing at (a1, a2)."""
    q = genus3_original_quiver().mutate_matrix("a3").mutate_matrix("a2")
    return _with_vertex(q, "at", [("at", "a1", 4), ("a2", "at", 2)])


# -- genus four (size five) ----------------------------------------------------

_N5_VERTICES = (
    ["a1", "a2", "a3", "a4"]
    + ["b1", "b2", "b3", "b4"]
    + ["c1", "c2", "c3", "c4"]
    + ["d1", "d2", "d3", "d4"]
    + ["e1", "e2", "e3", "e4"]
    + ["at"]
)

_N5_ARROWS = [
    ("a1", "a2"), ("a3", "a2"), ("a4", "a3"),
    ("b2", "b1"), ("b3", "b2"),
    ("c2", "c1"), ("c3", "c2"), ("c3", "c4"),
    ("d2", "d1"), ("d2", "d3"), ("d3", "d4"),
    ("e2", "e3"), ("e3", "e4"),
    ("b4", "a4"), ("c4", "b4"), ("d4", "c4"), ("e4", "d4"),
    ("d3", "c3"), ("e3", "d3"), ("e2", "d2"),
    ("c1", "d1"), ("b1", "c1"), ("b2", "c2"), ("b3", "c3"),
    ("c2", "d2"), ("d1", "e1"),
    ("d3", "e2"), ("c4", "d3"), ("d4", "e3"),
    ("a2", "b1"), ("a3", "b2"), ("a4", "b3"),
    ("c1", "b2"), ("c2", "b3"), ("d1", "c2"),
    ("b1", "a3"), ("b2", "a4"),
    ("b3", "e1"), ("e2", "b4"),
    ("a4", "e2"), ("a2", "e4"), ("e1", "a4"), ("e4", "a3"),
    ("a3", "e3"), ("e3", "a4"),
    ("a2", "at"), ("at", "a1", 4),
]


def genus4_n5_quiver() -> Quiver:
    return Quiver.from_arrows(_N5_VERTICES, _N5_ARROWS)


# -- models ---------------------------------------------------------------------


@dataclass
class SurfaceModel:
    name: str
    seed: Seed
    catalog: dict = field(default_factory=dict)  # label -> TelescopicWord | RationalFn
    chains: dict = field(default_factory=dict)  # label -> tuple of catalog labels
    casimir_constraint: tuple | None = None  # (z-exponent map, required value)

    @property
    def quiver(self) -> Quiver:
        return self.seed.quiver


# the fourth-letter of the long tilde entry is pinned by the skein relation
# and by matching the size-three network entries; the variant ending in "c"
# fails both.
GENUS2_K33_CATALOG = {
    "G_{1,2}": ["d", "e", "f", "a"],
    "G_{1,3}": ["b", "c", "d", "e"],
    "G_{2,3}": ["f", "a", "b", "c"],
    "Gt_{1,2}": ["b", "e", "f", "c"],
    "Gt_{1,3}": ["d", "a", "b", "e"],
    "Gt_{2,3}": ["f", "c", "d", "a"],
}

GENUS3_ORIGINAL_CATALOG = {
    "G_{1,2}": ["b3", "a3", "d2", "c3"],
    "G_{2,3}": ["c3", "c2", "b2", "a2", "d3"],
    "G_{3,4}": ["d3", "d2", "d1", "c1", "b1", "a1"],
    "Gt_{1,2}": ["d1", "a3", "b2", "c1"],
    "Gt_{2,3}": ["c1", "c2", "d2", "a2", "b1"],
    "Gt_{3,4}": ["b1", "b2", "b3", "c3", "d3", "a1"],
}

GENUS3_SYMMETRIC_CATALOG = {
    "G_{1,2}": ["a3", "d1", "d2", "c2", "c3", "b3"],
    "G_{2,3}": ["c3", "b3", "b2", "a2", "a1", "d3"],
    "G_{3,4}": ["a1", "d3", "d2", "c2", "c1", "b1"],
    "Gt_{1,2}": ["a3", "b3", "b2", "c2", "c1", "d1"],
    "Gt_{2,3}": ["c3", "d3", "d2", "a2", "a3", "b3"],
    "Gt_{3,4}": ["a1", "b1", "b2", "c2", "c3", "d3"],
}

GENUS4_N5_CATALOG = {
    "G_B": ["a1", "at"],
    "G_{1,2}": ["b4", "e2", "d3", "c4"],
    "G_{2,3}": ["c4", "c3", "b3", "a4", "e3", "d4"],
    "G_{3,4}": ["d4", "d3", "d2", "c2", "b2", "a3", "e4"],
}

# the sixteen reciprocal denominators of the long size-five entry, in the
# order they accumulate; the leading square root carries a2 twice
GENUS4_G45_PREFACTOR = ["e4", "e3", "e2", "a2", "a2", "a3", "a4", "e1", "d1", "c1", "b1", "a1"]
GENUS4_G45_DENOMS = [
    [],
    ["e4"],
    ["e4", "e3"],
    ["e4", "e3", "e2"],
    ["e4", "a2"],
    ["e4", "e3", "a2"],
    ["e4", "e3", "e2", "a2"],
    ["e4", "e3", "a2", "a3"],
    ["e4", "e3", "e2", "a2", "a3"],
    ["e4", "e3", "e2", "a2", "a3", "a4"],
    ["e4", "e3", "e2", "a2", "a3", "a4", "e1"],
    ["e4", "e3", "e2", "a2", "a3", "a4", "e1", "d1"],
    ["e4", "e3", "e2", "a2", "a3", "a4", "e1", "d1", "c1"],
    ["e4", "e3", "e2", "a2", "a3", "a4", "e1", "d1", "c1", "b1"],
    ["e4", "e3", "e2", "a2", "a3", "a4", "e1", "d1", "c1", "b1", "a2"],
    ["e4", "e3", "e2", "a2", "a3", "a4", "e1", "d1", "c1", "b1", "a2", "a1"],
]

MODEL_NAMES = (
    "genus2_original",
    "genus2_k33",
    "genus2_papillon",
    "genus2_x7",
    "genus3_original",
    "genus3_symmetric",
    "genus3_extended",
    "genus4_n5",
)
