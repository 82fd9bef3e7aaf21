"""Geodesic-function machinery on surface charts.

Telescopic sums, surface model construction, the separating-curve element,
skein completion of chains into unipotent matrices, matrix-level twists, and
the mutation-sequence twist with its closed-form product formula.
"""

from __future__ import annotations

import dataclasses
import functools
from operator import truediv
from typing import Sequence

from .laurent import Q, RationalFn
from .matrices import MatrixRF
from .quiver import (
    ClusterValue,
    Quiver,
    Seed,
    apply_sequence,
    cv_sum,
    mutate,
    skein_product,
    wname,
)
from . import surfaces
from .surfaces import SurfaceModel


# -- telescopic words -----------------------------------------------------------


def telescopic(word: Sequence, seed: Seed) -> RationalFn:
    """Value of an ordered telescopic word on a seed.

    A word is a list of vertex names with optional two-name groups ``(x, y)``.
    The value is sqrt(prod of all letters) times the accumulated reciprocal
    sum; a group contributes the three reciprocals 1/x, 1/y, 1/(xy) at its
    slot before the running product absorbs x*y.

    Everything is assembled from suffix products in factored form, so the
    denominators stay exactly the product of the letters (no gcd needed).
    The value is kept in ``seed.word_values``, keyed by the word as a tuple
    with each group a tuple; a word that raises is not kept.
    """
    key = tuple(item if isinstance(item, str) else tuple(item) for item in word)
    value = seed.word_values.get(key)
    if value is None:
        value = seed.word_values[key] = _telescopic(key, seed)
    return value


def _telescopic(word: tuple, seed: Seed) -> RationalFn:
    table = seed.frame
    product = ClusterValue(table)
    for item in word:
        if isinstance(item, str):
            product = product * seed.values[item]
        else:
            x, y = item
            product = product * seed.values[x] * seed.values[y]
    inv_root = product.sqrt().inverse()

    # suffix products: S_j = product of letters after position j; each
    # reciprocal term 1/(v_1..v_j) equals S_j / (full product)
    terms = [ClusterValue(table)]
    suffix = ClusterValue(table)
    for item in reversed(word):
        if isinstance(item, str):
            suffix = suffix * seed.values[item]
            terms.append(suffix)
        else:
            x, y = item
            zx, zy = seed.values[x], seed.values[y]
            terms.append(suffix * zy)
            terms.append(suffix * zx)
            suffix = suffix * zx * zy
            terms.append(suffix)
    return cv_sum([t * inv_root for t in terms]).as_rational()


# -- skein structure --------------------------------------------------------------


class SkeinInconsistency(ArithmeticError):
    pass


def skein_complete(chain: Sequence[RationalFn], quiver: Quiver) -> MatrixRF:
    """Unipotent matrix built from a chain of consecutively-crossing functions.

    ``chain[i]`` becomes the entry (i, i+1); longer-range entries follow from
    U_ij = 1/2 U_ik U_kj + {U_ik, U_kj} at the split k = i+1 (see
    ``check_split_points`` for the other splits).
    """
    m = len(chain) + 1
    table = chain[0].table
    one = RationalFn.constant(table, 1)
    zero = RationalFn.constant(table, 0)
    entries = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for i, g in enumerate(chain):
        entries[i][i + 1] = g
    for span in range(2, m):
        for i in range(m - span):
            entries[i][i + span] = skein_product(entries[i][i + 1], entries[i + 1][i + span], quiver)
    return MatrixRF(entries)


def check_split_points(u: MatrixRF, quiver: Quiver) -> None:
    """Raise ``SkeinInconsistency`` unless every long entry of the completed
    chain matrix ``u`` is the skein product at every split point i < k < j."""
    m = u.rows
    for span in range(3, m):
        for i in range(m - span):
            j = i + span
            for k in range(i + 2, j):
                if skein_product(u[i, k], u[k, j], quiver) != u[i, j]:
                    raise SkeinInconsistency(f"entry ({i + 1},{j + 1}) depends on the split point")


def chain_matrix(surface: str, labels: Sequence[str]) -> MatrixRF:
    """Skein completion of the catalog functions ``labels`` on the named
    surface, built once per process; each call gets its own rows over the
    shared, immutable entries."""
    return MatrixRF(_chain_matrix(surface, tuple(labels)).entries)


@functools.cache
def _chain_matrix(surface: str, labels: tuple) -> MatrixRF:
    model = build_surface(surface)
    return skein_complete([catalog_value(model, label) for label in labels], model.quiver)


# -- matrix-level braid action ------------------------------------------------------


def matrix_braid(u: MatrixRF, i: int, direction: str = "+") -> MatrixRF:
    """Braid generator acting on a unipotent upper-triangular matrix.

    Conjugates by the two-line block ``[[a, 1], [-1, 0]]`` (Bᵀ·U·B), or for
    ``"-"`` by its inverse ``[[0, -1], [1, a]]``, built from the entry
    ``a = u[i-1][i]``; the result is again unipotent upper-triangular.  The
    block differs from the identity only on lines i-1 and i, so the
    conjugation is two column updates and two row updates.  Any other
    direction is a ``ValueError``.
    """
    n = u.rows
    if not 1 <= i <= n - 1:
        raise IndexError(f"braid index {i} out of range for size {n}")
    if direction not in ("+", "-"):
        raise ValueError(f"unknown direction {direction!r}")
    a = u[i - 1, i]
    if not a:
        raise ArithmeticError("vanishing superdiagonal entry")
    p, q = i - 1, i
    rows = [list(row) for row in u.entries]
    # a pair of zero entries maps to a pair of zeros, so it keeps its objects
    if direction == "+":
        for row in rows:
            x, y = row[p], row[q]
            if x or y:
                row[p], row[q] = x * a - y, x
        rows[p], rows[q] = [a * x - y if x or y else x for x, y in zip(rows[p], rows[q])], rows[p]
    else:
        for row in rows:
            x, y = row[p], row[q]
            if x or y:
                row[p], row[q] = y, y * a - x
        rows[p], rows[q] = rows[q], [a * y - x if x or y else x for x, y in zip(rows[p], rows[q])]
    return MatrixRF(rows)


# -- surface construction -------------------------------------------------------------


def _gen(seed: Seed, v: str, power: int = 1) -> RationalFn:
    return RationalFn.generator(seed.frame, wname(v), power)


def _z(seed: Seed, v: str) -> RationalFn:
    return _gen(seed, v, 2)


def build_surface(name: str) -> SurfaceModel:
    """A named surface chart with its geodesic-function catalog, built once
    per process.  Each call gets its own ``catalog`` (with its own word
    lists), ``chains`` and Casimir exponent map; the seed and the catalog's
    rational functions are shared and never written to."""
    model = _build_surface(name)
    constraint = model.casimir_constraint
    return dataclasses.replace(
        model,
        catalog={k: list(w) if isinstance(w, list) else w for k, w in model.catalog.items()},
        chains=dict(model.chains),
        casimir_constraint=constraint and (dict(constraint[0]), constraint[1]),
    )


@functools.cache
def _build_surface(name: str) -> SurfaceModel:
    if name == "genus2_k33":
        seed = Seed.initial(surfaces.genus2_k33_quiver())
        return SurfaceModel(name, seed, dict(surfaces.GENUS2_K33_CATALOG))

    if name == "genus2_original":
        seed = Seed.initial(surfaces.genus2_original_quiver())
        # the catalog is carried over from the neighboring chart: the mutated
        # seed expresses that chart's variables in this chart's generators
        other = mutate(seed, "f")
        catalog = {
            label: telescopic(word, other)
            for label, word in surfaces.GENUS2_K33_CATALOG.items()
        }
        return SurfaceModel(name, seed, catalog)

    if name == "genus2_papillon":
        seed = Seed.initial(surfaces.genus2_papillon_quiver())
        a, b, c, d, e, f = (_z(seed, v) for v in "abcdef")
        ehat = _gen(seed, "e", 2) * (
            _gen(seed, "a") * _gen(seed, "b") * _gen(seed, "c") * _gen(seed, "d") * _gen(seed, "f")
        )
        g12 = telescopic(["d", "a"], seed)
        gt12 = telescopic(["b", "c"], seed)
        wf = _gen(seed, "f")
        catalog = {
            "G_{1,2}": g12,
            "Gt_{1,2}": gt12,
            "G_{1,3}": _gen(seed, "a", -1) * ehat
            + _gen(seed, "d") * _gen(seed, "f") * gt12
            + _gen(seed, "a") / ehat * (1 + f) * (1 + d),
            "G_{2,3}": _gen(seed, "d", -1) * ehat * (1 + a.inverse())
            + wf / _gen(seed, "a") * gt12
            + _gen(seed, "d") / ehat * (1 + f),
            "Gt_{1,3}": _gen(seed, "c", -1) * ehat
            + _gen(seed, "b") * _gen(seed, "f") * g12
            + _gen(seed, "c") / ehat * (1 + f) * (1 + b),
            "Gt_{2,3}": _gen(seed, "b", -1) * ehat * (1 + c.inverse())
            + wf / _gen(seed, "c") * g12
            + _gen(seed, "b") / ehat * (1 + f),
            "G_B": wf.inverse() * (ehat + (1 + f) / ehat),
            "ehat": ehat,
        }
        return SurfaceModel(name, seed, catalog)

    if name == "genus2_x7":
        seed = Seed.initial(surfaces.genus2_x7_quiver())
        a, b, c, d, f, g = (_z(seed, v) for v in "abcdfg")
        g12 = telescopic(["d", "a"], seed)
        gt12 = telescopic(["b", "c"], seed)
        gb = telescopic(["f", "g"], seed)
        wgd = _gen(seed, "g") * _gen(seed, "d")
        wgb = _gen(seed, "g") * _gen(seed, "b")
        catalog = {
            "G_{1,2}": g12,
            "Gt_{1,2}": gt12,
            "G_B": gb,
            "G_{2,3}": wgd.inverse() * (1 + a.inverse())
            + (_gen(seed, "f") / _gen(seed, "a")) * gt12
            + wgd * (1 + f),
            "Gt_{2,3}": wgb.inverse() * (1 + c.inverse())
            + (_gen(seed, "f") / _gen(seed, "c")) * g12
            + wgb * (1 + f),
        }
        q = seed.quiver
        catalog["G_{1,3}"] = skein_product(catalog["G_{1,2}"], catalog["G_{2,3}"], q)
        catalog["Gt_{1,3}"] = skein_product(catalog["Gt_{1,2}"], catalog["Gt_{2,3}"], q)
        model = SurfaceModel(
            name,
            seed,
            catalog,
            chains={"braid": ("G_{1,2}", "G_{2,3}", "G_B", "Gt_{2,3}", "Gt_{1,2}")},
            casimir_constraint=({"e": 2, "a": 1, "b": 1, "c": 1, "d": 1, "f": 1, "g": 1}, 1),
        )
        return model

    if name == "genus3_original":
        seed = Seed.initial(surfaces.genus3_original_quiver())
        catalog = {k: list(w) for k, w in surfaces.GENUS3_ORIGINAL_CATALOG.items()}
        return SurfaceModel(name, seed, catalog)

    if name == "genus3_symmetric":
        seed = Seed.initial(surfaces.genus3_symmetric_quiver())
        catalog = {k: list(w) for k, w in surfaces.GENUS3_SYMMETRIC_CATALOG.items()}
        return SurfaceModel(name, seed, catalog)

    if name == "genus3_extended":
        seed = Seed.initial(surfaces.genus3_extended_quiver())
        catalog = {k: list(w) for k, w in surfaces.GENUS3_ORIGINAL_CATALOG.items()}
        catalog["G_B"] = ["a1", "a2", "a3", "at"]
        constraint = ({v: 1 for v in seed.quiver.vertices}, -1)
        return SurfaceModel(
            name,
            seed,
            catalog,
            chains={
                "rank": (
                    "G_{1,2}",
                    "G_{2,3}",
                    "G_{3,4}",
                    "G_B",
                    "Gt_{3,4}",
                    "Gt_{2,3}",
                    "Gt_{1,2}",
                )
            },
            casimir_constraint=constraint,
        )

    if name == "genus4_n5":
        seed = Seed.initial(surfaces.genus4_n5_quiver())
        catalog: dict = {k: list(w) for k, w in surfaces.GENUS4_N5_CATALOG.items()}
        catalog["G_{4,5}"] = _genus4_g45(seed)
        constraint = {v: 1 for v in seed.quiver.vertices}
        for v in ("a2", "a3", "a4"):
            constraint[v] = 2
        return SurfaceModel(
            name,
            seed,
            catalog,
            chains={"rank": ("G_{1,2}", "G_{2,3}", "G_{3,4}", "G_{4,5}")},
            casimir_constraint=(constraint, 1),
        )

    raise ValueError(f"unknown surface model {name!r}")


def _genus4_g45(seed: Seed) -> RationalFn:
    table = seed.frame
    root = ClusterValue(table)
    for v in surfaces.GENUS4_G45_PREFACTOR:
        root = root * seed.values[v]
    prefactor = root.sqrt().as_rational()
    return prefactor * sum(
        functools.reduce(truediv, (seed.value(v) for v in denom), Q(1))
        for denom in surfaces.GENUS4_G45_DENOMS
    )


def catalog_value(model: SurfaceModel, label: str) -> RationalFn:
    item = model.catalog[label]
    if isinstance(item, RationalFn):
        return item
    return telescopic(item, model.seed)


# -- separating-curve element -----------------------------------------------------


def trace_cubic(x, y, z):
    """x·y·z − x² − y² − z²: the genus-two separating (Markov) element of
    three chain functions G₁₂, G₁₃, G₂₃, over any ring."""
    return x * y * z - x ** 2 - y ** 2 - z ** 2


def separating_sum(u):
    """u₁₃u₂₄ − u₁₂u₃₄ − u₂₃u₁₄ of a matrix indexed from 0 (at least 4×4):
    the genus-three separating sum of a chain matrix.  Each product takes
    every index once, so on the signed matrix, entries (−1)^(i+j)·u_ij, it
    is the same."""
    return u[0, 2] * u[1, 3] - u[0, 1] * u[2, 3] - u[1, 2] * u[0, 3]


def markov(model: SurfaceModel, form: str = "product_G") -> RationalFn:
    """The separating-curve element of a genus-two model, three equivalent ways."""
    t = model.seed.frame
    if form in ("product_G", "product_Gtilde"):
        p = "" if form == "product_G" else "t"
        g12 = catalog_value(model, f"G{p}_{{1,2}}")
        g23 = catalog_value(model, f"G{p}_{{2,3}}")
        g13 = catalog_value(model, f"G{p}_{{1,3}}")
        return trace_cubic(g12, g13, g23)
    if form == "via_GB":
        if "G_B" not in model.catalog:
            raise ValueError(f"model {model.name} has no dual geodesic in its catalog")
        g12 = catalog_value(model, "G_{1,2}")
        gt12 = catalog_value(model, "Gt_{1,2}")
        gb = catalog_value(model, "G_B")
        f = RationalFn.generator(t, wname("f"), 2)
        return f * (g12 * gt12 * gb + g12 ** 2 + gt12 ** 2 + gb ** 2 - 4) - 4
    raise ValueError(f"unknown form {form!r}")


# -- mutation-sequence twist and its closed form -------------------------------------


class ChainPatternError(ValueError):
    pass


def locate_flanking(seed: Seed, chain: Sequence[str]) -> dict:
    """Find the side vertices b_k (arrows z_k -> b_k -> z_{k+2}) and the twist
    vertex (arrows z_1 -> t -> z_2) of a zig-zag cycle z_1 .. z_m."""
    q = seed.quiver
    m = len(chain)
    for i in range(m - 1):
        if q.b(chain[i + 1], chain[i]) <= 0:
            raise ChainPatternError(f"chain breaks between {chain[i]} and {chain[i + 1]}")
    if q.b(chain[-1], chain[0]) <= 0:
        raise ChainPatternError("chain is not closed by an arrow from last to first")
    flank = {}
    others = [v for v in q.vertices if v not in chain]
    for k in range(m - 2):
        matches = [
            v
            for v in others
            if q.b(chain[k], v) > 0 and q.b(v, chain[k + 2]) > 0
        ]
        if len(matches) != 1:
            raise ChainPatternError(f"no unique side vertex between {chain[k]} and {chain[k + 2]}")
        flank[k + 1] = matches[0]  # b_k in one-based numbering
    twist = [
        v
        for v in others
        if q.b(chain[0], v) > 0 and q.b(v, chain[1]) > 0 and v not in flank.values()
    ]
    flank["twist"] = twist[0] if len(twist) == 1 else None
    return flank


def braid_twist(seed: Seed, chain: Sequence[str], mode: str = "mutation_sequence") -> Seed:
    """The twist along the chain geodesic, as mutations or in closed form.

    The chain lists the cycle vertices z_1 .. z_{2n-2}; the mutation
    realization is the palindrome through z_2 .. z_{2n-2} .. z_2 followed by
    the relabeling of the two chain endpoints (the palindrome alone returns
    the quiver with those two labels exchanged).  The closed form covers the
    chain and its side vertices only: a chain with a twist vertex (see
    ``locate_flanking``) is a ChainPatternError there.
    """
    m = len(chain)
    if mode == "mutation_sequence":
        seq = list(chain[1:]) + list(reversed(chain[1:-1])) + [(chain[0], chain[-1])]
        return apply_sequence(seed, seq)
    if mode != "closed_form":
        raise ValueError(f"unknown mode {mode!r}")

    flank = locate_flanking(seed, chain)
    if flank["twist"] is not None:
        raise ChainPatternError(f"no closed form at the twist vertex {flank['twist']}; use the mutation sequence")
    q = seed.quiver
    values = dict(seed.values)
    z = {k + 1: seed.values[v] for k, v in enumerate(chain)}
    one = ClusterValue(seed.frame)

    # eta_k = 1 + z_m + z_m z_{m-1} + ... + z_m ... z_{k+1}   (no z_1)
    eta: dict = {m: one}
    running = one
    for k in range(m - 1, 0, -1):
        running = running * z[k + 1]
        eta[k] = cv_sum([eta[k + 1], running])

    prod_all = one
    for k in range(1, m + 1):
        prod_all = prod_all * z[k]
    prod_2_to_m = one
    for k in range(2, m + 1):
        prod_2_to_m = prod_2_to_m * z[k]

    new = {}
    for i in range(2, m):
        new[chain[i - 1]] = z[i] * eta[i + 1] * eta[i - 1].inverse()
    new[chain[0]] = eta[2] * prod_2_to_m.inverse()
    new[chain[m - 1]] = prod_all * z[m] * (eta[1] * eta[m - 1]).inverse()
    for k in range(1, m - 1):
        b = flank[k]
        new[b] = seed.values[b] * eta[k] * eta[k + 2].inverse()
    values.update(new)
    return Seed(q, values, seed.frame)

