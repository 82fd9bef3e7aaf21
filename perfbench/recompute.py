"""Independent recomputations that judge the program's outputs.

The program supplies the objects (serialized rational functions through
``RationalFn.to_json()``, serialized quivers through ``Quiver.to_json()``,
the solver's matrix ``A``); every value, rank, product and minor that decides
whether they are right is computed here with stdlib ``Fraction`` arithmetic.
Each function returns a list of disagreements, empty when all agree.
"""

from __future__ import annotations

import random
from fractions import Fraction

# -- exact evaluation of serialized rational functions ----------------------


def poly_value(terms: list, point: dict) -> Fraction:
    total = Fraction(0)
    for term in terms:
        value = Fraction(term["coeff"])
        for name, e in term["exps"].items():
            value *= point[name] ** e
        total += value
    return total


def rf_value(data: dict, point: dict) -> Fraction:
    den = poly_value(data["den"], point)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the point")
    return poly_value(data["num"], point) / den


def generator_names(data: dict) -> list:
    return sorted({name for part in ("num", "den") for t in data[part] for name in t["exps"]})


# -- plain Fraction matrices --------------------------------------------------


def matmul(a: list, b: list) -> list:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def _eliminate(rows: list) -> tuple:
    """Row echelon form by Gaussian elimination: (rank, determinant if square)."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        for r in range(rank + 1, n_rows):
            f = m[r][col] / m[rank][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det


def rank(rows: list) -> int:
    return _eliminate(rows)[0]


def det(rows: list) -> Fraction:
    return _eliminate(rows)[1]


def minor(b: list, rows, cols) -> Fraction:
    return det([[b[i][j] for j in cols] for i in rows])


def doubled_matrix(quiver_json: dict) -> list:
    """Skew-symmetric doubled exchange matrix from its serialized positive entries."""
    pos = {v: i for i, v in enumerate(quiver_json["vertices"])}
    n = len(pos)
    m = [[0] * n for _ in range(n)]
    for src, dst, w in quiver_json["doubled_exchange"]:
        m[pos[src]][pos[dst]] += w
        m[pos[dst]][pos[src]] -= w
    return m


# -- per-workload recomputations ------------------------------------------------


def symbolic(seed: int) -> list:
    """Genus-3 base-chart chain functions: sizes 5/6/7 and values above 2."""
    from symgroupoid.teich import build_surface, telescopic

    orig = build_surface("genus3_original")
    rng = random.Random(seed)
    bad = []
    for label, count in (("G_{1,2}", 5), ("G_{2,3}", 6), ("G_{3,4}", 7)):
        data = telescopic(orig.catalog[label], orig.seed).to_json()
        names = generator_names(data)
        if rf_value(data, {n: Fraction(1) for n in names}) != count:
            bad.append(f"{label}: unit-point value is not {count}")
        for _ in range(5):
            point = {n: Fraction(rng.randint(1, 40), rng.randint(1, 40)) for n in names}
            if not rf_value(data, point) > 2:
                bad.append(f"{label}: value at {point} is not above 2")
    return bad


def pointwise(seed: int) -> list:
    """Genus-2 separating element: 50 monomials on two charts, 46 on two others."""
    from symgroupoid.teich import build_surface, markov

    bad = []
    rng = random.Random(seed)
    for surface, count in (("genus2_k33", 50), ("genus2_original", 50), ("genus2_x7", 46), ("genus2_papillon", 46)):
        data = markov(build_surface(surface), "product_G").to_json()
        names = generator_names(data)
        if rf_value(data, {n: Fraction(1) for n in names}) != count:
            bad.append(f"{surface}: separating element does not count {count}")
        point = {n: Fraction(rng.randint(1, 25), rng.randint(1, 25)) for n in names}
        if not rf_value(data, point) > 0:
            bad.append(f"{surface}: separating element not positive at {point}")
    return bad


def structural(seed: int) -> list:
    """Casimir coranks of the square quivers and the unipotent solver on random B."""
    from symgroupoid.groupoid import solve_unipotent_A
    from symgroupoid.laurent import GeneratorTable, RationalFn
    from symgroupoid.matrices import MatrixRF
    from symgroupoid.squares import amalgamated_quiver, square_quiver, transport_quiver

    bad = []
    for n in (2, 3, 4, 5):
        found = []
        for build in (square_quiver, transport_quiver, amalgamated_quiver):
            data = build(n).to_json()
            found.append(len(data["vertices"]) - rank(doubled_matrix(data)))
        # the transport determinant is one of its Casimirs; fixing it to one
        # leaves n - 1 on the unit-determinant quiver
        found[1] -= 1
        if tuple(found) != (n + 1, n - 1, 2 * n):
            bad.append(f"size {n}: coranks {tuple(found)} != {(n + 1, n - 1, 2 * n)}")

    rng = random.Random(seed + 101)
    table = GeneratorTable([])
    for n in (3, 4):
        solved = 0
        while solved < 5:
            b = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
            # delta_k: last k rows, first k columns; tilde_k: first n-k rows, last n-k columns
            delta = [Fraction(1)] + [minor(b, range(n - k, n), range(k)) for k in range(1, n + 1)]
            tilde = [minor(b, range(n - k), range(k, n)) for k in range(n)] + [Fraction(1)]
            if any(x == 0 for x in delta[1:] + tilde[:-1]):
                continue
            solved += 1
            out = solve_unipotent_A(MatrixRF([[RationalFn.constant(table, x) for x in row] for row in b]))
            a = [[rf_value(out["A"][i, j].to_json(), {}) for j in range(n)] for i in range(n)]
            if any(a[i][j] != (1 if i == j else 0) for i in range(n) for j in range(i + 1)):
                bad.append(f"size {n}: A is not unipotent upper-triangular for B={b}")
                continue
            image = matmul(matmul(b, a), transpose(b))
            if any(image[i][j] != 0 for i in range(n) for j in range(i)):
                bad.append(f"size {n}: B A B^T has lower entries for B={b}")
            sign = (-1) ** (n + 1)
            for k in range(1, n + 1):
                want = sign * (tilde[n - k] / delta[n - k]) * (delta[n - k + 1] / tilde[n - k + 1])
                if image[k - 1][k - 1] != want:
                    bad.append(f"size {n}: diagonal entry {k} is not the corner-minor ratio for B={b}")
    return bad


RECOMPUTE = {"symbolic": symbolic, "pointwise": pointwise, "structural": structural}
