"""The SL_n square network: planar face lattice and path sums.

Sources ``1..n`` enter on the right of horizontal wires ``y = n-1 .. 0`` and
sinks ``1'..n'`` leave on the left.  Between wires ``y = n-t`` and
``y = n-t-1`` lies band ``t`` with its vertical drop edges: a staircase block
on the right (one triangle of the square) and a full block of ``n`` verticals
on the left (the second triangle plus the mirrored copy of the first glued in
across the diagonal seam).  Faces between consecutive verticals carry the
cluster variables; the rails ``s_t`` straddle the seam between the triangles
and ``f_t`` sit on the Moebius-glued boundary row.

The normalized entry for sources ``i < j`` is the sum over monotone systems of
drops (one per band, strictly moving left) of the product of swept-region face
variables, power ``+1/2`` for faces above the path and ``-1/2`` below.

Every vertical lies in ``(1/2) Z`` and within band ``t`` all of them have
``t``'s parity in half-units, so horizontal coordinates (verticals, face
edges and face centers) are stored as ``int`` counts of half-units;
``to_json`` prints them as the rationals they stand for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .laurent import GeneratorTable, LaurentPoly, RationalFn
from .quiver import Quiver, wname
from .squares import amalgamated_quiver, kname

SUPPORTED_N = (3, 4, 5)

# published face labels of the n=4 drawing
_N4_NAMES = {
    (2, 3): "a",
    (3, 2): "b",
    (3, 3): "c",
    (1, 1): "p",
    (1, 2): "q",
    (2, 1): "r",
}


def face_name(n: int, r: int, c: int) -> str:
    """Name of the face whose cluster variable sits at lattice vertex (r, c)."""
    if r == 0:
        return f"f{n - c}"
    if r + c == n:
        return f"s{r}"
    if n == 4 and (r, c) in _N4_NAMES:
        return _N4_NAMES[(r, c)]
    side = "R" if r + c > n else "L"
    return f"{side}{r}_{c}"


def mirror_vertex(n: int, r: int, c: int) -> tuple:
    """The half-turn symmetry of the glued lattice; fixes the glued row."""
    if r == 0:
        return (0, c)
    return (n - r, n - c)


@dataclass(frozen=True)
class Face:
    """A face of band ``band`` between two verticals, in half-units."""

    name: str
    band: int
    lattice: tuple
    left: int
    right: int
    center: int = field(init=False)

    def __post_init__(self):
        # both edges are verticals of one band, so they share a parity
        object.__setattr__(self, "center", (self.left + self.right) // 2)


class SquareNetwork:
    """Planar face lattice of the SL_n square with its quiver family.

    A network is never written after construction, so ``path_sums`` keeps
    each entry ``path_sum_entry`` computes, keyed by ``(i, j, side)``.
    """

    def __init__(self, n: int):
        if n not in SUPPORTED_N:
            raise ValueError(f"unsupported size {n}; expected one of {SUPPORTED_N}")
        self.n = n
        self.verticals: dict = {}
        self.bands: dict = {}
        for t in range(1, n):
            # half-units: t/2 - n + k and n - 2 + t/2 - g
            xs = sorted(
                [t - 2 * n + 2 * k for k in range(n)] + [2 * n - 4 + t - 2 * g for g in range(t)],
                reverse=True,
            )
            self.verticals[t] = xs
            word = self._band_word(t)
            faces = []
            for m, (r, c) in enumerate(word):
                faces.append(
                    Face(
                        name=face_name(n, r, c),
                        band=t,
                        lattice=(r, c),
                        left=xs[m + 1],
                        right=xs[m],
                    )
                )
            self.bands[t] = faces
        names = sorted({f.name for t in self.bands for f in self.bands[t]})
        self.face_names = names
        self.table = GeneratorTable([wname(x) for x in names])
        self.quiver = self._face_quiver()
        self.path_sums: dict = {}

    def _band_word(self, t: int) -> list:
        """Lattice vertices of band t's faces, rightmost first."""
        n = self.n
        word = [(t, c) for c in range(n - 1, n - t - 1, -1)]
        word += [(r, n - t) for r in range(t - 1, -1, -1)]
        word += [(n - r, t + r) for r in range(1, n - t)]
        return word

    def _face_quiver(self) -> Quiver:
        """Exchange data among face variables, from the amalgamated lattice."""
        n = self.n
        amalg = amalgamated_quiver(n)
        lattice_of = {}
        for t, faces in self.bands.items():
            for f in faces:
                lattice_of.setdefault(f.name, f.lattice)
        names = self.face_names
        arrows = []
        for i, u in enumerate(names):
            for v in names[i + 1 :]:
                ru, cu = lattice_of[u]
                rv, cv = lattice_of[v]
                w = amalg.b(kname(ru, cu), kname(rv, cv))
                if w > 0:
                    arrows.append((u, v, w))
                elif w < 0:
                    arrows.append((v, u, -w))
        return Quiver.from_arrows(names, arrows)

    # -- path machinery --------------------------------------------------

    def _swept(self, i: int, j: int) -> dict:
        """Per band: (leftmost admissible drop, rightmost admissible drop)."""
        lo: dict = {}
        hi: dict = {}
        hi[i] = self.verticals[i][0]
        for t in range(i + 1, j):
            prev = hi[t - 1]
            cands = [x for x in self.verticals[t] if x < prev]
            if not cands:
                raise ValueError(f"no admissible path from {i} to {j}")
            hi[t] = max(cands)
        lo[j - 1] = self.verticals[j - 1][-1]
        for t in range(j - 2, i - 1, -1):
            cands = [x for x in self.verticals[t] if x > lo[t + 1]]
            if not cands:
                raise ValueError(f"no admissible path from {i} to {j}")
            lo[t] = min(cands)
        return {t: (lo[t], hi[t]) for t in range(i, j)}

    def region(self, i: int, j: int) -> dict:
        """Contributing faces per band: those swept between extreme paths."""
        swept = self._swept(i, j)
        out = {}
        for t in range(i, j):
            lo, hi = swept[t]
            out[t] = [f for f in self.bands[t] if lo < f.center < hi]
        return out

    def paths(self, i: int, j: int) -> list:
        """All drop tuples (one vertical per band, strictly moving left)."""
        out: list = []

        def extend(t: int, prev, acc: tuple):
            if t == j:
                out.append(acc)
                return
            for x in self.verticals[t]:
                if prev is None or x < prev:
                    extend(t + 1, x, acc + (x,))

        extend(i, None, ())
        return out

    def path_sum_entry(self, i: int, j: int, side: str = "A") -> RationalFn:
        """Normalized entry: sum over admissible paths of swept-face monomials."""
        if not (1 <= i < j <= self.n):
            raise ValueError("need 1 <= i < j <= n")
        if side not in ("A", "Atilde"):
            raise ValueError("side must be 'A' or 'Atilde'")
        value = self.path_sums.get((i, j, side))
        if value is None:
            value = self.path_sums[i, j, side] = self._path_sum(i, j, side)
        return value

    def _path_sum(self, i: int, j: int, side: str) -> RationalFn:
        region = self.region(i, j)
        gen_index = {}
        for t, faces in region.items():
            row = []
            for f in faces:
                r, c = f.lattice
                if side == "Atilde":
                    r, c = mirror_vertex(self.n, r, c)
                row.append((self.table.index(wname(face_name(self.n, r, c))), f.center))
            gen_index[t] = row
        nvars = len(self.table)
        terms: dict = {}
        for drops in self.paths(i, j):
            exps = [0] * nvars
            for t, x in zip(range(i, j), drops):
                for gi, center in gen_index[t]:
                    exps[gi] += 1 if center < x else -1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + 1
        return RationalFn.from_poly(LaurentPoly(self.table, terms))

    def assemble_A(self) -> tuple:
        """The unipotent matrices (A, Atilde) with entries (-1)^(i+j) a_ij."""
        from .matrices import MatrixRF

        n = self.n
        mats = []
        for side in ("A", "Atilde"):
            rows = []
            for i in range(1, n + 1):
                row = []
                for j in range(1, n + 1):
                    if i == j:
                        row.append(RationalFn.constant(self.table, 1))
                    elif i > j:
                        row.append(RationalFn.constant(self.table, 0))
                    else:
                        sign = -1 if (i + j) % 2 else 1
                        row.append(self.path_sum_entry(i, j, side) * sign)
                rows.append(row)
            mats.append(MatrixRF(rows))
        return tuple(mats)

    def to_json(self) -> dict:
        faces = []
        for t in sorted(self.bands):
            for f in self.bands[t]:
                faces.append(
                    {
                        "name": f.name,
                        "band": f.band,
                        "lattice": list(f.lattice),
                        "x": [_half_units(f.left), _half_units(f.right)],
                    }
                )
        regions = {}
        for i in range(1, self.n):
            for j in range(i + 1, self.n + 1):
                key = f"{i},{j}"
                regions[key] = {
                    str(t): [f.name for f in faces_t]
                    for t, faces_t in self.region(i, j).items()
                }
        return {
            "n": self.n,
            "faces": faces,
            "verticals": {str(t): [_half_units(x) for x in xs] for t, xs in self.verticals.items()},
            "regions": regions,
            "quiver": self.quiver.to_json(),
        }


@functools.cache
def square_network(n: int) -> SquareNetwork:
    """The size-n network, built once per process and shared: a network is
    never written after construction (``path_sums`` only keeps what it
    derives), so every caller may read the same one."""
    return SquareNetwork(n)


def _half_units(x: int) -> str:
    return str(Fraction(x, 2))


# -- independent oracle: exhaustive DFS on the explicit planar graph ---------


def enumerate_paths_dfs(net: SquareNetwork, i: int, j: int) -> list:
    """All source-i to sink-j' paths on the explicit wire graph (oracle)."""
    n = net.n
    INF = 10**6
    lines: dict = {}
    for level in range(n):
        xs = set()
        t_below = n - level  # band whose top edge lies on this line
        if 1 <= t_below <= n - 1:
            xs.update(net.verticals[t_below])
        t_above = n - 1 - level  # band whose bottom edge lies on this line
        if 1 <= t_above <= n - 1:
            xs.update(net.verticals[t_above])
        lines[level] = [INF] + sorted(xs, reverse=True) + [-INF]

    start = (n - i, INF)
    goal = (n - j, -INF)
    paths = []

    def step(node, drops):
        if node == goal:
            paths.append(drops)
            return
        level, x = node
        row = lines[level]
        k = row.index(x)
        if k + 1 < len(row):
            step((level, row[k + 1]), drops)  # continue left
        t = n - level  # dropping from this line enters band t
        if 1 <= t <= n - 1 and x in net.verticals[t] and level - 1 >= n - j:
            step((level - 1, x), drops + ((t, x),))

    step(start, ())
    return paths


def path_sum_bruteforce(net: SquareNetwork, i: int, j: int) -> RationalFn:
    """Path sum recomputed from the DFS oracle with geometric sweep bounds: one
    exponent vector per path, the swept faces of each band bounded by the
    extreme drops the oracle's paths make in it."""
    all_paths = enumerate_paths_dfs(net, i, j)
    drops_per_band: dict = {}
    for path in all_paths:
        for t, x in path:
            drops_per_band.setdefault(t, set()).add(x)
    swept = {}
    for t, drops in drops_per_band.items():
        lo, hi = min(drops), max(drops)
        swept[t] = [
            (net.table.index(wname(f.name)), f.center) for f in net.bands[t] if lo < f.center < hi
        ]
    terms: dict = {}
    for path in all_paths:
        exps = [0] * len(net.table)
        for t, x in path:
            for gi, center in swept[t]:
                exps[gi] += 1 if center < x else -1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    return RationalFn.from_poly(LaurentPoly(net.table, terms))
