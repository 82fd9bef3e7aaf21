"""Exact cluster-algebra engine for the symplectic groupoid of unipotent
upper-triangular forms, with surface-chart geodesic catalogs and a batch
verification CLI.

Everything computes over exact rationals in square-root generators (a cluster
variable is the square of its generator), so every identity check is an exact
polynomial statement.  See the README for the module map and the `symgroupoid`
command for the verification suites.
"""

from .laurent import (
    GeneratorTable,
    LaurentPoly,
    RationalFn,
    SingularPointError,
)
from .intlinalg import IntMatrix, kernel_basis, rank_bareiss
from .matrices import MatrixRF
from .quiver import (
    ClusterValue,
    FrozenVertexError,
    HalfIntegerMutationError,
    Quiver,
    Seed,
    apply_sequence,
    corank,
    monomial_casimirs,
    mutate,
    poisson_bracket,
)
from .network import SquareNetwork
from .teich import build_surface, chain_matrix, markov, matrix_braid, skein_complete, telescopic

__version__ = "0.1.0"
