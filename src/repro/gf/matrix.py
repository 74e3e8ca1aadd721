"""Dense linear algebra over GF(2^g).

The Stage-3 dispersion of the paper multiplies each chunk, viewed as a
row vector ``c`` of ``k`` field elements, by an invertible ``k x k``
matrix ``E``:  ``d = c . E``.  "A good E seems to be one where all
coefficients are nonzero ... such matrices exist in abundance, e.g. as
Cauchy matrices or Vandermonde matrices."  This module provides the
matrix type, the Cauchy constructors the store uses, and the random
non-singular matrices used in the paper's Table-2 experiment.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.gf.field import GF2


class Matrix:
    """An immutable matrix over a :class:`~repro.gf.field.GF2` field.

    Rows are stored as tuples of ints.  The class supports the small
    set of operations the dispersion codec and the LH*_RS parity
    calculus need: multiplication, inversion, rank and column access.

    >>> f = GF2(4)
    >>> m = Matrix(f, [[1, 2], [3, 4]])
    >>> (m @ m.inverse()) == identity_matrix(f, 2)
    True
    """

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: GF2, rows: Iterable[Sequence[int]]) -> None:
        self.field = field
        materialised = tuple(tuple(field.validate(v) for v in row)
                             for row in rows)
        if not materialised:
            raise ValueError("matrix must have at least one row")
        width = len(materialised[0])
        if width == 0:
            raise ValueError("matrix must have at least one column")
        if any(len(row) != width for row in materialised):
            raise ValueError("all matrix rows must have equal length")
        self.rows = materialised
        self.nrows = len(materialised)
        self.ncols = width

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field is not other.field:
            raise ValueError("matrices live in different fields")
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ "
                f"{other.nrows}x{other.ncols}"
            )
        f = self.field
        cols = [other.column(j) for j in range(other.ncols)]
        return Matrix(
            f,
            [[f.dot(row, col) for col in cols] for row in self.rows],
        )

    def mul_vector(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Row-vector times matrix: ``vector . self`` (paper's d = c.E)."""
        if len(vector) != self.nrows:
            raise ValueError(
                f"vector of length {len(vector)} times "
                f"{self.nrows}x{self.ncols} matrix"
            )
        f = self.field
        return tuple(
            f.dot(vector, self.column(j)) for j in range(self.ncols)
        )

    def _eliminate(self) -> tuple[list[list[int]], int]:
        """Gauss-Jordan; returns (companion-identity, rank)."""
        f = self.field
        work = [list(row) for row in self.rows]
        companion = [
            [1 if i == j else 0 for j in range(self.nrows)]
            for i in range(self.nrows)
        ]
        rank = 0
        for col in range(min(self.nrows, self.ncols)):
            pivot_row = next(
                (r for r in range(rank, self.nrows) if work[r][col]), None
            )
            if pivot_row is None:
                continue
            if pivot_row != rank:
                work[rank], work[pivot_row] = work[pivot_row], work[rank]
                companion[rank], companion[pivot_row] = (
                    companion[pivot_row], companion[rank]
                )
            pivot = work[rank][col]
            pivot_inv = f.inv(pivot)
            work[rank] = [f.mul(v, pivot_inv) for v in work[rank]]
            companion[rank] = [f.mul(v, pivot_inv) for v in companion[rank]]
            for r in range(self.nrows):
                if r != rank and work[r][col]:
                    factor = work[r][col]
                    work[r] = [
                        v ^ f.mul(factor, p)
                        for v, p in zip(work[r], work[rank])
                    ]
                    companion[r] = [
                        v ^ f.mul(factor, p)
                        for v, p in zip(companion[r], companion[rank])
                    ]
            rank += 1
        return companion, rank

    def rank(self) -> int:
        return self._eliminate()[1]

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        companion, rank = self._eliminate()
        if rank != self.nrows:
            raise ValueError("matrix is singular")
        return Matrix(self.field, companion)

    def all_nonzero(self) -> bool:
        """True if every coefficient is nonzero (the paper's 'good E')."""
        return all(all(row) for row in self.rows)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field is other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((id(self.field), self.rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"Matrix(GF(2^{self.field.degree}), [{body}])"


def identity_matrix(field: GF2, n: int) -> Matrix:
    """The n x n identity over ``field``."""
    return Matrix(
        field, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )


def cauchy_matrix(field: GF2, xs: Sequence[int], ys: Sequence[int]) -> Matrix:
    """Cauchy matrix ``C[i][j] = 1 / (x_i + y_j)``.

    Requires the ``x_i`` and ``y_j`` to be pairwise distinct across both
    sequences; every square submatrix of a Cauchy matrix is then
    invertible and every coefficient is nonzero — exactly the family
    the paper recommends for the dispersion matrix ``E``.
    """
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("Cauchy points must be distinct within xs and ys")
    if set(xs) & set(ys):
        raise ValueError("Cauchy xs and ys must not intersect")
    return Matrix(
        field,
        [[field.inv(x ^ y) for y in ys] for x in xs],
    )


def default_cauchy_matrix(field: GF2, k: int) -> Matrix:
    """A canonical k x k Cauchy matrix using the first 2k field elements."""
    if 2 * k > field.order:
        raise ValueError(
            f"GF(2^{field.degree}) too small for a {k}x{k} Cauchy matrix"
        )
    xs = list(range(k))
    ys = list(range(k, 2 * k))
    return cauchy_matrix(field, xs, ys)


def random_nonsingular_matrix(
    field: GF2,
    k: int,
    rng: random.Random,
    require_all_nonzero: bool = False,
    max_attempts: int = 10_000,
) -> Matrix:
    """Sample a random invertible k x k matrix (paper's Table-2 setup).

    With ``require_all_nonzero`` the sample is additionally rejected
    until no coefficient is zero, matching the paper's "good E"
    recommendation.  Rejection sampling converges fast: a random square
    matrix over GF(q) is invertible with probability > 0.288 for every
    q >= 2, and much higher for larger fields.
    """
    lo = 1 if require_all_nonzero else 0
    for __ in range(max_attempts):
        candidate = Matrix(
            field,
            [
                [rng.randrange(lo, field.order) for __ in range(k)]
                for __ in range(k)
            ],
        )
        if candidate.is_invertible():
            return candidate
    raise RuntimeError(
        f"failed to sample an invertible {k}x{k} matrix over "
        f"GF(2^{field.degree}) in {max_attempts} attempts"
    )
