"""Sparse complex operator algebra for chains of two-level sites.

Everything downstream (Hamiltonians, jump operators, superoperators) is built
from tensor products of 2x2 blocks embedded into a labelled chain of sites
(atoms first, then sensors).  Matrices are immutable after assembly so they
can be shared freely across parallel sweep workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseComplexMatrix",
    "HilbertLayout",
    "embed",
    "expectation",
    "sigma_minus",
    "sigma_plus",
    "number_op",
]


class SparseComplexMatrix:
    """Complex sparse matrix with explicit dimensions and triplet access.

    Assembly happens once, in :meth:`from_entries` (duplicate coordinates are
    summed, exact zeros discarded).  The finished object is immutable;
    arithmetic returns new instances.  Storage is CSR, double-precision
    complex throughout.
    """

    __slots__ = ("rows", "cols", "_csr")

    # Make numpy defer mixed ndarray (at) SparseComplexMatrix products to
    # __rmatmul__ instead of coercing to an object array.
    __array_ufunc__ = None

    def __init__(self, csr: sp.csr_matrix):
        csr = sp.csr_matrix(csr, dtype=np.complex128)
        csr.eliminate_zeros()
        csr.sum_duplicates()
        self.rows, self.cols = csr.shape
        self._csr = csr

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """Assemble from ``(row, col, value)`` triplets; duplicates are summed."""
        if entries:
            r, c, v = zip(*entries)
        else:
            r, c, v = (), (), ()
        coo = sp.coo_matrix(
            (np.asarray(v, dtype=np.complex128), (r, c)), shape=(rows, cols)
        )
        return cls(coo.tocsr())

    @classmethod
    def identity(cls, n):
        return cls(sp.identity(n, dtype=np.complex128, format="csr"))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(sp.csr_matrix((rows, cols), dtype=np.complex128))

    @property
    def nnz(self):
        return int(self._csr.nnz)

    @property
    def csr(self):
        """Underlying scipy CSR matrix (treat as read-only)."""
        return self._csr

    def to_dense(self):
        return self._csr.toarray()

    def kron(self, other: "SparseComplexMatrix") -> "SparseComplexMatrix":
        """Tensor product; ``self`` carries the most significant index."""
        return SparseComplexMatrix(sp.kron(self._csr, other._csr, format="csr"))

    def adjoint(self) -> "SparseComplexMatrix":
        return SparseComplexMatrix(self._csr.conjugate().transpose().tocsr())

    def hermiticity_defect(self) -> float:
        """Largest entry of ``A - A``:sup:`dag` in magnitude."""
        diff = (self._csr - self._csr.conjugate().transpose()).tocoo()
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0

    def __matmul__(self, other):
        if isinstance(other, SparseComplexMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"dimension mismatch: ({self.rows}x{self.cols}) @ "
                    f"({other.rows}x{other.cols})"
                )
            return SparseComplexMatrix((self._csr @ other._csr).tocsr())
        arr = np.asarray(other)
        if self.cols != arr.shape[0]:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) @ {arr.shape}"
            )
        return self._csr @ arr

    def __rmatmul__(self, other):
        arr = np.asarray(other)
        if arr.shape[-1] != self.rows:
            raise ValueError(
                f"dimension mismatch: {arr.shape} @ ({self.rows}x{self.cols})"
            )
        return arr @ self._csr

    def __add__(self, other: "SparseComplexMatrix") -> "SparseComplexMatrix":
        self._check_same_shape(other)
        return SparseComplexMatrix((self._csr + other._csr).tocsr())

    def __sub__(self, other: "SparseComplexMatrix") -> "SparseComplexMatrix":
        self._check_same_shape(other)
        return SparseComplexMatrix((self._csr - other._csr).tocsr())

    def __mul__(self, scalar) -> "SparseComplexMatrix":
        return SparseComplexMatrix((self._csr * complex(scalar)).tocsr())

    __rmul__ = __mul__

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) vs "
                f"({other.rows}x{other.cols})"
            )

    def __repr__(self):
        return f"SparseComplexMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered chain of two-level sites: atoms first, then sensors."""

    site_labels: tuple
    site_dims: tuple

    def __post_init__(self):
        if len(self.site_labels) != len(self.site_dims):
            raise ValueError("site_labels and site_dims must have equal length")
        for d in self.site_dims:
            if d != 2:
                raise ValueError("only two-level sites are supported")
        for lab in self.site_labels:
            if lab not in ("atom", "sensor"):
                raise ValueError(f"unknown site label {lab!r}")

    @classmethod
    def for_system(cls, atom_count, sensor_count=0):
        if atom_count < 1:
            raise ValueError("need at least one atom")
        labels = ("atom",) * atom_count + ("sensor",) * sensor_count
        return cls(site_labels=labels, site_dims=(2,) * len(labels))

    @property
    def site_count(self):
        return len(self.site_labels)

    @property
    def dimension(self):
        return int(np.prod(self.site_dims)) if self.site_dims else 1

    @property
    def atom_sites(self):
        return [i for i, lab in enumerate(self.site_labels) if lab == "atom"]

    @property
    def sensor_sites(self):
        return [i for i, lab in enumerate(self.site_labels) if lab == "sensor"]


# Single-site blocks.  Basis convention per site: index 0 = ground, 1 = excited;
# in tensor products the first factor is site 0 (most significant digit).
_SIGMA_MINUS = SparseComplexMatrix.from_entries(2, 2, [(0, 1, 1.0)])
_SIGMA_PLUS = SparseComplexMatrix.from_entries(2, 2, [(1, 0, 1.0)])
_NUMBER = SparseComplexMatrix.from_entries(2, 2, [(1, 1, 1.0)])
_IDENTITY2 = SparseComplexMatrix.identity(2)


def sigma_minus():
    """Lowering operator |g><e| of a single two-level site."""
    return _SIGMA_MINUS


def sigma_plus():
    """Raising operator |e><g| of a single two-level site."""
    return _SIGMA_PLUS


def number_op():
    """Excitation projector |e><e| of a single two-level site."""
    return _NUMBER


@lru_cache(maxsize=1024)
def embed(local: SparseComplexMatrix, site, layout: HilbertLayout) -> SparseComplexMatrix:
    """Embed a 2x2 operator at ``site``, identity everywhere else.

    Embeddings are cached per operator object, site and layout; those of the
    single-site constants dominate model assembly in sweeps.
    """
    if local.rows != 2 or local.cols != 2:
        raise ValueError("local operator must be 2x2")
    if not 0 <= site < layout.site_count:
        raise ValueError(
            f"site {site} out of range for layout with {layout.site_count} sites"
        )
    out = None
    for i in range(layout.site_count):
        block = local if i == site else _IDENTITY2
        out = block if out is None else out.kron(block)
    return out


def expectation(op: SparseComplexMatrix, rho) -> complex:
    """Tr[op @ rho] for a dense density matrix ``rho``."""
    rho = np.asarray(rho)
    if rho.shape != (op.cols, op.rows):
        raise ValueError(
            f"dimension mismatch: op ({op.rows}x{op.cols}) vs rho {rho.shape}"
        )
    coo = op.csr.tocoo()
    return complex(np.sum(coo.data * rho[coo.col, coo.row]))
