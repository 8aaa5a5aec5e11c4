"""Dense operators on chains of two-level sites, and the superoperator type.

Hamiltonians, jump operators and sensor readouts are plain ``complex128``
numpy arrays built from tensor products of 2x2 blocks embedded into a
chain of sites (atoms first, then sensors).  Two atoms and at most
four sensors make them at most 64x64.  Only the Lindblad superoperator
(16 to 4096 dims) is assembled sparse, held by :class:`SparseComplexMatrix`
for the sparse steady-state solve; propagation takes a dense generator.
"""

from __future__ import annotations

import operator
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
    "number_op",
]


class SparseComplexMatrix:
    """Superoperator as canonical complex CSR in ``csr`` (treat as read-only).

    The argument is copied, then duplicate coordinates are summed and exact
    zeros discarded, so the caller's matrix is left as it was and this one can
    be shared freely across parallel sweep workers.
    """

    __slots__ = ("csr",)

    def __init__(self, csr: sp.csr_matrix):
        csr = sp.csr_matrix(csr, dtype=np.complex128, copy=True)
        csr.eliminate_zeros()
        csr.sum_duplicates()
        self.csr = csr


@dataclass(frozen=True)
class HilbertLayout:
    """Chain of ``atoms`` two-level atoms followed by ``sensors`` two-level
    sensors; both counts are integers."""

    atoms: int
    sensors: int = 0

    def __post_init__(self):
        try:
            atoms, sensors = operator.index(self.atoms), operator.index(self.sensors)
        except TypeError:
            raise ValueError("atom and sensor counts must be integers") from None
        if atoms < 1:
            raise ValueError("need at least one atom")
        if sensors < 0:
            raise ValueError("sensor count must be nonnegative")

    @property
    def site_count(self):
        return self.atoms + self.sensors

    @property
    def dimension(self):
        return 2**self.site_count

    @property
    def atom_sites(self):
        return list(range(self.atoms))

    @property
    def sensor_sites(self):
        return list(range(self.atoms, self.site_count))


def _read_only(entries):
    arr = np.array(entries, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


# Single-site blocks.  Basis convention per site: index 0 = ground, 1 = excited;
# in tensor products the first factor is site 0 (most significant digit).
_SIGMA_MINUS = _read_only([[0.0, 1.0], [0.0, 0.0]])
_NUMBER = _read_only([[0.0, 0.0], [0.0, 1.0]])


def sigma_minus():
    """Lowering operator |g><e| of a single two-level site."""
    return _SIGMA_MINUS


def number_op():
    """Excitation projector |e><e| of a single two-level site."""
    return _NUMBER


def embed(local, site, layout: HilbertLayout) -> np.ndarray:
    """Embed a 2x2 operator at ``site``, identity everywhere else.

    Embeddings are cached per operator value, site and layout (those of the
    single-site constants dominate model assembly in sweeps) and returned
    read-only, since every caller shares them.
    """
    local = np.asarray(local, dtype=np.complex128)
    if local.shape != (2, 2):
        raise ValueError("local operator must be 2x2")
    try:
        site = operator.index(site)
    except TypeError:
        raise ValueError(f"site must be an integer, not {site!r}") from None
    if not 0 <= site < layout.site_count:
        raise ValueError(
            f"site {site} out of range for layout with {layout.site_count} sites"
        )
    return _embedded(local.tobytes(), site, layout)


@lru_cache(maxsize=1024)
def _embedded(local_bytes, site, layout):
    local = np.frombuffer(local_bytes, dtype=np.complex128).reshape(2, 2)
    out = np.ones((1, 1), dtype=np.complex128)
    for i in range(layout.site_count):
        out = np.kron(out, local if i == site else np.eye(2))
    out.setflags(write=False)
    return out


def expectation(op: np.ndarray, rho) -> complex:
    """Tr[op @ rho] for a dense density matrix ``rho``.

    Sums ``op[r, c] * rho[c, r]`` over the nonzero entries of ``op`` in
    row-major order.
    """
    rho = np.asarray(rho)
    if rho.shape != op.shape[::-1]:
        raise ValueError(f"dimension mismatch: op {op.shape} vs rho {rho.shape}")
    r, c = np.nonzero(op)
    return complex(np.sum(op[r, c] * rho[c, r]))
