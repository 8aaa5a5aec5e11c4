"""Master-equation assembly, steady states, propagation and two-time correlators.

The density matrix of atoms plus sensor detectors evolves under a Lindblad
generator built from three pieces: the driven-pair Hamiltonian with coherent
excitation exchange, collective decay channels obtained by diagonalising the
2x2 damping matrix (symmetric and antisymmetric modes with rates
``1 +- gamma12``), and one decay channel per sensor.  :class:`SensorBlocks`
takes the limit of vanishing sensor coupling instead, with linear solves on
the atoms-only generator.

Vectorisation is column-stacking throughout: ``vec(rho)`` concatenates the
columns of ``rho`` (Fortran order), so ``vec(A rho B) = (B^T kron A) vec(rho)``
and the generator acts as ``d vec(rho)/dt = L vec(rho)``.  The coherent part
carries the sign convention ``i [rho, H]``.

A note on field-operator conventions used here: the far-field *emission*
operator collects the atomic lowering operators with propagation phases,
``emission = sum_j sigma_j^- exp(-i k n.r_j)``; its adjoint raises.  All
intensities are normally ordered, ``<emission^dag emission>``, and
the sensor coupling transfers excitations from atoms to sensors via
``emission . sensor_raise + h.c.``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from .dipole import EmitterPairConfig, effective_coefficients
from .operators import (
    HilbertLayout,
    SparseComplexMatrix,
    embed,
    sigma_minus,
    sigma_plus,
    number_op,
)

__all__ = [
    "SensorSpec",
    "ModelAssembly",
    "DensityMatrix",
    "SolverError",
    "emission_operator",
    "build_hamiltonian",
    "build_collapse_channels",
    "vectorize",
    "build_assembly",
    "steady_state",
    "SensorBlocks",
    "evolve",
    "Propagator",
    "two_time_correlator",
    "DENSE_PROPAGATION_LIMIT",
    "EIGENBASIS_CONDITION_LIMIT",
]

# Superoperator dimension up to which propagation uses a dense
# eigendecomposition; beyond it, the sparse matrix-exponential action.
DENSE_PROPAGATION_LIMIT = 1024

# Largest eigenvector condition number cond1(V) at which propagation keeps
# the eigenbasis.  Within 1e-9 of the single-atom Mollow exceptional point
# (rabi = 1/4) cond1(V) exceeds 5e4 and the mode expansion loses 1e-12 or
# more against the exact exponential; every shipped generator reads below 200.
EIGENBASIS_CONDITION_LIMIT = 1e4


class SolverError(RuntimeError):
    """Raised when a linear solve cannot be trusted."""


@dataclass(frozen=True)
class SensorSpec:
    """One sensor detector: resonance (laser frame), linewidth, coupling."""

    omega_s: float
    linewidth: float = 1.0
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.linewidth <= 0.0:
            raise ValueError("sensor linewidth must be positive")
        if self.epsilon < 0.0:
            raise ValueError("sensor coupling epsilon must be nonnegative")
        if self.epsilon > 1e-2:
            warnings.warn(
                f"sensor coupling epsilon = {self.epsilon} is large enough to "
                "perturb the emitter dynamics",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ModelAssembly:
    """Assembled model: the site layout and the Lindblad superoperator."""

    layout: HilbertLayout
    superoperator: SparseComplexMatrix


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace state with the steady-solver residual attached.

    ``residual`` is ``||L vec(rho)||_2`` for states produced by
    :func:`steady_state` and ``None`` for propagated snapshots.
    """

    data: np.ndarray
    residual: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dimension(self):
        return self.data.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.data - self.data.conj().T)))

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.data + self.data.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])


def _vec(mat):
    return np.asarray(mat, dtype=np.complex128).flatten(order="F")


def _unvec(v):
    n = int(round(math.isqrt(v.size)))
    return v.reshape((n, n), order="F")


def emission_operator(config: EmitterPairConfig, layout: HilbertLayout) -> np.ndarray:
    """Far-field emission operator along the detection direction, dense.

    Sum of atomic lowering operators weighted by ``exp(-i k n.r_j)``; photon
    absorption at the detector.  Its adjoint is the corresponding raising
    combination; the normally ordered intensity is
    ``expectation(E_em.conj().T @ E_em, rho)``.
    """
    return sum(
        cmath.exp(-1j * phi) * embed(sigma_minus(), site, layout)
        for site, phi in zip(layout.atom_sites, config.detection_phases())
    )


def build_hamiltonian(config: EmitterPairConfig, sensors) -> np.ndarray:
    """Laser-frame Hamiltonian of atoms plus sensors (decay-rate units), dense.

    Terms: resonant drive with per-atom plane-wave phases, coherent
    excitation exchange ``delta12`` between the atoms, sensor
    detunings ``omega_s``, and the weak sensor-field couplings.
    """
    sensors = list(sensors)
    layout = HilbertLayout.for_system(config.atom_count, len(sensors))
    h = np.zeros((layout.dimension,) * 2, dtype=np.complex128)

    half_rabi = 0.5 * config.rabi
    for site, phi in zip(layout.atom_sites, config.laser_phases()):
        lower = embed(sigma_minus(), site, layout)
        h = h + half_rabi * (cmath.exp(-1j * phi) * lower) + half_rabi * (
            cmath.exp(1j * phi) * lower.conj().T
        )

    if config.atom_count == 2:
        coeffs = effective_coefficients(config)
        if coeffs.delta12 != 0.0:
            a0, a1 = layout.atom_sites
            hop = embed(sigma_plus(), a0, layout) @ embed(sigma_minus(), a1, layout)
            h = h + coeffs.delta12 * (hop + hop.conj().T)

    emission = emission_operator(config, layout)
    for idx, spec in enumerate(sensors):
        site = layout.sensor_sites[idx]
        xi_lower = embed(sigma_minus(), site, layout)
        h = h + spec.omega_s * embed(number_op(), site, layout)
        if spec.epsilon != 0.0:
            transfer = emission @ xi_lower.conj().T  # atom decays, sensor excites
            h = h + spec.epsilon * (transfer + transfer.conj().T)
    return h


def build_collapse_channels(config: EmitterPairConfig, sensors):
    """Decay channels as ``(rate, jump_operator)`` pairs, jumps dense.

    The atomic damping matrix ``[[1, g12], [g12, 1]]`` (units of the
    single-emitter rate) is diagonalised into the symmetric/antisymmetric
    collective channels with manifestly nonnegative rates ``1 +- g12``; this
    generates the same dissipator as the raw cross-damping double sum.  Each
    sensor decays independently at its own linewidth.
    """
    sensors = list(sensors)
    layout = HilbertLayout.for_system(config.atom_count, len(sensors))
    channels = []
    if config.atom_count == 1:
        channels.append((1.0, embed(sigma_minus(), 0, layout)))
    else:
        coeffs = effective_coefficients(config)
        if abs(coeffs.gamma12) > 1.0:
            raise ValueError(
                f"cross-damping gamma12 = {coeffs.gamma12} gives a negative "
                "collective decay rate; unphysical"
            )
        a0, a1 = layout.atom_sites
        s0 = embed(sigma_minus(), a0, layout)
        s1 = embed(sigma_minus(), a1, layout)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        sym = inv_sqrt2 * (s0 + s1)
        anti = inv_sqrt2 * (s0 - s1)
        channels.append((1.0 + coeffs.gamma12, sym))
        channels.append((1.0 - coeffs.gamma12, anti))
    for idx, spec in enumerate(sensors):
        site = layout.sensor_sites[idx]
        channels.append((spec.linewidth, embed(sigma_minus(), site, layout)))
    return channels


def vectorize(hamiltonian: np.ndarray, channels) -> SparseComplexMatrix:
    """Sparse column-stacking superoperator for ``i [rho, H]`` plus the
    dissipators, from the dense Hamiltonian and jump operators."""
    dim = hamiltonian.shape[0]
    ident = sp.identity(dim, dtype=np.complex128, format="csr")
    h = sp.csr_matrix(hamiltonian)
    gen = 1j * (sp.kron(h.T, ident, format="csr") - sp.kron(ident, h, format="csr"))
    for rate, jump in channels:
        if rate == 0.0:
            continue
        j = sp.csr_matrix(jump)
        jdj = (j.conjugate().transpose() @ j).tocsr()
        gen = gen + rate * (
            sp.kron(j.conjugate(), j, format="csr")
            - 0.5 * sp.kron(ident, jdj, format="csr")
            - 0.5 * sp.kron(jdj.T, ident, format="csr")
        )
    return SparseComplexMatrix(gen.tocsr())


@lru_cache(maxsize=1)
def _detuning_free_generator(config: EmitterPairConfig, sensor_rates) -> SparseComplexMatrix:
    """Superoperator with every sensor at zero frequency, one per sweep.

    ``sensor_rates`` holds each sensor's ``(linewidth, epsilon)``.  The
    sensors were validated (and warned about) when they were made, so
    rebuilding them here stays silent.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sensors = [SensorSpec(0.0, linewidth, epsilon) for linewidth, epsilon in sensor_rates]
    return vectorize(
        build_hamiltonian(config, sensors), build_collapse_channels(config, sensors)
    )


def build_assembly(config: EmitterPairConfig, sensors=()) -> ModelAssembly:
    """Assemble the layout and the superoperator of atoms plus ``sensors``.

    The sensor frequencies enter only through ``omega_s * n_s``, which is
    diagonal in the product basis, and every jump operator is real, so they
    touch only the imaginary part of the superoperator's diagonal: entry
    ``j * dim + i`` gains ``1j * (h[j] - h[i])`` with
    ``h = sum_s omega_s * diag(n_s)``.  Everything else comes from the one
    cached detuning-free generator (keyed by the frozen emitter and each
    sensor's linewidth and coupling), so a sweep over frequencies builds it
    once.  Summing ``h`` in sensor order, as :func:`build_hamiltonian` does,
    reproduces the full build entry for entry.
    """
    sensors = tuple(sensors)
    layout = HilbertLayout.for_system(config.atom_count, len(sensors))
    base = _detuning_free_generator(
        config, tuple((s.linewidth, s.epsilon) for s in sensors)
    )
    if not sensors:
        return ModelAssembly(layout=layout, superoperator=base)
    h = np.zeros(layout.dimension)
    for site, spec in zip(layout.sensor_sites, sensors):
        h = h + spec.omega_s * embed(number_op(), site, layout).diagonal().real
    shift = sp.diags(1j * np.subtract.outer(h, h).ravel(), format="csr")
    return ModelAssembly(layout=layout, superoperator=SparseComplexMatrix(base.csr + shift))


def _trace_constrained_system(gen: sp.csr_matrix):
    """Replace the first row of the generator by the trace constraint.

    The constrained matrix is spliced from the CSR arrays of ``gen``: the
    weighted trace row (ones at the positions of ``rho_ii`` in ``vec(rho)``,
    times the mean diagonal magnitude) in front of rows ``1 ... n - 1``.
    Returns the matrix in CSC form and the right-hand side.
    """
    n = gen.shape[0]
    dim = math.isqrt(n)
    weight = float(np.mean(np.abs(gen.diagonal())))
    if weight == 0.0:
        weight = 1.0
    start = gen.indptr[1]
    indptr = np.empty(n + 1, dtype=gen.indptr.dtype)
    indptr[0] = 0
    indptr[1:] = gen.indptr[1:] - start + dim
    indices = np.concatenate(
        (np.arange(dim, dtype=gen.indices.dtype) * (dim + 1), gen.indices[start:])
    )
    data = np.concatenate((np.full(dim, weight, dtype=np.complex128), gen.data[start:]))
    rhs = np.zeros(n, dtype=np.complex128)
    rhs[0] = weight
    return sp.csr_matrix((data, indices, indptr), shape=(n, n)).tocsc(), rhs


def _condition_estimate(gen_csc, lu):
    try:
        norm_a = spla.onenormest(gen_csc)
        inv_op = spla.LinearOperator(
            gen_csc.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="H")
        )
        norm_ainv = spla.onenormest(inv_op)
        return float(norm_a * norm_ainv)
    except Exception:  # estimation is best-effort diagnostics only
        return float("nan")


def steady_state(superoperator: SparseComplexMatrix, tol: float = 1e-8) -> DensityMatrix:
    """Unique steady state by trace-constrained sparse LU solve.

    One row of the generator is replaced by the (weighted) trace condition and
    the system is solved directly, followed by two iterative-refinement steps.
    The reported residual is ``||L vec(rho)||_2`` against the unmodified
    generator.  Raises :class:`SolverError` with a condition estimate if the
    residual cannot be pushed below ``tol``.
    """
    gen = superoperator.csr
    if gen.shape[0] != gen.shape[1]:
        raise ValueError("superoperator must be square")
    mod, rhs = _trace_constrained_system(gen)
    try:
        lu = spla.splu(mod)
    except RuntimeError as exc:
        raise SolverError(f"steady-state factorization failed: {exc}") from exc
    x = lu.solve(rhs)
    for _ in range(2):
        defect = rhs - mod @ x
        if np.max(np.abs(defect)) == 0.0:
            break
        x = x + lu.solve(defect)
    rho = _unvec(x)
    rho = 0.5 * (rho + rho.conj().T)
    residual = float(np.linalg.norm(gen @ _vec(rho)))
    if not np.isfinite(residual) or residual > tol:
        cond = _condition_estimate(mod, lu)
        raise SolverError(
            f"steady-state residual {residual:.3e} exceeds {tol:.1e} "
            f"(condition estimate {cond:.3e})"
        )
    return DensityMatrix(data=rho, residual=residual)


# relative residual bound on every leading-order sensor block solve
_BLOCK_RESIDUAL_TOL = 1e-10


class SensorBlocks:
    """Steady-state sensor moments at leading order in the sensor coupling.

    Label the number states of the sensors by bitmasks (bit ``s`` set when
    sensor ``s`` is excited).  The atomic block ``rho_ab = <a|rho|b>`` of the
    full steady state is of order ``epsilon**(|a| + |b|)``, and at leading
    order (``epsilon = 1``; it cancels from every normalised output)
    ``rho_00`` is the atomic steady state and every other block solves

        (z_ab - L_A) rho_ab = -i sum_{s in a} E rho_{a-s,b}
                              + i sum_{s in b} rho_{a,b-s} E^dag

    on the 16-dim atomic generator ``L_A``, with ``E`` the emission operator
    and ``z_ab = i (omega.a - omega.b) + (linewidth.a + linewidth.b) / 2``
    (del Valle et al., PRL 109, 183601 (2012); Holdaway, Notararigo and
    Olaya-Castro, PRA 98, 063828 (2018)).  Each solve is regular, since
    ``Re z > 0`` and the spectrum of ``L_A`` has ``Re <= 0``.  Blocks are
    solved on demand and memoised, with ``rho_ba = rho_ab^dag``; each must
    leave a relative residual ``||(z - L_A) x - s|| / ||s||`` of at most
    ``_BLOCK_RESIDUAL_TOL``, or :class:`SolverError` is raised.  The sensors'
    ``epsilon`` is not used; the finite-coupling model of
    :func:`build_assembly` with the same sensors is the oracle.
    """

    def __init__(self, config: EmitterPairConfig, sensors):
        assembly = build_assembly(config, ())
        self._generator = assembly.superoperator.to_dense()
        self._emission = emission_operator(config, assembly.layout)
        self._sensors = tuple(sensors)
        self._blocks = {(0, 0): steady_state(assembly.superoperator).data}

    def moment(self, a: int, b: int) -> complex:
        """``Tr rho_ab``: the leading-order moment ``<X_b^dag X_a>``, where
        ``X_a`` is the product of the lowering operators of the sensors in
        ``a``.  So ``moment(m, m)`` is the joint population of the sensors in
        ``m``."""
        return complex(np.trace(self.block(a, b)))

    def block(self, a: int, b: int) -> np.ndarray:
        """The atomic block ``rho_ab`` (read-only, shared)."""
        if a < b:
            return self.block(b, a).conj().T
        found = self._blocks.get((a, b))
        if found is None:
            found = self._blocks[(a, b)] = self._solve(a, b)
        return found

    def _solve(self, a, b):
        emission = self._emission
        source = np.zeros_like(emission)
        z = 0.0
        for s, spec in enumerate(self._sensors):
            bit = 1 << s
            if a & bit:
                source -= 1j * (emission @ self.block(a ^ bit, b))
                z += 1j * spec.omega_s + 0.5 * spec.linewidth
            if b & bit:
                source += 1j * (self.block(a, b ^ bit) @ emission.conj().T)
                z += -1j * spec.omega_s + 0.5 * spec.linewidth
        rhs = _vec(source)
        shifted = z * np.eye(rhs.size) - self._generator
        x = np.linalg.solve(shifted, rhs)
        residual = float(np.linalg.norm(shifted @ x - rhs))
        scale = float(np.linalg.norm(rhs))
        if not residual <= _BLOCK_RESIDUAL_TOL * scale:
            raise SolverError(
                f"sensor block ({a}, {b}) residual {residual:.3e} exceeds "
                f"{_BLOCK_RESIDUAL_TOL:.1e} of the source norm {scale:.3e}"
            )
        block = _unvec(x)
        block.setflags(write=False)
        return block


class Propagator:
    """Applies ``exp(L tau)`` to vectorised operators.

    Up to ``DENSE_PROPAGATION_LIMIT`` the generator is diagonalised once,
    ``L = V diag(w) V^-1``, and each delay is a mode expansion.  Its error
    grows with the condition number of ``V``, which diverges where
    eigenvectors coalesce (an exceptional point), so the eigenbasis is kept
    only while the LAPACK estimate of ``cond1(V)`` from its LU factors stays
    at most ``EIGENBASIS_CONDITION_LIMIT``.  A larger generator, or a worse
    conditioned one, steps through the sorted delays, each by one sparse
    matrix-exponential action from the last (Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)), accurate to rounding.  Zero delay returns the
    input exactly on both routes.
    """

    def __init__(self, superoperator: SparseComplexMatrix):
        self._gen = superoperator.csr
        self._dense = self._gen.shape[0] <= DENSE_PROPAGATION_LIMIT
        if self._dense:
            w, v = np.linalg.eig(self._gen.toarray())
            lu_piv = lu_factor(v)
            rcond, _ = zgecon(lu_piv[0], np.max(np.sum(np.abs(v), axis=0)), norm="1")
            if rcond >= 1.0 / EIGENBASIS_CONDITION_LIMIT:  # False for NaN too
                self._w, self._v, self._lu_piv = w, v, lu_piv
            else:
                self._dense = False

    def propagate_vec(self, vec0, taus):
        """Return ``exp(L tau) vec0`` for each nonnegative tau, one row per tau."""
        taus = np.asarray(taus, dtype=float)
        if np.any(taus < 0.0):
            raise ValueError("tau grid must be nonnegative")
        vec0 = np.asarray(vec0, dtype=np.complex128)
        if self._dense:
            coeff = lu_solve(self._lu_piv, vec0)
            phases = np.exp(np.outer(self._w, taus))
            out = (self._v @ (phases * coeff[:, None])).T
        else:
            # step through the sorted delays; an equal delay reuses its row
            out = np.empty((taus.size, vec0.size), dtype=np.complex128)
            vec, prev = vec0, 0.0
            for i in np.argsort(taus, kind="stable"):
                if taus[i] != prev:
                    vec = spla.expm_multiply(self._gen * (taus[i] - prev), vec)
                    prev = taus[i]
                out[i] = vec
        out[taus == 0.0] = vec0  # exact at zero delay
        return out

    def correlate(self, seed, op, taus):
        """``Tr[op exp(L tau)(seed)]`` for each tau; ``seed`` and ``op`` dense."""
        mats = self.propagate_vec(_vec(seed), taus)
        # Tr[B X] = vec_C(B) . vec_F(X), one product for every delay
        return mats @ np.ravel(op)


def evolve(superoperator: SparseComplexMatrix, rho0: DensityMatrix, tau_grid):
    """Propagate a state to each delay of a nonnegative tau grid."""
    prop = Propagator(superoperator)
    mats = prop.propagate_vec(_vec(rho0.data), np.asarray(tau_grid, dtype=float))
    return [DensityMatrix(data=_unvec(m), residual=None) for m in mats]


def two_time_correlator(
    superoperator: SparseComplexMatrix,
    left_ops,
    right_ops,
    mid_op: np.ndarray,
    tau_grid,
    rho_ss: DensityMatrix | None = None,
):
    """Steady-state correlator ``<A(t) B(t+tau) C(t)>`` for ``tau >= 0``.

    ``A`` is the ordered product of the dense ``left_ops``, ``C`` of
    ``right_ops`` and ``B = mid_op``; the quantum regression theorem gives
    ``Tr[B exp(L tau)(C rho_ss A)]`` (:meth:`Propagator.correlate`).  The
    steady state is solved on demand when not supplied.
    """
    if rho_ss is None:
        rho_ss = steady_state(superoperator)
    ident = np.eye(rho_ss.dimension)
    a_op = reduce(np.matmul, left_ops, ident)
    c_op = reduce(np.matmul, right_ops, ident)
    seed = c_op @ rho_ss.data @ a_op
    return Propagator(superoperator).correlate(seed, mid_op, tau_grid).tolist()
