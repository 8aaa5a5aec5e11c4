"""Master-equation assembly, steady states, propagation and two-time correlators.

The density matrix of atoms plus sensor detectors evolves under a Lindblad
generator built from three pieces: the driven-pair Hamiltonian with coherent
excitation exchange, collective decay channels obtained by diagonalising the
2x2 damping matrix (symmetric and antisymmetric modes with rates
``1 +- gamma12``), and one decay channel per sensor.  :func:`atomic_model`
caches the atoms-only model of one emitter, on which :class:`SensorBlocks`
takes the limit of vanishing sensor coupling with linear solves instead.
:class:`Propagator` applies ``exp(L tau)`` by exact matrix exponentials, one
per distinct step between sorted delays.

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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm, schur as complex_schur

from .dipole import EmitterPairConfig, effective_coefficients
from .operators import (
    HilbertLayout,
    SparseComplexMatrix,
    _read_only,
    embed,
    expectation,
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
    "AtomicModel",
    "atomic_model",
    "SensorBlocks",
    "Propagator",
    "two_time_correlator",
    "DENSE_PROPAGATION_LIMIT",
]

# Superoperator dimension up to which a propagation step is a dense matrix
# exponential; beyond it, the sparse matrix-exponential action.
DENSE_PROPAGATION_LIMIT = 1024


class SolverError(RuntimeError):
    """Raised when a linear solve cannot be trusted."""


@dataclass(frozen=True)
class SensorSpec:
    """One sensor detector: resonance (laser frame), linewidth, coupling."""

    omega_s: float
    linewidth: float = 1.0
    epsilon: float = 1e-4

    def __post_init__(self):
        if not all(map(math.isfinite, (self.omega_s, self.linewidth, self.epsilon))):
            raise ValueError("sensor frequency, linewidth and coupling must be finite")
        if self.linewidth <= 0.0:
            raise ValueError("sensor linewidth must be positive")
        if self.epsilon < 0.0:
            raise ValueError("sensor coupling epsilon must be nonnegative")


@dataclass(frozen=True)
class ModelAssembly:
    """Assembled model: the site layout, the Lindblad superoperator ``L``, a
    real sparse isometry ``V`` onto the sector that holds its steady state
    (the identity unless :func:`build_assembly` finds the atoms exchangeable)
    and ``reduced = V^T L V`` in CSR form.
    """

    layout: HilbertLayout
    superoperator: SparseComplexMatrix
    isometry: sp.csr_matrix = field(compare=False)  # sparse: left out of == and hash
    reduced: sp.csr_matrix = field(compare=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace state with the steady-solver residual attached.

    ``residual`` is ``||L vec(rho)||_2`` for states produced by
    :func:`steady_state` and ``None`` for propagated snapshots.
    """

    data: np.ndarray
    residual: float | None = None

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128)  # a copy: the caller's stays writable
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

    Terms: resonant drive with per-atom plane-wave phases, coherent excitation
    exchange ``delta12`` between the atoms, sensor detunings ``omega_s``, and
    the weak sensor-field couplings, with one warning if any exceeds 1e-2.
    """
    sensors = list(sensors)
    strongest = max((spec.epsilon for spec in sensors), default=0.0)
    if strongest > 1e-2:
        warnings.warn(
            f"sensor coupling epsilon = {strongest} is large enough to "
            "perturb the emitter dynamics",
            stacklevel=2,
        )
    layout = HilbertLayout(config.atom_count, len(sensors))
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
    layout = HilbertLayout(config.atom_count, len(sensors))
    channels = []
    if config.atom_count == 1:
        channels.append((1.0, embed(sigma_minus(), 0, layout)))
    else:
        coeffs = effective_coefficients(config)
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


def _exchange_symmetric(config: EmitterPairConfig) -> bool:
    """Whether swapping the two atoms commutes with the whole generator.

    It does when laser and detector see both atoms alike, with equal drive
    phases and equal detection phases: the drive, the exchange coupling and
    the emission operator are then swap-even, the symmetric collapse channel
    too, and the antisymmetric one only changes sign.
    """
    return (
        config.atom_count == 2
        and len(set(config.laser_phases())) == 1
        and len(set(config.detection_phases())) == 1
    )


def _exchange_isometry(layout: HilbertLayout):
    """``V`` onto the ``vec(rho)`` that the atom swap ``rho -> P rho P``
    leaves unchanged, and each column's smallest basis index.

    The swap permutes the basis of ``vec(rho)``; each fixed basis vector is
    one column, each swapped pair ``k, k'`` the column ``(e_k + e_k') / sqrt2``,
    in the order of the smaller index, so column 0 is ``e_0``.
    """
    dim = layout.dimension
    state = np.arange(dim)
    low = layout.site_count - 2  # bit of atom 1; atom 0 is the next one up
    differ = ((state >> low) ^ (state >> (low + 1))) & 1
    swapped = state ^ (differ * (3 << low))
    k = np.arange(dim * dim)
    image = swapped[k // dim] * dim + swapped[k % dim]
    reps = np.flatnonzero(k <= image)
    partners = image[reps]
    pairs = np.flatnonzero(partners != reps)
    rows = np.concatenate((reps, partners[pairs]))
    cols = np.concatenate((np.arange(reps.size), pairs))
    vals = np.ones(rows.size)
    vals[pairs] = vals[reps.size :] = 1.0 / math.sqrt(2.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(k.size, reps.size)), reps


# ||L V - V (V^T L V)||_F relative to ||L||_F that certifies the reduction
_EXCHANGE_DEFECT_TOL = 1e-13


@lru_cache(maxsize=1)
def _detuning_free_generator(config: EmitterPairConfig, sensor_rates):
    """Superoperator with every sensor at zero frequency, one per sweep.

    ``sensor_rates`` holds each sensor's ``(linewidth, epsilon)``.  Returns
    the generator ``L``, the isometry ``V`` of :class:`ModelAssembly`, each
    column's smallest basis index and ``V^T L V``.  For an exchange-symmetric
    pair the reduction is checked once here: ``L V = V (V^T L V)`` must hold
    to round-off, or :class:`SolverError` is raised.
    """
    sensors = [SensorSpec(0.0, linewidth, epsilon) for linewidth, epsilon in sensor_rates]
    gen = vectorize(build_hamiltonian(config, sensors), build_collapse_channels(config, sensors))
    n = gen.csr.shape[0]
    if not _exchange_symmetric(config):
        return gen, sp.identity(n, format="csr"), np.arange(n), gen.csr
    isometry, reps = _exchange_isometry(HilbertLayout(config.atom_count, len(sensors)))
    reduced = (isometry.T @ gen.csr @ isometry).tocsr()
    defect = spla.norm(gen.csr @ isometry - isometry @ reduced)
    if not defect <= _EXCHANGE_DEFECT_TOL * spla.norm(gen.csr):
        raise SolverError(
            f"atom exchange leaves a generator defect {defect:.3e}; the "
            "exchange-even sector is not invariant"
        )
    return gen, isometry, reps, reduced


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

    A pair with two atoms, equal laser phases and equal detection phases
    (every preset's geometry) is symmetric under exchanging the atoms, and
    its steady state lies in the exchange-even sector, 160 of the 256
    dimensions of a two-sensor model.  The assembly then carries that
    sector's isometry ``V`` and ``V^T L V``, built with the generator; the
    shift is diagonal on it too, since it never depends on the atoms.
    Otherwise ``V`` is the identity.  The geometry alone decides.
    """
    sensors = tuple(sensors)
    layout = HilbertLayout(config.atom_count, len(sensors))
    base, isometry, reps, reduced = _detuning_free_generator(
        config, tuple((s.linewidth, s.epsilon) for s in sensors)
    )
    h = np.zeros(layout.dimension)
    for site, spec in zip(layout.sensor_sites, sensors):
        h = h + spec.omega_s * embed(number_op(), site, layout).diagonal().real
    shift = 1j * np.subtract.outer(h, h).ravel()
    return ModelAssembly(
        layout=layout,
        superoperator=SparseComplexMatrix(base.csr + sp.diags(shift, format="csr")),
        isometry=isometry,
        reduced=reduced + sp.diags(shift[reps], format="csr"),
    )


def _trace_constrained_system(gen: sp.csr_matrix, trace_row: np.ndarray):
    """Replace the first row of the generator by the trace constraint.

    The constrained matrix is spliced from the CSR arrays of ``gen``: the
    nonzero entries of ``trace_row`` (the covector of ``Tr rho``), times the
    mean diagonal magnitude, in front of rows ``1 ... n - 1``.  Returns the
    matrix in CSC form and the right-hand side.
    """
    n = gen.shape[0]
    weight = float(np.mean(np.abs(gen.diagonal())))
    if weight == 0.0:
        weight = 1.0
    cols = np.flatnonzero(trace_row).astype(gen.indices.dtype)
    start = gen.indptr[1]
    indptr = np.empty(n + 1, dtype=gen.indptr.dtype)
    indptr[0] = 0
    indptr[1:] = gen.indptr[1:] - start + cols.size
    indices = np.concatenate((cols, gen.indices[start:]))
    data = np.concatenate((weight * trace_row[cols].astype(np.complex128), gen.data[start:]))
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


def steady_state(model: ModelAssembly | SparseComplexMatrix) -> DensityMatrix:
    """Unique steady state by trace-constrained sparse LU solve.

    ``model`` is a :class:`ModelAssembly` or a bare superoperator ``L``,
    which is solved as one with the identity isometry.  The system solved is
    ``V^T L V x = 0`` with ``Tr(V x) = 1``: one row of ``V^T L V`` is
    replaced by the (weighted) trace covector ``V^T vec(1)``, and the system
    is factored by SuperLU and solved directly, followed by two
    iterative-refinement steps.  For an exchange-symmetric pair's assembly
    that is the 160-dim exchange-even sector of a two-sensor model (2560 of
    4096 dims with four sensors).  The solution is lifted back as
    ``vec(rho) = V x``, and the reported residual is ``||L vec(rho)||_2``
    against the full, unmodified generator.  Raises :class:`SolverError`
    with a condition estimate if the residual exceeds
    ``_STEADY_RESIDUAL_TOL``.
    """
    if isinstance(model, ModelAssembly):
        gen, isometry, reduced = model.superoperator.csr, model.isometry, model.reduced
    else:
        gen = reduced = model.csr
        isometry = sp.identity(gen.shape[0], format="csr")
    if gen.shape[0] != gen.shape[1]:
        raise ValueError("superoperator must be square")
    trace = np.eye(math.isqrt(gen.shape[0])).ravel()  # vec(1)
    mod, rhs = _trace_constrained_system(reduced, isometry.T @ trace)
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
    rho = _unvec(isometry @ x)
    rho = 0.5 * (rho + rho.conj().T)
    residual = float(np.linalg.norm(gen @ _vec(rho)))
    if not residual <= _STEADY_RESIDUAL_TOL:  # NaN fails too
        cond = _condition_estimate(mod, lu)
        raise SolverError(
            f"steady-state residual {residual:.3e} exceeds {_STEADY_RESIDUAL_TOL:.1e} "
            f"(condition estimate {cond:.3e})"
        )
    return DensityMatrix(data=rho, residual=residual)


# absolute residual bound ||L vec(rho)||_2 on every steady-state solve
_STEADY_RESIDUAL_TOL = 1e-8
# relative residual bound on every leading-order sensor block solve
_BLOCK_RESIDUAL_TOL = 1e-10


class AtomicModel:
    """The atoms-only model of one emitter; :func:`atomic_model` caches it.

    It vectorises its own generator, so it leaves the sensor models' cached
    generator (:func:`build_assembly`) in place.  ``superoperator`` is the
    atomic generator ``L`` (``generator``, dense),
    ``rho_ss`` its :func:`steady_state`, ``emission`` the emission operator
    ``E`` and ``intensity`` ``<E^dag E>``; its numpy arrays are read-only.  With
    ``x = vec(rho_ss E^dag)`` and the covector ``c`` of ``Tr[E X]``, the field
    correlation is ``<E^dag(0) E(tau)> = c . exp(L tau) x``, a sum of modes
    ``a_k exp(lambda_k tau)`` of ``L``.  Its one-sided transform
    ``int_0^inf exp(-z tau) <E^dag(0) E(tau)> dtau`` is
    ``c . (z - L)^{-1} x = inelastic(z) + plateau / z``: the ``lambda = 0``
    mode is the elastic plateau ``|<E>|^2``, and the rest is solved with the
    steady state deflated, ``(z - L + |rho_ss><1|)`` acting on the trace-free
    ``source = x - Tr(x) rho_ss``, which stays regular at ``z = 0``.
    :meth:`inelastic` back-substitutes on the complex Schur form ``schur`` of
    ``L - |rho_ss><1|`` for a whole array of ``z`` at once; a sensor block,
    with a ``z`` of its own, is one LU solve on ``generator`` instead.
    """

    def __init__(self, config: EmitterPairConfig):
        self.superoperator = vectorize(
            build_hamiltonian(config, ()), build_collapse_channels(config, ())
        )
        self.generator = _read_only(self.superoperator.to_dense())
        self.rho_ss = rho = steady_state(self.superoperator)
        self.emission = _read_only(emission_operator(config, HilbertLayout(config.atom_count)))
        raising = self.emission.conj().T
        self.intensity = float(np.real(expectation(raising @ self.emission, rho.data)))
        rho_vec = _vec(rho.data)
        trace = np.eye(rho.dimension).flatten(order="F")  # Tr X = trace . vec(X)
        x = _vec(rho.data @ raising)
        self.covector = _read_only(np.ravel(self.emission))  # Tr[E X] = c . vec(X)
        self.plateau = float(np.real((self.covector @ rho_vec) * (trace @ x)))
        self.source = _read_only(x - (trace @ x) * rho_vec)

    @cached_property
    def schur(self):  # built on first use: a Bell point never needs it
        trace = np.eye(self.rho_ss.dimension).flatten(order="F")
        deflated = self.generator - np.outer(_vec(self.rho_ss.data), trace)
        return tuple(_read_only(m) for m in complex_schur(deflated, output="complex"))

    def inelastic(self, z):
        """``c . (z - L)^{-1} x`` without the elastic pole, for an array ``z``."""
        tri, basis = self.schur
        rhs = basis.conj().T @ self.source
        z = np.asarray(z, dtype=complex)
        y = np.empty((rhs.size, z.size), dtype=complex)
        for i in range(rhs.size - 1, -1, -1):  # back substitution in (z - tri)
            y[i] = (rhs[i] + tri[i, i + 1 :] @ y[i + 1 :]) / (z - tri[i, i])
        return (self.covector @ basis) @ y


atomic_model = lru_cache(maxsize=1)(AtomicModel)


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
        self._model = atomic_model(config)
        self._sensors = tuple(sensors)
        self._blocks = {(0, 0): self._model.rho_ss.data}

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
        emission = self._model.emission
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
        shifted = z * np.eye(rhs.size) - self._model.generator
        x = np.linalg.solve(shifted, rhs)
        residual = float(np.linalg.norm(shifted @ x - rhs))
        scale = float(np.linalg.norm(rhs))
        if not residual <= _BLOCK_RESIDUAL_TOL * scale:
            raise SolverError(
                f"sensor block ({a}, {b}) residual {residual:.3e} exceeds "
                f"{_BLOCK_RESIDUAL_TOL:.1e} of the source norm {scale:.3e}"
            )
        return _read_only(_unvec(x))


class Propagator:
    """Applies ``exp(L tau)`` to vectorised operators.

    Steps through the sorted delays, each by ``exp(L delta)`` from the last.
    Up to ``DENSE_PROPAGATION_LIMIT`` a step is a dense ``expm`` (scaling and
    squaring; Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)),
    computed once per distinct step within a call, so a uniform grid costs a
    few ``expm`` and an irregular one up to one per delay.  A larger
    generator steps by the sparse matrix-exponential action (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33, 488 (2011)).  Both are exact to rounding
    at any conditioning of the eigenvectors of ``L``, an exceptional point
    included.  Zero delay returns the input exactly.
    """

    def __init__(self, superoperator: SparseComplexMatrix):
        self._gen = superoperator.csr
        self._dense = self._gen.shape[0] <= DENSE_PROPAGATION_LIMIT
        if self._dense:
            self._gen = self._gen.toarray()

    def propagate_vec(self, vec0, taus):
        """Return ``exp(L tau) vec0`` for each nonnegative tau, one row per tau."""
        taus = np.asarray(taus, dtype=float)
        if not np.all(np.isfinite(taus)):
            raise ValueError("tau grid must be finite")
        if np.any(taus < 0.0):
            raise ValueError("tau grid must be nonnegative")
        vec0 = np.asarray(vec0, dtype=np.complex128)
        out = np.empty((taus.size, vec0.size), dtype=np.complex128)
        steps = {}  # delta -> dense exp(L delta), for this call only
        vec, prev = vec0, 0.0
        for i in np.argsort(taus, kind="stable"):  # an equal delay reuses its row
            if taus[i] != prev:
                delta = taus[i] - prev
                if self._dense:
                    step = steps.get(delta)
                    if step is None:
                        step = steps[delta] = expm(self._gen * delta)
                    vec = step @ vec
                else:
                    vec = spla.expm_multiply(self._gen * delta, vec)
                prev = taus[i]
            out[i] = vec
        return out


def two_time_correlator(
    superoperator: SparseComplexMatrix, seed: np.ndarray, readout: np.ndarray, tau_grid
):
    """``Tr[readout exp(L tau)(seed)]`` on a nonnegative tau grid.

    With ``seed = C rho_ss A`` this is the steady-state correlator
    ``<A(t) B(t+tau) C(t)>`` of the quantum regression theorem, for
    ``readout = B``; ``seed`` and ``readout`` are dense.
    """
    mats = Propagator(superoperator).propagate_vec(_vec(seed), tau_grid)
    # Tr[B X] = vec_C(B) . vec_F(X), one product for every delay
    return (mats @ np.ravel(readout)).tolist()
