"""Master-equation assembly, vectorization, steady states and correlators."""

import math
import warnings
from functools import cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import emitpair as ep
from emitpair import liouville
from emitpair.liouville import (
    _detuning_free_generator,
    _trace_constrained_system,
    DensityMatrix,
    Propagator,
    SensorBlocks,
    SensorSpec,
    SolverError,
    atomic_model,
    build_assembly,
    build_collapse_channels,
    build_hamiltonian,
    emission_operator,
    steady_state,
    two_time_correlator,
    vectorize,
)
from emitpair.operators import HilbertLayout, embed, expectation, number_op, sigma_minus


def vec_f(mat):
    return np.asarray(mat).flatten(order="F")


def unvec_f(v):
    n = int(round(math.isqrt(v.size)))
    return v.reshape((n, n), order="F")


def propagated_states(superoperator, rho0, taus):
    """``exp(L tau) rho0`` for each delay, as density matrices."""
    vecs = Propagator(superoperator).propagate_vec(vec_f(rho0), taus)
    return [DensityMatrix(data=unvec_f(v)) for v in vecs]


def dense_master_action(h, channels, rho):
    """Direct dense evaluation of i[rho, H] + dissipators (test oracle)."""
    out = 1j * (rho @ h - h @ rho)
    for rate, jump in channels:
        jd = jump.conj().T
        out = out + rate * (jump @ rho @ jd - 0.5 * (jd @ jump @ rho + rho @ jd @ jump))
    return out


# ---------------------------------------------------------------------------
# Hamiltonian assembly

def test_exchange_only_spectrum():
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=0.0)
    coeffs = ep.dipole_coefficients(cfg)
    h = build_hamiltonian(cfg, ())
    vals = np.sort(np.linalg.eigvalsh(h))
    expected = np.sort([0.0, 0.0, coeffs.delta12, -coeffs.delta12])
    np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_decoupled_sensor_stays_empty():
    cfg = ep.EmitterPairConfig(atom_count=1, rabi=2.0)
    sensor = SensorSpec(omega_s=3.0, linewidth=1.0, epsilon=0.0)
    assembly = build_assembly(cfg, (sensor,))
    rho = steady_state(assembly)
    site = assembly.layout.sensor_sites[0]
    pop = expectation(embed(number_op(), site, assembly.layout), rho.data)
    assert abs(pop) < 1e-14


def test_hamiltonian_hermitian_for_random_configs(rng):
    for _ in range(6):
        cfg = ep.EmitterPairConfig(
            kr12=float(rng.uniform(0.01, 2.0)),
            cos_theta12=float(rng.uniform(-1, 1)),
            rabi=float(rng.uniform(0, 50)),
            laser_direction=tuple(rng.normal(size=3)),
            detection_direction=tuple(rng.normal(size=3)),
        )
        sensors = tuple(
            SensorSpec(float(rng.uniform(-40, 40)), float(rng.uniform(0.1, 5)), 1e-4)
            for _ in range(int(rng.integers(0, 3)))
        )
        h = build_hamiltonian(cfg, sensors)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


def test_laser_phases_enter_drive_term():
    # laser along the interatomic axis: opposite phases on the two emitters
    cfg = ep.EmitterPairConfig(kr12=1.0, rabi=2.0, laser_direction=(1.0, 0.0, 0.0))
    h = build_hamiltonian(cfg, ())
    layout = HilbertLayout(2)
    lower0 = embed(sigma_minus(), 0, layout)
    phase = 0.5  # k . r for the first emitter is -kr/2
    drive0 = 1.0 * (np.exp(1j * phase) * lower0 + np.exp(-1j * phase) * lower0.conj().T)
    # the matrix element <gg|H|eg> must carry the first emitter's phase
    assert h[0, 2] == pytest.approx(drive0[0, 2])


# ---------------------------------------------------------------------------
# Collapse channels

def test_independent_channels_at_zero_coupling():
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=1.0, force_independent=True)
    channels = build_collapse_channels(cfg, ())
    rates = sorted(rate for rate, _ in channels)
    assert rates == pytest.approx([1.0, 1.0])


def test_collective_rates_match_damping_matrix_eigenvalues(pair_config):
    coeffs = ep.dipole_coefficients(pair_config)
    channels = build_collapse_channels(pair_config, ())
    rates = sorted(rate for rate, _ in channels)
    oracle = sorted(np.linalg.eigvalsh([[1.0, coeffs.gamma12], [coeffs.gamma12, 1.0]]))
    assert rates == pytest.approx(oracle, abs=1e-14)
    # antisymmetric channel of the close pair is almost dark
    assert rates[0] == pytest.approx(1.0 - coeffs.gamma12)
    assert rates[0] == pytest.approx(4.2e-4, rel=0.02)


def test_near_dicke_limit_rates():
    cfg = ep.EmitterPairConfig(kr12=1e-3, rabi=1.0)
    rates = sorted(rate for rate, _ in build_collapse_channels(cfg, ()))
    assert rates[1] == pytest.approx(2.0, abs=1e-6)
    assert rates[0] == pytest.approx(0.0, abs=1e-6)


def test_collective_channels_equal_raw_cross_damping_dissipator(pair_config):
    # same Lindbladian as the site-basis double sum with the cross terms
    coeffs = ep.dipole_coefficients(pair_config)
    layout = HilbertLayout(2)
    s = [embed(sigma_minus(), i, layout) for i in range(2)]
    g = [[1.0, coeffs.gamma12], [coeffs.gamma12, 1.0]]
    rng = np.random.default_rng(7)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = rho + rho.conj().T
    raw = np.zeros_like(rho)
    for i in range(2):
        for j in range(2):
            raw += 0.5 * g[i][j] * (
                2.0 * s[j] @ rho @ s[i].conj().T
                - s[i].conj().T @ s[j] @ rho
                - rho @ s[i].conj().T @ s[j]
            )
    channels = build_collapse_channels(pair_config, ())
    collective = np.zeros_like(rho)
    for rate, j in channels:
        collective += rate * (
            j @ rho @ j.conj().T
            - 0.5 * (j.conj().T @ j @ rho + rho @ j.conj().T @ j)
        )
    np.testing.assert_allclose(collective, raw, atol=1e-12)


def test_sensor_channels_appended(pair_config):
    sensors = (SensorSpec(1.0, 0.5, 1e-4), SensorSpec(-1.0, 2.0, 1e-4))
    channels = build_collapse_channels(pair_config, sensors)
    assert len(channels) == 4
    assert channels[2][0] == 0.5
    assert channels[3][0] == 2.0


def test_unphysical_cross_damping_rejected():
    with pytest.raises(ValueError):
        ep.DipoleCoefficients(delta12=0.0, gamma12=1.5)


# ---------------------------------------------------------------------------
# Vectorization

def test_vectorized_action_matches_dense_master_equation(rng):
    cfg = ep.EmitterPairConfig(kr12=0.3, rabi=4.0)
    sensors = (SensorSpec(2.0, 1.5, 1e-3),)
    h = build_hamiltonian(cfg, sensors)
    channels = build_collapse_channels(cfg, sensors)
    gen = vectorize(h, channels)
    dim = h.shape[0]
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    direct = dense_master_action(h, channels, rho)
    via_superop = unvec_f(gen.csr @ vec_f(rho))
    np.testing.assert_allclose(via_superop, direct, atol=1e-12)


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_assembly_matches_full_vectorization(cfg, sensors):
    full = vectorize(build_hamiltonian(cfg, sensors), build_collapse_channels(cfg, sensors))
    assert_same_csr(build_assembly(cfg, sensors).superoperator.csr, full.csr)


def test_build_assembly_matches_full_vectorization():
    pair = ep.EmitterPairConfig(kr12=0.3, rabi=4.0)
    for sensors in (
        (),
        (SensorSpec(2.5, 1.0),),
        (SensorSpec(-7.0, 0.1), SensorSpec(3.0, 0.1)),
        (SensorSpec(4.0, 1.0), SensorSpec(4.0, 1.0)),  # equal frequencies
        (SensorSpec(1.0, 1.0, 0.0), SensorSpec(-1.0, 1.0, 0.0)),  # epsilon = 0
        tuple(SensorSpec(w, 0.1) for w in (-60.0, -25.0, 25.0, 60.0)),
    ):
        assert_assembly_matches_full_vectorization(pair, sensors)
    # two emitters that differ only in the drive direction, called in turn:
    # the one cached generator is missed, hit and replaced
    along = ep.EmitterPairConfig(kr12=0.3, rabi=4.0, laser_direction=(1.0, 0.0, 0.0))
    sensors = (SensorSpec(5.0, 1.0), SensorSpec(-5.0, 1.0))
    _detuning_free_generator.cache_clear()
    for cfg in (pair, pair, along, pair, along, along):
        assert_assembly_matches_full_vectorization(cfg, sensors)
    info = _detuning_free_generator.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (2, 4, 1, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-500.0, 500.0, allow_nan=False), min_size=1, max_size=2))
def test_build_assembly_matches_full_vectorization_at_drawn_frequencies(omegas):
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=30.0)
    assert_assembly_matches_full_vectorization(cfg, tuple(SensorSpec(w) for w in omegas))


def test_build_assembly_does_not_repeat_the_coupling_warning():
    # a large coupling warns where it enters the model: once per build of the
    # cached generator, not on a cache hit
    pair = ep.EmitterPairConfig()
    sensors = (SensorSpec(1.0, epsilon=0.05), SensorSpec(-1.0, epsilon=0.05))
    _detuning_free_generator.cache_clear()
    with pytest.warns(UserWarning, match="perturb") as record:
        build_assembly(pair, sensors)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_assembly(pair, (SensorSpec(7.0, epsilon=0.05), SensorSpec(3.0, epsilon=0.05)))


def test_spliced_trace_row_matches_stacked_reference():
    for cfg, sensors in (
        (ep.EmitterPairConfig(atom_count=1, rabi=2.0), (SensorSpec(1.0),)),  # 16-dim
        (ep.EmitterPairConfig(), (SensorSpec(10.0), SensorSpec(-20.0))),  # 160 of 256
        (ep.EmitterPairConfig(laser_direction=(1.0, 0.0, 1.0)),
         (SensorSpec(10.0), SensorSpec(-20.0))),  # 256-dim
    ):
        assembly = build_assembly(cfg, sensors)
        gen, isometry = assembly.reduced, assembly.isometry
        trace = isometry.T @ vec_f(np.eye(assembly.layout.dimension)).real
        weight = float(np.mean(np.abs(gen.diagonal())))
        reference = sp.vstack([weight * sp.csr_matrix(trace), gen[1:]], format="csc")
        mod, rhs = _trace_constrained_system(gen, trace)
        assert mod.format == "csc"
        assert_same_csr(mod, reference)
        assert rhs[0] == weight and not np.any(rhs[1:])


def test_exchange_isometry_spans_the_swap_even_sector():
    isometry = build_assembly(ep.EmitterPairConfig(), (SensorSpec(1.0),) * 2).isometry
    assert isometry.shape == (256, 160)
    np.testing.assert_allclose((isometry.T @ isometry).toarray(), np.eye(160), atol=1e-15)
    swap = np.zeros((16, 16))
    for a0, a1, rest in np.ndindex(2, 2, 4):
        swap[(a1 * 2 + a0) * 4 + rest, (a0 * 2 + a1) * 4 + rest] = 1.0
    liouville_swap = np.kron(swap, swap)  # vec(P rho P), P real and symmetric
    projector = (isometry @ isometry.T).toarray()
    np.testing.assert_allclose(projector, 0.5 * (np.eye(256) + liouville_swap), atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([
        ep.EmitterPairConfig(),
        ep.EmitterPairConfig(force_independent=True),
        ep.EmitterPairConfig(kr12=0.006, rabi=250.0),  # fig2c
    ]),
    st.lists(st.floats(-600.0, 600.0), min_size=2, max_size=2),
    st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
)
def test_exchange_even_solve_matches_the_full_solve(cfg, omegas, linewidths):
    # the same steady state from the 160-dim sector and from all 256 dims;
    # observed worst entry-wise difference over 150 random draws each:
    # 1.4e-13 (default pair), 1.7e-16 (independent), 9.2e-12 (fig2c, whose
    # trace-constrained system has a condition number of about 3e8)
    sensors = tuple(SensorSpec(w, lw) for w, lw in zip(omegas, linewidths))
    assembly = build_assembly(cfg, sensors)
    assert assembly.reduced.shape == (160, 160)
    reduced = steady_state(assembly)
    full = steady_state(assembly.superoperator)
    assert reduced.residual <= 1e-8
    np.testing.assert_allclose(reduced.data, full.data, rtol=0.0, atol=1e-10)


def test_steady_state_factors_the_exchange_even_sector(monkeypatch):
    # guards the reduction: a symmetric pair's two-sensor solve factors 160
    # dims, an asymmetric one (drive along the pair axis) all 256
    shapes = []
    splu = liouville.spla.splu
    monkeypatch.setattr(liouville.spla, "splu", lambda a: shapes.append(a.shape) or splu(a))
    sensors = (SensorSpec(10.0), SensorSpec(-20.0))
    for cfg in (ep.EmitterPairConfig(), ep.EmitterPairConfig(laser_direction=(1.0, 0.0, 1.0))):
        steady_state(build_assembly(cfg, sensors))
    assert shapes == [(160, 160), (256, 256)]


def test_undriven_atom_decay_spectrum():
    cfg = ep.EmitterPairConfig(atom_count=1, rabi=0.0)
    assembly = build_assembly(cfg, ())
    vals = np.linalg.eigvals(assembly.superoperator.to_dense())
    vals = np.sort_complex(vals)
    np.testing.assert_allclose(
        sorted(vals.real), [-1.0, -0.5, -0.5, 0.0], atol=1e-12
    )
    assert max(vals.real) == pytest.approx(0.0, abs=1e-12)


def test_trace_preservation_left_null_vector(pair_config):
    assembly = build_assembly(pair_config, (SensorSpec(3.0, 1.0, 1e-4),))
    dim = assembly.layout.dimension
    trace_vec = vec_f(np.eye(dim))
    assert np.max(np.abs(trace_vec @ assembly.superoperator.csr)) < 1e-12


def test_spectral_abscissa_and_kernel_dimension(pair_config):
    assembly = build_assembly(pair_config, (SensorSpec(5.0, 1.0, 1e-4),))
    vals = np.linalg.eigvals(assembly.superoperator.to_dense())
    assert np.max(vals.real) < 1e-10
    assert np.sum(np.abs(vals) < 1e-8) == 1


def test_hermiticity_preserved_under_evolution(pair_config):
    assembly = build_assembly(pair_config, ())
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[3, 3] = 0.6
    rho0[0, 0] = 0.4
    rho0[0, 3] = rho0[3, 0] = 0.2
    states = propagated_states(assembly.superoperator, rho0, np.linspace(0, 10, 11))
    for state in states:
        assert state.hermiticity_defect() < 1e-10
        assert state.trace() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Steady state

def test_undriven_atom_relaxes_to_ground():
    cfg = ep.EmitterPairConfig(atom_count=1, rabi=0.0)
    assembly = build_assembly(cfg, ())
    rho = steady_state(assembly)
    np.testing.assert_allclose(rho.data, np.diag([1.0, 0.0]), atol=1e-12)


def test_driven_atom_matches_bloch_formula():
    for rabi in (0.3, 3.0, 30.0):
        cfg = ep.EmitterPairConfig(atom_count=1, rabi=rabi)
        assembly = build_assembly(cfg, ())
        rho = steady_state(assembly)
        oracle = rabi**2 / (1.0 + 2.0 * rabi**2)
        assert rho.data[1, 1].real == pytest.approx(oracle, abs=1e-12)
        assert rho.residual < 1e-12


def test_steady_state_invariants(pair_config):
    assembly = build_assembly(pair_config, (SensorSpec(10.0, 1.0, 1e-4),))
    rho = steady_state(assembly)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    assert rho.hermiticity_defect() < 1e-10
    assert rho.min_eigenvalue() > -1e-8
    assert rho.residual < 1e-10


def test_steady_state_failure_names_residual_and_condition_estimate():
    # emitters 1e-100 wavelengths apart: the atomic solve leaves a residual ~0.85
    with pytest.raises(
        SolverError, match=r"residual 8\.\d+e-01 exceeds 1\.0e-08 \(condition estimate \d"
    ):
        atomic_model(ep.EmitterPairConfig(kr12=1e-100))


def test_density_matrix_leaves_the_callers_array_writable():
    data = np.diag([1.0, 0.0]).astype(complex)
    state = DensityMatrix(data=data)
    assert data.flags.writeable and not state.data.flags.writeable
    data[0, 0] = 0.5
    assert state.data[0, 0] == 1.0


def test_sensor_population_scales_as_epsilon_squared(pair_config):
    pops = {}
    for eps in (1e-4, 5e-5):
        assembly = build_assembly(pair_config, (SensorSpec(0.0, 1.0, eps),))
        rho = steady_state(assembly)
        site = assembly.layout.sensor_sites[0]
        pops[eps] = float(
            np.real(expectation(embed(number_op(), site, assembly.layout), rho.data))
        )
    assert pops[1e-4] > 0.0
    assert pops[1e-4] == pytest.approx(1e-8, rel=30)  # order epsilon^2
    assert pops[1e-4] / pops[5e-5] == pytest.approx(4.0, rel=1e-4)


def test_sensor_population_matches_filtered_correlation_integral(pair_config):
    # second-order/adiabatic oracle: population of a weak sensor equals the
    # field correlation filtered by its response, 2 eps^2/G Re int G1 exp((i w - G/2) tau)
    omega_s, linewidth, eps = 25.0, 1.0, 1e-4
    assembly = build_assembly(pair_config, ())
    rho = steady_state(assembly)
    emission = emission_operator(pair_config, assembly.layout)
    taus = np.linspace(0.0, 80.0, 32001)
    corr = np.asarray(
        two_time_correlator(assembly.superoperator, rho.data @ emission.conj().T, emission, taus)
    )
    kernel = np.exp((1j * omega_s - 0.5 * linewidth) * taus)
    integral = np.trapezoid(corr * kernel, taus)
    oracle = 2.0 * eps**2 / linewidth * integral.real

    with_sensor = build_assembly(pair_config, (SensorSpec(omega_s, linewidth, eps),))
    rho_s = steady_state(with_sensor.superoperator)
    site = with_sensor.layout.sensor_sites[0]
    pop = float(
        np.real(expectation(embed(number_op(), site, with_sensor.layout), rho_s.data))
    )
    assert pop == pytest.approx(oracle, rel=0.02)


# ---------------------------------------------------------------------------
# Propagation

def test_evolve_at_zero_returns_initial_state(pair_config):
    assembly = build_assembly(pair_config, ())
    rho = steady_state(assembly)
    out = propagated_states(assembly.superoperator, rho.data, [0.0])
    np.testing.assert_allclose(out[0].data, rho.data, atol=1e-14)


def test_steady_state_is_fixed_point(pair_config):
    assembly = build_assembly(pair_config, ())
    rho = steady_state(assembly)
    out = propagated_states(assembly.superoperator, rho.data, [0.0, 1.0, 5.0, 25.0])
    for state in out:
        np.testing.assert_allclose(state.data, rho.data, atol=1e-9)


def test_excited_atom_decays_exponentially():
    cfg = ep.EmitterPairConfig(atom_count=1, rabi=0.0)
    assembly = build_assembly(cfg, ())
    excited = np.diag([0.0, 1.0]).astype(complex)
    taus = np.linspace(0.0, 6.0, 13)
    states = propagated_states(assembly.superoperator, excited, taus)
    pops = [s.data[1, 1].real for s in states]
    np.testing.assert_allclose(pops, np.exp(-taus), atol=1e-10)


def test_propagation_matches_dense_expm():
    # the pair, the fig2c two-sensor model, and a single atom on and near the
    # Mollow exceptional point rabi = 1/4, where the eigenvectors coalesce:
    # stepping through the sorted delays must match the matrix exponential
    # of each delay on every one of them
    fig2c = ep.EmitterPairConfig(kr12=0.006, rabi=250.0)
    tri = ep.dressed_triplet(fig2c, ep.dipole_coefficients(fig2c))
    fig2c_sensors = (SensorSpec(tri.d13, 5.0), SensorSpec(-tri.d23, 5.0))
    taus = np.linspace(0.0, 10.0, 21)
    for cfg, sensors, tol in (
        (ep.EmitterPairConfig(kr12=0.05, rabi=30.0), (), 5e-13),
        # |L| tau reaches ~1e4 here: rounding alone is ~1e-12 (expm and
        # expm_multiply differ by 7.5e-13 on this grid)
        (fig2c, fig2c_sensors, 5e-12),
        (ep.EmitterPairConfig(atom_count=1, rabi=0.25), (), 1e-13),
        (ep.EmitterPairConfig(atom_count=1, rabi=0.25 + 1e-15), (), 1e-13),
        (ep.EmitterPairConfig(atom_count=1, rabi=0.25 + 1e-12), (), 1e-13),
        (ep.EmitterPairConfig(atom_count=1, rabi=0.25 + 1e-9), (), 1e-13),
        (ep.EmitterPairConfig(atom_count=1, rabi=0.25 + 1e-6), (), 5e-13),
    ):
        assembly = build_assembly(cfg, sensors)
        rho = steady_state(assembly)
        emission = emission_operator(cfg, assembly.layout)
        seed = vec_f(emission @ np.asarray(rho.data) @ emission.conj().T)
        prop = Propagator(assembly.superoperator)
        gen = assembly.superoperator.to_dense()
        exact = np.array([expm(gen * tau) @ seed for tau in taus])
        out = prop.propagate_vec(seed, taus)
        assert np.max(np.abs(out - exact)) < tol * np.max(np.abs(seed))


def test_propagator_rejects_negative_taus_and_keeps_grid_order():
    # the pair, and a single atom on the Mollow exceptional point
    for cfg in (ep.EmitterPairConfig(), ep.EmitterPairConfig(atom_count=1, rabi=0.25)):
        assembly = build_assembly(cfg, ())
        prop = Propagator(assembly.superoperator)
        rho = steady_state(assembly)
        emission = emission_operator(cfg, assembly.layout)
        seed = vec_f(emission @ np.asarray(rho.data) @ emission.conj().T)
        for bad in ([-1.0, 0.5], [0.0, np.nan, 1.0], [np.inf], [0.5, -np.inf]):
            with pytest.raises(ValueError):
                prop.propagate_vec(seed, bad)
        taus = np.array([2.0, 0.0, 0.5, 3.0, 1.0, 0.5])
        order = np.argsort(taus)
        unsorted = prop.propagate_vec(seed, taus)
        np.testing.assert_allclose(
            unsorted[order], prop.propagate_vec(seed, taus[order]), rtol=0, atol=1e-15
        )
        assert np.array_equal(unsorted[1], seed)  # zero delay is exact


def test_fallback_above_the_dense_limit_keeps_the_state_physical():
    # 2 atoms + 4 sensors: a 4096-dim generator, beyond DENSE_PROPAGATION_LIMIT
    sensors = [SensorSpec(omega_s=w, epsilon=1e-2) for w in (-60.0, -25.0, 25.0, 60.0)]
    assembly = build_assembly(ep.EmitterPairConfig(), sensors)
    prop = Propagator(assembly.superoperator)
    assert not prop._dense
    ground = np.zeros((64, 64), dtype=complex)
    ground[0, 0] = 1.0
    states = propagated_states(assembly.superoperator, ground, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(states[0].data, ground)
    for state in states:
        assert abs(state.trace() - 1.0) < 1e-12
        assert state.hermiticity_defect() < 1e-12
    half = prop.propagate_vec(prop.propagate_vec(vec_f(ground), [0.5])[0], [0.5])[0]
    np.testing.assert_allclose(half, vec_f(states[2].data), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Two-time correlators

def test_correlator_at_zero_delay_is_plain_expectation(pair_config):
    assembly = build_assembly(pair_config, ())
    rho = steady_state(assembly)
    emission = emission_operator(pair_config, assembly.layout)
    raising = emission.conj().T
    value = two_time_correlator(assembly.superoperator, rho.data @ raising, emission, [0.0])[0]
    direct = expectation(raising @ emission, rho.data)
    assert value == pytest.approx(direct, abs=1e-13)


def test_correlator_factorizes_at_long_delay():
    cfg = ep.EmitterPairConfig(atom_count=1, rabi=2.0)
    assembly = build_assembly(cfg, ())
    rho = steady_state(assembly)
    emission = emission_operator(cfg, assembly.layout)
    raising = emission.conj().T
    value = two_time_correlator(assembly.superoperator, rho.data @ raising, emission, [50.0])[0]
    factorized = expectation(raising, rho.data) * expectation(emission, rho.data)
    assert abs(value - factorized) < 1e-6


def test_correlator_supports_operator_products(pair_config):
    # a two-operator seed C rho A and a product readout reproduce manual
    # propagation and readout
    assembly = build_assembly(pair_config, ())
    rho = steady_state(assembly)
    emission = emission_operator(pair_config, assembly.layout)
    raising = emission.conj().T
    intensity_op = raising @ emission
    seed = emission @ np.asarray(rho.data) @ raising
    value = two_time_correlator(assembly.superoperator, seed, intensity_op, [0.4])[0]
    prop = Propagator(assembly.superoperator)
    evolved = unvec_f(prop.propagate_vec(vec_f(seed), [0.4])[0])
    manual = expectation(intensity_op, evolved)
    assert value == pytest.approx(manual, abs=1e-13)


def test_sensor_spec_validation():
    with pytest.raises(ValueError):
        SensorSpec(omega_s=0.0, linewidth=0.0)
    with pytest.raises(ValueError):
        SensorSpec(omega_s=0.0, linewidth=1.0, epsilon=-1e-4)
    for bad in (math.nan, math.inf, -math.inf):
        for fields in ((bad,), (0.0, bad), (0.0, 1.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                SensorSpec(*fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strong = SensorSpec(omega_s=0.0, linewidth=1.0, epsilon=0.5)
    with pytest.warns(UserWarning, match="perturb") as record:
        build_hamiltonian(ep.EmitterPairConfig(), [strong, strong])
    assert len(record) == 1


# ---------------------------------------------------------------------------
# Leading-order sensor blocks


def test_sensor_block_population_is_the_closed_form_sensor_spectrum(pair_config):
    # one sensor: Tr rho_{1,1} by block LU is the filtered spectrum of the
    # closed-form scan by Schur back substitution, on the pair and on a single
    # atom at the Mollow exceptional point rabi = 1/4, where eigenvectors of
    # L_A coalesce (observed worst 2.2e-14 relative over these points)
    mollow_point = ep.EmitterPairConfig(atom_count=1, rabi=0.25)
    for cfg, omegas in (
        (pair_config, [-60.8, -25.4, 0.0, 3.3, 35.4, 70.0]),
        (mollow_point, [-3.0, -0.7, -0.1, 0.0, 0.2, 1.5]),
    ):
        for linewidth in (0.1, 1.0, 4.0):
            scan = ep.spectrum_sensor_scan(cfg, omegas, linewidth, normalize=False)
            pops = [
                SensorBlocks(cfg, [SensorSpec(w, linewidth)]).moment(1, 1).real
                for w in omegas
            ]
            np.testing.assert_allclose(pops, scan.values, rtol=1e-12, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-70.0, 70.0),
    st.floats(-70.0, 70.0),
    st.floats(0.1, 5.0),
    st.booleans(),
    st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)]),
)
def test_two_sensor_blocks_match_the_sensor_engine(omega1, omega2, linewidth, same, laser):
    # <n1 n2> / (<n1><n2>) at leading order against sensor_g2, Richardson
    # extrapolated to epsilon -> 0 from 1e-3 and 2e-3, which removes the
    # epsilon^2 bias and keeps round-off small.  Observed worst: 3.4e-8 at
    # (0, 0, linewidth 0.1), below 2.5e-10 elsewhere on 300 random draws.
    # A drive along the pair axis breaks the exchange symmetry, so its
    # sensor model is solved in all 256 dims.
    if same:
        omega2 = omega1
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=30.0, laser_direction=laser)
    blocks = SensorBlocks(cfg, [SensorSpec(omega1, linewidth), SensorSpec(omega2, linewidth)])
    g2 = (blocks.moment(3, 3) / (blocks.moment(1, 1) * blocks.moment(2, 2))).real
    oracle = (
        4.0 * ep.sensor_g2(cfg, omega1, omega2, linewidth, epsilon=1e-3).g2
        - ep.sensor_g2(cfg, omega1, omega2, linewidth, epsilon=2e-3).g2
    ) / 3.0
    assert g2 == pytest.approx(oracle, rel=1e-6)


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _rounding_scale(blocks, emission, count):
    """A running-error scale for each ``blocks.moment(a, b)``.

    A block solve is well conditioned, but its source can cancel: the emission
    terms of a far-detuned sensor population nearly balance, so the block is
    much smaller than the terms that build it, and each level multiplies the
    relative round-off of its inputs by that cancellation.  The scale is
    ``||rho_ab||_F * gain(a, b)``, with ``gain(0, 0) = 1`` and
    ``gain = sum_t ||t|| (1 + gain(child_t)) / ||sum_t t||`` over the source
    terms ``t`` of the block, so round-off reads about ``u * scale``.
    """

    @cache
    def gain(a, b):
        if a == b == 0:
            return 1.0
        terms = [
            (-1j * emission @ blocks.block(a ^ bit, b), gain(a ^ bit, b))
            for bit in (1 << s for s in range(count)) if a & bit
        ] + [
            (1j * blocks.block(a, b ^ bit) @ emission.conj().T, gain(a, b ^ bit))
            for bit in (1 << s for s in range(count)) if b & bit
        ]
        source = np.linalg.norm(sum(t for t, _ in terms))
        return sum(np.linalg.norm(t) * (1.0 + g) for t, g in terms) / source

    return lambda a, b: np.linalg.norm(blocks.block(a, b)) * gain(a, b)


# a direction with a component along the pair axis, so both phases are nonzero
_direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: abs(v[0]) >= 0.1)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.1, 6.0),
    st.floats(0.5, 40.0),
    _direction,
    _direction,
    st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(0.5, 5.0)), min_size=2, max_size=4),
)
@example(1.0, 0.5, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), [(0.0, 1.0), (33.0, 1.0), (-5.0, 1.0), (-38.0, 1.0)])
def test_independent_emitters_factorise_over_sensor_subsets(kr12, rabi, laser, detection, specs):
    # physics oracle: uncoupled atoms stay in a product state, and each sensor
    # field is the sum of the two atoms' filtered fields, so every moment
    # splits over subsets, M(a, b) = sum_{S in a, T in b} m_0(S, T) m_1(a-S, b-T),
    # with m_j a single atom's moment times exp(-i (phi_j - psi_j)(|S| - |T|))
    # (detection phase phi_j, laser phase psi_j).  The error is measured
    # against the running-error scale of both sides (_rounding_scale): under
    # a weak drive, far-detuned sensor populations cancel by ~60 per level,
    # and against the block norm ||rho_ab||_F alone round-off reached 6.2e-11
    # on 1200 draws (1.6e-12 at the example below); solving the pair with its
    # sensors permuted moves M by 4.7e-12 of that norm at rabi 0.5 with three
    # sensors at 33, so this is the pair's own round-off.  Observed worst
    # against the scale: 4.2e-15 on 1200 draws.  phi_j + psi_j in place of
    # phi_j - psi_j fails by at least 4.5e-4 of the scale on each of 60
    # random geometries.
    sensors = [SensorSpec(w, lw) for w, lw in specs]
    cfg = ep.EmitterPairConfig(
        kr12=kr12, rabi=rabi, laser_direction=laser, detection_direction=detection,
        force_independent=True,
    )
    atom_cfg = ep.EmitterPairConfig(atom_count=1, rabi=rabi)
    pair = SensorBlocks(cfg, sensors)
    atom = SensorBlocks(atom_cfg, sensors)
    pair_scale = _rounding_scale(pair, atomic_model(cfg).emission, len(sensors))
    atom_scale = _rounding_scale(atom, atomic_model(atom_cfg).emission, len(sensors))
    phases = np.subtract(cfg.detection_phases(), cfg.laser_phases())

    def single(j, a, b):
        return atom.moment(a, b) * np.exp(-1j * phases[j] * (a.bit_count() - b.bit_count()))

    def size(a, b):
        return np.linalg.norm(atom.block(a, b))

    for a in range(1 << len(sensors)):
        for b in range(1 << len(sensors)):
            pairs = [(s, t, a ^ s, b ^ t) for s in _submasks(a) for t in _submasks(b)]
            split = sum(single(0, s, t) * single(1, u, v) for s, t, u, v in pairs)
            scale = pair_scale(a, b) + sum(
                atom_scale(s, t) * size(u, v) + size(s, t) * atom_scale(u, v)
                for s, t, u, v in pairs
            )
            assert abs(pair.moment(a, b) - split) <= 1e-13 * scale


def test_sensor_blocks_are_adjoint_pairs_and_memoised(pair_config):
    blocks = SensorBlocks(pair_config, [SensorSpec(w) for w in (20.0, 20.0, -20.0, -20.0)])
    upper = blocks.block(0b1100, 0b0011)
    assert blocks.block(0b0011, 0b1100) == pytest.approx(upper.conj().T, abs=0.0)
    assert blocks.block(0b1100, 0b0011) is upper
    assert not upper.flags.writeable
    rho_ss = steady_state(build_assembly(pair_config, ()).superoperator)
    assert blocks.block(0, 0) == pytest.approx(rho_ss.data, abs=0.0)


def test_sensor_block_residual_check_raises(pair_config, monkeypatch):
    monkeypatch.setattr(liouville, "_BLOCK_RESIDUAL_TOL", 1e-30)
    blocks = SensorBlocks(pair_config, [SensorSpec(10.0)])
    with pytest.raises(SolverError, match="residual"):
        blocks.moment(1, 1)


def test_atomic_model_is_read_only_and_shared_across_emitters():
    pair = ep.EmitterPairConfig(kr12=0.05, rabi=30.0)
    single = ep.EmitterPairConfig(atom_count=1, rabi=30.0)
    model = atomic_model(pair)
    arrays = [model.rho_ss.data, *model.schur] + [
        value for value in vars(model).values() if isinstance(value, np.ndarray)
    ]
    for arr in arrays:
        assert not arr.flags.writeable
    assert atomic_model(pair) is model

    def outputs(cfg):
        return (
            ep.spectrum_fourier(cfg, np.linspace(-70.0, 70.0, 41)).values,
            ep.bell_quantifier(cfg, 20.0, -20.0).b_terms,
            ep.g1(cfg, [0.0, 0.3, 2.0]),
        )

    # alternating emitters replaces the one cached model on every call
    order = (pair, single, pair, single)
    alternating = [outputs(cfg) for cfg in order]
    fresh = {}
    for cfg in (pair, single):
        atomic_model.cache_clear()
        fresh[cfg] = outputs(cfg)
    for cfg, got in zip(order, alternating):
        for a, b in zip(got, fresh[cfg]):
            np.testing.assert_array_equal(a, b)


def test_atomic_model_leaves_the_sensor_generator_cached(asym_config, pair_config):
    sensors = (SensorSpec(10.0, 5.0), SensorSpec(-20.0, 5.0))
    atomic_model.cache_clear()
    build_assembly(asym_config, sensors)
    misses = _detuning_free_generator.cache_info().misses
    atomic_model(pair_config)
    build_assembly(asym_config, sensors)
    assert _detuning_free_generator.cache_info().misses == misses
