"""Spectra (two methods), field correlations and sensor-filtered statistics."""

from importlib import resources

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import emitpair as ep
from emitpair import liouville, observables
from emitpair.config import load_config
from emitpair.liouville import (
    SensorSpec,
    build_assembly,
    emission_operator,
    steady_state,
    two_time_correlator,
)
from emitpair.observables import (
    UndefinedCorrelationError,
    default_omega_grid,
    find_local_maxima,
)
from emitpair.operators import HilbertLayout, embed, expectation, number_op, sigma_minus


def lorentzian(x, hwhm):
    return (hwhm / np.pi) / (x**2 + hwhm**2)


# ---------------------------------------------------------------------------
# Emission operator

def test_field_operator_coincident_phase_limit():
    cfg = ep.EmitterPairConfig(kr12=1e-6, rabi=1.0, detection_direction=(1.0, 0.0, 0.0))
    layout = HilbertLayout(2)
    em = emission_operator(cfg, layout)
    entries = em[np.abs(em) > 1e-12]
    # equal amplitudes up to a global phase
    assert np.allclose(np.abs(entries), 1.0, atol=1e-6)


def test_field_operator_perpendicular_detection_has_equal_phases():
    cfg = ep.EmitterPairConfig(kr12=2.0, rabi=1.0, detection_direction=(0.0, 1.0, 0.0))
    assert cfg.detection_phases() == pytest.approx([0.0, 0.0])


def test_driven_pair_radiates(pair_config):
    assembly = build_assembly(pair_config, ())
    rho = steady_state(assembly)
    em = emission_operator(pair_config, assembly.layout)
    intensity = expectation(em.conj().T @ em, rho.data).real
    assert intensity > 0.0


# ---------------------------------------------------------------------------
# First-order correlation

def test_g1_normalized_at_zero(pair_config):
    values = ep.g1(pair_config, [0.0, 1.0])
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_g1_weak_drive_is_elastic():
    cfg = ep.EmitterPairConfig(atom_count=1, rabi=0.01)
    values = ep.g1(cfg, np.linspace(0.0, 20.0, 21))
    assert np.all(np.abs(np.abs(np.asarray(values)) - 1.0) < 1e-3)


def test_g1_bounded_by_one(pair_config):
    values = np.asarray(ep.g1(pair_config, np.linspace(0.0, 30.0, 61)))
    assert np.all(np.abs(values) <= 1.0 + 1e-10)


def test_field_correlations_are_arrays_in_grid_order(pair_config):
    taus = [2.0, 0.0, 0.5]
    model = liouville.atomic_model(pair_config)
    raw = two_time_correlator(
        model.generator, model.rho_ss.data @ model.emission.conj().T, model.emission, taus
    )
    assert isinstance(raw, np.ndarray) and raw.dtype == complex
    np.testing.assert_array_equal(ep.g1(pair_config, taus), raw / model.intensity)
    for output, dtype in ((ep.g1, complex), (ep.g2_unfiltered, float)):
        values = output(pair_config, taus)
        assert isinstance(values, np.ndarray) and values.dtype == dtype
        assert values.shape == (3,)
        for tau, value in zip(taus, values):  # each value sits at its delay's position
            assert output(pair_config, [tau])[0] == pytest.approx(value, rel=1e-12)


def test_g1_requires_drive():
    # one guard for every output of the atomic model's field
    cfg = ep.EmitterPairConfig(atom_count=1, rabi=0.0)
    for output, grid in (
        (ep.g1, [0.0]),
        (ep.spectrum_fourier, [-1.0, 0.0, 1.0]),
        (ep.spectrum_sensor_scan, [-1.0, 0.0, 1.0]),
        (ep.g2_unfiltered, [0.0]),
    ):
        with pytest.raises(ValueError, match="zero emitted intensity: .* undefined without drive"):
            output(cfg, grid)


# ---------------------------------------------------------------------------
# Spectra

@pytest.fixture(scope="module")
def pair_spectra(pair_config_module):
    grid = default_omega_grid(pair_config_module)
    fourier = ep.spectrum_fourier(pair_config_module, omega_grid=grid)
    scan = ep.spectrum_sensor_scan(pair_config_module, omega_grid=grid, sensor_linewidth=1.0)
    return grid, fourier, scan


@pytest.fixture(scope="module")
def pair_config_module():
    return ep.EmitterPairConfig(kr12=0.05, rabi=30.0)


def test_mollow_triplet_positions(single_config):
    spec = ep.spectrum_fourier(single_config)
    peaks = find_local_maxima(spec.omega_grid, spec.values)
    positions = sorted(w for w, _ in peaks)
    assert len(positions) == 3
    np.testing.assert_allclose(positions, [-30.0, 0.0, 30.0], atol=0.5)


def test_spectrum_nonnegative_and_unit_max(pair_spectra):
    _, fourier, scan = pair_spectra
    for result in (fourier, scan):
        assert result.values.min() > -1e-9
        assert result.values.max() == pytest.approx(1.0)


def test_seven_peaks_both_methods_same_positions(pair_spectra, pair_config_module):
    grid, fourier, scan = pair_spectra
    tri = ep.dressed_triplet(
        pair_config_module, ep.dipole_coefficients(pair_config_module)
    )
    predicted = sorted(
        [0.0, tri.d12, -tri.d12, tri.d23, -tri.d23, tri.d13, -tri.d13]
    )
    step = grid[1] - grid[0]
    for result in (fourier, scan):
        peaks = sorted(w for w, _ in find_local_maxima(result.omega_grid, result.values))
        assert len(peaks) == 7
        np.testing.assert_allclose(peaks, predicted, atol=0.5)
    peaks_f = [w for w, _ in find_local_maxima(fourier.omega_grid, fourier.values)]
    peaks_s = [w for w, _ in find_local_maxima(scan.omega_grid, scan.values)]
    np.testing.assert_allclose(peaks_f, peaks_s, atol=step + 1e-12)


def test_fourier_parseval(pair_config_module):
    wide = np.linspace(-160.0, 160.0, 3201)
    raw = ep.spectrum_fourier(pair_config_module, omega_grid=wide, normalize=False)
    vals = raw.values.copy()
    total_line = 0.0
    if raw.narrow_line is not None:
        weight, center, hwhm = raw.narrow_line
        vals = vals - 2.0 * weight * hwhm / ((wide - center) ** 2 + hwhm**2)
        total_line = weight
    total = np.trapezoid(vals, wide) / (2.0 * np.pi) + total_line
    assert total == pytest.approx(1.0 - raw.elastic_weight, rel=0.01)


def test_fourier_parseval_single_atom(single_config):
    wide = np.linspace(-140.0, 140.0, 2801)
    raw = ep.spectrum_fourier(single_config, omega_grid=wide, normalize=False)
    assert raw.narrow_line is None
    total = np.trapezoid(raw.values, wide) / (2.0 * np.pi)
    assert total == pytest.approx(1.0 - raw.elastic_weight, rel=0.01)


def test_subradiant_narrow_line_reported(pair_spectra, pair_config_module):
    _, fourier, _ = pair_spectra
    assert fourier.narrow_line is not None
    weight, center, hwhm = fourier.narrow_line
    coeffs = ep.dipole_coefficients(pair_config_module)
    assert center == pytest.approx(0.0, abs=1e-9)
    assert 0.0 < hwhm < 5.0 * (1.0 - coeffs.gamma12)
    assert weight > 0.0


def test_sensor_scan_matches_convolved_fourier(pair_spectra, pair_config_module):
    grid, _, scan = pair_spectra
    linewidth = 1.0
    wide = np.linspace(grid[0] - 30.0, grid[-1] + 30.0, 2001)
    raw = ep.spectrum_fourier(pair_config_module, omega_grid=wide, normalize=False)
    vals = raw.values.copy()
    if raw.narrow_line is not None:
        weight, center, hwhm = raw.narrow_line
        vals = vals - 2.0 * weight * hwhm / ((wide - center) ** 2 + hwhm**2)
    convolved = np.array(
        [np.trapezoid(vals * lorentzian(om - wide, linewidth / 2.0), wide) for om in grid]
    )
    if raw.narrow_line is not None:
        weight, center, hwhm = raw.narrow_line
        convolved += 2.0 * np.pi * weight * lorentzian(grid - center, hwhm + linewidth / 2.0)
    # a line of weight w integrates to 2 pi w in ``values`` units
    convolved += 2.0 * np.pi * raw.elastic_weight * lorentzian(grid, linewidth / 2.0)
    convolved /= convolved.max()
    observed = scan.values / scan.values.max()
    rel_l2 = np.linalg.norm(convolved - observed) / np.linalg.norm(observed)
    assert rel_l2 < 1e-5


def test_sensor_scan_far_tail(pair_config_module):
    # far off resonance only the 1/omega^2 falloff survives; at 1e3 the tail
    # sits right at the 1e-6 scale and well below it further out
    scan = ep.spectrum_sensor_scan(
        pair_config_module, omega_grid=np.array([0.0, 1e3, 3e3]), sensor_linewidth=1.0
    )
    assert scan.values[1] < 2e-6 * scan.values[0]
    assert scan.values[2] < 1e-6 * scan.values[0]


def test_sensor_scan_matches_full_sensor_solve(pair_triplet):
    # oracle: one sensor in the model, population / epsilon^2 at epsilon = 1e-4;
    # the laser along the pair axis makes the spectrum asymmetric, so +-d12
    # pin the sign of the frequency axis
    cfg = ep.EmitterPairConfig(
        kr12=0.05,
        rabi=30.0,
        laser_direction=(1.0, 0.0, 0.0),
        detection_direction=(0.0, 0.6, 0.8),
    )
    grid = np.array([0.0, pair_triplet.d12, -pair_triplet.d12, 7.0, 1e3])
    scan = ep.spectrum_sensor_scan(cfg, omega_grid=grid, sensor_linewidth=1.0, normalize=False)
    epsilon = 1e-4
    oracle = []
    for omega in grid:
        spec = SensorSpec(omega_s=float(omega), linewidth=1.0, epsilon=epsilon)
        assembly = build_assembly(cfg, (spec,))
        rho = steady_state(assembly)
        site = assembly.layout.sensor_sites[0]
        pop = expectation(embed(number_op(), site, assembly.layout), rho.data)
        oracle.append(pop.real / epsilon**2)
    np.testing.assert_allclose(scan.values, oracle, rtol=1e-6)


def test_fourier_matches_correlator_quadrature(single_config):
    omegas = np.array([-30.0, -12.0, 0.0, 5.0, 30.0])
    spec = ep.spectrum_fourier(single_config, omega_grid=omegas, normalize=False)
    assembly = build_assembly(single_config, ())
    rho = steady_state(assembly)
    em = emission_operator(single_config, assembly.layout)
    intensity = expectation(em.conj().T @ em, rho.data).real
    # every mode has decayed below 1e-8 by tau = 40
    tau = np.linspace(0.0, 40.0, 8001)
    gen = assembly.superoperator.csr.toarray()
    corr = two_time_correlator(gen, rho.data @ em.conj().T, em, tau)
    gtilde = np.asarray(corr) / intensity - spec.elastic_weight
    oracle = [2.0 * np.trapezoid(gtilde * np.exp(1j * w * tau), tau).real for w in omegas]
    np.testing.assert_allclose(spec.values, oracle, rtol=1e-4)


def test_fourier_and_sensor_scan_share_the_frequency_axis():
    # an asymmetric spectrum (laser along the pair axis): the sensor scan must
    # equal the Fourier spectrum filtered by its Lorentzian, not its mirror
    cfg = ep.EmitterPairConfig(
        kr12=0.5, rabi=10.0, laser_direction=(1.0, 0.0, 0.0),
        detection_direction=(0.0, 0.6, 0.8),
    )
    tri = ep.dressed_triplet(cfg, ep.effective_coefficients(cfg))
    grid = np.array([0.0, tri.d12, -tri.d12, tri.d23, -tri.d23])
    wide = np.linspace(-200.0, 200.0, 8001)
    raw = ep.spectrum_fourier(cfg, omega_grid=wide, normalize=False)
    assert raw.narrow_line is None
    filtered = np.array(
        [np.trapezoid(raw.values * lorentzian(om - wide, 0.5), wide) for om in grid]
    ) + 2.0 * np.pi * raw.elastic_weight * lorentzian(grid, 0.5)
    scan = ep.spectrum_sensor_scan(cfg, omega_grid=grid, sensor_linewidth=1.0)
    np.testing.assert_allclose(filtered / filtered[0], scan.values / scan.values[0], rtol=1e-6)
    assert abs(scan.values[1] / scan.values[2] - 1.0) > 1e-3


def test_no_narrow_line_for_independent_atoms():
    preset = resources.files("emitpair").joinpath("presets", "independent-atoms.cfg")
    cfg = load_config(preset.read_text())
    spec = ep.spectrum_fourier(cfg.emitter, omega_grid=np.linspace(*cfg.omega_axis))
    assert spec.narrow_line is None


def test_degenerate_narrow_line_collects_every_copy(single_config):
    # on a grid coarser than the 0.5 half-width, two independent atoms carry
    # that mode twice (once per atom); in phase, the per-intensity weight is
    # the single atom's divided by (1 + its elastic fraction)
    coarse = np.linspace(-150.0, 150.0, 201)
    single = ep.spectrum_fourier(single_config, omega_grid=coarse, normalize=False)
    forced = ep.EmitterPairConfig(kr12=0.05, rabi=30.0, force_independent=True)
    pair = ep.spectrum_fourier(forced, omega_grid=coarse, normalize=False)
    assert single.narrow_line[2] == pytest.approx(0.5)
    assert pair.narrow_line[2] == pytest.approx(0.5)
    expected = single.narrow_line[0] / (1.0 + single.elastic_weight)
    assert pair.narrow_line[0] == pytest.approx(expected, rel=1e-9)


def test_spectrum_refuses_undriven():
    cfg = ep.EmitterPairConfig(atom_count=1, rabi=0.0)
    with pytest.raises(ValueError):
        ep.spectrum_fourier(cfg)


def test_spectra_refuse_non_finite_grids_and_linewidths(single_config):
    # a non-finite frequency would otherwise poison the peak normalisation of
    # the finite points too
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega grid must be finite"):
            ep.spectrum_fourier(single_config, omega_grid=[bad, 0.0, 1.0])
        with pytest.raises(ValueError, match="omega grid must be finite"):
            ep.spectrum_sensor_scan(single_config, omega_grid=[0.0, bad])
        with pytest.raises(ValueError, match="must be finite"):
            ep.spectrum_sensor_scan(single_config, [0.0, 1.0], sensor_linewidth=bad)
    # an empty, scalar or 2-d grid has no frequency axis to put a spectrum on
    for bad in ([], 0.5, [[0.0, 1.0], [2.0, 3.0]]):
        for spectrum in (ep.spectrum_fourier, ep.spectrum_sensor_scan):
            with pytest.raises(ValueError, match="non-empty one-dimensional"):
                spectrum(single_config, omega_grid=bad)


def test_default_window_covers_outermost_sideband(pair_config_module):
    tri = ep.dressed_triplet(
        pair_config_module, ep.dipole_coefficients(pair_config_module)
    )
    grid = default_omega_grid(pair_config_module)
    assert grid[0] == pytest.approx(-(tri.d13 + 10.0))
    assert grid[-1] == pytest.approx(tri.d13 + 10.0)


# ---------------------------------------------------------------------------
# Intensity correlations

def test_single_atom_antibunching(single_config):
    values = ep.g2_unfiltered(single_config, [0.0])
    assert abs(values[0]) < 1e-6


def test_single_atom_g2_matches_its_closed_form():
    # resonance fluorescence of one driven atom (Kimble and Mandel, PRA 13,
    # 2123 (1976)): g2 = 1 - exp(-3 tau/4) [cosh(k tau) + 3/(4k) sinh(k tau)]
    # with k = sqrt(1/16 - rabi^2), imaginary above the exceptional point
    # rabi = 1/4 and 1 - exp(-3 tau/4) (1 + 3 tau/4) on it; observed worst
    # 4.7e-15 over these drives
    taus = np.linspace(0.0, 12.0, 49)
    for rabi in (0.1, 0.25, 0.3, 2.0, 30.0):
        got = ep.g2_unfiltered(ep.EmitterPairConfig(atom_count=1, rabi=rabi), taus)
        k = np.emath.sqrt(1.0 / 16.0 - rabi**2)
        if k == 0.0:
            envelope = 1.0 + 0.75 * taus
        else:
            envelope = np.real(np.cosh(k * taus) + 0.75 / k * np.sinh(k * taus))
        want = 1.0 - np.exp(-0.75 * taus) * envelope
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_g2_long_delay_factorization_moderate_coupling():
    # antisymmetric channel rate ~0.1 here: the subradiant transient has
    # fully died by tau = 100 (at rates below ~0.07 it demonstrably has not)
    cfg = ep.EmitterPairConfig(kr12=0.8, rabi=30.0)
    coeffs = ep.dipole_coefficients(cfg)
    assert 1.0 - coeffs.gamma12 > 1e-3
    value = ep.g2_unfiltered(cfg, [100.0])[0]
    assert value == pytest.approx(1.0, abs=1e-4)


def test_g2_nonnegative(pair_config):
    values = np.asarray(ep.g2_unfiltered(pair_config, np.linspace(0.0, 5.0, 26)))
    assert np.all(values >= -1e-10)


# ---------------------------------------------------------------------------
# Sensor-filtered correlations

def test_sensor_g2_exchange_symmetry(pair_config, pair_triplet):
    a = ep.sensor_g2(pair_config, pair_triplet.d12, -pair_triplet.d23, 1.0)
    b = ep.sensor_g2(pair_config, -pair_triplet.d23, pair_triplet.d12, 1.0)
    assert abs(a - b) < 1e-8


def test_sensor_g2_opposite_sideband_bunching(pair_config, pair_triplet):
    assert ep.sensor_g2(pair_config, pair_triplet.d12, -pair_triplet.d12, 1.0) > 1.0


def test_sensor_g2_sideband_carrier_antibunching(pair_config, pair_triplet):
    assert ep.sensor_g2(pair_config, pair_triplet.d13, 0.0, 1.0) < 1.0


def test_sensor_g2_undefined_when_population_vanishes(pair_config):
    with pytest.raises(UndefinedCorrelationError):
        ep.sensor_g2(pair_config, 5e4, -5e4, 1.0)


def test_sensor_g2_tau_reversal_identity(pair_config, pair_triplet):
    # the same model and the same propagation on both sides: observed 7e-15
    w1, w2 = pair_triplet.d13, -pair_triplet.d23
    neg = ep.sensor_g2_tau(pair_config, w1, w2, 1.0, [-1.5, -0.5])
    pos = ep.sensor_g2_tau(pair_config, w2, w1, 1.0, [0.5, 1.5])
    assert neg[0] == pytest.approx(pos[1], rel=1e-12)
    assert neg[1] == pytest.approx(pos[0], rel=1e-12)


def test_fig2c_trace_matches_its_richardson_limit():
    # the fig2c preset's g2(tau) against the epsilon -> 0 value
    # (4 g(1e-3) - g(2e-3)) / 3.  What remains is the epsilon^2 bias at
    # 1e-4 (observed 3.3e-9 relative) and about 1e-10 of it at 1e-5
    # (observed 2.3e-11).  A mode expansion in the eigenbasis, whose
    # round-off does not scale with the epsilon^2 cross-sensor transfer, is
    # 1.5e-5 and 3.6e-4 off.
    preset = resources.files("emitpair").joinpath("presets", "fig2c.cfg")
    cfg = load_config(preset.read_text())
    taus = np.linspace(*cfg.tau_axis)

    def trace(epsilon):
        return ep.sensor_g2_tau(
            cfg.emitter, cfg.omega1, cfg.omega2, cfg.sensor_linewidth, taus, epsilon
        )

    limit = (4.0 * trace(1e-3) - trace(2e-3)) / 3.0
    for epsilon, bound in ((1e-4, 1e-8), (1e-5, 1e-10)):
        assert np.max(np.abs(trace(epsilon) - limit) / limit) < bound


def test_sensor_g2_tau_propagates_in_the_exchange_even_sector(
    monkeypatch, asym_config, asym_triplet
):
    # the fig2c pair propagates in its 160-dim exchange-even sector; a drive
    # along the pair axis breaks the symmetry, and all 256 dims propagate.
    # Both traces match the full generator's expm_multiply at each delay;
    # observed worst 1.5e-12 relative on each, the rounding of |L| tau ~ 1e3.
    shapes = []
    expm = liouville.expm
    monkeypatch.setattr(liouville, "expm", lambda a: shapes.append(a.shape) or expm(a))
    w1, w2, linewidth = asym_triplet.d13, -asym_triplet.d23, 5.0
    taus = np.array([-1.5, -0.5, 0.0, 0.25, 0.5, 1.5])
    tilted = ep.EmitterPairConfig(kr12=0.006, rabi=250.0, laser_direction=(1.0, 0.0, 1.0))
    for cfg, dim in ((asym_config, 160), (tilted, 256)):
        shapes.clear()
        got = ep.sensor_g2_tau(cfg, w1, w2, linewidth, taus)
        assert set(shapes) == {(dim, dim)}

        assembly = build_assembly(cfg, (SensorSpec(w1, linewidth), SensorSpec(w2, linewidth)))
        rho = steady_state(assembly).data
        lowers = [embed(sigma_minus(), s, assembly.layout) for s in assembly.layout.sensor_sites]
        numbers = [embed(number_op(), s, assembly.layout) for s in assembly.layout.sensor_sites]
        pops = [expectation(n, rho).real for n in numbers]
        gen = assembly.superoperator.csr
        want = []
        for tau in taus:
            first, second = (0, 1) if tau >= 0.0 else (1, 0)
            seed = lowers[first] @ rho @ lowers[first].conj().T
            vec = spla.expm_multiply(gen * abs(tau), seed.flatten(order="F"))
            want.append((np.ravel(numbers[second]) @ vec).real / (pops[0] * pops[1]))
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


def test_sensor_g2_tau_grid_order_and_zero_consistency(pair_config, pair_triplet):
    w1, w2 = pair_triplet.d12, -pair_triplet.d12
    taus = [-2.0, 0.0, 1.0]
    values = ep.sensor_g2_tau(pair_config, w1, w2, 1.0, taus)
    assert isinstance(values, np.ndarray) and values.shape == (3,)
    for tau, value in zip(taus, values):  # each value sits at its delay's position
        alone = ep.sensor_g2_tau(pair_config, w1, w2, 1.0, [tau])
        assert alone[0] == pytest.approx(value, rel=1e-12)
    zero_delay = ep.sensor_g2(pair_config, w1, w2, 1.0)
    assert type(zero_delay) is float
    assert values[1] == pytest.approx(zero_delay, rel=1e-10)
    for bad in ([0.5, np.nan], [-np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            ep.sensor_g2_tau(pair_config, w1, w2, 1.0, bad)
    for bad in (0.5, [[-1.0, 0.0], [1.0, 2.0]]):
        with pytest.raises(ValueError, match="tau grid must be one-dimensional"):
            ep.sensor_g2_tau(pair_config, w1, w2, 1.0, bad)


def test_sensor_g2_tau_on_an_empty_grid_solves_nothing(monkeypatch, pair_config):
    calls = []
    for name in ("build_assembly", "steady_state"):
        original = getattr(observables, name)
        monkeypatch.setattr(
            observables, name, lambda *a, f=original, n=name: calls.append(n) or f(*a)
        )
    assert ep.sensor_g2_tau(pair_config, 10.0, -10.0, 1.0, []).shape == (0,)
    assert calls == []
    for linewidth in (0.0, -1.0, np.nan):  # the sensors are still checked
        with pytest.raises(ValueError, match="linewidth"):
            ep.sensor_g2_tau(pair_config, 10.0, -10.0, linewidth, [])
    with pytest.raises(ValueError, match="finite"):
        ep.sensor_g2_tau(pair_config, np.inf, -10.0, 1.0, [])
    assert calls == []
    ep.sensor_g2_tau(pair_config, 10.0, -10.0, 1.0, [0.0])  # the counters count
    assert calls == ["build_assembly", "steady_state"]


def test_sensor_g2_epsilon_independence(pair_config, pair_triplet):
    w1, w2 = pair_triplet.d12, -pair_triplet.d12
    base = ep.sensor_g2(pair_config, w1, w2, 1.0, epsilon=1e-4)
    doubled = ep.sensor_g2(pair_config, w1, w2, 1.0, epsilon=2e-4)
    assert abs(doubled - base) / base < 1e-3


# ---------------------------------------------------------------------------
# Peak finding

def test_find_local_maxima_threshold():
    grid = np.linspace(-1, 1, 201)
    values = np.exp(-((grid - 0.4) ** 2) / 1e-3) + 1e-5 * np.cos(40 * grid)
    peaks = find_local_maxima(grid, values)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.4, abs=0.02)


def test_find_local_maxima_refuses_unusable_arrays():
    for grid, values in (
        ([0.0, 1.0, 2.0], [1.0, 2.0]),  # lengths differ
        ([0.0, 1.0], [1.0, 2.0, 1.0]),
        ([], []),
        ([[0.0, 1.0, 2.0]], [[1.0, 2.0, 1.0]]),  # two-dimensional
        (0.0, 1.0),
    ):
        with pytest.raises(ValueError, match="non-empty one-dimensional arrays of equal length"):
            find_local_maxima(grid, values)
    for bad in (np.nan, np.inf, -np.inf):  # a NaN floor would hide the peak at 2
        for grid, values in (([0.0, 1.0, 2.0, 3.0], [bad, 0.0, 1.0, 0.0]),
                             ([0.0, bad, 2.0, 3.0], [0.0, 0.5, 1.0, 0.0])):
            with pytest.raises(ValueError, match="must be finite"):
                find_local_maxima(grid, values)
    assert find_local_maxima([0.0, 1.0, 2.0], [1.0, 2.0, 1.0]) == [(1.0, 2.0)]
