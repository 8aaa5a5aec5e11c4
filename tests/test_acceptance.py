"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line through the terminal reporter in
``conftest.py`` (``criterion <label>: PASS/FAIL/SKIP``).  Tolerances and
thresholds are pinned here, not configurable.
"""

import math
import multiprocessing
import time

import numpy as np
import pytest

import emitpair as ep
from emitpair.config import load_config, parse_overrides
from emitpair.liouville import SensorSpec, build_assembly, steady_state
from emitpair.nonclassicality import virtual_sample_point
from emitpair.observables import default_omega_grid, find_local_maxima
from emitpair.sweep import run_sweep

CORES = multiprocessing.cpu_count()


@pytest.fixture(scope="module")
def pair():
    return ep.EmitterPairConfig(kr12=0.05, rabi=30.0)


@pytest.fixture(scope="module")
def triplet(pair):
    return ep.dressed_triplet(pair, ep.dipole_coefficients(pair))


@pytest.fixture(scope="module")
def asym():
    return ep.EmitterPairConfig(kr12=0.006, rabi=250.0)


@pytest.fixture(scope="module")
def asym_tri(asym):
    return ep.dressed_triplet(asym, ep.dipole_coefficients(asym))


def test_criterion_01_mollow_control():
    started = time.monotonic()
    single = ep.EmitterPairConfig(atom_count=1, rabi=30.0)
    spectrum = ep.spectrum_fourier(single)
    peaks = sorted(w for w, _ in find_local_maxima(spectrum.omega_grid, spectrum.values))
    assert len(peaks) == 3
    np.testing.assert_allclose(peaks, [-30.0, 0.0, 30.0], atol=0.5)
    g2_zero = ep.g2_unfiltered(single, [0.0])[0]
    assert abs(g2_zero) < 1e-6
    assert time.monotonic() - started < 5.0


def test_criterion_02_dipole_closed_forms():
    for kr in np.geomspace(0.01, 10.0, 61):
        cfg = ep.EmitterPairConfig(kr12=float(kr), rabi=1.0)
        c = ep.dipole_coefficients(cfg)
        assert abs(c.gamma12 - math.sin(kr) / kr) < 1e-12
        assert abs(c.delta12 + math.cos(kr) / (2.0 * kr)) < 1e-12


def test_criterion_03_seven_peak_spectrum(pair, triplet):
    grid = default_omega_grid(pair, count=401)
    step = grid[1] - grid[0]
    predicted = sorted(
        [0.0, triplet.d12, -triplet.d12, triplet.d23, -triplet.d23,
         triplet.d13, -triplet.d13]
    )

    started = time.monotonic()
    scan = ep.spectrum_sensor_scan(pair, omega_grid=grid, sensor_linewidth=1.0)
    scan_runtime = time.monotonic() - started
    assert scan_runtime < 120.0

    fourier = ep.spectrum_fourier(pair, omega_grid=grid)
    peaks_f = sorted(w for w, _ in find_local_maxima(fourier.omega_grid, fourier.values))
    peaks_s = sorted(w for w, _ in find_local_maxima(scan.omega_grid, scan.values))
    assert len(peaks_f) == 7
    assert len(peaks_s) == 7
    np.testing.assert_allclose(peaks_f, predicted, atol=0.5)
    np.testing.assert_allclose(peaks_s, predicted, atol=0.5)
    np.testing.assert_allclose(peaks_f, peaks_s, atol=step + 1e-12)


def test_criterion_04_2pfc_signs(pair, triplet):
    d12, d13 = triplet.d12, triplet.d13
    assert ep.sensor_g2(pair, d12, -d12, 1.0) > 1.0
    assert ep.sensor_g2(pair, d13, 0.0, 1.0) < 1.0
    assert ep.sensor_g2(pair, d12, d13, 1.0) < 1.0
    diagonal = ep.sensor_g2(pair, d13, d13, 1.0)
    assert diagonal > ep.sensor_g2(pair, d13, d13 + 2.0, 1.0)
    assert diagonal > ep.sensor_g2(pair, d13, d13 - 2.0, 1.0)


def test_criterion_05_time_asymmetry(asym, asym_tri):
    coeffs = ep.dipole_coefficients(asym)
    subradiant_rate = 1.0 - coeffs.gamma12
    taus = np.linspace(-3.0, 3.0, 121)
    values = ep.sensor_g2_tau(asym, asym_tri.d13, -asym_tri.d23, 5.0, taus)
    assert values[taus > 0].max() > 1.5
    assert values[taus < 0].min() < 0.9
    # relaxation to 1 happens on the subradiant timescale only
    late = ep.sensor_g2_tau(
        asym, asym_tri.d13, -asym_tri.d23, 5.0, [10.0, 3.0 / subradiant_rate]
    )
    assert abs(late[0] - 1.0) > 0.05       # plateau != 1 at tau = 10
    assert abs(late[1] - 1.0) < 0.05       # settled after ~3 subradiant lifetimes


def test_criterion_06_csi_map(pair, triplet):
    # a virtual sample point violates the inequality on each antidiagonal;
    # the outward rank scan must walk past the non-violating inner window of
    # the central line before reaching its violating region
    for line in ep.sideband_frequencies(triplet):
        best = 0.0
        for rank in range(24):
            w1, w2 = virtual_sample_point(triplet, line, rank=rank)
            best = max(best, ep.csi_ratio(pair, w1, w2, 1.0).ratio)
            if best > 1.0:
                break
        assert best > 1.0, f"no violating virtual point on the line omega1 + omega2 = {line}"
    # antibunched real transition: no violation
    assert ep.csi_ratio(pair, triplet.d13, 0.0, 1.0).ratio <= 1.0
    # real-pair crossing on the +d12 antidiagonal: violation at linewidth 1
    # disappears at linewidth 1/10
    assert ep.csi_ratio(pair, triplet.d13, -triplet.d23, 1.0).ratio > 1.0
    assert ep.csi_ratio(pair, triplet.d13, -triplet.d23, 0.1).ratio <= 1.0
    # the same-sign real pair (d12, d23) never violates, either linewidth
    assert ep.csi_ratio(pair, triplet.d12, triplet.d23, 1.0).ratio <= 1.0
    assert ep.csi_ratio(pair, triplet.d12, triplet.d23, 0.1).ratio <= 1.0


def test_criterion_07_bell_map(pair, triplet):
    budgets = []

    def timed_bell(w1, w2, linewidth):
        started = time.monotonic()
        point = ep.bell_quantifier(pair, w1, w2, linewidth)
        budgets.append(time.monotonic() - started)
        return point.quantifier

    # violation somewhere on the central antidiagonal, virtual region
    virtual_candidates = [
        triplet.d23 + k * (triplet.d13 - triplet.d23) / 6.0 for k in (2, 3, 1)
    ]
    best = 0.0
    for w in virtual_candidates:
        best = max(best, timed_bell(w, -w, 1.0))
        if best > 2.0:
            break
    assert best > 2.0
    # real opposite-sideband points do not violate
    assert timed_bell(triplet.d12, -triplet.d12, 1.0) <= 2.0
    assert timed_bell(triplet.d23, -triplet.d23, 1.0) <= 2.0
    # outermost opposite-sideband pair: broad sensors violate, narrow do not
    assert timed_bell(triplet.d13, -triplet.d13, 1.0) > 2.0
    assert timed_bell(triplet.d13, -triplet.d13, 0.1) <= 2.0
    assert max(budgets) < 30.0


def _steady_checks(config, sensors):
    assembly = build_assembly(config, sensors)
    rho = steady_state(assembly)
    assert abs(rho.trace() - 1.0) < 1e-10
    assert rho.hermiticity_defect() < 1e-10
    assert rho.min_eigenvalue() > -1e-8
    assert rho.residual < 1e-10


def test_criterion_08_invariant_suite(pair, triplet, asym, asym_tri):
    single = ep.EmitterPairConfig(atom_count=1, rabi=30.0)
    lw = 1.0
    cases = [
        (single, ()),
        (pair, ()),
        (pair, (SensorSpec(triplet.d12, lw, 1e-4),)),
        (pair, (SensorSpec(triplet.d12, lw, 1e-4), SensorSpec(-triplet.d12, lw, 1e-4))),
        (asym, (SensorSpec(asym_tri.d13, 5.0, 1e-4), SensorSpec(-asym_tri.d23, 5.0, 1e-4))),
        (pair, tuple(SensorSpec(w, lw, 1e-4) for w in
                     (triplet.d13, triplet.d13, -triplet.d13, -triplet.d13))),
    ]
    for config, sensors in cases:
        _steady_checks(config, sensors)

    # every correlation output is stable under doubling the sensor coupling
    def rel_change(a, b):
        return abs(a - b) / abs(a)

    g2a = ep.sensor_g2(pair, triplet.d12, -triplet.d12, lw, epsilon=1e-4)
    g2b = ep.sensor_g2(pair, triplet.d12, -triplet.d12, lw, epsilon=2e-4)
    assert rel_change(g2a, g2b) < 1e-3

    taus = [-1.0, 1.0]
    ga = ep.sensor_g2_tau(asym, asym_tri.d13, -asym_tri.d23, 5.0, taus, epsilon=1e-4)
    gb = ep.sensor_g2_tau(asym, asym_tri.d13, -asym_tri.d23, 5.0, taus, epsilon=2e-4)
    for a, b in zip(ga, gb):
        assert rel_change(a, b) < 1e-3

    w1, w2 = virtual_sample_point(triplet, triplet.d12)
    ra = ep.csi_ratio(pair, w1, w2, lw, epsilon=1e-4).ratio
    rb = ep.csi_ratio(pair, w1, w2, lw, epsilon=2e-4).ratio
    assert rel_change(ra, rb) < 1e-3

    ba = ep.bell_quantifier(pair, triplet.d13, -triplet.d13, lw, epsilon=1e-4).quantifier
    bb = ep.bell_quantifier(pair, triplet.d13, -triplet.d13, lw, epsilon=2e-4).quantifier
    assert rel_change(ba, bb) < 1e-3


def test_criterion_09_independent_atoms_control(triplet):
    forced = ep.EmitterPairConfig(kr12=0.05, rabi=30.0, force_independent=True)
    spectrum = ep.spectrum_fourier(forced)
    peaks = sorted(w for w, _ in find_local_maxima(spectrum.omega_grid, spectrum.values))
    assert len(peaks) == 3
    np.testing.assert_allclose(peaks, [-30.0, 0.0, 30.0], atol=0.5)

    # the interaction-induced violations on the +-d_ij antidiagonals vanish
    single_atom_lines = [0.0, 30.0, -30.0, 60.0, -60.0]
    for line in ep.sideband_frequencies(triplet):
        if abs(line) < 1e-9:
            continue  # the central line carries single-emitter physics too
        w1, w2 = virtual_sample_point(
            triplet, line, avoid=single_atom_lines
        )
        ratio = ep.csi_ratio(forced, w1, w2, 1.0).ratio
        assert ratio <= 1.05, f"line omega1 + omega2 = {line}: residual violation {ratio}"


MAP_CONFIG = """
[emitter]
kr12 = 0.05
cos_theta12 = 0.5773502691896258
rabi = 30.0

[sensors]
linewidth = 1.0
epsilon = 1e-4

[task]
kind = g2map

[grid]
count = 101
"""


def _subsample_config(step):
    # a stride through the same grid for single-worker timing
    cfg = load_config(MAP_CONFIG)
    points = np.linspace(cfg.omega_axis[0], cfg.omega_axis[1], cfg.omega_axis[2])
    sub = points[::step]
    return load_config(
        MAP_CONFIG,
        parse_overrides(
            [
                f"grid.omega_min={sub[0]}",
                f"grid.omega_max={sub[-1]}",
                f"grid.count={len(sub)}",
                f"grid.omega2_min={points[0]}",
                f"grid.omega2_max={points[-1]}",
                f"grid.omega2_count={len(points)}",
            ]
        ),
    )


@pytest.fixture(scope="module")
def g2map_timings(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    cfg = load_config(MAP_CONFIG, parse_overrides([f"output.path={out/'map.csv'}"]))
    started = time.monotonic()
    table = run_sweep(cfg, workers=8, timestamp=False)
    wall_parallel = time.monotonic() - started

    sub = _subsample_config(8)
    sub.output_path = str(out / "sub.csv")
    started = time.monotonic()
    sub_table = run_sweep(sub, workers=1, timestamp=False)
    wall_serial_est = (time.monotonic() - started) * (
        len(table.rows) / len(sub_table.rows)
    )
    return table, wall_parallel, wall_serial_est


def test_criterion_10_performance(g2map_timings):
    table, wall_parallel, wall_serial_est = g2map_timings
    assert len(table.rows) == 101 * 101
    assert table.flagged_count == 0
    assert wall_parallel < 600.0
    # parallel dispatch must actually help, whatever the host provides
    if CORES >= 2:
        assert wall_serial_est / wall_parallel > 1.15


@pytest.mark.skipif(
    CORES < 8,
    reason=f"strict 4x scaling requires >= 8 cores; host has {CORES}",
)
def test_criterion_10_strict_scaling(g2map_timings):
    _, wall_parallel, wall_serial_est = g2map_timings
    assert wall_serial_est / wall_parallel >= 4.0
