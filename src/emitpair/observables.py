"""Physical observables: spectra, field correlations, sensor-filtered g2.

Spectra come in two flavours, both closed forms of the field correlation on
the emitter's cached atomic model, on which ``g1`` and the unfiltered ``g2``
propagate too: its Fourier transform (elastic plateau subtracted and reported
separately) and the steady population of a single weakly coupled sensor
scanned over frequency, the same spectrum filtered by a Lorentzian of
half-width ``linewidth / 2``.  The full sensor solve is their test oracle.

Frequency-resolved photon-photon statistics attach one sensor per detected
frequency; the zero-delay correlation is a plain steady-state moment of the
two sensor populations and the delayed version follows from the quantum
regression theorem, propagated by one matrix exponential per distinct delay
step in the sector that holds the steady state.  Negative delays use the
exchange identity ``g2(w1, w2, -tau) = g2(w2, w1, tau)`` (reversed
detection order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dipole import (
    EmitterPairConfig,
    dressed_triplet,
    effective_coefficients,
)
from .liouville import (
    Propagator,
    SensorSpec,
    atomic_model,
    build_assembly,
    steady_state,
    two_time_correlator,
)
from .operators import SparseComplexMatrix, embed, expectation, number_op, sigma_minus

__all__ = [
    "SpectrumResult",
    "CorrelationPoint",
    "UndefinedCorrelationError",
    "POPULATION_FLOOR",
    "g1",
    "spectrum_fourier",
    "spectrum_sensor_scan",
    "g2_unfiltered",
    "sensor_g2",
    "sensor_g2_tau",
    "default_omega_grid",
    "find_local_maxima",
]

# Sensor populations below this are treated as no detected signal: the
# correlation is reported undefined rather than formed from noise.
POPULATION_FLOOR = 1e-14


class UndefinedCorrelationError(RuntimeError):
    """A sensor population vanished; the normalized correlation is undefined."""


@dataclass(frozen=True)
class SpectrumResult:
    """One-photon spectrum on a frequency grid (laser frame).

    ``elastic_weight`` is the coherent fraction of the total emission; for the
    Fourier method the delta line it represents is excluded from ``values``,
    for the sensor scan it appears filtered into a Lorentzian at zero.

    ``narrow_line``, when present, is ``(weight, center, hwhm)`` of the
    slowest mode of the field correlation, a subradiant line narrower than the
    grid spacing (Fourier method only).  Its pointwise
    profile is included in ``values`` (same units), but quadrature over the
    grid cannot resolve it; integrals should drop the on-grid profile and add
    ``weight`` analytically.
    """

    omega_grid: np.ndarray
    values: np.ndarray
    elastic_weight: float
    method: str
    narrow_line: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "omega_grid", np.asarray(self.omega_grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class CorrelationPoint:
    """Frequency-filtered photon-photon correlation at one point."""

    omega1: float
    omega2: float
    tau: float
    g2: float
    sensor_linewidth: float


def _emitting_model(config, output):
    """The emitter's cached atomic model; ``ValueError`` if it does not emit."""
    model = atomic_model(config)
    if model.intensity <= 0.0 or config.rabi == 0.0:
        raise ValueError(f"zero emitted intensity: {output} is undefined without drive")
    return model


def g1(config: EmitterPairConfig, tau_grid):
    """Normalized first-order field correlation on a nonnegative tau grid."""
    model = _emitting_model(config, "g1")
    emission = model.emission
    values = two_time_correlator(
        model.superoperator, model.rho_ss.data @ emission.conj().T, emission, tau_grid
    )
    return [v / model.intensity for v in values]


def default_omega_grid(config: EmitterPairConfig, count=401):
    half = dressed_triplet(config, effective_coefficients(config)).spectrum_window
    return np.linspace(-half, half, count)


def _frequency_grid(config, omega_grid):
    """``omega_grid`` as a float array, the default window when ``None``;
    ``ValueError`` if a frequency is not finite."""
    if omega_grid is None:
        return default_omega_grid(config)
    omega_grid = np.asarray(omega_grid, dtype=float)
    if not np.all(np.isfinite(omega_grid)):
        raise ValueError("omega grid must be finite")
    return omega_grid


def _narrow_line(model, omega_grid):
    """``(weight, center, hwhm)`` of the slowest non-elastic mode, if the
    grid spacing cannot resolve it; weight per unit intensity."""
    if omega_grid.size < 2:
        return None
    spacing = np.ptp(omega_grid) / (omega_grid.size - 1)
    rates, modes = np.linalg.eig(model.generator)
    slow_rates = -rates.real
    slow_rates[np.argmin(np.abs(rates))] = np.inf  # the elastic mode
    slow = rates[np.argmin(slow_rates)]
    if -slow.real >= spacing:
        return None
    # a degenerate line collects the amplitude of every copy of its mode
    copies = np.abs(rates - slow) <= 1e-9 * np.max(np.abs(rates))
    amplitudes = (model.covector @ modes) * np.linalg.solve(modes, model.source)
    weight = float(np.sum(amplitudes[copies]).real) / model.intensity
    return weight, float(-slow.imag), float(-slow.real)


def _peak_normalized(values, narrow_line=None):
    peak = float(np.max(values))
    if peak <= 0.0:
        return values, narrow_line
    if narrow_line is not None:
        narrow_line = (narrow_line[0] / peak, narrow_line[1], narrow_line[2])
    return values / peak, narrow_line


def spectrum_fourier(
    config: EmitterPairConfig,
    omega_grid=None,
    normalize: bool = True,
) -> SpectrumResult:
    """Inelastic spectrum ``2 Re int_0^inf g1~(tau) exp(i w tau) dtau``.

    ``g1~`` is the normalized field correlation with its elastic plateau
    ``|<E>|^2 / intensity`` subtracted; the plateau is reported as
    ``elastic_weight``.  The transform is evaluated in closed form from the
    atomic generator, so every mode, including an ultranarrow subradiant
    line, is exact on any grid.  The slowest mode is reported as
    ``narrow_line`` when its half-width is below the grid spacing.  Positive
    ``w`` lies above the laser, as for the sensor scan.
    """
    model = _emitting_model(config, "spectrum")
    omega_grid = _frequency_grid(config, omega_grid)
    values = 2.0 * np.real(model.inelastic(-1j * omega_grid)) / model.intensity
    narrow_line = _narrow_line(model, omega_grid)
    if normalize:
        values, narrow_line = _peak_normalized(values, narrow_line)
    return SpectrumResult(
        omega_grid=omega_grid,
        values=values,
        elastic_weight=model.plateau / model.intensity,
        method="g1-fourier",
        narrow_line=narrow_line,
    )


def spectrum_sensor_scan(
    config: EmitterPairConfig,
    omega_grid=None,
    sensor_linewidth: float = 1.0,
    normalize: bool = True,
) -> SpectrumResult:
    """Steady population of a weakly coupled sensor scanned over the grid.

    In the limit of vanishing coupling ``epsilon`` the population divided by
    ``epsilon**2`` is the physical spectrum of Eberly and Wodkiewicz
    (J. Opt. Soc. Am. 67, 1252, 1977),
    ``(2 / linewidth) Re int_0^inf <E^dag(0) E(tau)> exp((i w - linewidth/2) tau) dtau``:
    the emission filtered by a Lorentzian of half-width ``linewidth / 2``,
    elastic line included.  It is evaluated in closed form, with no sensor in
    the model.
    """
    SensorSpec(0.0, sensor_linewidth)  # the sensors' one linewidth rule
    model = _emitting_model(config, "spectrum")
    omega_grid = _frequency_grid(config, omega_grid)
    z = 0.5 * sensor_linewidth - 1j * omega_grid
    values = (2.0 / sensor_linewidth) * np.real(model.inelastic(z) + model.plateau / z)
    if normalize:
        values, _ = _peak_normalized(values)
    return SpectrumResult(
        omega_grid=omega_grid,
        values=values,
        elastic_weight=model.plateau / model.intensity,
        method="sensor-scan",
    )


def g2_unfiltered(config: EmitterPairConfig, tau_grid):
    """Frequency-blind intensity correlation of the total field."""
    model = _emitting_model(config, "g2")
    emission = model.emission
    raising = emission.conj().T
    numerator = two_time_correlator(
        model.superoperator, emission @ model.rho_ss.data @ raising, raising @ emission, tau_grid
    )
    return [float(np.real(v)) / model.intensity**2 for v in numerator]


def _two_sensor_state(config, omega1, omega2, linewidth, epsilon):
    """The model with sensors at ``omega1`` and ``omega2``, its steady state,
    and the sensors' dense lowering operators, number operators and
    populations.  Raises :class:`UndefinedCorrelationError` when a population
    is below ``POPULATION_FLOOR``.
    """
    sensors = tuple(
        SensorSpec(omega_s=float(w), linewidth=linewidth, epsilon=epsilon)
        for w in (omega1, omega2)
    )
    assembly = build_assembly(config, sensors)
    rho = steady_state(assembly)
    layout = assembly.layout
    lowers = [embed(sigma_minus(), site, layout) for site in layout.sensor_sites]
    numbers = [embed(number_op(), site, layout) for site in layout.sensor_sites]
    pops = [float(np.real(expectation(n, rho.data))) for n in numbers]
    _check_populations(pops, (omega1, omega2))
    return assembly, rho, lowers, numbers, pops


def _check_populations(pops, omegas):
    """Raise :class:`UndefinedCorrelationError` if a sensor population is
    below ``POPULATION_FLOOR``; ``omegas`` name the sensors in the message."""
    for pop, omega in zip(pops, omegas):
        if pop < POPULATION_FLOOR:
            raise UndefinedCorrelationError(
                f"sensor population {pop:.3e} at omega = {omega} is below "
                f"{POPULATION_FLOOR:.0e}; correlation undefined"
            )


def sensor_g2(
    config: EmitterPairConfig,
    omega1: float,
    omega2: float,
    sensor_linewidth: float = 1.0,
    epsilon: float = 1e-4,
) -> CorrelationPoint:
    """Zero-delay frequency-resolved photon-photon correlation.

    Two sensors are attached, one per frequency (both at the common frequency
    when ``omega1 == omega2``, which is what produces the indistinguishability
    bunching of the diagonal), and a single steady state yields
    ``<n1 n2> / (<n1><n2>)``.
    """
    _, rho, _, (num1, num2), (n1, n2) = _two_sensor_state(
        config, omega1, omega2, sensor_linewidth, epsilon
    )
    value = float(np.real(expectation(num1 @ num2, rho.data))) / (n1 * n2)
    return CorrelationPoint(
        omega1=float(omega1),
        omega2=float(omega2),
        tau=0.0,
        g2=value,
        sensor_linewidth=sensor_linewidth,
    )


def sensor_g2_tau(
    config: EmitterPairConfig,
    omega1: float,
    omega2: float,
    sensor_linewidth: float,
    tau_grid,
    epsilon: float = 1e-4,
):
    """Time- and frequency-resolved correlation on a tau grid.

    Positive delays are regression-theorem correlators
    ``<xi1+(t) n2(t+tau) xi1(t)> / (<n1><n2>)``; negative delays use the
    detection-order identity ``g2(w1, w2, -tau) = g2(w2, w1, tau)`` on the
    same assembled model.  Each branch propagates all its delays in one
    :meth:`Propagator.propagate_vec` call on ``assembly.reduced`` (160 of 256
    dims for every preset's exchange-symmetric geometry, all 256 otherwise):
    the seed enters as ``V^T vec(xi rho xi^dag)`` and the readout as
    ``V^T ravel(n)``, with ``V = assembly.isometry``.  A branch costs one
    ``expm`` per distinct step, a handful on the CLI's uniform tau axes.  The
    grid may come in any order and the points follow it.
    """
    taus = np.asarray(tau_grid, dtype=float)
    assembly, rho, (lower1, lower2), (num1, num2), (n1, n2) = _two_sensor_state(
        config, omega1, omega2, sensor_linewidth, epsilon
    )

    prop = Propagator(SparseComplexMatrix(assembly.reduced))
    lift = assembly.isometry
    results = np.empty(taus.size, dtype=float)
    negative = taus < 0.0  # a NaN delay joins the positive branch, which refuses it
    branches = ((~negative, lower1, num2), (negative, lower2, num1))
    for mask, first_lower, mid_op in branches:
        if np.any(mask):
            seed = first_lower @ rho.data @ first_lower.conj().T
            vecs = prop.propagate_vec(lift.T @ np.ravel(seed, order="F"), np.abs(taus[mask]))
            results[mask] = np.real(vecs @ (lift.T @ np.ravel(mid_op)))
    results /= n1 * n2

    return [
        CorrelationPoint(
            omega1=float(omega1),
            omega2=float(omega2),
            tau=float(t),
            g2=float(v),
            sensor_linewidth=sensor_linewidth,
        )
        for t, v in zip(taus, results)
    ]


def find_local_maxima(omega_grid, values, min_height_frac=1e-3):
    """Interior local maxima above a relative height floor, as (omega, value)."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    floor = min_height_frac * float(np.max(values))
    peaks = []
    for i in range(1, values.size - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1] and values[i] > floor:
            peaks.append((float(omega_grid[i]), float(values[i])))
    return peaks
