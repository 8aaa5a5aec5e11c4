"""Physical observables: spectra, field correlations, sensor-filtered g2.

Spectra come in two flavours, both closed forms of the field correlation on
the atoms-only generator: its Fourier transform (elastic plateau subtracted
and reported separately) and the steady population of a single weakly coupled
sensor scanned over frequency, which is the same spectrum filtered by a
Lorentzian of half-width ``linewidth / 2``.  The full sensor solve remains
their test oracle.

Frequency-resolved photon-photon statistics attach one sensor per detected
frequency; the zero-delay correlation is a plain steady-state moment of the
two sensor populations and the delayed version follows from the quantum
regression theorem.  Negative delays use the exchange identity
``g2(w1, w2, -tau) = g2(w2, w1, tau)`` (reversed detection order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .dipole import (
    EmitterPairConfig,
    dressed_triplet,
    effective_coefficients,
)
from .liouville import (
    Propagator,
    SensorSpec,
    build_assembly,
    emission_operator,
    steady_state,
    two_time_correlator,
)
from .operators import embed, expectation, number_op, sigma_minus

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
    "default_spectrum_window",
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


def _atoms_only(config):
    assembly = build_assembly(config, ())
    rho = steady_state(assembly.superoperator)
    emission = emission_operator(config, assembly.layout)
    raising = emission.conj().T
    intensity = float(np.real(expectation(raising @ emission, rho.data)))
    return assembly, rho, emission, raising, intensity


def g1(config: EmitterPairConfig, tau_grid):
    """Normalized first-order field correlation on a nonnegative tau grid."""
    assembly, rho, emission, raising, intensity = _atoms_only(config)
    if intensity <= 0.0 or config.rabi == 0.0:
        raise ValueError("zero emitted intensity: g1 is undefined without drive")
    values = two_time_correlator(
        assembly.superoperator, [raising], [], emission, tau_grid, rho_ss=rho
    )
    return [v / intensity for v in values]


def default_spectrum_window(config: EmitterPairConfig) -> float:
    """Half-width of the default frequency window: outermost sideband + 10."""
    return dressed_triplet(config, effective_coefficients(config)).spectrum_window


def default_omega_grid(config: EmitterPairConfig, count=401):
    half = default_spectrum_window(config)
    return np.linspace(-half, half, count)


class _FieldResolvent:
    """Transform of the steady-state field correlation on the atoms-only model.

    With ``x = vec(rho_ss E^dag)`` and the covector ``c`` of ``Tr[E X]``, the
    correlation is ``<E^dag(0) E(tau)> = c . exp(L tau) x``, a sum of modes
    ``a_k exp(lambda_k tau)`` of the atomic generator ``L``.  Its one-sided
    transform ``int_0^inf exp(-z tau) <E^dag(0) E(tau)> dtau`` is
    ``c . (z - L)^{-1} x = inelastic(z) + plateau / z``: the ``lambda = 0``
    mode is the elastic plateau ``|<E>|^2``, and the rest is solved with the
    steady state deflated, ``(z - L + |rho_ss><1|)`` acting on the trace-free
    ``x - Tr(x) rho_ss``, which stays regular at ``z = 0``.
    """

    def __init__(self, config: EmitterPairConfig):
        assembly, rho, emission, raising, intensity = _atoms_only(config)
        if intensity <= 0.0 or config.rabi == 0.0:
            raise ValueError("zero emitted intensity: spectrum is undefined")
        rho_vec = rho.data.flatten(order="F")
        trace = np.eye(rho.dimension).flatten(order="F")  # Tr X = trace . vec(X)
        x = (rho.data @ raising).flatten(order="F")
        self.intensity = intensity
        self.covector = np.ravel(emission)  # Tr[E X] = c . vec(X)
        self.plateau = float(np.real((self.covector @ rho_vec) * (trace @ x)))
        self.source = x - (trace @ x) * rho_vec
        self.generator = assembly.superoperator.to_dense()
        self._schur = schur(self.generator - np.outer(rho_vec, trace), output="complex")

    def inelastic(self, z):
        """``c . (z - L)^{-1} x`` without the elastic pole, for an array ``z``."""
        tri, basis = self._schur
        rhs = basis.conj().T @ self.source
        z = np.asarray(z, dtype=complex)
        y = np.empty((rhs.size, z.size), dtype=complex)
        for i in range(rhs.size - 1, -1, -1):  # back substitution in (z - tri)
            y[i] = (rhs[i] + tri[i, i + 1 :] @ y[i + 1 :]) / (z - tri[i, i])
        return (self.covector @ basis) @ y

    def narrow_line(self, omega_grid):
        """``(weight, center, hwhm)`` of the slowest non-elastic mode, if the
        grid spacing cannot resolve it; weight per unit intensity."""
        if omega_grid.size < 2:
            return None
        spacing = np.ptp(omega_grid) / (omega_grid.size - 1)
        rates, modes = np.linalg.eig(self.generator)
        slow_rates = -rates.real
        slow_rates[np.argmin(np.abs(rates))] = np.inf  # the elastic mode
        slow = rates[np.argmin(slow_rates)]
        if -slow.real >= spacing:
            return None
        # a degenerate line collects the amplitude of every copy of its mode
        copies = np.abs(rates - slow) <= 1e-9 * np.max(np.abs(rates))
        amplitudes = (self.covector @ modes) * np.linalg.solve(modes, self.source)
        weight = float(np.sum(amplitudes[copies]).real) / self.intensity
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
    field = _FieldResolvent(config)
    if omega_grid is None:
        omega_grid = default_omega_grid(config)
    omega_grid = np.asarray(omega_grid, dtype=float)
    values = 2.0 * np.real(field.inelastic(-1j * omega_grid)) / field.intensity
    narrow_line = field.narrow_line(omega_grid)
    if normalize:
        values, narrow_line = _peak_normalized(values, narrow_line)
    return SpectrumResult(
        omega_grid=omega_grid,
        values=values,
        elastic_weight=field.plateau / field.intensity,
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
    if sensor_linewidth <= 0.0:
        raise ValueError("sensor linewidth must be positive")
    field = _FieldResolvent(config)
    if omega_grid is None:
        omega_grid = default_omega_grid(config)
    omega_grid = np.asarray(omega_grid, dtype=float)
    z = 0.5 * sensor_linewidth - 1j * omega_grid
    values = (2.0 / sensor_linewidth) * np.real(field.inelastic(z) + field.plateau / z)
    if normalize:
        values, _ = _peak_normalized(values)
    return SpectrumResult(
        omega_grid=omega_grid,
        values=values,
        elastic_weight=field.plateau / field.intensity,
        method="sensor-scan",
    )


def g2_unfiltered(config: EmitterPairConfig, tau_grid):
    """Frequency-blind intensity correlation of the total field."""
    if config.rabi <= 0.0:
        raise ValueError("g2 requires a driven system")
    assembly, rho, emission, raising, intensity = _atoms_only(config)
    numerator = two_time_correlator(
        assembly.superoperator,
        [raising],
        [emission],
        raising @ emission,
        tau_grid,
        rho_ss=rho,
    )
    return [float(np.real(v)) / intensity**2 for v in numerator]


def _sensor_readout(assembly, rho, omegas):
    """Dense lowering operators, number operators and populations of the sensors.

    ``omegas`` are the sensor frequencies, in site order, for the message of
    the :class:`UndefinedCorrelationError` raised when a population is below
    ``POPULATION_FLOOR``.
    """
    layout = assembly.layout
    lowers = [embed(sigma_minus(), site, layout) for site in layout.sensor_sites]
    numbers = [embed(number_op(), site, layout) for site in layout.sensor_sites]
    pops = [float(np.real(expectation(n, rho.data))) for n in numbers]
    _check_populations(pops, omegas)
    return lowers, numbers, pops


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
    sensors = tuple(
        SensorSpec(omega_s=float(w), linewidth=sensor_linewidth, epsilon=epsilon)
        for w in (omega1, omega2)
    )
    assembly = build_assembly(config, sensors)
    rho = steady_state(assembly.superoperator)
    _, (num1, num2), (n1, n2) = _sensor_readout(assembly, rho, (omega1, omega2))
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
    same assembled model.  Each branch contracts all its delays in one
    :meth:`Propagator.correlate` call; the grid may come in any order and the
    points follow it.
    """
    taus = np.asarray(tau_grid, dtype=float)
    sensors = tuple(
        SensorSpec(omega_s=float(w), linewidth=sensor_linewidth, epsilon=epsilon)
        for w in (omega1, omega2)
    )
    assembly = build_assembly(config, sensors)
    rho = steady_state(assembly.superoperator)
    (lower1, lower2), (num1, num2), (n1, n2) = _sensor_readout(
        assembly, rho, (omega1, omega2)
    )

    prop = Propagator(assembly.superoperator)
    results = np.empty(taus.size, dtype=float)
    branches = ((taus >= 0.0, lower1, num2), (taus < 0.0, lower2, num1))
    for mask, first_lower, mid_op in branches:
        if np.any(mask):
            seed = first_lower @ rho.data @ first_lower.conj().T
            results[mask] = np.real(prop.correlate(seed, mid_op, np.abs(taus[mask])))
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
