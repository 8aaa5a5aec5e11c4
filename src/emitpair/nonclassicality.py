"""Cauchy-Schwarz and Bell-type quantifiers of two-color photon correlations.

Joint two-photon (leapfrog) emission through virtual intermediate levels is
resonant whenever the *sum* of the two detected frequencies matches zero or
one of the dressed-ladder gaps; those seven antidiagonals organise both maps.

Same-frequency second-order moments of a two-level sensor vanish identically
(its lowering operator squares to zero), so every auto- and cross-moment here
is built from a *pair* of sensors per frequency.  The Cauchy-Schwarz ratio
uses three two-sensor solves; the Bell quantifier reads four sensors, two at
each frequency, from leading-order block solves on the cached atomic model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dipole import DressedTriplet, EmitterPairConfig, sideband_frequencies
# build_assembly is unused here but stays bound: the four-sensor model is the
# Bell oracle, and perfbench/test_perfbench.py checks that tracing rebinds it
# in this module
from .liouville import SensorBlocks, SensorSpec, build_assembly  # noqa: F401
from .observables import UndefinedCorrelationError, _check_populations, sensor_g2

__all__ = [
    "CsiPoint",
    "BellPoint",
    "LeapfrogLine",
    "csi_ratio",
    "bell_quantifier",
    "leapfrog_lines",
    "virtual_sample_point",
]


@dataclass(frozen=True)
class CsiPoint:
    """Cauchy-Schwarz data at one frequency pair: ratio = g12^2/(g11 g22)."""

    omega1: float
    omega2: float
    g11: float
    g22: float
    g12: float
    ratio: float


@dataclass(frozen=True)
class BellPoint:
    """CHSH-style quantifier built from four-sensor moments.

    ``b_terms`` holds (b1111, b2222, b1221, b1122, b2211), each normalized by
    the populations of the sensors it involves (geometric pairing for the
    mixed coherences) so the stored values are dimensionless and free of the
    sensor coupling scale.  Violation of the classical bound means
    ``quantifier > 2``.
    """

    omega1: float
    omega2: float
    b_terms: tuple
    quantifier: float


@dataclass(frozen=True)
class LeapfrogLine:
    """One antidiagonal omega1 + omega2 = sum_value of joint two-photon emission."""

    sum_value: float
    label: str


def csi_ratio(
    config: EmitterPairConfig,
    omega1: float,
    omega2: float,
    sensor_linewidth: float = 1.0,
    epsilon: float = 1e-4,
) -> CsiPoint:
    """Cauchy-Schwarz ratio from three two-sensor steady solves.

    The auto-correlations g11 and g22 place both sensors at the same
    frequency; g12 is the plain cross-correlation.  Ratios above one cannot
    occur for classically correlated intensities.
    """
    g11 = sensor_g2(config, omega1, omega1, sensor_linewidth, epsilon).g2
    g22 = sensor_g2(config, omega2, omega2, sensor_linewidth, epsilon).g2
    g12 = sensor_g2(config, omega1, omega2, sensor_linewidth, epsilon).g2
    if g11 <= 0.0 or g22 <= 0.0:
        raise UndefinedCorrelationError(
            f"vanishing autocorrelation (g11={g11:.3e}, g22={g22:.3e}) at "
            f"({omega1}, {omega2})"
        )
    return CsiPoint(
        omega1=float(omega1),
        omega2=float(omega2),
        g11=g11,
        g22=g22,
        g12=g12,
        ratio=g12**2 / (g11 * g22),
    )


def bell_quantifier(
    config: EmitterPairConfig,
    omega1: float,
    omega2: float,
    sensor_linewidth: float = 1.0,
    epsilon: float = 1e-4,
) -> BellPoint:
    """Bell quantifier from two sensor pairs, in the vanishing-coupling limit.

    Sensors (a1, a2) sit at ``omega1`` and (b1, b2) at ``omega2``.  The five
    moments are  b1111 = <a1+ a2+ a2 a1>,  b2222 = <b1+ b2+ b2 b1>,
    b1221 = <a1+ b1+ b1 a1>,  b1122 = <a1+ a2+ b1 b2>  and its adjoint
    b2211; the quantifier is
    ``sqrt(2) |(b1111 + b2222 - 4 b1221 - b1122 - b2211) /
    (b1111 + b2222 + 2 b1221)|``
    evaluated on the population-normalized terms.  The normalization cancels
    exactly on the symmetric antidiagonal ``omega2 = -omega1`` where the
    quantifier is meaningful, and keeps the stored terms at order unity.

    The moments are the leading order in the sensor coupling
    (:class:`SensorBlocks`, 16-dim block solves), the limit of the
    four-sensor model of :func:`build_assembly` as ``epsilon -> 0``.
    ``epsilon`` only sets the detected populations ``epsilon**2 <n>`` that
    are held against ``POPULATION_FLOOR``.
    """
    omegas = (omega1, omega1, omega2, omega2)
    sensors = tuple(
        SensorSpec(omega_s=float(w), linewidth=sensor_linewidth, epsilon=epsilon)
        for w in omegas
    )
    blocks = SensorBlocks(config, sensors)
    # sensor s is bit s: a1 = 1, a2 = 2, b1 = 4, b2 = 8
    na1, na2, nb1, nb2 = (blocks.moment(m, m).real for m in (1, 2, 4, 8))
    _check_populations([epsilon**2 * n for n in (na1, na2, nb1, nb2)], omegas)

    b1111 = blocks.moment(0b0011, 0b0011) / (na1 * na2)
    b2222 = blocks.moment(0b1100, 0b1100) / (nb1 * nb2)
    b1221 = blocks.moment(0b0101, 0b0101) / (na1 * nb1)
    b1122 = blocks.moment(0b1100, 0b0011) / np.sqrt(na1 * na2 * nb1 * nb2)
    b2211 = b1122.conjugate()

    numerator = b1111 + b2222 - 4.0 * b1221 - b1122 - b2211
    denominator = b1111 + b2222 + 2.0 * b1221
    if abs(denominator) == 0.0:
        raise UndefinedCorrelationError(
            f"vanishing Bell denominator at ({omega1}, {omega2})"
        )
    quantifier = float(np.sqrt(2.0) * abs(numerator / denominator))
    return BellPoint(
        omega1=float(omega1),
        omega2=float(omega2),
        b_terms=(b1111, b2222, b1221, b1122, b2211),
        quantifier=quantifier,
    )


def leapfrog_lines(triplet: DressedTriplet):
    """The seven antidiagonals of joint two-photon emission, ascending."""
    lines = [LeapfrogLine(sum_value=0.0, label="0")]
    for name in ("d12", "d23", "d13"):
        gap = getattr(triplet, name)
        lines = [LeapfrogLine(-gap, f"-{name}"), *lines, LeapfrogLine(gap, f"+{name}")]
    return sorted(lines, key=lambda line: line.sum_value)


def virtual_sample_point(
    triplet: DressedTriplet,
    sum_value: float,
    clearance: float = 3.0,
    avoid=(),
    rank: int = 0,
):
    """A frequency pair on an antidiagonal away from all real transitions.

    Scans ``omega1`` outward from ``sum_value / 2`` and returns the
    ``rank``-th pair whose two frequencies keep at least ``clearance`` from
    every single-photon line (and any extra ``avoid`` frequencies) and from
    each other.  Deterministic; increasing ``rank`` walks further out along
    the antidiagonal.
    """
    lines = sideband_frequencies(triplet) + list(avoid)

    def clear(omega):
        return all(abs(omega - line) >= clearance for line in lines)

    base = 0.5 * sum_value
    found = 0
    for step in range(400):
        for sign in (1.0, -1.0):
            omega1 = base + sign * (clearance + 0.5 * step * clearance)
            omega2 = sum_value - omega1
            if clear(omega1) and clear(omega2) and abs(omega1 - omega2) >= clearance:
                if found == rank:
                    return float(omega1), float(omega2)
                found += 1
    raise ValueError(
        f"no virtual point of rank {rank} with clearance {clearance} on the "
        f"antidiagonal {sum_value}"
    )
