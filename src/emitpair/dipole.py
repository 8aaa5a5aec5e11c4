"""Physical configuration of the emitter pair and its collective structure.

All rates and frequencies are expressed in units of the single-emitter decay
rate, in the frame rotating at the drive laser frequency.  Geometry enters
through the dimensionless separation ``kr12`` (wavenumber times distance) and
the angle between the dipole moments and the interatomic axis.

Two coupling constants follow from the shared radiation modes: a coherent
excitation-exchange strength ``delta12`` and a cross-damping ``gamma12``.
Under strong resonant driving the doubly-excited, symmetric and ground levels
hybridise into a ladder of three dressed states per excitation manifold; the
pairwise energy splittings of that triplet set the sideband frequencies of the
emission spectrum and the geometry of the joint two-photon emission lines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EmitterPairConfig",
    "DipoleCoefficients",
    "DressedTriplet",
    "dipole_coefficients",
    "effective_coefficients",
    "dressed_triplet",
    "sideband_frequencies",
]

_PERP_DEFAULT = (0.0, 0.0, 1.0)  # perpendicular to the interatomic (x) axis


def _unit_vector(v, name):
    """``v / |v|``, scaled by its largest component first so that the norm
    neither overflows nor underflows for any finite nonzero ``v``."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    largest = float(np.max(np.abs(arr)))
    if not 0.0 < largest < math.inf:
        raise ValueError(f"{name} must be finite and nonzero")
    arr = arr / largest
    return tuple(float(v) for v in arr / np.linalg.norm(arr))


@dataclass(frozen=True)
class EmitterPairConfig:
    """Geometry and drive of the emitter system, in decay-rate units.

    ``atom_count`` may be 1 (bare driven emitter, used as a control) or 2.
    ``force_independent`` zeroes both dipole couplings while keeping the
    geometry, which isolates interaction-induced features in the observables.
    The emitters sit on the x axis, symmetrically about the origin; the default
    laser and detection directions are perpendicular to that axis, so both
    emitters see the same drive phase and radiate in phase toward the detector.
    """

    kr12: float = 0.05
    cos_theta12: float = 1.0 / math.sqrt(3.0)
    rabi: float = 30.0
    laser_direction: tuple = field(default=_PERP_DEFAULT)
    detection_direction: tuple = field(default=_PERP_DEFAULT)
    atom_count: int = 2
    force_independent: bool = False

    def __post_init__(self):
        if self.atom_count not in (1, 2):
            raise ValueError("atom_count must be 1 or 2")
        if self.kr12 <= 0.0:
            raise ValueError("kr12 must be positive")
        if abs(self.cos_theta12) > 1.0:
            raise ValueError("cos_theta12 must lie in [-1, 1]")
        if self.rabi < 0.0:
            raise ValueError("rabi must be nonnegative")
        object.__setattr__(
            self, "laser_direction", _unit_vector(self.laser_direction, "laser_direction")
        )
        object.__setattr__(
            self,
            "detection_direction",
            _unit_vector(self.detection_direction, "detection_direction"),
        )

    @property
    def atom_positions(self):
        """Positions in units of 1/k, on the x axis, centred on the origin."""
        if self.atom_count == 1:
            return [np.zeros(3)]
        half = 0.5 * self.kr12
        return [np.array([-half, 0.0, 0.0]), np.array([half, 0.0, 0.0])]

    def laser_phases(self):
        """Drive phase k_L . r_i at each emitter."""
        n = np.asarray(self.laser_direction)
        return [float(n @ r) for r in self.atom_positions]

    def detection_phases(self):
        """Propagation phase k n . r_j toward the detector for each emitter."""
        n = np.asarray(self.detection_direction)
        return [float(n @ r) for r in self.atom_positions]


@dataclass(frozen=True)
class DipoleCoefficients:
    """Coherent (``delta12``) and incoherent (``gamma12``) pair couplings."""

    delta12: float
    gamma12: float

    def __post_init__(self):
        if abs(self.gamma12) > 1.0:
            raise ValueError(
                f"gamma12 = {self.gamma12} exceeds the single-emitter rate"
            )


@dataclass(frozen=True)
class DressedTriplet:
    """Dressed-state ladder of one excitation manifold under strong drive.

    ``energies`` are sorted descending (laser frame, decay-rate units); the
    middle level is pinned to zero at resonance.  The gaps ``d12``, ``d23``
    and ``d13`` are their pairwise differences, all positive with this
    sorting.
    """

    energies: tuple
    coefficients: tuple

    @property
    def d12(self):
        return self.energies[0] - self.energies[1]

    @property
    def d23(self):
        return self.energies[1] - self.energies[2]

    @property
    def d13(self):
        return self.energies[0] - self.energies[2]

    @property
    def spectrum_window(self):
        """Half-width of the default frequency window: outermost sideband + 10."""
        return self.d13 + 10.0


def dipole_coefficients(config: EmitterPairConfig) -> DipoleCoefficients:
    """Evaluate both closed-form coupling constants of the pair.

    Near-field terms (inverse square and cube of the separation) are included
    exactly.  For ``cos_theta12 = 1/sqrt(3)`` the second bracket of each
    expression vanishes identically, leaving ``gamma12 = sinc(kr12)`` and
    ``delta12 = -cos(kr12)/(2 kr12)``.
    """
    x = config.kr12
    c2 = config.cos_theta12**2
    transverse = 1.0 - c2
    axial = 1.0 - 3.0 * c2
    # At the magic angle cos^2 = 1/3 the axial bracket cancels exactly; snap
    # the representation-roundoff remnant to zero so the near-field 1/x^3
    # terms cannot amplify it.
    if abs(axial) < 1e-15:
        axial = 0.0
    sin_x, cos_x = math.sin(x), math.cos(x)
    if x < 0.1:
        # cos(x)/x^2 - sin(x)/x^3 cancels catastrophically near contact;
        # its series is stable (next term ~ x^8 / 4e6).
        damping_bracket = -1.0 / 3.0 + x**2 / 30.0 - x**4 / 840.0 + x**6 / 45360.0
    else:
        damping_bracket = cos_x / x**2 - sin_x / x**3
    delta12 = -0.75 * transverse * cos_x / x + 0.75 * axial * (
        sin_x / x**2 + cos_x / x**3
    )
    gamma12 = 1.5 * transverse * sin_x / x + 1.5 * axial * damping_bracket
    # |gamma12| <= 1 holds exactly; near contact rounding can step past it
    gamma12 = min(1.0, max(-1.0, gamma12))
    return DipoleCoefficients(delta12=delta12, gamma12=gamma12)


def effective_coefficients(config: EmitterPairConfig) -> DipoleCoefficients:
    """Couplings actually used by the model builders.

    Zero for a single emitter and for the independent-pair control; otherwise
    the geometric values of :func:`dipole_coefficients`.
    """
    if config.atom_count == 1 or config.force_independent:
        return DipoleCoefficients(delta12=0.0, gamma12=0.0)
    return dipole_coefficients(config)


def dressed_triplet(
    config: EmitterPairConfig, coeffs: DipoleCoefficients
) -> DressedTriplet:
    """Diagonalise the resonant drive within one excitation manifold.

    In the basis (doubly excited, symmetric, ground) the Hamiltonian block is
    diagonal ``(0, delta12, 0)`` with couplings ``rabi/sqrt(2)`` on both
    off-diagonals.  The antisymmetric combination of the outer states is an
    exact zero-energy eigenvector; the other two eigenvalues follow from the
    2x2 block on the even sector, which also yields the (a1, a2) amplitudes of
    the top dressed state.  Warns outside the strong-drive regime
    ``rabi^2 > 1 + 4 delta12^2`` where the triplet picture degrades.
    """
    omega = config.rabi
    delta = coeffs.delta12
    if omega**2 <= 1.0 + 4.0 * delta**2:
        warnings.warn(
            "drive below the strong-dressing threshold; triplet structure "
            "may not be resolved",
            stacklevel=2,
        )
    # Even-sector block in the basis ((uu + dd)/sqrt2, S).
    disc = math.sqrt(delta**2 + 4.0 * omega**2)
    e_plus = 0.5 * (delta + disc)
    e_minus = 0.5 * (delta - disc)
    energies = (e_plus, 0.0, e_minus)
    # Top-state eigenvector (cos phi, sin phi) of [[0, omega], [omega, delta]].
    vec = np.array([omega, e_plus])
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:  # undriven, uncoupled: degenerate manifold
        cos_phi, sin_phi = 1.0, 0.0
    else:
        cos_phi, sin_phi = vec / norm
    if cos_phi < 0.0:
        cos_phi, sin_phi = -cos_phi, -sin_phi
    a1 = cos_phi / math.sqrt(2.0)
    a2 = sin_phi / math.sqrt(2.0)
    return DressedTriplet(energies=energies, coefficients=(a1, a2))


def sideband_frequencies(triplet: DressedTriplet):
    """The seven emission-line frequencies {0, +-d12, +-d23, +-d13}, ascending."""
    gaps = (triplet.d12, triplet.d23, triplet.d13)
    return sorted([0.0, *gaps, *(-gap for gap in gaps)])
