"""Geometry-dependent couplings and the dressed ladder."""

import math
import warnings

import numpy as np
import pytest

import emitpair as ep
from emitpair.dipole import (
    DipoleCoefficients,
    dipole_coefficients,
    dressed_triplet,
    effective_coefficients,
    sideband_frequencies,
)


def reference_couplings(kr, cos_theta):
    """Independent term-by-term evaluation of both closed forms."""
    c2 = cos_theta**2
    delta = -0.75 * (1 - c2) * math.cos(kr) / kr + 0.75 * (1 - 3 * c2) * (
        math.sin(kr) / kr**2 + math.cos(kr) / kr**3
    )
    gamma = 1.5 * (1 - c2) * math.sin(kr) / kr + 1.5 * (1 - 3 * c2) * (
        math.cos(kr) / kr**2 - math.sin(kr) / kr**3
    )
    return delta, gamma


def test_far_field_decay():
    cfg = ep.EmitterPairConfig(kr12=1e3, rabi=30.0)
    c = dipole_coefficients(cfg)
    assert abs(c.delta12) < 2e-3
    assert abs(c.gamma12) < 2e-3


def test_magic_angle_closed_forms():
    # at cos^2 theta = 1/3 the axial brackets cancel, leaving the transverse terms
    kr = 0.05
    cfg = ep.EmitterPairConfig(kr12=kr, rabi=30.0)
    c = dipole_coefficients(cfg)
    assert c.gamma12 == pytest.approx(1.5 * (2 / 3) * math.sin(kr) / kr, abs=1e-15)
    assert c.delta12 == pytest.approx(-0.75 * (2 / 3) * math.cos(kr) / kr, abs=1e-14)


def test_against_term_by_term_oracle_off_magic_angle():
    for kr in (0.1, 0.7, 3.0):
        for cos_theta in (0.0, 0.3, 0.9, 1.0):
            cfg = ep.EmitterPairConfig(kr12=kr, cos_theta12=cos_theta, rabi=1.0)
            c = dipole_coefficients(cfg)
            delta, gamma = reference_couplings(kr, cos_theta)
            assert c.delta12 == pytest.approx(delta, abs=1e-13)
            assert c.gamma12 == pytest.approx(gamma, abs=1e-13)


def test_contact_limit_of_cross_damping():
    # gamma12 -> 1 monotonically as the separation closes, any dipole angle
    for cos_theta in (0.0, 1 / math.sqrt(3), 0.8):
        values = [
            dipole_coefficients(
                ep.EmitterPairConfig(kr12=kr, cos_theta12=cos_theta, rabi=1.0)
            ).gamma12
            for kr in (1e-2, 1e-3, 1e-4)
        ]
        assert values[0] < values[1] < values[2] < 1.0
        assert values[2] == pytest.approx(1.0, abs=1e-6)


def test_cross_damping_bounded_by_single_atom_rate():
    for kr in [*np.geomspace(0.01, 30.0, 40), 1e-12]:
        for cos_theta in (0.0, 0.5, 1 / math.sqrt(3), 1.0, -0.55):
            cfg = ep.EmitterPairConfig(kr12=float(kr), cos_theta12=cos_theta, rabi=1.0)
            assert abs(dipole_coefficients(cfg).gamma12) <= 1.0


def test_domain_error_at_contact():
    with pytest.raises(ValueError, match="kr12 must be positive"):
        ep.EmitterPairConfig(kr12=0.0, rabi=1.0)


non_finite = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"]
)


@non_finite
@pytest.mark.parametrize("name", ["kr12", "cos_theta12", "rabi"])
def test_non_finite_emitter_values_rejected(name, value):
    # refused here, before a solver turns them into an unrelated failure
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ep.EmitterPairConfig(**{name: value})


@non_finite
@pytest.mark.parametrize("name", ["delta12", "gamma12"])
def test_non_finite_couplings_rejected(name, value):
    # refused here, or dressed_triplet returns NaN energies without an error
    fields = {"delta12": -10.0, "gamma12": 0.5, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DipoleCoefficients(**fields)


def test_dressed_triplet_uncoupled_limit():
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=7.0)
    tri = dressed_triplet(cfg, DipoleCoefficients(delta12=0.0, gamma12=0.0))
    assert tri.energies == pytest.approx((7.0, 0.0, -7.0))
    assert tri.d12 == pytest.approx(7.0)
    assert tri.d23 == pytest.approx(7.0)


def test_dressed_triplet_against_block_eigensolve(pair_config):
    coeffs = dipole_coefficients(pair_config)
    tri = dressed_triplet(pair_config, coeffs)
    # oracle: the stated 3x3 block in the (ee, S, gg) basis
    omega = pair_config.rabi
    block = np.array(
        [
            [0.0, omega / math.sqrt(2), 0.0],
            [omega / math.sqrt(2), coeffs.delta12, omega / math.sqrt(2)],
            [0.0, omega / math.sqrt(2), 0.0],
        ]
    )
    oracle = np.sort(np.linalg.eigvalsh(block))[::-1]
    np.testing.assert_allclose(tri.energies, oracle, atol=1e-12)
    assert tri.energies[1] == 0.0
    assert tri.d12 != pytest.approx(tri.d23)
    # the middle eigenvector has no symmetric-state component
    vals, vecs = np.linalg.eigh(block)
    middle = vecs[:, np.argmin(np.abs(vals))]
    assert abs(middle[1]) < 1e-12
    # amplitude pair of the top dressed state
    top = vecs[:, np.argmax(vals)]
    if top[0] < 0:
        top = -top
    assert tri.coefficients[0] == pytest.approx(abs(top[0]))
    assert tri.coefficients[1] == pytest.approx(abs(top[1]) / math.sqrt(2))


def test_dressed_triplet_amplitude_normalization(pair_config):
    tri = dressed_triplet(pair_config, dipole_coefficients(pair_config))
    a1, a2 = tri.coefficients
    assert a1**2 + a2**2 == pytest.approx(0.5, abs=1e-12)


def test_gap_telescoping_and_trace():
    for rabi, delta in ((30.0, -9.99), (250.0, -83.3), (5.0, 2.0)):
        cfg = ep.EmitterPairConfig(kr12=0.05, rabi=rabi)
        tri = dressed_triplet(cfg, DipoleCoefficients(delta12=delta, gamma12=0.5))
        assert tri.d13 == pytest.approx(tri.d12 + tri.d23, abs=1e-12)
        assert tri.d12 > 0 and tri.d23 > 0
        assert sum(tri.energies) == pytest.approx(delta, abs=1e-12)


def test_weak_drive_warns():
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=1.0)
    with pytest.warns(UserWarning, match="strong-dressing"):
        dressed_triplet(cfg, dipole_coefficients(cfg))


def test_sideband_frequencies_seven_values():
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=30.0)
    tri = dressed_triplet(cfg, DipoleCoefficients(delta12=-10.0, gamma12=0.9))
    freqs = sideband_frequencies(tri)
    assert len(freqs) == 7
    assert freqs == sorted(freqs)
    d12, d23 = tri.d12, tri.d23
    np.testing.assert_allclose(
        freqs,
        sorted([0.0, d12, -d12, d23, -d23, d12 + d23, -(d12 + d23)]),
    )


def test_sideband_frequencies_explicit_values():
    tri = ep.DressedTriplet(
        energies=(25.0, 0.0, -35.0),
        coefficients=(0.5, 0.5),
    )
    assert sideband_frequencies(tri) == [-60.0, -35.0, -25.0, 0.0, 25.0, 35.0, 60.0]


def test_degenerate_limit_collapses_to_five_values():
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=30.0)
    tri = dressed_triplet(cfg, DipoleCoefficients(delta12=0.0, gamma12=0.0))
    freqs = sideband_frequencies(tri)
    assert len(set(round(f, 9) for f in freqs)) == 5
    assert set(round(f, 9) for f in freqs) == {-60.0, -30.0, 0.0, 30.0, 60.0}


def test_paper_parameters_give_seven_distinct_lines(pair_config, pair_triplet):
    freqs = sideband_frequencies(pair_triplet)
    assert len(set(round(f, 9) for f in freqs)) == 7


def test_effective_coefficients_controls():
    forced = ep.EmitterPairConfig(kr12=0.05, rabi=30.0, force_independent=True)
    c = effective_coefficients(forced)
    assert (c.delta12, c.gamma12) == (0.0, 0.0)
    single = ep.EmitterPairConfig(atom_count=1, rabi=30.0)
    c1 = effective_coefficients(single)
    assert (c1.delta12, c1.gamma12) == (0.0, 0.0)


def test_direction_normalization():
    cfg = ep.EmitterPairConfig(kr12=0.1, rabi=1.0, laser_direction=(0.0, 3.0, 4.0))
    assert np.linalg.norm(cfg.laser_direction) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="nonzero"):
        ep.EmitterPairConfig(kr12=0.1, rabi=1.0, laser_direction=(0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "direction, unit",
    [
        ((1e300, 1e300, 0.0), (math.sqrt(0.5), math.sqrt(0.5), 0.0)),
        ((-1e308, 0.0, 1e308), (-math.sqrt(0.5), 0.0, math.sqrt(0.5))),
        ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, -3e-310, 4e-310), (0.0, -0.6, 0.8)),  # subnormal components
    ],
)
def test_direction_normalization_at_extreme_scales(direction, unit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or underflow warning either
        cfg = ep.EmitterPairConfig(
            kr12=0.1, rabi=1.0, laser_direction=direction, detection_direction=direction
        )
    for got in (cfg.laser_direction, cfg.detection_direction):
        assert got == pytest.approx(unit, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [(math.inf, 0.0, 0.0), (math.nan, 1.0, 0.0)])
def test_direction_must_be_finite_and_nonzero(bad):
    with pytest.raises(ValueError, match="finite and nonzero"):
        ep.EmitterPairConfig(kr12=0.1, rabi=1.0, detection_direction=bad)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ep.EmitterPairConfig(kr12=-1.0, rabi=1.0)
    with pytest.raises(ValueError):
        ep.EmitterPairConfig(kr12=0.1, cos_theta12=1.5, rabi=1.0)
    with pytest.raises(ValueError):
        ep.EmitterPairConfig(kr12=0.1, rabi=-2.0)
    with pytest.raises(ValueError):
        ep.EmitterPairConfig(kr12=0.1, rabi=1.0, atom_count=3)
    for count in (2.0, 1.5, "2", np.float64(1.0)):  # not integers
        with pytest.raises(ValueError, match="atom_count must be 1 or 2"):
            ep.EmitterPairConfig(kr12=0.1, rabi=1.0, atom_count=count)
    assert len(ep.EmitterPairConfig(atom_count=np.int64(1)).atom_positions) == 1
