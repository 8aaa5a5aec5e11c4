"""Cauchy-Schwarz ratio, Bell quantifier and sample points on the leapfrog lines."""

import warnings
from functools import reduce

import numpy as np
import pytest

import emitpair as ep
from emitpair.liouville import SensorSpec, build_assembly, steady_state
from emitpair.nonclassicality import bell_quantifier, csi_ratio, virtual_sample_point
from emitpair.observables import UndefinedCorrelationError
from emitpair.operators import embed, expectation, sigma_minus


def test_leapfrog_degenerate_limit():
    # without the dipole couplings the seven antidiagonals collapse onto five
    cfg = ep.EmitterPairConfig(kr12=0.05, rabi=30.0)
    tri = ep.dressed_triplet(cfg, ep.DipoleCoefficients(delta12=0.0, gamma12=0.0))
    sums = ep.sideband_frequencies(tri)
    assert len(sums) == 7
    assert sorted({round(line, 9) for line in sums}) == [-60.0, -30.0, 0.0, 30.0, 60.0]


def test_virtual_sample_point_clearances(pair_triplet):
    lines = ep.sideband_frequencies(pair_triplet)
    for line in lines:
        w1, w2 = virtual_sample_point(pair_triplet, line, clearance=3.0)
        assert w1 + w2 == pytest.approx(line, abs=1e-9)
        assert abs(w1 - w2) >= 3.0
        for omega in (w1, w2):
            assert min(abs(omega - ln) for ln in lines) >= 3.0


def test_virtual_sample_point_refuses_a_meaningless_clearance_or_rank(pair_triplet):
    for clearance in (0.0, -3.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="clearance must be finite and positive"):
            virtual_sample_point(pair_triplet, pair_triplet.d12, clearance=clearance)
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        virtual_sample_point(pair_triplet, pair_triplet.d12, rank=-1)
    for rank in (0.5, 1.0, "1"):
        with pytest.raises(ValueError, match="rank must be an integer"):
            virtual_sample_point(pair_triplet, pair_triplet.d12, rank=rank)
    for sum_value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="sum_value must be finite"):
            virtual_sample_point(pair_triplet, sum_value)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="avoid frequencies must be finite"):
            virtual_sample_point(pair_triplet, pair_triplet.d12, avoid=[0.0, bad])
    assert virtual_sample_point(pair_triplet, pair_triplet.d12, rank=np.int64(1)) == (
        virtual_sample_point(pair_triplet, pair_triplet.d12, rank=1)
    )
    w1, w2 = virtual_sample_point(pair_triplet, pair_triplet.d12, clearance=0.5)
    assert abs(w1 - w2) >= 0.5


def test_csi_point_fields_consistent(pair_config, pair_triplet):
    w1, w2 = virtual_sample_point(pair_triplet, pair_triplet.d12)
    point = csi_ratio(pair_config, w1, w2, 1.0)
    assert point.ratio == pytest.approx(point.g12**2 / (point.g11 * point.g22))
    # same construction and code path as the plain filtered correlation
    direct = ep.sensor_g2(pair_config, w1, w2, 1.0)
    assert point.g12 == pytest.approx(direct, abs=1e-8)


def test_csi_exchange_symmetry(pair_config, pair_triplet):
    w1, w2 = virtual_sample_point(pair_triplet, pair_triplet.d23)
    a = csi_ratio(pair_config, w1, w2, 1.0)
    b = csi_ratio(pair_config, w2, w1, 1.0)
    assert a.ratio == pytest.approx(b.ratio, abs=1e-6)


def test_csi_virtual_violation_and_real_non_violation(pair_config, pair_triplet):
    w1, w2 = virtual_sample_point(pair_triplet, pair_triplet.d12)
    assert csi_ratio(pair_config, w1, w2, 1.0).ratio > 1.0
    assert csi_ratio(pair_config, pair_triplet.d13, 0.0, 1.0).ratio <= 1.0


def test_csi_undefined_propagates(pair_config):
    with pytest.raises(UndefinedCorrelationError):
        csi_ratio(pair_config, 5e4, -5e4, 1.0)


def test_no_violation_away_from_all_antidiagonals(pair_config, pair_triplet):
    # points more than 3 sensor linewidths from every joint-emission line and
    # from every single-photon resonance stay classical
    tri = pair_triplet
    freqs = ep.sideband_frequencies(tri)  # the antidiagonal sums too
    for w1, w2 in [(8.0, -40.0), (12.0, 5.0), (-8.0, 48.0), (30.0, 16.0)]:
        assert min(abs(w1 + w2 - s) for s in freqs) > 3.0
        assert min(abs(w - f) for w in (w1, w2) for f in freqs) > 3.0
        assert csi_ratio(pair_config, w1, w2, 1.0).ratio <= 1.05


def test_csi_epsilon_stability(pair_config, pair_triplet):
    w1, w2 = virtual_sample_point(pair_triplet, pair_triplet.d12)
    base = csi_ratio(pair_config, w1, w2, 1.0, epsilon=1e-4).ratio
    doubled = csi_ratio(pair_config, w1, w2, 1.0, epsilon=2e-4).ratio
    assert abs(doubled - base) / base < 1e-3


@pytest.fixture(scope="module")
def bell_opposite_d12(pair_config_module):
    tri = ep.dressed_triplet(
        pair_config_module, ep.dipole_coefficients(pair_config_module)
    )
    return bell_quantifier(pair_config_module, tri.d12, -tri.d12, 1.0)


@pytest.fixture(scope="module")
def pair_config_module():
    return ep.EmitterPairConfig(kr12=0.05, rabi=30.0)


def test_bell_term_structure(bell_opposite_d12):
    b1111, b2222, b1221, b1122, b2211 = bell_opposite_d12.b_terms
    assert abs(b1111.imag) < 1e-10
    assert abs(b2222.imag) < 1e-10
    assert abs(b1221.imag) < 1e-10
    assert b1122 == pytest.approx(b2211.conjugate(), abs=1e-10)


def test_bell_quantifier_matches_formula(bell_opposite_d12):
    b1111, b2222, b1221, b1122, b2211 = bell_opposite_d12.b_terms
    value = np.sqrt(2.0) * abs(
        (b1111 + b2222 - 4.0 * b1221 - b1122 - b2211)
        / (b1111 + b2222 + 2.0 * b1221)
    )
    assert bell_opposite_d12.quantifier == pytest.approx(value)


def test_bell_cross_term_matches_filtered_correlation(
    bell_opposite_d12, pair_config_module
):
    # the normalized a1-b1 moment is the two-sensor cross correlation
    tri = ep.dressed_triplet(
        pair_config_module, ep.dipole_coefficients(pair_config_module)
    )
    direct = ep.sensor_g2(pair_config_module, tri.d12, -tri.d12, 1.0)
    assert bell_opposite_d12.b_terms[2].real == pytest.approx(direct, rel=1e-6)


def test_bell_normalization_cancels_on_central_line(pair_config_module):
    # on omega2 = -omega1 both sensor pairs hold equal populations, so the
    # population normalization drops out of the quantifier identically;
    # verify against the same moments computed from raw populations
    tri = ep.dressed_triplet(
        pair_config_module, ep.dipole_coefficients(pair_config_module)
    )
    point = bell_quantifier(pair_config_module, tri.d23, -tri.d23, 1.0)
    b1111, b2222, b1221, b1122, b2211 = point.b_terms
    # scale-invariance of the quantifier under common rescaling
    for scale in (1e-16, 1.0, 1e16):
        value = np.sqrt(2.0) * abs(
            (scale * b1111 + scale * b2222 - 4 * scale * b1221
             - scale * b1122 - scale * b2211)
            / (scale * b1111 + scale * b2222 + 2 * scale * b1221)
        )
        assert value == pytest.approx(point.quantifier)


def test_bell_exchange_symmetry(pair_config_module):
    tri = ep.dressed_triplet(
        pair_config_module, ep.dipole_coefficients(pair_config_module)
    )
    a = bell_quantifier(pair_config_module, tri.d12, -tri.d12, 1.0)
    b = bell_quantifier(pair_config_module, -tri.d12, tri.d12, 1.0)
    assert a.quantifier == pytest.approx(b.quantifier, abs=1e-6)


def _bell_terms_of_the_sensor_model(config, omega1, omega2, linewidth, epsilon):
    """The normalized b-terms from the steady state of the 4096-dim model
    with sensors (a1, a2) at ``omega1`` and (b1, b2) at ``omega2``."""
    sensors = tuple(SensorSpec(w, linewidth, epsilon) for w in (omega1, omega1, omega2, omega2))
    assembly = build_assembly(config, sensors)
    rho = steady_state(assembly).data
    layout = assembly.layout
    a1, a2, b1, b2 = (embed(sigma_minus(), site, layout) for site in layout.sensor_sites)

    def moment(*ops):
        return expectation(reduce(np.matmul, ops), rho)

    na1, na2, nb1, nb2 = (moment(x.conj().T, x).real for x in (a1, a2, b1, b2))
    pair_norm = np.sqrt(na1 * na2 * nb1 * nb2)
    return (
        moment(a1.conj().T, a2.conj().T, a2, a1) / (na1 * na2),
        moment(b1.conj().T, b2.conj().T, b2, b1) / (nb1 * nb2),
        moment(a1.conj().T, b1.conj().T, b1, a1) / (na1 * nb1),
        moment(a1.conj().T, a2.conj().T, b1, b2) / pair_norm,
        moment(b2.conj().T, b1.conj().T, a2, a1) / pair_norm,
    )


@pytest.mark.parametrize("linewidth", [1.0, 0.1])
def test_bell_matches_the_four_sensor_model(pair_config_module, linewidth):
    # leading-order blocks against the finite-coupling oracle at epsilon 1e-4,
    # whose epsilon^2 bias is about 1e-8; observed worst relative difference
    # 2.8e-9 (linewidth 1) and 8.3e-9 (linewidth 0.1), on terms and quantifier
    tri = ep.dressed_triplet(
        pair_config_module, ep.dipole_coefficients(pair_config_module)
    )
    point = bell_quantifier(pair_config_module, tri.d13, -tri.d13, linewidth)
    oracle = _bell_terms_of_the_sensor_model(
        pair_config_module, tri.d13, -tri.d13, linewidth, 1e-4
    )
    for got, want in zip(point.b_terms, oracle):
        assert abs(got - want) <= 1e-6 * abs(want)
    b1111, b2222, b1221, b1122, b2211 = oracle
    quantifier = np.sqrt(2.0) * abs(
        (b1111 + b2222 - 4.0 * b1221 - b1122 - b2211) / (b1111 + b2222 + 2.0 * b1221)
    )
    assert point.quantifier == pytest.approx(quantifier, rel=1e-6)


def test_bell_undefined_propagates(pair_config):
    with pytest.raises(UndefinedCorrelationError):
        bell_quantifier(pair_config, 5e4, -5e4, 1.0)


def test_bell_at_a_large_coupling_is_silent_and_the_same(pair_config):
    # epsilon enters the Bell point only through the population floor, so a
    # coupling that would perturb the finite-epsilon model neither warns nor
    # moves the quantifier
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strong = bell_quantifier(pair_config, 40.0, -40.0, 1.0, epsilon=0.05)
    weak = bell_quantifier(pair_config, 40.0, -40.0, 1.0, epsilon=1e-4)
    assert strong.quantifier == weak.quantifier
    assert strong.b_terms == weak.b_terms
