"""Dense site operators, embeddings, traces and the superoperator type."""

import numpy as np
import pytest
import scipy.sparse as sp

from emitpair.operators import (
    HilbertLayout,
    SparseComplexMatrix,
    embed,
    expectation,
    number_op,
    sigma_minus,
)


def random_dense(rng, rows, cols, density=0.5):
    dense = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return dense * (rng.random((rows, cols)) < density)


def test_from_entries_sums_duplicates():
    # the constructor sums duplicate coordinates into canonical complex CSR
    coo = sp.coo_matrix(([1.0, 2.0, -1j], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    m = SparseComplexMatrix(coo)
    assert m.csr.dtype == np.complex128
    assert m.csr.has_canonical_format
    assert m.csr.nnz == 2
    np.testing.assert_array_equal(m.csr.toarray(), [[0.0, 3.0], [-1j, 0.0]])


def test_exact_zero_entries_eliminated():
    # exact zeros, stored or from cancelling duplicates, are dropped
    coo = sp.coo_matrix(
        ([1.0, -1.0, 2.0, 0.0], ([0, 0, 1, 1], [0, 0, 1, 0])), shape=(2, 2)
    )
    m = SparseComplexMatrix(coo)
    assert m.csr.has_canonical_format
    assert m.csr.nnz == 1
    np.testing.assert_array_equal(m.csr.toarray(), [[0.0, 0.0], [0.0, 2.0]])


def test_constructor_leaves_the_callers_matrix_as_it_was():
    # [[1, 0], [0, 2]] with the zero stored: only the copy drops it
    data = np.array([1.0, 0.0, 2.0], dtype=np.complex128)
    csr = sp.csr_matrix((data, [0, 1, 1], [0, 2, 3]), shape=(2, 2))
    assert SparseComplexMatrix(csr).csr.nnz == 2
    assert csr.nnz == 3
    np.testing.assert_array_equal(csr.data, [1.0, 0.0, 2.0])
    # and read-only arrays are only read
    for arr in (csr.data, csr.indices, csr.indptr):
        arr.flags.writeable = False
    copied = SparseComplexMatrix(csr).csr.toarray()
    np.testing.assert_array_equal(copied, [[1.0, 0.0], [0.0, 2.0]])


def test_layout_refuses_counts_that_are_not_integers_or_negative():
    for atoms, sensors, message in (
        (2, -1, "sensor count must be nonnegative"),
        (0, 0, "need at least one atom"),
        (2, 1.5, "must be integers"),
        (2.0, 0, "must be integers"),
        ("2", 0, "must be integers"),
        (2, np.float64(1.0), "must be integers"),
    ):
        with pytest.raises(ValueError, match=message):
            HilbertLayout(atoms, sensors)
    layout = HilbertLayout(np.int64(2), np.int64(1))
    assert layout.dimension == 8 and layout.sensor_sites == [2]


def test_kron_lowers_first_site():
    # first factor is site 0: sigma_minus on site 0 maps |ee> to |ge>
    op = embed(sigma_minus(), 0, HilbertLayout(2))
    up_up = np.zeros(4)
    up_up[3] = 1.0  # |e e> = index 1*2 + 1
    out = op @ up_up
    expected = np.zeros(4)
    expected[1] = 1.0  # |g e>
    np.testing.assert_allclose(out, expected)


def test_embed_matches_explicit_kron(rng):
    layout = HilbertLayout(2, 2)
    local = random_dense(rng, 2, 2)
    embedded = embed(local, 2, layout)
    i2 = np.eye(2)
    explicit = np.kron(np.kron(i2, i2), np.kron(local, i2))
    np.testing.assert_allclose(embedded, explicit)


def test_embed_is_read_only_and_cached():
    layout = HilbertLayout(2, 1)
    op = embed(sigma_minus(), 2, layout)
    with pytest.raises(ValueError, match="read-only"):
        op[0, 0] = 1.0
    assert embed(sigma_minus(), 2, layout) is op
    # keyed by value: an equal copy of the local operator hits the same entry
    assert embed(np.array(sigma_minus()), 2, layout) is op


def test_embed_lowering_acts_on_named_site():
    layout = HilbertLayout(2)
    op = embed(sigma_minus(), 0, layout)
    state = np.zeros(4)
    state[2] = 1.0  # |e g>
    out = op @ state
    expected = np.zeros(4)
    expected[0] = 1.0  # |g g>
    np.testing.assert_allclose(out, expected)


def test_embed_number_eigenvalues():
    layout = HilbertLayout(2)
    n1 = embed(number_op(), 1, layout)
    vals = np.sort(np.linalg.eigvalsh(n1))
    np.testing.assert_allclose(vals, [0.0, 0.0, 1.0, 1.0], atol=1e-14)


def test_embedded_operators_on_distinct_sites_commute():
    layout = HilbertLayout(2, 1)
    a = embed(sigma_minus(), 0, layout)
    b = embed(sigma_minus(), 2, layout)
    assert not np.any(a @ b - b @ a)


def test_embed_site_out_of_range():
    layout = HilbertLayout(2)
    with pytest.raises(ValueError, match="out of range"):
        embed(sigma_minus(), 2, layout)
    # a fractional site matches no factor, so it would embed the identity
    for site in (0.5, 1.0, np.float64(0.0), "0"):
        with pytest.raises(ValueError, match="site must be an integer"):
            embed(sigma_minus(), site, HilbertLayout(2, 1))
    assert embed(sigma_minus(), np.int64(1), layout) is embed(sigma_minus(), 1, layout)


def test_embed_rejects_non_two_level():
    layout = HilbertLayout(2)
    with pytest.raises(ValueError, match="2x2"):
        embed(np.eye(4), 0, layout)


def test_expectation_identity_is_trace():
    rho = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
    assert expectation(np.eye(2), rho) == pytest.approx(1.0)


def test_expectation_ground_state_population():
    rho = np.array([[1.0, 0.0], [0.0, 0.0]])  # ground state |g><g|
    assert expectation(number_op(), rho) == pytest.approx(0.0)


def test_expectation_matches_dense_trace(rng):
    op = random_dense(rng, 4, 4)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    expected = np.trace(op @ rho)
    assert expectation(op, rho) == pytest.approx(expected)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(np.eye(2), np.eye(4))


def test_layout_dimension_bookkeeping():
    layout = HilbertLayout(2, 4)
    assert layout.site_count == 6
    assert layout.dimension == 64
    assert layout.atom_sites == [0, 1]
    assert layout.sensor_sites == [2, 3, 4, 5]
    # superoperators over this space are 4096-dimensional
    assert layout.dimension**2 == 4096


def test_layout_needs_an_atom():
    with pytest.raises(ValueError, match="at least one atom"):
        HilbertLayout(0, 2)
