"""Sparse operator toolkit: assembly, tensor products, embeddings, traces."""

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


def random_sparse(rng, rows, cols, density=0.5):
    dense = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    mask = rng.random((rows, cols)) < density
    return SparseComplexMatrix(sp.csr_matrix(dense * mask))


def test_from_entries_sums_duplicates():
    m = SparseComplexMatrix.from_entries(2, 2, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, -1j)])
    np.testing.assert_array_equal(m.to_dense(), [[0.0, 3.0], [-1j, 0.0]])
    assert m.nnz == 2


def test_exact_zero_entries_eliminated():
    m = SparseComplexMatrix.from_entries(2, 2, [(0, 0, 1.0), (0, 0, -1.0), (1, 1, 2.0)])
    assert m.nnz == 1


def test_kron_identity_case():
    i2 = SparseComplexMatrix.identity(2)
    i4 = i2.kron(i2)
    assert (i4.rows, i4.cols) == (4, 4)
    np.testing.assert_allclose(i4.to_dense(), np.eye(4))


def test_kron_lowers_first_site():
    # first factor is site 0: sigma_minus on site 0 maps |ee> to |ge>
    op = sigma_minus().kron(SparseComplexMatrix.identity(2))
    up_up = np.zeros(4)
    up_up[3] = 1.0  # |e e> = index 1*2 + 1
    out = op @ up_up
    expected = np.zeros(4)
    expected[1] = 1.0  # |g e>
    np.testing.assert_allclose(out, expected)


def test_kron_mixed_product_property(rng):
    for _ in range(8):
        a, b, c, d = (random_sparse(rng, 2, 2) for _ in range(4))
        lhs = a.kron(b) @ c.kron(d)
        rhs = (a @ c).kron(b @ d)
        np.testing.assert_allclose(lhs.to_dense(), rhs.to_dense(), atol=1e-13)


def test_embed_matches_explicit_kron(rng):
    layout = HilbertLayout.for_system(2, 2)
    local = random_sparse(rng, 2, 2)
    embedded = embed(local, 2, layout)
    i2 = SparseComplexMatrix.identity(2)
    explicit = i2.kron(i2).kron(local.kron(i2))
    np.testing.assert_allclose(embedded.to_dense(), explicit.to_dense())


def test_embed_lowering_acts_on_named_site():
    layout = HilbertLayout.for_system(2)
    op = embed(sigma_minus(), 0, layout)
    state = np.zeros(4)
    state[2] = 1.0  # |e g>
    out = op @ state
    expected = np.zeros(4)
    expected[0] = 1.0  # |g g>
    np.testing.assert_allclose(out, expected)


def test_embed_number_eigenvalues():
    layout = HilbertLayout.for_system(2)
    n1 = embed(number_op(), 1, layout)
    vals = np.sort(np.linalg.eigvalsh(n1.to_dense()))
    np.testing.assert_allclose(vals, [0.0, 0.0, 1.0, 1.0], atol=1e-14)


def test_embedded_operators_on_distinct_sites_commute():
    layout = HilbertLayout.for_system(2, 1)
    a = embed(sigma_minus(), 0, layout)
    b = embed(sigma_minus(), 2, layout)
    comm = a @ b - b @ a
    assert comm.nnz == 0


def test_embed_site_out_of_range():
    layout = HilbertLayout.for_system(2)
    with pytest.raises(ValueError, match="out of range"):
        embed(sigma_minus(), 2, layout)


def test_embed_rejects_non_two_level():
    layout = HilbertLayout.for_system(2)
    with pytest.raises(ValueError, match="2x2"):
        embed(SparseComplexMatrix.identity(4), 0, layout)


def test_adjoint_involution(rng):
    a = random_sparse(rng, 4, 4)
    np.testing.assert_allclose(a.adjoint().adjoint().to_dense(), a.to_dense())


def test_adjoint_against_dense(rng):
    a = random_sparse(rng, 3, 5)
    np.testing.assert_allclose(a.adjoint().to_dense(), a.to_dense().conj().T)


def test_multiply_dimension_mismatch():
    a = SparseComplexMatrix.identity(4)
    b = SparseComplexMatrix.identity(2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        a @ b


def test_expectation_identity_is_trace():
    rho = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
    assert expectation(SparseComplexMatrix.identity(2), rho) == pytest.approx(1.0)


def test_expectation_ground_state_population():
    rho = np.array([[1.0, 0.0], [0.0, 0.0]])  # ground state |g><g|
    assert expectation(number_op(), rho) == pytest.approx(0.0)


def test_expectation_matches_dense_trace(rng):
    op = random_sparse(rng, 4, 4)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    expected = np.trace(op.to_dense() @ rho)
    assert expectation(op, rho) == pytest.approx(expected)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(SparseComplexMatrix.identity(2), np.eye(4))


def test_layout_dimension_bookkeeping():
    layout = HilbertLayout.for_system(2, 4)
    assert layout.site_count == 6
    assert layout.dimension == 64
    assert layout.atom_sites == [0, 1]
    assert layout.sensor_sites == [2, 3, 4, 5]
    # superoperators over this space are 4096-dimensional
    assert layout.dimension**2 == 4096


def test_layout_rejects_unknown_labels():
    with pytest.raises(ValueError, match="unknown site label"):
        HilbertLayout(site_labels=("atom", "cavity"), site_dims=(2, 2))


def test_hermiticity_defect():
    h = SparseComplexMatrix.from_entries(2, 2, [(0, 1, 1 + 1j), (1, 0, 1 - 1j)])
    assert h.hermiticity_defect() == 0.0
    nh = SparseComplexMatrix.from_entries(2, 2, [(0, 1, 1.0)])
    assert nh.hermiticity_defect() == pytest.approx(1.0)


def test_scalar_and_addition_arithmetic(rng):
    a = random_sparse(rng, 3, 3)
    b = random_sparse(rng, 3, 3)
    np.testing.assert_allclose(
        (2.0 * a + b - a).to_dense(), a.to_dense() + b.to_dense()
    )
