"""Dimension tables and interval cohomology cases."""

import pytest

from alhlab.cohomology import (
    ModuliDim,
    l2_hodge_dim,
    l2_hodge_table,
    moduli_dim,
    wh_interval,
)


def test_harmonic_form_dimensions_pinned():
    assert l2_hodge_dim(1, 2) == 10
    assert l2_hodge_dim(9, 2) == 2
    assert l2_hodge_dim(3, 1) == 0
    for b in range(1, 10):
        assert l2_hodge_dim(b, 2) == 11 - b
        for k in (0, 1, 3, 4):
            assert l2_hodge_dim(b, k) == 0


def test_harmonic_form_dimensions_poincare_symmetric():
    for b in range(1, 10):
        for k in range(5):
            assert l2_hodge_dim(b, k) == l2_hodge_dim(b, 4 - k)


def test_degree_and_bundle_range_validation():
    for bad_b in (0, 10, -1, 2.0, True):
        with pytest.raises(ValueError):
            l2_hodge_dim(bad_b, 2)
    with pytest.raises(ValueError):
        l2_hodge_dim(4, 5)
    with pytest.raises(ValueError):
        moduli_dim(0)
    with pytest.raises(ValueError):
        l2_hodge_table(12)


def test_moduli_dimension_and_split():
    m = moduli_dim(1)
    assert m == 27 and m.split == (24, 3)
    m = moduli_dim(9)
    assert m == 3 and m.split == (0, 3)
    assert moduli_dim(5) == 15
    for b in range(1, 10):
        m = moduli_dim(b)
        assert isinstance(m, ModuliDim)
        assert m == 3 * (10 - b)
        assert m.split == (3 * (9 - b), 3)
        assert sum(m.split) == m
        # bookkeeping against the harmonic-form count in degree 2
        assert m == 3 * (l2_hodge_dim(b, 2) - 1) + 3 - 3
        assert l2_hodge_dim(b, 2) == (9 - b) + 2


def test_interval_cohomology_three_cases():
    assert wh_interval(0, -1) == 1
    assert wh_interval(0, 0) == 0
    assert wh_interval(1, 0) is None
    assert wh_interval(1, 0.3) == 0
    assert wh_interval(1, -2) == 0
    assert wh_interval(0, -0.5) == 0  # boundary weight is excluded
    with pytest.raises(ValueError):
        wh_interval(2, 0.0)


def test_interval_cohomology_monotone_in_weight():
    gammas = [-3.0, -1.0, -0.51, -0.5, -0.49, 0.0, 1.0, 4.0]
    dims = [wh_interval(0, g) for g in gammas]
    assert all(d0 >= d1 for d0, d1 in zip(dims, dims[1:]))


def test_hodge_table_rows():
    table = l2_hodge_table(4)
    assert len(table) == 5
    assert [row.k for row in table] == [0, 1, 2, 3, 4]
    dims = {row.k: row.dim for row in table}
    assert dims == {0: 0, 1: 0, 2: 7, 3: 0, 4: 0}
    labels = {row.k: row.label for row in table}
    assert labels[0] == "H^0(X,B)"
    assert labels[3] == "IH^3_0(X,B)"
    assert "IH^2" in labels[2] and "Im(" in labels[2]
    assert "H^4(X-B)" in labels[4]
