"""Tests of the package's public surface."""

import voldeconv


def test_all_names_resolve():
    for name in voldeconv.__all__:
        assert hasattr(voldeconv, name), name
    assert len(set(voldeconv.__all__)) == len(voldeconv.__all__)
    # deleted: the Lanczos gamma (scipy's loggamma replaced it), two helpers
    # that duplicated estimate_density and _observation_matrix, and three
    # that only tests called
    for gone in (
        "complex_gamma", "vh_multivariate", "make_observation_vectors",
        "phi_k_abs", "tail_envelope", "sample_noise",
    ):
        assert gone not in voldeconv.__all__
        assert not hasattr(voldeconv, gone)
