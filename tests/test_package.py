"""Tests of the package's public surface."""

import ast
import pathlib

import pytest

import voldeconv

SRC = pathlib.Path(voldeconv.__file__).parent


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


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads as a name (np.sqrt reads np)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_one():
    assert _unused_imports("import os\nfrom typing import Sequence\nos.sep\n") == [
        "Sequence (line 2)"
    ]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"),
)
def test_no_unused_imports(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []
