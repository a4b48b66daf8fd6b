"""Tests of the package's public surface."""

import ast
import fnmatch
import pathlib
import re

import pytest

import voldeconv
from voldeconv.experiment import ExperimentConfig, parse_config_text

SRC = pathlib.Path(voldeconv.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_names_resolve():
    for name in voldeconv.__all__:
        assert hasattr(voldeconv, name), name
    assert len(set(voldeconv.__all__)) == len(voldeconv.__all__)
    # deleted: the Lanczos gamma (scipy's loggamma replaced it), two helpers
    # that duplicated estimate_density and _observation_matrix, three that
    # only tests called, and the one-field KernelMoments record
    for gone in (
        "complex_gamma", "vh_multivariate", "make_observation_vectors",
        "phi_k_abs", "tail_envelope", "sample_noise", "KernelMoments",
    ):
        assert gone not in voldeconv.__all__
        assert not hasattr(voldeconv, gone)


def test_all_is_the_import_blocks_public_names():
    # __all__ is derived, not listed: the public names the package's imports
    # bind, in their order, then __version__
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert voldeconv.__all__ == [n for n in bound if not n.startswith("_")] + ["__version__"]


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


def _readme_blocks(lang: str) -> list:
    """The bodies of README's fenced code blocks tagged lang ("" for none)."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return [body for tag, body in blocks if tag == lang]


def test_readme_quick_start_runs(capsys):
    (code,) = _readme_blocks("python")
    exec(compile(code, str(README), "exec"), {})
    gap = float(capsys.readouterr().out)
    assert gap < 0.5  # the text says about 0.33


def test_readme_experiment_config_parses():
    (text,) = [b for b in _readme_blocks("") if b.startswith("model = ")]
    cfg = ExperimentConfig.from_mapping(parse_config_text(text))
    assert (cfg.model, cfg.n_schedule, cfg.times) == ("ou", (1000, 10000), (1.0,))


def test_rules_file_is_declared_package_data_beside_quadrature():
    # an install without the file would fail at the first rule, not fall
    # back to leggauss: so the wheel must carry it
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    from voldeconv import quadrature

    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["voldeconv"]
    assert any(fnmatch.fnmatch(quadrature._RULES.name, p) for p in patterns), patterns
    assert quadrature._RULES.parent == pathlib.Path(quadrature.__file__).parent
    assert quadrature._RULES.is_file()
