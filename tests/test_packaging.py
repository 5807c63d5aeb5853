from pathlib import Path

import pytest

import secondwild

tomllib = pytest.importorskip("tomllib")


def test_pyproject_version_matches_package():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert project["version"] == secondwild.__version__
