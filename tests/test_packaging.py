import importlib
import importlib.util
from pathlib import Path

import pytest

import secondwild

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_version_matches_package():
    pyproject = ROOT / "pyproject.toml"
    with pyproject.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert project["version"] == secondwild.__version__


def test_public_names_resolve_once():
    names = secondwild.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(secondwild, n)] == []


def test_benchmark_traced_names_resolve():
    # bench/spans.py wraps these functions by name; a deletion that breaks
    # the traced benchmark run fails here first
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(f"secondwild.{layer}"), name)
    ]
    assert missing == []
