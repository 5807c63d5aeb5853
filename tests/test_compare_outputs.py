import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _summary(tmp_path, suffix, base, head):
    files = tmp_path / f"base{suffix}", tmp_path / f"head{suffix}"
    for path, text in zip(files, (base, head)):
        path.write_text(text)
    return compare_outputs.summarize_difference(*files)


def test_json_signed_zero_integer_float_and_non_finite(tmp_path):
    base = json.dumps({"a_hat": [0.0, 2.0], "n": 0, "label": "x", "r": 1.0})
    head = json.dumps({"a_hat": [-0.0, 2.0000000000000004], "n": 0.0, "label": "y", "r": float("nan")})
    assert _summary(tmp_path, ".json", base, head) == (
        " (3 of 4 numeric values differ, largest relative difference 2.22e-16; also label, r)"
    )


def test_csv_signed_zero(tmp_path):
    assert _summary(tmp_path, ".csv", "x,y\n0.0,1\n", "x,y\n-0.0,1\n") == (
        " (1 of 2 numeric values differ, largest relative difference 0)"
    )


def _files(tmp_path, name, base, head):
    (tmp_path / "base").mkdir(exist_ok=True)
    (tmp_path / "head").mkdir(exist_ok=True)
    files = tmp_path / "base" / name, tmp_path / "head" / name
    for path, text in zip(files, (base, head)):
        path.write_text(text)
    return files


def test_version_only_differences(tmp_path):
    manifest = {"subcommand": "analyze", "version": "0.1.2"}
    bumped = dict(manifest, version="0.1.3")
    assert compare_outputs.version_only(*_files(
        tmp_path, "manifest.json", json.dumps(dict(manifest, created_utc="then")),
        json.dumps(dict(bumped, created_utc="now")),
    ))
    report = {"manifest": manifest, "radii": [1.0]}
    assert compare_outputs.version_only(
        *_files(tmp_path, "report.json", json.dumps(report), json.dumps(dict(report, manifest=bumped)))
    )
    assert not compare_outputs.version_only(
        *_files(tmp_path, "report.json", json.dumps(report), json.dumps({"manifest": bumped, "radii": [2.0]}))
    )
    # a "version" outside a manifest is a result
    assert not compare_outputs.version_only(
        *_files(tmp_path, "other.json", json.dumps({"version": 1}), json.dumps({"version": 2}))
    )
    line = "# manifest: {}\nx,rho\n1.0,{}\n"
    base = line.format(json.dumps(manifest), "0.9")
    assert compare_outputs.version_only(*_files(tmp_path, "c.csv", base, line.format(json.dumps(bumped), "0.9")))
    assert not compare_outputs.version_only(*_files(tmp_path, "c.csv", base, line.format(json.dumps(bumped), "")))
    assert not compare_outputs.version_only(*_files(tmp_path, "series.txt", "1", "2"))
