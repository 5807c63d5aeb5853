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
