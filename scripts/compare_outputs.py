#!/usr/bin/env python3
"""Check that the CLI writes the same result bytes as another revision.

    python3 scripts/compare_outputs.py --base 5b584c7

Run it from the root of a source checkout.  It exports the base
revision's ``src/`` with ``git archive`` into ``.bench_build/<rev>/``, runs
a fixed set of small CLI commands once with the base package and once with
this checkout's ``src/``, and prints, file by file, whether both wrote the
same bytes.  The analysis commands of both sides read one input series.
A manifest (``manifest.json``, ``*.manifest.json``) is compared without
its ``execution`` block, ``created_utc`` and ``wall_clock_s``, which record
where, when and how long a run went.  Every command runs in a fresh interpreter with BLAS on one
thread, because a threaded dot product over a long series rounds
differently from one thread to another.

A JSON or CSV file that differs is summarized on its line: how many
numeric values differ and the largest relative difference
|base - head| / max(|base|, |head|) among them, plus the path of every
other difference (a string, a boolean, a non-finite number, a key or a
row present on one side only).

Exit status: 0 when every file matches, 1 otherwise.  Standard library only.
"""

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_CLI = "import sys; from secondwild.cli import main; sys.exit(main(sys.argv[1:]))"
UNTIMED_MANIFEST_KEYS = ("execution", "created_utc", "wall_clock_s")

# (name, arguments): "{input}" is the one input series both sides read,
# "{out}" the command's own output directory.  The "-threads" commands
# repeat a command with --threads: older revisions honoured it with a
# thread pool, so against such a base they show that pooled and serial
# runs write the same bytes.
COMMANDS = (
    ("simulate", ["simulate", "--model", "ar2", "--innovation", "product", "--T", "1000", "--seed", "3",
                  "--out", "{out}/series.csv"]),
    ("analyze", ["analyze", "{input}", "--B", "500", "--seed", "1", "--out", "{out}"]),
    ("analyze-threads", ["analyze", "{input}", "--B", "500", "--seed", "1", "--threads", "3", "--out", "{out}"]),
    ("test-null-zero", ["test", "{input}", "--null-zero", "--B", "500", "--seed", "2", "--out", "{out}"]),
    ("analyze-plugin", ["analyze", "{input}", "--band-method", "plugin", "--n-mc", "20000", "--seed", "3",
                        "--out", "{out}"]),
    ("coverage-warp", ["coverage", "--scenario", "ar1:product", "--scenario", "nlar2:independent",
                       "--T", "300", "--reps", "200", "--mode", "warp_speed", "--method", "both", "--seed", "4",
                       "--out", "{out}"]),
    ("coverage-full", ["coverage", "--scenario", "ar4:non_stationary", "--scenario", "nlar2:independent",
                       "--T", "200", "--reps", "100", "--mode", "full", "--B", "50", "--method", "both",
                       "--seed", "5", "--out", "{out}"]),
    ("coverage-full-threads", ["coverage", "--scenario", "ar4:non_stationary", "--scenario", "nlar2:independent",
                               "--T", "200", "--reps", "100", "--mode", "full", "--B", "50", "--method", "both",
                               "--seed", "5", "--threads", "2", "--out", "{out}"]),
    ("variance-study", ["variance-study", "--n", "1000", "--reps", "200", "--seed", "6", "--out", "{out}"]),
    ("approx-check", ["approx-check", "--model", "nlar2", "--T", "200", "--reps", "1000",
                      "--n-oracle", "20000", "--truth-length", "100000", "--seed", "7", "--out", "{out}"]),
)


def export_base(rev: str) -> Path:
    """Extract ``src/`` of ``rev`` into ``.bench_build/<rev>/`` and return that directory."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
    dest = BUILD / rev
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def run_cli(src: Path, command: list[str], out: Path, input_csv: Path) -> None:
    """Run one CLI command with the package in ``src``, writing into ``out``."""
    out.mkdir(parents=True)
    argv = [a.replace("{input}", str(input_csv)).replace("{out}", str(out)) for a in command]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed with PYTHONPATH={src}:\n{done.stderr}")


def comparable_json(path: Path):
    data = json.loads(path.read_text())
    if path.name.endswith("manifest.json"):
        for key in UNTIMED_MANIFEST_KEYS:
            data.pop(key, None)
    return data


def comparable_bytes(path: Path) -> bytes:
    if not path.name.endswith("manifest.json"):
        return path.read_bytes()
    return json.dumps(comparable_json(path), sort_keys=True).encode()


def leaves(value, path=""):
    """(path, leaf) pairs of a parsed JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def csv_leaves(path: Path):
    """(line:column, cell) pairs of a CSV file whose first row names the columns.

    A ``# manifest: {...}`` line gives the leaves of its JSON under
    ``line:manifest``, any other ``#`` line the line itself.
    """
    header = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.startswith("# manifest: "):
            yield from leaves(json.loads(line[len("# manifest: "):]), f"{lineno}:manifest")
            continue
        if line.startswith("#"):
            yield str(lineno), line
            continue
        row = next(csv.reader([line]))
        if header is None:
            header = row
            continue
        for index, cell in enumerate(row):
            column = header[index] if index < len(header) else str(index)
            try:
                cell = float(cell)
            except ValueError:
                pass
            yield f"{lineno}:{column}", cell


MISSING = object()


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def summarize_difference(base_file: Path, head_file: Path) -> str:
    """Numeric values that differ and the largest relative difference, then other differing paths."""
    if base_file.suffix == ".json":
        base, head = (dict(leaves(comparable_json(f))) for f in (base_file, head_file))
    elif base_file.suffix == ".csv":
        base, head = (dict(csv_leaves(f)) for f in (base_file, head_file))
    else:
        return ""
    numeric, differing, largest, other = 0, 0, 0.0, []
    for key in sorted(base.keys() | head.keys()):
        a, b = base.get(key, MISSING), head.get(key, MISSING)
        numeric += is_number(a) and is_number(b)
        if repr(a) == repr(b):
            continue
        if is_number(a) and is_number(b) and math.isfinite(a) and math.isfinite(b):
            differing += 1  # 0.0 against -0.0, or 0 against 0.0, differs by 0
            scale = max(abs(a), abs(b))
            largest = max(largest, abs(a - b) / scale if scale else 0.0)
        else:
            other.append(key)
    summary = f"{differing} of {numeric} numeric values differ, largest relative difference {largest:.3g}"
    if other:
        summary += "; also " + ", ".join(other)
    return f" ({summary})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args()

    sides = {"base": export_base(args.base) / "src", "head": ROOT / "src"}
    work = BUILD / "compare"
    shutil.rmtree(work, ignore_errors=True)
    input_csv = work / "input" / "series.csv"
    run_cli(sides["head"], COMMANDS[0][1], input_csv.parent, input_csv)

    differing = 0
    total = 0
    for name, command in COMMANDS:
        outs = {side: work / side / name for side in sides}
        for side, src in sides.items():
            run_cli(src, command, outs[side], input_csv)
        files = sorted({p.relative_to(o) for o in outs.values() for p in o.rglob("*") if p.is_file()})
        for rel in files:
            total += 1
            base_file, head_file = outs["base"] / rel, outs["head"] / rel
            if not (base_file.exists() and head_file.exists()):
                verdict = "only in " + ("head" if head_file.exists() else "base")
            elif comparable_bytes(base_file) == comparable_bytes(head_file):
                verdict = "same"
            else:
                verdict = "DIFFERENT" + summarize_difference(base_file, head_file)
            differing += verdict != "same"
            print(f"{name}/{rel}: {verdict}")
    print(f"{total - differing} of {total} result files byte-identical (base {args.base}, head working tree)")
    return 0 if differing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
