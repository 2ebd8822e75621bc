"""Golden records of the five bundled configs.

tests/golden/<name>.json holds what `vschro verify --config <name>` gave
when the record was written: the exit code, each check's verdict and
measured values, the sha256 of bundle.json, report.txt and report.csv, and
the python, numpy and scipy versions it ran under.  The test reruns each
config in-process.  The exit code and the verdicts must always equal the
record's; the measured values and the hashes must too when the versions are
the record's.  Other versions may move the last bits of a value, and no
bound for that is set until one is measured at the floors pyproject.toml
declares.

A change that moves an output rewrites the records, from the repository
root, and shows the move as their diff:

    PYTHONPATH=src:tests python -c "import test_golden as g; [g.write(n) for n in g.NAMES]"
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from vschro.cli import CHECKS, bundled_config_path, list_experiments, load_config, run_experiment

GOLDEN = Path(__file__).parent / "golden"
NAMES = list_experiments()
FILES = ("bundle.json", "report.txt", "report.csv")
VERSIONS = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def record(name: str, out) -> dict:
    """The record of one in-process `verify` of bundled config `name` into out."""
    bundle, code = run_experiment(name, out_dir=out)
    return {
        "exit_code": code,
        "verdicts": {r.name: r.passed for r in bundle.results},
        "measured": {r.name: r.measured for r in bundle.results},
        "sha256": {f: hashlib.sha256((Path(out) / f).read_bytes()).hexdigest() for f in FILES},
        "versions": VERSIONS,
    }


def write(name: str):
    with tempfile.TemporaryDirectory() as out:
        text = json.dumps(record(name, out), indent=1, sort_keys=True)
    (GOLDEN / f"{name}.json").write_text(text + "\n")


def test_every_bundled_config_has_a_record():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == NAMES


@pytest.mark.parametrize("check", list(CHECKS))
def test_each_check_is_listed_by_a_bundled_config(check):
    """So every check has a record here, and CI's twice-run cmp of each bundle."""
    assert any(check in load_config(bundled_config_path(name)).checks for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_bundled_config_matches_its_record(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = json.loads(json.dumps(record(name, tmp_path)))  # floats as the record holds them
    assert got["exit_code"] == want["exit_code"]
    assert got["verdicts"] == want["verdicts"]
    if got["versions"] == want["versions"]:
        assert got["measured"] == want["measured"]
        assert got["sha256"] == want["sha256"]
