"""scripts/full_report.py end to end, at small sizes."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "full_report.py"


@pytest.fixture(scope="module")
def full_report():
    spec = importlib.util.spec_from_file_location("full_report", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL = ["--order", "20", "--precision", "64", "--max-weight", "6"]


def test_small_run_writes_the_whole_report(full_report, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert full_report.main([*SMALL, "--nmax", "10", "--json-out", str(out)]) == 0
    assert "0 failures" in capsys.readouterr().out
    blob = json.loads(out.read_text())
    assert len(blob["registry"]) == 81
    assert len(blob["special_values"]) == 19
    assert all(r["status"] == "pass" for r in blob["registry"])


def test_bound_outside_convolution_domain_is_usage_error(full_report, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert full_report.main([*SMALL, "--nmax", "0", "--json-out", str(out)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "no n in 0..0 lies in its domain" in cap.err
    assert not out.exists()
