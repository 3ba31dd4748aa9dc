"""Golden command line reports on the shipped scenarios.

``reports_golden.json`` holds, for ``condrisk risk|dual|expcheck|
consistency|msorte`` on every ``scenarios/*.json``, the exit code and the
JSON report (null when the command exits non-zero).  The solvers stop at
kkt_tol, so a change to a start, a step or a root find may move the last
digits of a report, and no more: exit codes, keys and non-numeric fields
must match exactly, and every finite number v within 5 kkt_tol max(1, |v|),
with the scenario's kkt_tol.

To regenerate the file, at a commit whose reports are trusted, run from the
root of the checkout:

    PYTHONPATH=src python tests/test_reports.py
"""

import json
import math
from pathlib import Path

import pytest

from condrisk import parse_scenario
from condrisk.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "reports_golden.json"
COMMANDS = ("risk", "dual", "expcheck", "consistency", "msorte")
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))


def run(command, name, out):
    """(exit code, report or None) of one command on one scenario."""
    path = ROOT / "scenarios" / f"{name}.json"
    code = main([command, str(path), "--out", str(out)])
    return code, json.loads(out.read_text()) if code == 0 else None


def as_number(value):
    """The finite float a report string holds, or None for any other field
    (a "nan" diagnostic must then match as it stands)."""
    if not isinstance(value, str):
        return None
    try:
        number = float(value)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


def compare(got, want, tol, where, bad):
    """Append to bad every field of got that differs from want beyond the
    report tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            bad.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            compare(got[key], want[key], tol, f"{where}/{key}", bad)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            bad.append(f"{where}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, tol, f"{where}/{i}", bad)
    elif as_number(want) is not None and as_number(got) is not None:
        w, g = as_number(want), as_number(got)
        if not abs(g - w) <= tol * max(1.0, abs(w)):
            bad.append(f"{where}: {got} != {want} within {tol:.1e} relative")
    elif got != want:
        bad.append(f"{where}: {got!r} != {want!r}")


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_golden(command, name, tmp_path):
    want = json.loads(GOLDEN.read_text())[f"{command} {name}"]
    code, report = run(command, name, tmp_path / "report.json")
    assert code == want["exit"]
    tol = 5.0 * parse_scenario(ROOT / "scenarios" / f"{name}.json").spec.kkt_tol
    bad = []
    compare(report, want["report"], tol, f"{command} {name}", bad)
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for name in SCENARIOS:
                code, report = run(command, name, Path(tmp) / "report.json")
                golden[f"{command} {name}"] = {"exit": code, "report": report}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
