"""Golden reports: the CLI output of fixed invocations, checked in under
tests/golden/ and compared field by field.

Floats agree to a relative 1e-12; strings, booleans, integers and the
structure must match exactly.  When a change alters report numbers on
purpose, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and say why in CHANGES.md.
"""
import json
import math
import sys
from pathlib import Path

import pytest

from symgap.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

CASES = {
    "vcg_audit_m6_seed0.json": [
        "vcg-audit", "--m", "6", "--deviations", "8", "--trials", "200", "--seed", "0",
    ],
    "menu_separation_seed0.json": ["menu-separation", "--seed", "0"],
}


def json_diff(expected, actual, path="$", rel=REL_TOL) -> list[str]:
    """Differences between two decoded JSON values, one line per mismatch."""
    if type(expected) is not type(actual):
        return [f"{path}: type {type(expected).__name__} != {type(actual).__name__}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in json_diff(expected[k], actual[k], f"{path}.{k}", rel)]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [
            d for i, (e, a) in enumerate(zip(expected, actual))
            for d in json_diff(e, a, f"{path}[{i}]", rel)
        ]
    if isinstance(expected, float):
        if math.isclose(expected, actual, rel_tol=rel, abs_tol=0.0):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def _report(args, out: Path) -> dict:
    assert main(args + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    expected = json.loads((GOLDEN / name).read_text())
    assert json_diff(expected, _report(CASES[name], tmp_path / name)) == []


def test_json_diff_tolerance_and_exact_fields():
    base = {"x": 1.0, "n": 3, "ok": True, "s": "a", "v": [0.5, 2]}
    assert json_diff(base, json.loads(json.dumps(base))) == []
    assert json_diff(base, base | {"x": 1.0 + 1e-13}) == []
    assert json_diff(base, base | {"x": 1.0 + 1e-10}) == ["$.x: 1.0 != 1.0000000001"]
    assert json_diff(base, base | {"n": 3.0}) == ["$.n: type int != float"]
    assert json_diff(base, base | {"ok": 1}) == ["$.ok: type bool != int"]
    assert json_diff(base, base | {"s": "b"}) == ["$.s: 'a' != 'b'"]
    assert json_diff(base, base | {"v": [0.5]}) == ["$.v: length 2 != 1"]
    assert json_diff(base, {"x": 1.0}) != []


if __name__ == "__main__":
    for name, args in CASES.items():
        code = main(args + ["--out", str(GOLDEN / name)])
        if code:
            sys.exit(code)
