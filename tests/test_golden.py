"""Golden reports: the CLI output of fixed invocations, checked in under
tests/golden/ and compared byte for byte, so that even a one-ulp change in
a float shows.  A mismatch lists its differing fields.  When a change
alters report numbers on purpose, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

(the named goldens only, every golden when none is named; an unknown name
exits 1) and say why in CHANGES.md.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symgap
from symgap.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "vcg_audit_m6_seed0.json": [
        "vcg-audit", "--m", "6", "--deviations", "8", "--trials", "200", "--seed", "0",
    ],
    "menu_separation_seed0.json": ["menu-separation", "--seed", "0"],
    # at 7 trials a plain mean moves q by an ulp, below q0 = 0.8999
    "menu_separation_t7_seed3.json": ["menu-separation", "--menu-trials", "7", "--seed", "3"],
    # One run of every other subcommand, mostly at its defaults, so that the
    # reports pin the default of each parameter they record.
    "gap955_seed0.json": ["gap955", "--seed", "0"],
    "concavity_seed0.json": ["concavity", "--seed", "0"],
    "concavity_additive_seed0.json": ["concavity", "--family", "additive", "--seed", "0"],
    "submod_check_seed0.json": ["submod-check", "--seed", "0"],
    "submod_check_sampled_seed0.json": ["submod-check", "--mode", "sampled", "--seed", "0"],
    "product_compose_seed0.json": ["product-compose", "--seed", "0"],
    "psi_tilde_check_seed0.json": ["psi-tilde-check", "--seed", "0"],
    "chernoff_seed0.json": ["chernoff", "--seed", "0"],
    "bisect_uniformity_seed0.json": ["bisect-uniformity", "--trials", "500", "--seed", "0"],
    "greedy_ratio_seed0.json": ["greedy-ratio", "--seed", "0"],
    "poisson_midr_seed0.json": ["poisson-midr", "--seed", "0"],
    # the blockwise solver: the one path that rebuilds a valuation, and its
    # phi, from the oracle's descriptor
    "poisson_midr_two_block_m40_seed0.json": [
        "poisson-midr", "--family", "two_block_product", "--m", "40", "--k", "4",
        "--seed", "0",
    ],
    "vcg_audit_m4_seed0.json": ["vcg-audit", "--m", "4", "--deviations", "4", "--seed", "0"],
    # the benchmark's size: 21 declarations of 1000 replicated trials each
    "vcg_audit_m8_seed0.json": [
        "vcg-audit", "--n", "2", "--m", "8", "--deviations", "20", "--trials", "1000",
        "--seed", "0",
    ],
    "symgap_m40_seed0.json": [
        "symgap", "--m", "40", "--k", "20", "--partitions", "5", "--seed", "0",
    ],
    # 130 items: three-word packed masks in the batched greedy queries
    "symgap_m130_seed0.json": [
        "symgap", "--m", "130", "--k", "65", "--partitions", "4", "--seed", "0",
    ],
    # the benchmark's size: seven-word masks, 400 candidates per greedy step
    "symgap_m400_seed0.json": [
        "symgap", "--m", "400", "--k", "200", "--partitions", "3", "--seed", "0",
    ],
    "amplify_seed0.json": ["amplify", "--seed", "0"],
    "inequalities_seed0.json": ["inequalities", "--seed", "0"],
    "basic_count_seed0.json": ["basic-count", "--seed", "0"],
    "scaling_probe_seed0.json": ["scaling-probe", "--seed", "0"],
    "suite_fast_seed0.json": ["suite", "--fast", "--seed", "0"],
}


def json_diff(expected, actual, path="$") -> list[str]:
    """Exact differences between two decoded JSON values, one line per mismatch."""
    if type(expected) is not type(actual):
        return [f"{path}: type {type(expected).__name__} != {type(actual).__name__}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in json_diff(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [
            d for i, (e, a) in enumerate(zip(expected, actual))
            for d in json_diff(e, a, f"{path}[{i}]")
        ]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    expected, actual = (GOLDEN / name).read_text(), out.read_text()
    assert actual == expected, json_diff(json.loads(expected), json.loads(actual))


def run_module(args: list[str], out: Path, env: dict[str, str] | None = None) -> int:
    """Exit code of `python -m symgap ARGS --out OUT` in a fresh interpreter
    that imports this checkout's package; `env` is added to the child's
    environment only."""
    src = str(Path(symgap.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    child = dict(os.environ, **(env or {}), PYTHONPATH=path)
    argv = [sys.executable, "-m", "symgap", *args, "--out", str(out)]
    return subprocess.run(argv, env=child, timeout=300).returncode


def test_python_dash_m_symgap_writes_the_golden(tmp_path):
    out = tmp_path / "chernoff_seed0.json"
    assert run_module(CASES["chernoff_seed0.json"], out) == 0
    assert out.read_text() == (GOLDEN / "chernoff_seed0.json").read_text()


# every golden whose numbers pass through a float sum
FLOAT_SUM_GOLDENS = [
    "amplify_seed0.json",
    "gap955_seed0.json",
    "poisson_midr_seed0.json",
    "poisson_midr_two_block_m40_seed0.json",
    "suite_fast_seed0.json",
]


@pytest.mark.parametrize("name", FLOAT_SUM_GOLDENS)
def test_float_sum_goldens_do_not_depend_on_the_blas_kernel(name, tmp_path):
    """Under another OpenBLAS kernel the reports keep their bytes: the exact
    extensions and the report path's weighted sums use ufunc reductions in
    a fixed order, with no BLAS call."""
    out = tmp_path / name
    assert run_module(CASES[name], out, {"OPENBLAS_CORETYPE": "Prescott"}) == 0
    expected, actual = (GOLDEN / name).read_text(), out.read_text()
    assert actual == expected, json_diff(json.loads(expected), json.loads(actual))


def test_json_diff_exact_fields():
    base = {"x": 1.0, "n": 3, "ok": True, "s": "a", "v": [0.5, 2]}
    assert json_diff(base, json.loads(json.dumps(base))) == []
    assert json_diff(base, base | {"x": 1.0 + 2**-52}) == ["$.x: 1.0 != 1.0000000000000002"]
    assert json_diff(base, base | {"n": 3.0}) == ["$.n: type int != float"]
    assert json_diff(base, base | {"ok": 1}) == ["$.ok: type bool != int"]
    assert json_diff(base, base | {"s": "b"}) == ["$.s: 'a' != 'b'"]
    assert json_diff(base, base | {"v": [0.5]}) == ["$.v: length 2 != 1"]
    assert json_diff(base, {"x": 1.0}) != []


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden: {', '.join(unknown)}")
    for name in names:
        code = main(CASES[name] + ["--out", str(GOLDEN / name)])
        if code:
            sys.exit(code)
