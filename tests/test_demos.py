"""The demos run, and every name the package exports is used somewhere.

Each demo runs in process, so a deleted or renamed export, function or
method that a demo calls fails here.  The export guard reads the sources of
the package, the demos and the benchmark harness: an exported name that none
of them refers to, outside its own definition, is dead code.  The benchmark's
layer tracer wraps package functions by name, so it must install.
"""
import ast
import functools
import inspect
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import symgap

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = [
    path
    for folder in ("src/symgap", "demos", "perfbench")
    for path in sorted((ROOT / folder).glob("*.py"))
    if path != ROOT / "src/symgap/__init__.py"
]
MODULES = {"symgap"} | {
    name for name, value in vars(symgap).items() if inspect.ismodule(value)
}


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _references(path: Path) -> list[tuple[str, int]]:
    """(name, line) for each reference in a source file: bare names,
    attributes of a package module, and string constants (getattr-style
    lookups).  Import statements are not references."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in MODULES:
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, node.lineno))
    return found


def _definition(name: str) -> tuple[Path, range]:
    """The file and lines of an exported function or class definition."""
    path = Path(inspect.getsourcefile(getattr(symgap, name)))
    for node in _tree(path).body:
        if getattr(node, "name", None) == name:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            return path, range(first, node.end_lineno + 1)
    raise LookupError(name)


def _unreferenced_exports() -> list[str]:
    """Exports with no reference outside their own definition and the
    definitions of other unreferenced exports."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in SOURCES:
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))
    defs = {
        name: _definition(name)
        for name in symgap.__all__
        if not inspect.ismodule(getattr(symgap, name))
    }
    dead: set[str] = set()
    while True:
        skip = [defs[name] for name in dead]

        def live(name):
            own = [defs[name]] + skip
            return any(
                not any(p == path and line in lines for p, lines in own)
                for path, line in refs.get(name, ())
            )

        newly = {name for name in defs if name not in dead and not live(name)}
        if not newly:
            return sorted(dead)
        dead |= newly


def test_every_export_is_referenced():
    dead = _unreferenced_exports()
    assert not dead, f"exported, but nothing refers to: {', '.join(dead)}"


def test_benchmark_tracer_installs():
    # in a fresh process, because install() patches the package for good
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]; "
        "from layer_trace import Tracer; t = Tracer(); t.install(); t.summary()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
