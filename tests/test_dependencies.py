"""Import-footprint contract: the package is numpy-only, and everything
the tests, benchmarks and examples import is declared.

* Importing every module under ``src/repro`` loads nothing beyond what
  ``import numpy`` alone loads, the standard library and ``repro``
  itself (``setup.py``: ``install_requires=["numpy"]``).  The comparison
  is against a numpy-only interpreter, not an empty one, because site
  hooks may import third-party modules into every interpreter.
* Every absolute import in ``tests/``, ``benchmarks/``, ``perfbench/``
  and ``examples/`` resolves to the standard library, ``repro``, a
  module beside the importing file, or a distribution listed in
  ``requirements.txt`` (the file CI installs from).
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT_DIRS = ("tests", "benchmarks", "perfbench", "examples")

STDLIB = set(sys.stdlib_module_names)

IMPORT_ALL = """
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rpartition(".")[2] != "__main__":
        importlib.import_module(info.name)
"""


def _loaded_top_level(code: str) -> set:
    """Top-level names in ``sys.modules`` after ``code`` runs in a fresh
    interpreter with ``src`` on the path."""
    report = ("\nimport json, sys\n"
              "print(json.dumps(sorted({m.partition('.')[0]"
              " for m in sys.modules})))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code + report], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return set(json.loads(out.stdout.splitlines()[-1]))


def _normalize(dist: str) -> str:
    return re.sub(r"[-_.]+", "-", dist).lower()


def _declared() -> set:
    """Normalized distribution names listed in ``requirements.txt``."""
    names = set()
    for line in (ROOT / "requirements.txt").read_text().splitlines():
        line = line.partition("#")[0].strip()
        if line:
            names.add(_normalize(re.split(r"[\s<>=!~;\[]", line, 1)[0]))
    return names


def _absolute_imports(path: Path):
    """``(line, top-level name)`` of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_importing_the_package_loads_only_numpy_and_stdlib():
    baseline = _loaded_top_level("import numpy")
    extra = _loaded_top_level(IMPORT_ALL) - baseline
    assert "repro" in extra
    undeclared = sorted(extra - STDLIB - {"repro"})
    assert not undeclared, (
        f"importing repro loads {undeclared}; the package depends on "
        "numpy only")


def test_script_imports_are_declared():
    declared = _declared()
    providers = packages_distributions()
    bad = []
    for d in SCRIPT_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for line, name in _absolute_imports(path):
                if (name in STDLIB or name == "repro"
                        or (path.parent / f"{name}.py").exists()):
                    continue
                dists = {_normalize(x) for x in providers.get(name, ())}
                if not dists & declared:
                    bad.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not bad, ("imports not in requirements.txt:\n" + "\n".join(bad))
