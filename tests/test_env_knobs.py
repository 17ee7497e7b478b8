"""The environment knobs of the program: exactly three, each documented.

A run is a pure function of ``(seed, config, plan)`` and these three
switches.  A new ``REPRO_*`` variable read anywhere under ``src/`` is a
new execution mode: it has to be added here and to README.md's table on
purpose.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: every environment variable the program reads
KNOBS = {"REPRO_SPMD_RUNNER", "REPRO_FUSED", "REPRO_SANITIZE"}


def _env_names():
    """Every string literal under ``src/`` that is a ``REPRO_*`` name,
    with where it is."""
    names = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)):
                names.setdefault(node.value, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    return names


def test_the_program_reads_exactly_three_documented_knobs():
    names = _env_names()
    assert set(names) == KNOBS, names
    readme = (ROOT / "README.md").read_text()
    for name in KNOBS:
        assert re.search(rf"^\| `{name}` \|", readme, re.M), \
            f"{name} has no row in README.md's environment table"
