"""Every ``repro`` import line the docs show resolves.

``docs/*.md``, the verify recipe (``.claude/skills/verify/SKILL.md``)
and the ``>>>`` examples in ``src/repro`` docstrings hold import lines
a reader copies.  Each ``import repro...`` must name
a module that imports, and each ``from repro... import a, b`` a module
that imports and defines every listed name (or holds it as a
submodule).  Package ``__init__.py`` files re-export nothing, so a
line that imports a name through its package fails here.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = (*sorted((ROOT / "docs").glob("*.md")),
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        *sorted((ROOT / "src" / "repro").rglob("*.py")))

_FROM = re.compile(r"\bfrom\s+(repro(?:\.\w+)*)\s+import\s+([\w ,]*)")
_IMPORT = re.compile(r"(?:^|[\s;\"'`])import\s+(repro(?:\.\w+)*)")


def _imports(paths, root=ROOT):
    """(file:line, module, names) of every repro import in *paths*;
    in a ``.py`` file, only on ``>>>`` example lines (the module's own
    imports are checked by importing it)."""
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            if path.suffix == ".py" and not line.lstrip().startswith(">>>"):
                continue
            where = f"{path.relative_to(root)}:{lineno}"
            for match in _FROM.finditer(line):
                # "a as b" imports a; a "(" list is checked by module only
                names = [chunk.split()[0]
                         for chunk in match.group(2).split(",")
                         if chunk.strip()]
                yield where, match.group(1), names
            for match in _IMPORT.finditer(line):
                yield where, match.group(1), []


def _unresolved(imports):
    found = []
    for where, module_name, names in imports:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            found.append(f"{where} {module_name}: {exc}")
            continue
        for name in names:
            if hasattr(module, name):
                continue
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                found.append(f"{where} {module_name} has no {name}")
    return found


DOC_IMPORTS = list(_imports(DOCS))


@pytest.mark.parametrize("where, module, names", DOC_IMPORTS,
                         ids=[where for where, _m, _n in DOC_IMPORTS])
def test_doc_import_resolves(where, module, names):
    assert _unresolved([(where, module, names)]) == []


def test_the_docs_hold_import_lines():
    # a scan that finds nothing would pass whatever the docs say
    modules = {module for _w, module, _n in DOC_IMPORTS}
    assert {"repro.engine", "repro.service.server",
            "repro.cluster.journal"} <= modules


class TestGuard:
    def _doc(self, tmp_path, text):
        path = tmp_path / "guide.md"
        path.write_text(text)
        return list(_imports([path], root=tmp_path))

    def test_forms_are_parsed(self, tmp_path):
        imports = self._doc(tmp_path, (
            "```python\n"
            "from repro.engine.executor import execute, run_spec as run\n"
            "import repro.noc.topology\n"
            "```\n"
            'PYTHONPATH=src python -c "from repro.cluster.journal '
            'import JobJournal\n'
        ))
        assert imports == [
            ("guide.md:2", "repro.engine.executor", ["execute", "run_spec"]),
            ("guide.md:3", "repro.noc.topology", []),
            ("guide.md:5", "repro.cluster.journal", ["JobJournal"]),
        ]
        assert _unresolved(imports) == []

    def test_a_name_imported_through_its_package_is_reported(self, tmp_path):
        imports = self._doc(tmp_path, (
            "from repro.service import BackgroundServer, client\n"
            "from repro.engine import registry\n"
        ))
        # a submodule resolves; a name only its module defines does not
        assert _unresolved(imports) == [
            "guide.md:1 repro.service has no BackgroundServer",
        ]

    def test_only_example_lines_of_a_module_are_read(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            '"""Example.\n\n>>> from repro.sim.core import Simulator\n"""\n'
            "from repro.noc.topology import mesh\n"
        )
        assert list(_imports([path], root=tmp_path)) == [
            ("mod.py:3", "repro.sim.core", ["Simulator"]),
        ]

    def test_a_missing_module_is_reported(self, tmp_path):
        imports = self._doc(tmp_path, "import repro.rtos.kernel\n")
        [failure] = _unresolved(imports)
        assert failure.startswith("guide.md:1 repro.rtos.kernel: ")
