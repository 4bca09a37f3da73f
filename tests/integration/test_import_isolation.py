"""Every module in ``src/repro`` imports on its own.

Package ``__init__.py`` files import nothing, so importing a module
loads only what it imports itself.  A module that works only because
another one was imported first (an import-order dependency) passes
inside the full suite and fails for whoever imports it alone.  One
fresh interpreter imports each module in turn, dropping every
``repro`` module from ``sys.modules`` before each import; each module
is then its own test case, so a failure names it.

Like the caller and import guards, the check is also run on a
throwaway tree, so a change that blinds it fails here.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: run in the fresh interpreter, with the module names as arguments
_IMPORT_EACH = """\
import importlib
import json
import sys
import traceback

failed = {}
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed[name] = traceback.format_exc(limit=-1)
print(json.dumps(failed))
"""


def _modules(root):
    """Dotted names of every module and package under ``root/src``."""
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


def _failures(root=ROOT):
    """{module: traceback} of each module that fails to import alone."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH, *_modules(root)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def failures():
    return _failures()


@pytest.mark.parametrize("module", list(_modules(ROOT)))
def test_module_imports_on_its_own(module, failures):
    assert module not in failures, failures[module]


def test_every_module_is_listed():
    modules = list(_modules(ROOT))
    assert "repro" in modules and "repro.engine.cli" in modules
    assert len(modules) == len(list((ROOT / "src" / "repro").rglob("*.py")))


class TestGuard:
    def test_an_import_order_dependency_is_reported(self, tmp_path):
        files = {
            "src/repro/__init__.py": '"""Root."""\n',
            "src/repro/pkg/__init__.py": '"""Package."""\n',
            "src/repro/pkg/a.py": "VALUE = 1\n",
            # reads a submodule it never imports: works only after
            # something else imported repro.pkg.a
            "src/repro/pkg/b.py": """\
                import repro.pkg

                VALUE = repro.pkg.a.VALUE
                """,
            "src/repro/pkg/c.py": """\
                from repro.pkg.a import VALUE
                """,
        }
        for relative, text in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        failures = _failures(tmp_path)
        assert list(failures) == ["repro.pkg.b"]
        assert "AttributeError" in failures["repro.pkg.b"]
