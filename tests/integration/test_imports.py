"""Every module-level import in ``src/repro`` is read by its module,
and no package ``__init__.py`` imports anything.

An import statement at module level (nested ``if``/``try`` blocks
included, function and class bodies not) binds names; each must be
read somewhere in the same module: as a name in code, in an
annotation, or inside a string annotation such as
``"ServerBinding"``.  ``from __future__`` imports are skipped.

A package ``__init__.py`` holds only its docstring (the root one also
``__version__``), so every import statement there is reported, read
or not: a re-export would stand in for a caller of the name it binds,
and it would make importing any module of the package load the rest.

No linter runs in CI, so this stands in for the one check an
unused-import rule would make.  Like the caller guard
(``test_callers.py``), it is tested on throwaway trees.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imports(node):
    """Import statements of *node*'s body outside functions and classes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, _SCOPES):
            yield from _imports(child)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}


def _reads(tree):
    """Every name the module reads, string annotations included."""
    names = _names(tree)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= _names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return names


def _unused(root=ROOT):
    found = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            imports = [node for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))]
            reads = set()
        else:
            imports, reads = _imports(tree), _reads(tree)
        for node in imports:
            if (path.name != "__init__.py"
                    and isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in reads:
                    found.append(
                        f"{path.relative_to(root)}:{node.lineno} {name}"
                    )
    return found


def test_every_module_level_import_is_read():
    unused = _unused()
    assert not unused, (
        "imported but never read, or imported in a package __init__.py:\n"
        + "\n".join(unused)
    )


def test_package_inits_hold_only_their_docstring():
    # the root also holds __version__; anything else (an __all__, a
    # helper) would be code no module reaches through an import
    extra = []
    for path in sorted((ROOT / "src" / "repro").rglob("__init__.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        docstring = (body and isinstance(body[0], ast.Expr)
                     and isinstance(body[0].value, ast.Constant)
                     and isinstance(body[0].value.value, str))
        rest = body[1:] if docstring else body
        if path.parent.name == "repro":
            rest = [node for node in rest
                    if not (isinstance(node, ast.Assign)
                            and [getattr(t, "id", None) for t in node.targets]
                            == ["__version__"])]
        if not docstring or rest:
            extra.append(str(path.relative_to(ROOT)))
    assert not extra, "holds more than its docstring:\n" + "\n".join(extra)


def _tree(tmp_path, files):
    """A throwaway repository holding *files* ({relative path: text})."""
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


MODULE = "src/repro/mod.py"


class TestGuard:
    def test_an_unused_import_is_reported(self, tmp_path):
        root = _tree(tmp_path, {MODULE: """\
            import math
            from typing import List, Optional
            import os.path
            import json as codec

            def f(xs: List[int]):
                return json.dumps(xs)
            """})
        # an alias is checked under the name it binds
        assert _unused(root) == [
            "src/repro/mod.py:1 math",
            "src/repro/mod.py:2 Optional",
            "src/repro/mod.py:3 os",
            "src/repro/mod.py:4 codec",
        ]

    def test_reads_in_code_and_aliases_count(self, tmp_path):
        root = _tree(tmp_path, {MODULE: """\
            import os.path
            import json as codec
            from math import sqrt

            def f(x):
                return os.path.join(codec.dumps(sqrt(x)))
            """})
        assert _unused(root) == []

    def test_a_read_only_in_an_annotation_counts(self, tmp_path):
        root = _tree(tmp_path, {MODULE: """\
            from __future__ import annotations

            from typing import TYPE_CHECKING, Dict, Optional

            if TYPE_CHECKING:
                from repro.other import Binding

            def f(x: Optional[int]) -> "Binding":
                table: Dict[str, int] = {}
                return table
            """})
        assert _unused(root) == []

    def test_imports_nested_in_module_level_blocks_are_checked(self, tmp_path):
        root = _tree(tmp_path, {MODULE: """\
            try:
                import json
            except ImportError:
                json = None

            if True:
                import math

            def f():
                import os
                return json
            """})
        assert _unused(root) == ["src/repro/mod.py:7 math"]

    def test_future_imports_are_skipped(self, tmp_path):
        root = _tree(tmp_path, {MODULE: """\
            from __future__ import annotations

            def helper():
                return 1
            """})
        assert _unused(root) == []

    def test_every_import_in_an_init_is_reported(self, tmp_path):
        # a re-export is reported though __all__ names it, and so
        # are __future__ imports and imports inside functions
        root = _tree(tmp_path, {
            "src/repro/pkg/__init__.py": """\
                \"\"\"The package.\"\"\"

                from __future__ import annotations

                from repro.pkg.mod import helper

                __all__ = ["helper"]

                def load():
                    import repro.pkg.mod
                    return repro.pkg.mod
                """,
            "src/repro/pkg/mod.py": """\
                def helper():
                    return 1
                """,
        })
        assert _unused(root) == [
            "src/repro/pkg/__init__.py:3 annotations",
            "src/repro/pkg/__init__.py:5 helper",
            "src/repro/pkg/__init__.py:10 repro",
        ]

    def test_an_init_with_only_a_docstring_passes(self, tmp_path):
        root = _tree(tmp_path, {"src/repro/pkg/__init__.py": """\
            \"\"\"The package.\"\"\"

            __version__ = "1.0.0"
            """})
        assert _unused(root) == []
