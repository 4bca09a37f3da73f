"""Every definition in ``src/repro`` has a caller somewhere.

Each top-level function, class and method of a top-level class must
appear, as a whole word, somewhere in ``src/``, ``tests/``,
``scripts/``, ``examples/``, ``perfbench/`` or ``.github/`` besides
its own ``def`` or ``class`` line.  Dunders, ``serve_*`` methods (the
DSOC broker dispatches them by name) and functions registered with
``@scenario`` or ``register`` are skipped.

The check is lenient by design: a name shared with anything else
(``status``, ``run``) always counts as used, so dead code can slip
through; but a definition it reports is referenced nowhere.

The guard itself is tested on small throwaway trees, so a change that
blinds it (a searched tree dropped, a skip rule widened) fails here
rather than letting dead code through unnoticed.
"""

import ast
import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SEARCHED = ("src", "tests", "scripts", "examples", "perfbench", ".github")
REGISTERING = {"scenario", "register"}

#: names that are referenced only in a form the word search cannot see.
ALLOWED = {
    # perfbench/tracer.py builds it as f"JobJournal.record_{event}"
    "JobJournal.record_assign",
}

_WORD = re.compile(r"\w+")


def _registers(node) -> bool:
    for decorator in node.decorator_list:
        target = getattr(decorator, "func", decorator)  # @x(...) or @x
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name in REGISTERING:
            return True
    return False


def _definitions(root):
    """(path, line, qualified name, name) of every checked definition
    in ``root/src/repro``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, functions) and _registers(node):
                continue
            if isinstance(node, (*functions, ast.ClassDef)):
                yield path, node.lineno, node.name, node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, functions):
                    yield (path, member.lineno,
                           f"{node.name}.{member.name}", member.name)


def _corpus(root, skip):
    """Whole-word counts over every searched file but *skip*, and each
    file's lines (for the words on a definition's own line)."""
    words: Counter = Counter()
    lines = {}
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*")):
            if (not path.is_file() or path == skip
                    or "__pycache__" in path.parts
                    or path.suffix == ".pyc"):
                continue
            text = path.read_text(encoding="utf-8", errors="ignore")
            lines[path] = text.splitlines()
            words.update(_WORD.findall(text))
    return words, lines


def _uncalled(root=ROOT, allowed=ALLOWED,
              skip=Path(__file__).resolve()):
    words, lines = _corpus(root, skip)
    found = []
    for path, lineno, qualified, name in _definitions(root):
        if name.startswith("__") and name.endswith("__"):
            continue
        if name.startswith("serve_") or qualified in allowed:
            continue
        own = _WORD.findall(lines[path][lineno - 1]).count(name)
        if words[name] - own <= 0:
            found.append(
                f"{path.relative_to(root)}:{lineno} {qualified}"
            )
    return found


def test_every_definition_has_a_caller():
    uncalled = _uncalled()
    assert not uncalled, (
        "defined but referenced nowhere (delete it, or list it in "
        "ALLOWED with the reason a word search cannot see its caller):\n"
        + "\n".join(uncalled)
    )


def test_allowlist_entries_still_exist():
    defined = {qualified for _p, _l, qualified, _n in _definitions(ROOT)}
    assert ALLOWED <= defined


def _tree(tmp_path, files):
    """A throwaway repository holding *files* ({relative path: text})."""
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


MODULE = "src/repro/mod.py"


class TestGuard:
    def test_reports_a_name_found_only_on_its_own_line(self, tmp_path):
        root = _tree(tmp_path, {MODULE: """\
            def orphan():
                return 1
            """})
        assert _uncalled(root, allowed=set()) == [
            "src/repro/mod.py:1 orphan"
        ]

    # spelled out, not SEARCHED: dropping a tree from the guard must
    # fail its case here rather than remove it
    @pytest.mark.parametrize("top", ["src", "tests", "scripts", "examples",
                                     "perfbench", ".github"])
    def test_a_mention_in_each_searched_tree_counts(self, tmp_path, top):
        root = _tree(tmp_path, {
            MODULE: "def helper():\n    return 1\n",
            f"{top}/user.txt": "calls helper() here\n",
        })
        assert _uncalled(root, allowed=set()) == []

    def test_a_mention_outside_the_searched_trees_does_not(self, tmp_path):
        root = _tree(tmp_path, {
            MODULE: "def helper():\n    return 1\n",
            "docs/guide.md": "`helper()` is documented but not called\n",
        })
        assert _uncalled(root, allowed=set()) == [
            "src/repro/mod.py:1 helper"
        ]

    def test_only_whole_words_count(self, tmp_path):
        root = _tree(tmp_path, {
            MODULE: "def load():\n    return 1\n",
            "tests/test_mod.py": "reload(); load_all(); preload\n",
        })
        assert _uncalled(root, allowed=set()) == [
            "src/repro/mod.py:1 load"
        ]

    def test_methods_are_reported_by_qualified_name(self, tmp_path):
        root = _tree(tmp_path, {
            MODULE: """\
                class Used:
                    def kept(self):
                        return self.spare
                    def spare(self):
                        return 1
                    def dropped(self):
                        return 2
                """,
            "tests/test_mod.py": "Used().kept()\n",
        })
        assert _uncalled(root, allowed=set()) == [
            "src/repro/mod.py:6 Used.dropped"
        ]

    def test_dunders_and_serve_methods_are_skipped(self, tmp_path):
        root = _tree(tmp_path, {
            MODULE: """\
                class Server:
                    def __init__(self):
                        pass
                    def serve_lookup(self):
                        return 1
                """,
            "tests/test_mod.py": "Server()\n",
        })
        assert _uncalled(root, allowed=set()) == []

    def test_registered_functions_are_skipped(self, tmp_path):
        root = _tree(tmp_path, {MODULE: """\
            from functools import lru_cache
            from repro.engine.registry import register, scenario

            @scenario("E99", params={})
            def e99():
                return {}

            @register
            def plugged():
                return {}

            @lru_cache(maxsize=None)
            def memoised():
                return {}
            """})
        # only a registering decorator stands in for a caller
        assert _uncalled(root, allowed=set()) == [
            "src/repro/mod.py:13 memoised"
        ]

    def test_allowlisted_names_are_not_reported(self, tmp_path):
        root = _tree(tmp_path, {MODULE: """\
            class Journal:
                def record_assign(self):
                    return 1
            """, "tests/test_mod.py": "Journal()\n"})
        assert _uncalled(root, allowed=set()) == [
            "src/repro/mod.py:2 Journal.record_assign"
        ]
        assert _uncalled(root, allowed={"Journal.record_assign"}) == []
