"""Every definition in ``src/repro`` has a caller outside the tests.

Each top-level function, class and method of a top-level class must
appear, as a whole word, somewhere in ``src/``, ``scripts/``,
``examples/``, ``perfbench/`` or ``.github/`` besides its own ``def``
or ``class`` line.  Tests are not callers: a definition only a test
reaches is code no scenario, command, script, example, CI step or
benchmark runs, so ``tests/`` is not searched.  Neither are package
``__init__.py`` files, which hold only docstrings (a re-export there
would stand in for a caller).  Dunders, ``serve_*`` methods (the DSOC
broker dispatches them by name) and functions registered with
``@scenario`` or ``register`` are skipped.

The check is lenient by design: a name shared with anything else
(``status``, ``run``) always counts as used, so dead code can slip
through; but a definition it reports is referenced nowhere.

The guard itself is tested on small throwaway trees, so a change that
blinds it (a searched tree dropped or added, a skip rule widened)
fails here rather than letting dead code through unnoticed.
"""

import ast
import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SEARCHED = ("src", "scripts", "examples", "perfbench", ".github")
REGISTERING = {"scenario", "register"}

#: definitions kept without a caller the word search can see, each
#: with its reason.
ALLOWED = {
    "linear_scan_lookup":
        "the LPM tests' oracle: the obvious scan every trie is checked "
        "against",
    "unregister":
        "tests remove the scenarios they register from the process-wide "
        "registry",
    "EventBus.unsubscribe":
        "tests detach the sinks they subscribe to the process-wide bus",
    "JobJournal.record_assign":
        'perfbench/tracer.py builds the name as f"JobJournal.record_{event}"',
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
    """Whole-word counts over every searched file but *skip* and the
    package ``__init__.py`` files, and each file's lines (for the words
    on a definition's own line)."""
    words: Counter = Counter()
    lines = {}
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*")):
            if (not path.is_file() or path == skip
                    or path.name == "__init__.py"
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
        # an __init__.py is not searched, so its lines add no words
        own = (_WORD.findall(lines[path][lineno - 1]).count(name)
               if path in lines else 0)
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


def test_allowlist_entries_still_exist_and_give_a_reason():
    defined = {qualified for _p, _l, qualified, _n in _definitions(ROOT)}
    assert set(ALLOWED) <= defined
    assert all(isinstance(reason, str) and reason.strip()
               for reason in ALLOWED.values())


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
    @pytest.mark.parametrize("top", ["src", "scripts", "examples",
                                     "perfbench", ".github"])
    def test_a_mention_in_each_searched_tree_counts(self, tmp_path, top):
        root = _tree(tmp_path, {
            MODULE: "def helper():\n    return 1\n",
            f"{top}/user.txt": "calls helper() here\n",
        })
        assert _uncalled(root, allowed=set()) == []

    # tests are not callers, and a package re-export is not a use
    @pytest.mark.parametrize("user, text", [
        ("docs/guide.md", "`helper()` is documented but not called\n"),
        ("tests/test_mod.py", "assert helper() == 1\n"),
        ("src/repro/__init__.py", "from repro.mod import helper\n"),
    ])
    def test_a_mention_outside_the_searched_files_does_not(
            self, tmp_path, user, text):
        root = _tree(tmp_path, {
            MODULE: "def helper():\n    return 1\n",
            user: text,
        })
        assert _uncalled(root, allowed=set()) == [
            "src/repro/mod.py:1 helper"
        ]

    def test_a_definition_in_an_init_is_still_checked(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/pkg/__init__.py": "def orphan():\n    return 1\n",
            "src/repro/pkg/user.py": "def used():\n    return used\n",
        })
        assert _uncalled(root, allowed=set()) == [
            "src/repro/pkg/__init__.py:1 orphan"
        ]

    def test_only_whole_words_count(self, tmp_path):
        root = _tree(tmp_path, {
            MODULE: "def load():\n    return 1\n",
            "scripts/use.py": "reload(); load_all(); preload\n",
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
            "scripts/use.py": "Used().kept()\n",
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
            "scripts/use.py": "Server()\n",
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
            """, "scripts/use.py": "Journal()\n"})
        assert _uncalled(root, allowed={}) == [
            "src/repro/mod.py:2 Journal.record_assign"
        ]
        allowed = {"Journal.record_assign": "built by name"}
        assert _uncalled(root, allowed=allowed) == []
