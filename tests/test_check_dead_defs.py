"""tools/check_dead_defs.py: the CI gate for definitions nothing uses.

Each test builds a small repository tree under ``tmp_path`` and points
the gate's root at it, so the verdicts do not depend on the real tree.
"""

import importlib.util
import os

import pytest

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "check_dead_defs.py",
)


@pytest.fixture
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_dead_defs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", str(tmp_path))
    return module


def write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_flags_each_definition_nothing_references(gate, tmp_path, capsys):
    write(tmp_path, "src/pkg/mod.py",
          "class Used:\n"
          "    def __init__(self):\n"
          "        pass\n"
          "\n"
          "    def dead_method(self):\n"
          "        pass\n"
          "\n"
          "\n"
          "def helper():\n"
          "    return Used()\n"
          "\n"
          "\n"
          "def orphan():\n"
          "    pass\n")
    write(tmp_path, "tests/test_mod.py", "from pkg.mod import helper\n")
    assert gate.main() == 1
    out = capsys.readouterr().out
    assert "2 unreferenced definition(s)" in out
    assert os.path.join("src", "pkg", "mod.py") + ":5: dead_method" in out
    assert os.path.join("src", "pkg", "mod.py") + ":13: orphan" in out
    for alive in ("Used", "__init__", "helper"):
        assert f": {alive}\n" not in out


def test_counts_python_references_under_every_root(gate, tmp_path, capsys):
    """A use in examples/ or tools/ keeps a definition; a mention outside
    a ``*.py`` file does not.  A name defined twice and used once lives,
    because the count is by name, not by scope."""
    write(tmp_path, "src/pkg/mod.py",
          "def shown_in_example():\n"
          "    pass\n"
          "\n"
          "\n"
          "def used_by_tool():\n"
          "    pass\n"
          "\n"
          "\n"
          "class A:\n"
          "    def shared(self):\n"
          "        pass\n"
          "\n"
          "\n"
          "class B:\n"
          "    def shared(self):\n"
          "        return A().shared()\n")
    write(tmp_path, "examples/demo.py", "shown_in_example()\n")
    write(tmp_path, "tools/run.py", "used_by_tool(B())\n")
    assert gate.main() == 0
    assert "dead-defs OK: 6 definitions" in capsys.readouterr().out

    write(tmp_path, "examples/notes.txt", "only_in_docs()\n")
    write(tmp_path, "src/pkg/docs_only.py", "def only_in_docs():\n    pass\n")
    assert gate.main() == 1
    assert "only_in_docs" in capsys.readouterr().out


def test_flags_upper_case_constants_nothing_reads(gate, tmp_path, capsys):
    """UPPER_CASE names assigned in a module or class body count as
    definitions; a local, a lower-case global or a constant something
    reads does not trip the gate."""
    write(tmp_path, "src/pkg/consts.py",
          "USED = 1\n"
          "DEAD: int = 2\n"
          "PAIR_A, PAIR_B = 3, 4\n"
          "lower_case = 5\n"
          "\n"
          "\n"
          "class Holder:\n"
          "    KINDS = ('a', 'b')\n"
          "\n"
          "    def size(self):\n"
          "        LOCAL = 6\n"
          "        return LOCAL + USED + PAIR_A\n")
    write(tmp_path, "tests/test_consts.py", "from pkg.consts import Holder\nHolder().size()\n")
    assert gate.main() == 1
    out = capsys.readouterr().out
    assert "3 unreferenced definition(s)" in out
    for line, name in ((2, "DEAD"), (3, "PAIR_B"), (8, "KINDS")):
        assert os.path.join("src", "pkg", "consts.py") + f":{line}: {name}\n" in out
