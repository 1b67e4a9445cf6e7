"""tools/reach.py: the gate for ``src/`` functions no root calls.

Each test builds a tiny repository under ``tmp_path`` (a package under
``src/`` and one root script) and runs the tool's own pipeline on it, so
the verdicts do not depend on the real tree or its roots.
"""

import importlib.util
import os

import pytest

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "reach.py",
)

_MODULE = (
    "import abc\n"
    "import multiprocessing\n"
    "\n"
    "\n"
    "class Shape(abc.ABC):\n"
    "    @abc.abstractmethod\n"
    "    def area(self):\n"
    "        ...\n"
    "\n"
    "    def __repr__(self):\n"
    "        return 'Shape()'\n"
    "\n"
    "\n"
    "class Square(Shape):\n"
    "    def __init__(self, side):\n"
    "        self.side = side\n"
    "\n"
    "    @property\n"
    "    def area(self):\n"
    "        return self.side * self.side\n"
    "\n"
    "    def perimeter(self):\n"
    "        return 4 * self.side\n"
    "\n"
    "\n"
    "def in_child():\n"
    "    return Square(3).area\n"
    "\n"
    "\n"
    "def run():\n"
    "    child = multiprocessing.get_context('fork').Process(target=in_child)\n"
    "    child.start()\n"
    "    child.join(timeout=60)\n"
    "    return Square(2).area\n"
)


@pytest.fixture
def reach(tmp_path):
    spec = importlib.util.spec_from_file_location("reach", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "shapes.py").write_text(_MODULE)
    (tmp_path / "main.py").write_text("from pkg import shapes\n\nshapes.run()\n")
    return module


def test_lists_exactly_the_def_no_root_calls(reach, tmp_path, capsys):
    """``perimeter`` is the one def listed: ``__repr__`` (a dunder) and
    ``Shape.area`` (abstract) are skipped though nothing calls them, and
    ``in_child`` counts though only a forked worker runs it."""
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("# verdicts\nsrc/pkg/shapes.py::Square.perimeter  kept for a reason\n")
    assert reach.run(str(tmp_path), [["main.py"]], str(baseline)) == 0
    out = capsys.readouterr().out
    assert "reach: 1 of 4 src/ functions no root calls (2 lines):" in out
    assert "  src/pkg/shapes.py::Square.perimeter (2 lines)\n" in out
    assert "reach OK" in out


def test_fails_on_a_listed_def_without_a_verdict(reach, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("src/pkg/shapes.py::run  a stale line\n")
    assert reach.run(str(tmp_path), [["main.py"]], str(baseline)) == 1
    out = capsys.readouterr().out
    assert "reach FAILED: 1 unreached def(s) with no verdict" in out
    assert "  - src/pkg/shapes.py::Square.perimeter\n" in out
    assert "baseline line for src/pkg/shapes.py::run names no unreached def" in out


def test_a_failing_root_is_reported(reach, tmp_path, capsys):
    (tmp_path / "broken.py").write_text("raise SystemExit(3)\n")
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("")
    assert reach.run(str(tmp_path), [["broken.py"]], str(baseline)) == 1
    out = capsys.readouterr().out
    assert "root `broken.py` exited 3" in out
    assert "reach: 4 of 4 src/ functions no root calls" in out


def _tree(root, files):
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_decorated_and_nested_defs_are_named_by_qualname(reach, tmp_path, capsys):
    """A decorated def is matched at its first decorator's line (where
    its code object starts), and a nested def is listed under its
    enclosing def's name."""
    root = _tree(tmp_path / "deco", {
        "src/pkg/__init__.py": "",
        "src/pkg/box.py": (
            "import functools\n"
            "\n"
            "\n"
            "class Box:\n"
            "    @staticmethod\n"
            "    @functools.lru_cache(maxsize=None)\n"
            "    def cached(x):\n"
            "        return x + 1\n"
            "\n"
            "    @property\n"
            "    def size(self):\n"
            "        def helper():\n"
            "            return 3\n"
            "\n"
            "        return 2\n"
        ),
        "main.py": "from pkg.box import Box\n\nBox.cached(1) + Box().size\n",
    })
    (tmp_path / "baseline.txt").write_text("")
    assert reach.run(root, [["main.py"]], str(tmp_path / "baseline.txt")) == 1
    out = capsys.readouterr().out
    assert "reach: 1 of 3 src/ functions no root calls (2 lines):" in out
    assert "  src/pkg/box.py::Box.size.helper (2 lines)\n" in out


def test_threads_and_subprocesses_count(reach, tmp_path, capsys):
    """The hook is installed for every thread and, through
    ``sitecustomize``, in every Python subprocess a root starts."""
    root = _tree(tmp_path / "spread", {
        "src/pkg/__init__.py": "",
        "src/pkg/work.py": (
            "import subprocess\n"
            "import sys\n"
            "import threading\n"
            "\n"
            "\n"
            "def in_thread():\n"
            "    return 1\n"
            "\n"
            "\n"
            "def in_subprocess():\n"
            "    return 2\n"
            "\n"
            "\n"
            "def run():\n"
            "    worker = threading.Thread(target=in_thread)\n"
            "    worker.start()\n"
            "    worker.join()\n"
            "    code = 'from pkg import work; work.in_subprocess()'\n"
            "    subprocess.run([sys.executable, '-c', code], check=True)\n"
        ),
        "main.py": "from pkg import work\n\nwork.run()\n",
    })
    (tmp_path / "baseline.txt").write_text("")
    assert reach.run(root, [["main.py"]], str(tmp_path / "baseline.txt")) == 0
    out = capsys.readouterr().out
    assert "reach: 0 of 3 src/ functions no root calls (0 lines):" in out
    assert "reach OK" in out
