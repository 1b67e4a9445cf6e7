#!/usr/bin/env python
"""Reachability gate: every function under ``src/`` is called by a root,
or has a written verdict.

``check_dead_defs.py`` finds a definition that nothing *names*; this
tool finds one that nothing a user runs ever *calls*.  A root is what
the repository exists to run:

* each ``benchmarks/e2e`` workload, one plain and one traced pass;
* each paper bench ``benchmarks/bench_*.py`` (quick mode, under pytest);
* each ``examples/*.py``.

The tool copies the tree to a temporary directory (so a root's result
files land there) and runs every root in that copy, one at a time, with
a ``sitecustomize`` hook on ``PYTHONPATH`` that installs
``sys.setprofile`` / ``threading.setprofile``.  The hook appends the
first call of each ``src/`` code object to one log through an
``O_APPEND`` descriptor, so subprocesses, threads and forked
``multiprocessing`` workers all count, even one that leaves by
``os._exit``.  Tests are not roots: a def only a test calls is listed.

Listed are the functions and methods under ``src/`` that no root calls,
``Class.method`` by qualified name; dunders (called by protocol) and
``@abstractmethod``s (never called themselves) are skipped.  Every
listed def needs a one-line verdict in ``tools/reach_baseline.txt``
(``<path>::<qualname>  <why it stays>``): a def that only tests reach
either earns its line or leaves ``src/``.

    python tools/reach.py

Exit code 0 = every unreached def has a verdict; 1 = at least one has
none (each printed).  A full run takes about 20 minutes on two cores.
"""

import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_dead_defs  # noqa: E402

REPO_ROOT = check_dead_defs.REPO_ROOT
BASELINE = os.path.join(REPO_ROOT, "tools", "reach_baseline.txt")
WORKLOADS = ("mlp_solo", "resnet8_solo", "serve_mlp_pool", "compile_paper")

_HOOK = '''\
import os
import sys
import threading

_SRC = os.environ.get("REACH_SRC")
if _SRC:
    _LOG = os.open(os.environ["REACH_LOG"], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _SEEN = {}

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _SEEN:
                _SEEN[id(code)] = code
                if code.co_filename.startswith(_SRC):
                    os.write(_LOG, f"{code.co_filename}:{code.co_firstlineno}\\n".encode())

    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


def default_roots(root):
    """The argument lists (after ``python``) of every root in ``root``."""
    roots = [
        ["benchmarks/e2e/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "5", "--trace", trace]
        for workload in WORKLOADS
        for trace in ("0", "1")
    ]
    for pattern, prefix in (("benchmarks/bench_*.py", ["-m", "pytest", "-q", "-p", "no:cacheprovider"]),
                            ("examples/*.py", [])):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            roots.append(prefix + [os.path.relpath(path, root)])
    return roots


def _is_abstract(node):
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def functions(root):
    """``{(relpath, first_line): (qualname, lines)}`` for every function
    and method under ``<root>/src/`` but dunders and ``@abstractmethod``s.  The
    first line is the first decorator's, as a code object reports it."""
    found = {}
    for path, tree in check_dead_defs.src_trees(root):
        rel = os.path.relpath(path, root)
        for qualname, node in check_dead_defs.walk_defs(tree):
            if isinstance(node, ast.ClassDef) or _is_abstract(node):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[(rel, first)] = (qualname, node.end_lineno - first + 1)
    return found


def reached(root, roots):
    """``{(relpath, first_line)}`` of every ``src/`` code object a root
    in a copy of ``root`` calls, and the roots that exited non-zero."""
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        hook = os.path.join(scratch, "hook")
        os.makedirs(hook)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as f:
            f.write(_HOOK)
        log = os.path.join(scratch, "calls.log")
        src = os.path.join(tree, "src")
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.pathsep.join([hook, src]),
            REACH_SRC=src + os.sep,
            REACH_LOG=log,
            HOTPATH_QUICK="1",
        )
        failed = []
        for args in roots:
            print("reach: running", " ".join(args), flush=True)
            code = subprocess.run(
                [sys.executable] + args, cwd=tree, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            if code != 0:
                failed.append((" ".join(args), code))
        calls = set()
        if os.path.exists(log):
            with open(log) as f:
                for line in f:
                    path, _, first = line.rstrip("\n").rpartition(":")
                    calls.add((os.path.relpath(path, tree), int(first)))
    return calls, failed


def read_baseline(path):
    """``{"<relpath>::<qualname>": verdict}`` from a baseline file."""
    verdicts = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#"):
                    key, _, verdict = line.partition(" ")
                    verdicts[key] = verdict.strip()
    return verdicts


def run(root, roots, baseline):
    """Run ``roots`` in a copy of ``root``, print the unreached defs and
    return the exit code (1 when one has no verdict in ``baseline``)."""
    defs = functions(root)
    calls, failed = reached(root, roots)
    for args, code in failed:
        print(f"reach: note: root `{args}` exited {code}")
    unreached = sorted(
        (f"{rel}::{qualname}", lines)
        for (rel, first), (qualname, lines) in defs.items()
        if (rel, first) not in calls
    )
    verdicts = read_baseline(baseline)
    missing = [key for key, _ in unreached if not verdicts.get(key)]
    print(f"reach: {len(unreached)} of {len(defs)} src/ functions no root calls "
          f"({sum(lines for _, lines in unreached)} lines):")
    for key, lines in unreached:
        print(f"  {key} ({lines} lines)")
    stale = sorted(set(verdicts) - {key for key, _ in unreached})
    for key in stale:
        print(f"reach: note: baseline line for {key} names no unreached def")
    if missing:
        print(f"reach FAILED: {len(missing)} unreached def(s) with no verdict in "
              f"{os.path.relpath(baseline, root)}:")
        for key in missing:
            print(f"  - {key}")
        return 1
    print("reach OK: every unreached def has a verdict")
    return 0


def main() -> int:
    return run(REPO_ROOT, default_roots(REPO_ROOT), BASELINE)


if __name__ == "__main__":
    sys.exit(main())
