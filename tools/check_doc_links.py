#!/usr/bin/env python
"""CI docs gate: every relative markdown link and anchor must resolve.

Scans ``README.md`` and ``docs/*.md`` for inline markdown links,
resolves each relative target against the linking file, and checks
anchors (``#fragment``) against the target file's headings using
GitHub's slug rules (lowercase, punctuation stripped, spaces to
hyphens).  External links (``http://``, ``https://``, ``mailto:``) are
skipped — the gate is about keeping the docs' *internal* cross-links
alive as pages move and sections rename, not about the network.

Python sources cite docs by name in docstrings and comments
(``docs/serving.md``, ``README.md``): every ``*.md`` name in a ``.py``
file under ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and
``tools/`` must exist relative to the repository root or to the citing
file's directory.

    python tools/check_doc_links.py [file ...]

Exit code 0 = every link resolves; 1 = at least one dead link, each
reported on its own ``file:line`` line.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Inline links only; reference-style links are not used in this repo.
# Images (![alt](src)) are checked the same way — a missing diagram is
# as dead as a missing page.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*)$")
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
_MD_NAME = re.compile(r"[\w./-]*[\w-]\.md\b")
_PY_ROOTS = ("src", "tests", "benchmarks", "examples", "tools")


def _slugify(heading: str) -> str:
    """GitHub's anchor slug: strip markdown/punctuation, lowercase,
    spaces to hyphens (consecutive spaces collapse via the split)."""
    text = re.sub(r"[`*_]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return "-".join(text.split())


def _anchors(path: str) -> set:
    anchors = set()
    counts = {}
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            match = _HEADING.match(line)
            if not match:
                continue
            slug = _slugify(match.group(2))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def _doc_files():
    files = []
    readme = os.path.join(REPO_ROOT, "README.md")
    if os.path.exists(readme):
        files.append(readme)
    docs = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs):
        files.extend(
            os.path.join(docs, name)
            for name in sorted(os.listdir(docs))
            if name.endswith(".md")
        )
    return files


def check_file(path: str) -> list:
    errors = []
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in _LINK.finditer(line):
                target = match.group(1)
                if target.startswith(_EXTERNAL):
                    continue
                where = f"{os.path.relpath(path, REPO_ROOT)}:{lineno}"
                link_path, _, fragment = target.partition("#")
                if link_path:
                    resolved = os.path.normpath(
                        os.path.join(os.path.dirname(path), link_path)
                    )
                    if not os.path.exists(resolved):
                        errors.append(
                            f"{where}: dead link {target!r} "
                            f"({os.path.relpath(resolved, REPO_ROOT)} "
                            "does not exist)"
                        )
                        continue
                else:
                    resolved = path  # same-file anchor
                if fragment and resolved.endswith(".md"):
                    if fragment not in _anchors(resolved):
                        errors.append(
                            f"{where}: dead anchor {target!r} (no heading "
                            f"slugs to '#{fragment}' in "
                            f"{os.path.relpath(resolved, REPO_ROOT)})"
                        )
    return errors


def _py_files():
    for root in _PY_ROOTS:
        for directory, _, names in os.walk(os.path.join(REPO_ROOT, root)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def check_py_file(path: str) -> list:
    """Every ``*.md`` name the source cites must be a file that exists."""
    errors = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for name in _MD_NAME.findall(line):
                if not any(
                    os.path.exists(os.path.join(base, name))
                    for base in (REPO_ROOT, os.path.dirname(path))
                ):
                    errors.append(
                        f"{os.path.relpath(path, REPO_ROOT)}:{lineno}: cites "
                        f"{name!r}, which does not exist"
                    )
    return errors


def main(argv) -> int:
    files = [os.path.abspath(p) for p in argv[1:]] or [
        *_doc_files(),
        *_py_files(),
    ]
    errors = []
    for path in files:
        check = check_py_file if path.endswith(".py") else check_file
        errors.extend(check(path))
    if errors:
        print(f"doc-links FAILED ({len(errors)} dead link(s)):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"doc-links OK: {len(files)} files, all relative links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
