"""Locate the checkout this benchmark sits in and import ``repro`` from it."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RESULTS = os.path.join(HERE, "results")


def use_src() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` (the benchmark is run
    as ``python3 benchmarks/e2e/run.py`` with no ``PYTHONPATH``); exit
    non-zero when the checkout has no ``src/repro`` to measure."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"benchmarks/e2e: no repro package under {src}; nothing to measure")
    sys.path.insert(0, src)
