"""Shared benchmark helpers: result tables under benchmarks/results/."""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_table(name: str, title: str, header, rows) -> str:
    """Persist a result table under benchmarks/results/ and return it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]

    def fmt(row):
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))

    lines = [title, fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    text = "\n".join(lines) + "\n"
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text)
    print("\n" + text)
    return text


@pytest.fixture(scope="session")
def record_table():
    return write_table
