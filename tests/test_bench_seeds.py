"""benchmarks/bench_table2_main.py seeds each network from its row name.

A ``str`` hash is salted per process, so a seed drawn from ``hash`` would
give a row different initial weights in every run; the digest must not
depend on ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Table 2's MNIST rows, in bench order.
_ROWS = ("MLP", "LoLA", "LeNet-5")


def _row_seeds(hash_seed):
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join(
            [os.path.join(_REPO, "src"), os.path.join(_REPO, "benchmarks")]
        ),
    )
    code = (
        "from bench_table2_main import _seed\n"
        f"print(' '.join(str(_seed(name)) for name in {_ROWS!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return [int(seed) for seed in out.stdout.split()]


@pytest.mark.parametrize("hash_seed", [1, 2])
def test_row_seeds_ignore_the_hash_salt(hash_seed):
    assert _row_seeds(hash_seed) == [444, 915, 75]
