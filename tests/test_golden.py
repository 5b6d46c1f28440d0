"""Golden reports: `analyze --json` output must repeat byte for byte.

Each file in tests/golden/ was written by the code before the change it
guards: the integer `charpoly` and `restrict_to_segment` for the first twelve,
`MPoly.square` for dense_axb4, and the Engel shortcut of the exponentiality
screen (nilpotent algebras run no trials) for filiform_10 and
dense_heisenberg2. A change that is meant to keep reports identical must keep
this test green. The dense inputs are `change_basis(axb^k, M)` and
`change_basis(heisenberg:2, M)` for the fixed integer M named in each file's
header.

Regenerate after a deliberate report change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
import sys

import pytest

from orbitrank.cli import main

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, "..", "fixtures")

# (golden name, exit code, analyze arguments)
CASES = [
    ("abelian_3", 0, ["catalog:abelian:3"]),
    ("axb", 0, ["catalog:axb"]),
    ("heisenberg_2", 0, ["catalog:heisenberg:2"]),
    ("filiform_6", 0, ["catalog:filiform:6"]),
    ("grelaud_1_2", 0, ["catalog:grelaud:1/2"]),
    ("oscillator", 2, ["catalog:oscillator"]),
    ("e2", 2, ["catalog:e2"]),
    ("sl2", 2, ["catalog:sl2"]),
    ("direct_sum_axb_heisenberg_1", 0, ["catalog:direct_sum:axb+heisenberg:1"]),
    ("fixture_axb", 0, [os.path.join(FIXTURES, "axb.lie")]),
    ("dense_axb2", 0, [os.path.join(GOLDEN, "dense_axb2.lie"), "--samples", "20"]),
    ("dense_axb3", 0, [os.path.join(GOLDEN, "dense_axb3.lie"), "--samples", "6"]),
    ("dense_axb4", 0, [os.path.join(GOLDEN, "dense_axb4.lie"), "--samples", "2"]),
    ("filiform_10", 0, ["catalog:filiform:10"]),
    ("dense_heisenberg2", 0, [os.path.join(GOLDEN, "dense_heisenberg2.lie")]),
]


def run_analyze(args, dest) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["analyze", *args, "--json", dest])


@pytest.mark.parametrize("name,code,args", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, code, args, tmp_path):
    out = tmp_path / "report.json"
    assert run_analyze(args, str(out)) == code
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


if __name__ == "__main__":
    for name, code, args in CASES:
        dest = os.path.join(GOLDEN, f"{name}.json")
        if run_analyze(args, dest) != code:
            sys.exit(f"{name}: unexpected exit code")
