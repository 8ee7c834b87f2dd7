"""Golden bytes of the analytic outputs.

The files under ``tests/data`` were written by the CLI before the analytic
formulas were consolidated; these outputs use only Python floats and exact
rationals, so they must stay identical byte for byte.
"""

from pathlib import Path

import pytest

from mdlq.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("eval_A2_31_beta0.5.json", ["eval", "--lattice", "A2", "--index", "31", "--beta", "0.5"]),
        ("eval_fig10.csv", ["eval", "--figure", "fig10"]),
        ("eval_asymptotic_A2_300.csv", ["eval", "--asymptotic", "A2", "--n-max", "300"]),
        ("design_Z2_13.json", ["design", "--lattice", "Z2", "--index", "13"]),
    ],
)
def test_golden_bytes(tmp_path, capsys, golden, argv):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / golden).read_bytes()
