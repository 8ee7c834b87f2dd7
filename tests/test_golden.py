"""Golden bytes of the analytic outputs and of the designs.

The files under ``tests/data`` were written by the CLI; these outputs use
only Python floats and exact rationals, so they must stay identical byte for
byte.  ``design_sha256.json`` pins the serialized design of every
acceptance-sweep design and of the benchmark's build ladder, as written by
the Fraction-based assignment solver before it was replaced.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mdlq.cli import main
from mdlq.evaluation import build_design

DATA = Path(__file__).parent / "data"
DESIGN_SHA256 = json.loads((DATA / "design_sha256.json").read_text())


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


@pytest.mark.parametrize("key", sorted(DESIGN_SHA256))
def test_design_bytes_pinned(key):
    name, n = key.split("/")
    doc = json.dumps(build_design(name, int(n)).to_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == DESIGN_SHA256[key]
