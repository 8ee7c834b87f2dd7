"""Golden bytes of the analytic outputs and of the designs.

The files under ``tests/data`` were written by the CLI; these outputs use
only Python floats and exact rationals, so they must stay identical byte for
byte.  The ``simulate_*.json`` reports were written by the CLI while the
label entropy still sorted whole rows with ``np.unique(axis=0)``; they cover
each source kind, more than one chunk, and label keys too wide to pack
without ranking the packed prefix (Z8/81 ``gauss:3000``) and a column
(A2/7 ``gauss:1e12``).  ``design_sha256.json`` pins the serialized design of every
acceptance-sweep design and of the benchmark's build ladder, as written with
the typed transportation solver's tie rule.  ``design_cost.json`` pins the
exact optimal cost of those designs and of six large ones, as the n x n
Hungarian solver found it before the typed solver replaced it: a tie rule may
pick another optimum, but never another cost.  Z1/10001, Z2/10001 and
A2/10003 were recorded by the typed solver; like every Z1 pin, the cost of
Z1/10001 is N (N^4 - 1) / 48.  A2/10093, the one large pin built with the
full group (order 6), was recorded before the group action became one array
product.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mdlq.cli import main
from mdlq.evaluation import build_design

from .reference_design import scalar_row

DATA = Path(__file__).parent / "data"
DESIGN_SHA256 = json.loads((DATA / "design_sha256.json").read_text())
DESIGN_COST = json.loads((DATA / "design_cost.json").read_text())


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("eval_A2_31_beta0.5.json", ["eval", "--lattice", "A2", "--index", "31", "--beta", "0.5"]),
        ("eval_fig10.csv", ["eval", "--figure", "fig10"]),
        ("eval_asymptotic_A2_300.csv", ["eval", "--asymptotic", "A2", "--n-max", "300"]),
        ("design_Z2_13.json", ["design", "--lattice", "Z2", "--index", "13"]),
        *(
            (f"simulate_{lat}_{n}_{source.replace(':', '_')}.json",
             ["simulate", "--lattice", lat, "--index", n, "--source", source,
              "--samples", samples, "--seed", seed, "--beta", beta])
            for lat, n, source, samples, seed, beta in [
                ("A2", "31", "periods:20", "150000", "1", "0.7"),
                ("Z8", "81", "periods:2", "150000", "2", "0.7"),
                ("A2", "7", "gauss:3", "150000", "3", "0.7"),
                ("Z1", "5", "uniform:2", "150000", "4", "0.7"),
                ("Z8", "81", "gauss:3000", "140000", "5", "0.7"),
                ("A2", "7", "gauss:1e12", "140000", "6", "0.001"),
            ]
        ),
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


@pytest.mark.parametrize("key", sorted(DESIGN_COST))
def test_design_cost_pinned(key):
    """Each design is built and verified and reaches the recorded optimum,
    and each of its rows is the scalar direction rule's row of its edge."""
    name, n = key.split("/")
    lab = build_design(name, int(n))
    cost = lab.to_dict()["cost_summary"]
    assert {k: cost[k] for k in ("total_num", "total_den")} == DESIGN_COST[key]
    lat = lab.lattice
    assert lab.rows == [scalar_row(lat, rep, lab.table[rep]) for rep in lab.sub.coset_reps]
