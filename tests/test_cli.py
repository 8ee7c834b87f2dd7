import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlq.cli import main
from mdlq.errors import MdlqError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_design_writes_and_verifies(tmp_path, capsys):
    path = tmp_path / "d31.json"
    code, out, err = run(capsys, "design", "--lattice", "A2", "--index", "31", "--out", str(path))
    assert code == 0
    assert "property-1 reuse        PASS" in out
    assert "property-3 midpoint-sum PASS" in out
    doc = json.loads(path.read_text())
    assert doc["schema"] == 1 and doc["index"] == 31 and len(doc["table"]) == 31

    code, out, err = run(capsys, "verify", "--design", str(path))
    assert code == 0
    assert out.count("PASS") == 4


def test_design_deterministic_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "design", "--lattice", "Z2", "--index", "13", "--out", str(p1))
    run(capsys, "design", "--lattice", "Z2", "--index", "13", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_design_cost_is_brute_force_optimal(tmp_path, capsys):
    from fractions import Fraction

    from mdlq.sublattices import design_sublattice

    from .reference_design import brute_force_min_cost

    path = tmp_path / "z5.json"
    code, _, _ = run(capsys, "design", "--lattice", "Z1", "--index", "5", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    total = Fraction(doc["cost_summary"]["total_num"], doc["cost_summary"]["total_den"])
    assert total == brute_force_min_cost(design_sublattice("Z1", 5))


def test_design_error_exit(capsys):
    code, out, err = run(capsys, "design", "--lattice", "Z2", "--index", "3")
    assert code == 1
    assert "NoRepresentation" in err


def test_design_beyond_the_point_cap_is_a_resource_limit(capsys):
    # The ball around the origin that V0(0) and the edge set are cut from
    # would hold 10^8 points.
    code, out, err = run(capsys, "design", "--lattice", "Z1", "--params", "100000001")
    assert code == 1
    assert err.startswith("ResourceLimit:") and out == ""


def test_design_inadmissible_params(capsys):
    code, out, err = run(capsys, "design", "--lattice", "Z2", "--index", "4", "--params", "1,1")
    assert code == 1
    assert "InadmissibleIndex" in err


def test_verify_detects_tampering(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "design", "--lattice", "Z1", "--index", "5", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["cost_summary"]["total_num"] += 1
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--design", str(path))
    assert code == 1
    assert "cost-summary: FAIL" in out
    assert err.startswith("PropertyCheckFailed:") and "cost-summary" in err


def test_simulate_deterministic(tmp_path, capsys):
    p1, p2, p3 = (tmp_path / n for n in ("r1.json", "r2.json", "r3.json"))
    argv = [
        "simulate", "--lattice", "A2", "--index", "7", "--source", "periods:5",
        "--samples", "20000", "--seed", "3",
    ]
    run(capsys, *argv, "--out", str(p1))
    run(capsys, *argv, "--out", str(p2))
    run(capsys, "simulate", "--lattice", "A2", "--index", "7", "--source", "periods:5",
        "--samples", "20000", "--seed", "4", "--out", str(p3))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() != p3.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["schema"] == 1 and doc["n"] == 20000


def test_simulate_constant_source_reports_positive_zero_entropy(capsys):
    # A2/1 over one period labels every sample with the zero row.
    code, out, _ = run(
        capsys, "simulate", "--lattice", "A2", "--index", "1", "--source", "periods:1",
        "--beta", "1",
    )
    assert code == 0
    assert '"H1": 0.0,' in out and '"H2": 0.0,' in out


def test_simulate_csv_format(capsys):
    code, out, err = run(
        capsys, "simulate", "--lattice", "Z1", "--index", "3", "--source", "uniform:2",
        "--samples", "1000", "--seed", "0", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "d0" in lines[0].split(",")


def test_simulate_rate_targeted(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "simulate", "--lattice", "Z1", "--index", "5", "--rate", "2.0", "--a", "0.5",
        "--entropy", "0.0", "--source", "gauss:1", "--samples", "5000", "--seed", "2",
        "--out", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text())["beta"] != 1.0


def test_beta_and_rate_conflict(capsys):
    code, out, err = run(
        capsys, "simulate", "--lattice", "Z1", "--index", "5", "--beta", "1.0",
        "--rate", "2.0", "--source", "gauss:1", "--samples", "10", "--seed", "0",
    )
    assert code == 1
    assert err.startswith("InvalidInput:") and "mutually exclusive" in err


def test_eval_fig1_csv(capsys):
    code, out, err = run(capsys, "eval", "--figure", "fig1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,lattice,G_lattice,ratio_d0,G_sphere,ratio_ds"
    assert len(lines) == 6


def test_eval_fig10_json(tmp_path, capsys):
    path = tmp_path / "f.json"
    code, _, _ = run(capsys, "eval", "--figure", "fig10", "--format", "json", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["figure"] == "fig10"


def test_eval_asymptotic(capsys):
    code, out, err = run(capsys, "eval", "--asymptotic", "Z1", "--n-max", "99")
    assert code == 0
    assert out.splitlines()[0].startswith("N,K,R,beta")


def test_eval_asymptotic_z2_sweep_past_12853(capsys):
    # The shell table for N > 12 853 reaches norm 8 192, which the dense
    # convolution of the 1-D counts could not afford.
    code, out, err = run(capsys, "eval", "--asymptotic", "Z2", "--n-max", "13000")
    assert code == 0, err
    last = out.strip().splitlines()[-1].split(",")
    assert int(last[0]) > 12853


def test_eval_design_report(capsys):
    code, out, err = run(capsys, "eval", "--lattice", "A2", "--index", "7", "--beta", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"] == "A2" and doc["index"] == 7


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": "A2", "index": 7}))
    path = tmp_path / "d.json"
    code, out, _ = run(capsys, "design", "--config", str(cfg), "--out", str(path))
    assert code == 0 and json.loads(path.read_text())["index"] == 7
    # Flag overrides the config value.
    code, out, _ = run(
        capsys, "design", "--config", str(cfg), "--index", "13", "--out", str(path)
    )
    assert code == 0 and json.loads(path.read_text())["index"] == 13


def test_design_without_out_prints_json(capsys):
    code, out, err = run(capsys, "design", "--lattice", "Z2", "--index", "13")
    assert code == 0
    assert json.loads(out)["index"] == 13
    assert "property-1 reuse        PASS" in err


@pytest.mark.parametrize(
    "config,name",
    [
        ({"lattice": "A2", "index": "abc"}, "InvalidInput"),
        ({"lattice": "A2", "index": 31.5}, "InvalidInput"),
        ({"lattice": "A2", "index": True}, "InvalidInput"),
        ({"lattice": "A3", "index": 7}, "InvalidInput"),
        ({"lattice": "A2", "indx": 7}, "InvalidInput"),
        ([1, 2], "InvalidInput"),
    ],
)
def test_config_values_are_checked(tmp_path, capsys, config, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "design", "--config", str(cfg), "--out", str(tmp_path / "d.json"))
    assert code == 1
    assert err.startswith(name + ":")


def test_config_file_that_is_not_json_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lattice": "A2", "ind')  # truncated
    code, out, err = run(capsys, "design", "--config", str(cfg), "--out", str(tmp_path / "d.json"))
    assert code == 1
    assert err.startswith("InvalidInput: config file") and "is not JSON" in err


def test_config_string_number_is_coerced(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": "A2", "index": "31"}))
    path = tmp_path / "d.json"
    code, _, _ = run(capsys, "design", "--config", str(cfg), "--out", str(path))
    assert code == 0 and json.loads(path.read_text())["index"] == 31


@pytest.mark.parametrize("key", ["orbit_matching", "table", "lattice", "group_order"])
def test_verify_rejects_design_missing_key(tmp_path, capsys, key):
    path = tmp_path / "d.json"
    run(capsys, "design", "--lattice", "Z1", "--index", "5", "--out", str(path))
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--design", str(path))
    assert code == 1
    assert err.startswith("InvalidInput:") and key in err


def test_simulate_zero_samples(capsys):
    code, out, err = run(
        capsys, "simulate", "--lattice", "Z1", "--index", "3", "--samples", "0", "--seed", "0"
    )
    assert code == 1
    assert err.startswith("InvalidInput:")


@pytest.mark.parametrize("lattice,index", [("A2", "7"), ("Z4", "9")])
def test_simulate_beyond_int64_without_asserts(lattice, index):
    # Run under -O so that no assert can stand in for the check.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    argv = [
        sys.executable, "-O", "-m", "mdlq.cli", "simulate", "--lattice", lattice, "--index", index,
        "--source", "gauss:1e17", "--beta", "1e-3", "--samples", "1000",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("InvalidInput:")


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("beta", ["0", "-1", "nan", "inf"])
def test_non_positive_or_non_finite_beta_rejected(capsys, command, beta):
    code, out, err = run(capsys, command, "--lattice", "A2", "--index", "7", f"--beta={beta}")
    assert code == 1
    assert err.startswith("InvalidInput:") and "--beta" in err
    assert out == ""


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--rate=nan"],
        ["--rate=inf"],
        ["--entropy=nan", "--rate=2"],
        ["--entropy=-inf", "--beta=1"],
    ],
)
def test_non_finite_rate_or_entropy_rejected(capsys, command, flags):
    code, out, err = run(capsys, command, "--lattice", "A2", "--index", "7", *flags)
    assert code == 1
    assert err.startswith("InvalidInput:") and flags[0].split("=")[0] in err
    assert out == ""


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("a", ["-5", "0", "1", "nan"])
def test_rate_split_outside_unit_interval_rejected(capsys, command, a):
    code, out, err = run(capsys, command, "--lattice", "A2", "--index", "7", "--rate=2", f"--a={a}")
    assert code == 1
    assert err.startswith("InvalidInput:") and "--a" in err
    assert out == ""


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("rate", ["1e300", "-1e300"])
def test_rate_targeted_beta_outside_float_range_rejected(capsys, command, rate):
    # beta underflows to 0 or overflows to inf.
    code, out, err = run(capsys, command, "--lattice", "A2", "--index", "7", f"--rate={rate}")
    assert code == 1
    assert err.startswith("InvalidInput: rate") and "beta" in err
    assert out == ""


def test_properties_verified_once_per_command(tmp_path, capsys, monkeypatch):
    from mdlq.labeling import Labeling

    calls = []
    original = Labeling.verify_properties
    monkeypatch.setattr(Labeling, "verify_properties", lambda lab: calls.append(1) or original(lab))
    path = tmp_path / "z13.json"
    assert run(capsys, "design", "--lattice", "Z2", "--index", "13", "--out", str(path))[0] == 0
    assert len(calls) == 1
    code, out, _ = run(capsys, "verify", "--design", str(path))
    assert code == 0 and out.count("PASS") == 4
    assert len(calls) == 2


def test_verify_names_the_failed_property(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "design", "--lattice", "Z1", "--index", "5", "--out", str(path))
    doc = json.loads(path.read_text())
    row = next(r for r in doc["table"] if r["edge"][0] != r["edge"][1])
    row["edge"].reverse()
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--design", str(path))
    assert code == 1
    assert err.startswith("PropertyCheckFailed:") and "serialization" in err


@pytest.mark.parametrize(
    "argv,text",
    [
        (["simulate", "--lattice", "A2", "--index", "7", "--source", "weird:1"], "weird"),
        (["simulate", "--lattice", "A2", "--index", "7", "--source", "uniform:nan"], "nan"),
        (["simulate", "--lattice", "A2", "--index", "7", "--source", "periods:inf"], "inf"),
        (["simulate", "--lattice", "A2", "--index", "7", "--source", "gauss:x"], "gauss:x"),
        (["design", "--lattice", "A2", "--params", "5,x"], "5,x"),
        (["design", "--lattice", "Z1", "--params", str(10**22 + 1)], "int64"),
        (["design", "--lattice", "Z1", "--index", str(10**22 + 1)], "int64"),
    ],
)
def test_malformed_source_or_params_is_invalid_input(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("InvalidInput:") and text in err
    assert out == ""


@pytest.mark.parametrize("entropy", ["600", "512", "-530", "-600"])
def test_asymptotic_entropy_beyond_float_range_rejected(capsys, entropy):
    # 2^(2h) or beta^2 leaves the normal float range (h=600 overflowed, h=-530
    # printed values that had lost their precision).
    argv = ["eval", "--asymptotic", "A2", f"--entropy={entropy}", "--n-max", "50"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("InvalidInput: entropy") and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--lattice", "A2", "--index", "7", "--beta", "1e200"],
        ["eval", "--lattice", "A2", "--index", "7", "--beta", "1e-200"],
        ["simulate", "--lattice", "A2", "--index", "7", "--beta", "1e300", "--source", "uniform:1e300",
         "--samples", "10"],
        ["simulate", "--lattice", "A2", "--index", "7", "--beta", "1", "--samples", "10", "--seed", "-1"],
        ["simulate", "--lattice", "Z1", "--index", "5", "--beta", "1e300", "--samples", "10"],
        ["eval", "--lattice", "Z1", "--index", "5", "--beta", "1e200"],
        ["eval", "--lattice", "Z1", "--index", "1001", "--beta", "1e153"],
        ["eval", "--lattice", "Z1", "--index", "5", "--beta", "1e-300"],
        ["eval", "--lattice", "Z1", "--index", "5", "--beta", "1e-160"],
    ],
)
def test_scale_or_seed_out_of_range_is_invalid_input(capsys, argv):
    # beta^L overflowed in a traceback or underflowed to a "math domain
    # error", and numpy rejected the negative seed with its own ValueError.
    # On Z1, d0 = beta^2 / 12 overflowed in a traceback past beta = 1.3e154;
    # at N = 1001 the bounds printed Infinity, and at 1e-300 and 1e-160 the
    # report held d0 = 0.0 and a subnormal d0.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("InvalidInput:") and out == ""


def test_eval_reports_an_excess_whose_float_form_overflows(capsys):
    # beta * beta * cost overflows, but the excess beta^2 cost / N = 5.2e307
    # and the upper bound 1.50e308 are normal floats (5e153 stays out of range).
    code, out, err = run(capsys, "eval", "--lattice", "Z1", "--index", "5", "--beta", "2e153")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["excess"] == 5.2e307 and report["upper"] == pytest.approx(1.5033e308, rel=1e-4)


@pytest.mark.parametrize(
    "beta,source",
    [
        ("1e153", "gauss:1e154"),  # 2 pi e S^2 is inf: the report printed Infinity
        ("1e153", "gauss:1e155"),  # S^2 raised OverflowError
        ("1e153", "gauss:3e153"),  # 2 pi e S^2 is finite, the squared-error sums are not
        ("1", "periods:1e19"),  # numpy's own ValueError from the period draw
        ("1", "uniform:1e308"),  # numpy's own OverflowError from the uniform draw
        ("1", "gauss:1e-300"),  # S^2 underflowed to 0: "math domain error"
        ("1", "periods:1e300"),  # m^L N nu raised OverflowError before the int64 check
    ],
)
def test_simulate_overflowing_source_is_invalid_input(capsys, beta, source):
    argv = ["--lattice", "A2", "--index", "7", "--beta", beta, "--source", source]
    code, out, err = run(capsys, "simulate", *argv, "--samples", "1000")
    assert code == 1
    assert err.startswith("InvalidInput:") and out == ""


@pytest.mark.parametrize(
    "argv,text",
    [
        (["verify", "--design", "{tmp}/missing.json"], "cannot read design file"),
        (["verify", "--design", "{tmp}"], "cannot read design file"),
        (["design", "--config", "{tmp}/missing.json"], "cannot read config file"),
        (["design", "--lattice", "A2", "--index", "7", "--out", "{tmp}/no_such_dir/d.json"],
         "cannot write"),
        (["eval", "--figure", "fig1", "--out", "{tmp}"], "cannot write"),
    ],
)
def test_file_that_cannot_be_read_or_written_is_invalid_input(tmp_path, capsys, argv, text):
    # These printed FileNotFoundError or IsADirectoryError.
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert err.startswith("InvalidInput:") and text in err and out == ""


def test_fig9_with_a_negative_n_max_is_an_empty_table(capsys):
    # math.isqrt(-1) raised ValueError; the asymptotic sweep already gave an empty table.
    code, out, err = run(capsys, "eval", "--figure", "fig9", "--n-max", "-1")
    assert code == 0 and out == "curve,N_reported,N_actual,beta,R,d0,ds,excess\n"


@pytest.fixture(scope="module")
def a2_31_design(tmp_path_factory):
    path = tmp_path_factory.mktemp("design") / "a2_31.json"
    assert main(["design", "--lattice", "A2", "--index", "31", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _verify(tmp_path, capsys, doc):
    """Run ``mdlq verify`` on a design given as a dict or as JSON text."""
    path = tmp_path / "d.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return run(capsys, "verify", "--design", str(path))


def _wrong_row_then_right(doc):
    right = next(r for r in doc["table"] if r["rep"] == [-2, 0])
    wrong = {"rep": [-2, 0], "edge": [[e[0] + 1, e[1]] for e in right["edge"]]}
    doc["table"].insert(doc["table"].index(right), wrong)


@pytest.mark.parametrize(
    "mutate,text",
    [
        (_wrong_row_then_right, "repeats"),
        (lambda d: d["orbit_matching"].append(dict(d["orbit_matching"][0])), "repeats"),
        (lambda d: d.update(group_order=5), "group_order 5"),
        (lambda d: d.update(lattice="Q7"), "Q7"),
        (lambda d: d.update(params=[1, "x"]), "integers"),
    ],
    ids=["duplicate-rep", "duplicate-anchor", "group-order-5", "lattice-Q7", "params-x"],
)
def test_verify_rejects_duplicates_and_bad_header(tmp_path, capsys, a2_31_design, mutate, text):
    # A rebuild from dicts keeps only the last copy of a rep or an anchor
    # point, and an unknown group order would fall back to a default group.
    doc = json.loads(json.dumps(a2_31_design))
    mutate(doc)
    code, out, err = _verify(tmp_path, capsys, doc)
    assert code == 1 and out == ""
    assert err.startswith("InvalidInput:") and text in err


def test_verify_rejects_a_negated_anchor_class(tmp_path, capsys, a2_31_design):
    # -k names the same edge class as k, so the rebuilt table is unchanged,
    # but the file no longer holds the canonical class key.
    doc = json.loads(json.dumps(a2_31_design))
    anchor = doc["orbit_matching"][0]
    anchor["class"] = [-x for x in anchor["class"]]
    code, out, err = _verify(tmp_path, capsys, doc)
    assert code == 1 and out == ""
    assert err.startswith("PropertyCheckFailed:") and "serialization" in err


@pytest.mark.parametrize("shift", [31 * (2**62 // 31), 2**70])
def test_verify_rejects_a_far_anchor_class(tmp_path, capsys, a2_31_design, shift):
    # The rebuilt rows hold coordinates near or past 2^62; every row's class
    # must be a base edge class before any product is formed in int64.
    doc = json.loads(json.dumps(a2_31_design))
    doc["orbit_matching"][0]["class"][0] += shift
    code, out, err = _verify(tmp_path, capsys, doc)
    assert code == 1 and out == ""
    assert err.startswith("PropertyCheckFailed:") and "reuse" in err and "base edge class" in err


def test_verify_checks_the_whole_cost_summary(tmp_path, capsys, a2_31_design):
    doc = json.loads(json.dumps(a2_31_design))
    doc["cost_summary"]["total"] = -doc["cost_summary"]["total"]
    code, out, _ = _verify(tmp_path, capsys, doc)
    assert code == 1 and "cost-summary: FAIL" in out and out.count("PASS") == 3


def test_verify_rejects_a_file_that_is_not_json(tmp_path, capsys, a2_31_design):
    code, out, err = _verify(tmp_path, capsys, json.dumps(a2_31_design)[:-1])
    assert code == 1 and out == ""
    assert err.startswith("InvalidInput:") and "not JSON" in err


def test_verify_rejects_a_file_nested_too_deep(tmp_path, capsys):
    # json.load raised RecursionError, which escaped as a traceback.
    code, out, err = _verify(tmp_path, capsys, "[" * 10**5 + "]" * 10**5)
    assert code == 1 and out == ""
    assert err.startswith("InvalidInput:") and "recursion" in err


def _named_errors(cls=MdlqError):
    return {cls.__name__}.union(*(_named_errors(c) for c in cls.__subclasses__()))


def _canon(doc):
    """JSON text of the design a file describes: rows and anchors in sorted
    order, so that 2.0, true and "2" differ from 2 but -0 does not."""
    doc = dict(doc)
    for key in ("table", "orbit_matching"):
        if isinstance(doc.get(key), list):
            doc[key] = sorted(json.dumps(r, sort_keys=True) for r in doc[key])
    return json.dumps(doc, sort_keys=True)


_NEG0 = "negative zero"  # written as the literal -0


def _int_leaves(node, path=()):
    if isinstance(node, list):
        for i, x in enumerate(node):
            yield from _int_leaves(x, (*path, i))
    elif isinstance(node, dict):
        for k, x in node.items():
            yield from _int_leaves(x, (*path, k))
    elif type(node) is int:
        yield path


_BAD_HEADERS = {
    "schema": [2],
    "lattice": ["Q7", "Z2", "Z1", 5, None],
    "index": [29, 33, 31.0, "31", True, -31],
    "params": [[6, 1], [1], [1, 6, 0], [1, "x"], [1.0, 6], "1,6", [10**30, 1]],
    "group_order": [5, 2, 0, 6.0, "6", None],
}


def _mutate(doc, kind, rng):
    """Apply one seeded edit of the given kind to the fields a rebuild reads."""
    keys = ("params", "orbit_matching", "table")
    leaves = [p for key in keys for p in _int_leaves(doc[key], (key,))]

    def at(path):
        node = doc
        for k in path[:-1]:
            node = node[k]
        return node, path[-1]

    table, anchors = doc["table"], doc["orbit_matching"]
    if kind == "flip a sign":
        zeros = [p for p in leaves if at(p)[0][p[-1]] == 0]
        node, k = at(rng.choice(zeros if rng.random() < 0.25 else leaves))
        node[k] = -node[k] if node[k] else _NEG0
    elif kind == "move an anchor":
        rng.choice(anchors)["point"][rng.randrange(2)] += rng.choice([-1, 1])
    elif kind == "change a row entry":
        row = rng.choice(table)
        rng.choice([row["rep"], *row["edge"]])[rng.randrange(2)] += rng.choice([-1, 1])
    elif kind == "swap two rows":
        i, j = rng.sample(range(len(table)), 2)
        table[i], table[j] = table[j], table[i]
    elif kind == "drop a row":
        del table[rng.randrange(len(table))]
    elif kind == "duplicate a row":
        row = json.loads(json.dumps(rng.choice(table)))
        if rng.random() < 0.5:
            row["edge"][0][0] += 1
        table.insert(rng.randrange(len(table) + 1), row)
    elif kind == "a wrong type":
        node, k = at(rng.choice(leaves + [p[:-1] for p in leaves]))
        node[k] = rng.choice(["1", 1.5, 2.0, True, None, [], {}])
    else:  # a bad header field
        key = rng.choice(sorted(_BAD_HEADERS))
        doc[key] = rng.choice(_BAD_HEADERS[key])


@pytest.mark.parametrize(
    "kind",
    [
        "flip a sign",
        "move an anchor",
        "change a row entry",
        "swap two rows",
        "drop a row",
        "duplicate a row",
        "a wrong type",
        "a bad header field",
    ],
)
def test_verify_fuzz_ends_in_pass_or_a_named_error(tmp_path, capsys, a2_31_design, kind):
    # Exit 0 with four PASS lines only where the file still describes the same
    # design (-0 for 0, rows in another order); otherwise exit 1 with the name
    # of a package error, never a bare exception or a silent pass.
    rng = random.Random(kind)
    named = _named_errors()
    for trial in range(16):
        doc = json.loads(json.dumps(a2_31_design))
        _mutate(doc, kind, rng)
        text = json.dumps(doc).replace(json.dumps(_NEG0), "-0")
        code, out, err = _verify(tmp_path, capsys, text)
        what = f"{kind} #{trial}: exit {code}, {err.strip()!r}"
        if _canon(json.loads(text)) == _canon(a2_31_design):
            assert code == 0 and out.count("PASS") == 4 and err == "", what
        else:
            assert code == 1 and out == "", what
            assert err.split(":")[0] in named, what


# -- command-line grammar --------------------------------------------------------
#
# Each example takes a well-formed command line on a small design, drops at
# most one of its flags and sets up to three of the flags that the command line
# reads again, to a well-formed or an edge value.  Values whose work grows
# without bound are left out: --samples is at most 1 000, and 10^30 is never
# an --n-max.

_EDGE = ["0", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "nan", "inf", "-inf", str(10**30), "x", ""]
_BOUNDED = [e for e in _EDGE if e != str(10**30)]  # for --samples and --n-max
# Paths in the grammar's directory: a file in a missing directory, the
# directory itself, the empty path, a missing file, text that is not JSON and
# JSON nested too deep to parse.
_PATHS = [
    "{tmp}/no_such_dir/f.json", "{tmp}", "",
    "{tmp}/missing.json", "{tmp}/truncated.json", "{tmp}/deep.json",
]

# Each flag's well-formed values, then its edge values (``_EDGE`` by default).
_GOOD = {
    "--lattice": ["A2", "Z1", "Z2", "Z4", "Z8"],
    "--index": ["1", "3", "5", "7", "9", "13", "81"],
    "--params": ["1,2", "2,1", "0,1", "1", "0,1,1,1", "1,-1"],
    "--beta": ["0.5", "3"],
    "--rate": ["1", "2.5"],
    "--a": ["0.25", "0.5"],
    "--entropy": ["0", "1.5"],
    "--samples": ["7", "1000"],
    "--seed": ["3"],
    "--format": ["json", "csv"],
    "--figure": ["fig1", "fig9", "fig10"],
    "--asymptotic": ["Z1", "Z2", "A2"],
    "--n-max": ["30", "100"],
    "--config": ["{tmp}/config.json"],
    "--design": ["{tmp}/design.json"],
    "--out": ["{tmp}/out.txt", ""],
    "--source": ["uniform:1", "gauss:3", "periods:3"],
}
_EDGES = {
    "--samples": _BOUNDED,
    "--n-max": _BOUNDED,
    "--config": _PATHS,
    "--design": _PATHS,
    "--out": _PATHS[:3],
    "--source": [f"{kind}:{e}" for kind in ("uniform", "gauss", "periods") for e in _EDGE]
    + ["laplace:1", *_EDGE],
}


_DESIGN = ["--lattice", "--index", "--params", "--config", "--out"]
_REPORT = _DESIGN + ["--beta", "--rate", "--a", "--entropy"]
_SIMULATE = _REPORT + ["--source", "--samples", "--seed", "--format"]
_SWEEP = ["--n-max", "--a", "--entropy", "--format", "--out"]

# (base command line, the flags an example may set again).  Every simulate
# base sets --samples, whose default is 100 000, and no example drops it.
_BASES = [
    (["design", "--lattice=A2", "--index=7"], _DESIGN),
    (["design", "--config={tmp}/config.json"], _DESIGN),
    (["simulate", "--lattice=A2", "--index=7", "--beta=0.5", "--source=periods:3", "--samples=1000"],
     _SIMULATE),
    (["simulate", "--lattice=Z4", "--index=9", "--source=gauss:2", "--samples=1000", "--seed=2"],
     _SIMULATE),
    (["simulate", "--lattice=Z1", "--index=5", "--rate=2", "--source=uniform:2", "--samples=1000"],
     _SIMULATE),
    (["eval", "--lattice=A2", "--index=7", "--beta=0.5"], _REPORT),
    (["eval", "--lattice=Z1", "--index=5", "--beta=0.5"], _REPORT),  # d0 scales with beta^2
    (["eval", "--lattice=Z2", "--index=13", "--rate=2"], _REPORT),
    (["eval", "--figure=fig9", "--n-max=30"], ["--figure", *_SWEEP]),
    (["eval", "--asymptotic=A2", "--n-max=100"], ["--asymptotic", *_SWEEP]),
    (["verify", "--design={tmp}/design.json"], ["--design"]),
]


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    """The directory of the files that the grammar's paths name."""
    tmp = tmp_path_factory.mktemp("grammar")
    (tmp / "config.json").write_text(json.dumps({"lattice": "A2", "index": 7}))
    (tmp / "truncated.json").write_text('{"lattice": "A2", "ind')
    (tmp / "deep.json").write_text("[" * 10**5 + "]" * 10**5)
    assert main(["design", "--lattice", "A2", "--index", "7", "--out", str(tmp / "design.json")]) == 0
    return tmp


@st.composite
def _command_lines(draw, tmp):
    (command, *argv), flags = draw(st.sampled_from(_BASES))
    dropped = draw(st.sampled_from([None, *(a for a in argv if not a.startswith("--samples"))]))
    argv = [a for a in argv if a != dropped]
    # A flag given again overrides the base value.
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
        values = st.sampled_from(_GOOD[flag]) | st.sampled_from(_EDGES.get(flag, _EDGE))
        argv.append(f"{flag}={draw(values)}")
    return [command, *(a.format(tmp=tmp) for a in argv)]


def _strict_numbers(text):
    """Parse a report as strict JSON, or as CSV whose numbers are all finite."""
    if text.startswith("{"):
        def reject(name):
            raise AssertionError(f"non-finite value {name}")
        json.loads(text, parse_constant=reject)
        return
    rows = [line.split(",") for line in text.splitlines()]
    assert rows and all(len(row) == len(rows[0]) for row in rows)
    for cell in (c for row in rows[1:] for c in row):
        try:
            value = float(cell)
        except ValueError:
            continue
        assert math.isfinite(value), cell


def _assert_report_or_named_error(argv, tmp):
    """Exit 0 with a strict JSON or CSV report, or exit 1 with nothing on
    stdout and the name of a package error subclass first on stderr.  An
    exception that escapes main fails the caller."""
    (tmp / "out.txt").unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == 1:
        assert err.split(":")[0] in _named_errors() - {"MdlqError"}, (argv, err)
        assert out == "", argv
        return
    assert code == 0, argv
    if argv[0] == "verify":
        assert out.splitlines() and all(line.endswith(": PASS") for line in out.splitlines())
        return
    target = [a.partition("=")[2] for a in argv if a.startswith("--out=")]
    _strict_numbers(open(target[-1]).read() if target and target[-1] else out)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_command_line_grammar_ends_in_a_report_or_a_named_error(grammar_dir, data):
    _assert_report_or_named_error(data.draw(_command_lines(grammar_dir), label="argv"), grammar_dir)


def test_every_edge_value_of_every_flag_ends_in_a_report_or_a_named_error(grammar_dir):
    # One flag at a time, every edge value on every base command line: the
    # sweep reaches single values that random draws would rarely meet.
    for (command, *argv), flags in _BASES:
        for flag in flags:
            for value in _EDGES.get(flag, _EDGE):
                line = [command, *argv, f"{flag}={value}"]
                _assert_report_or_named_error([a.format(tmp=grammar_dir) for a in line], grammar_dir)
