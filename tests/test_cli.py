"""End-to-end tests of the command-line front end.

All invocations go through main(argv) so exit codes and emitted text are
exactly what a shell user would see.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import dtseries
from dtseries.cli import (
    EXIT_BAD_INPUT,
    EXIT_BROKEN_PIPE,
    EXIT_CHECKS_FAILED,
    EXIT_MISMATCH,
    EXIT_OK,
    NMAX_CEILING,
    ORDER_CEILING,
    TRACE_CEILING,
    build_parser,
    main,
)
from dtseries.classenum import enumerate_beta
from dtseries.fixtures import BUILTIN, fixture_to_dict, get_fixture, save_fixture
from dtseries.localization import ToricSurfaceModel
from dtseries.qseries import euler_product, frac_str
from oracle_reference import direct_trace_terms, nonempty_charts, random_fan

# the sys.path entry this process imported dtseries from: src/ in a checkout,
# site-packages once the package is installed; the subprocess tests put it
# first on their path, so they run the same copy as the in-process ones
PACKAGE_PATH = str(Path(dtseries.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_quadric_d2_passes(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "quadric_p4_d2")
    assert code == EXIT_OK
    assert "6 > 2  ok" in out
    assert "6 > 0  ok" in out
    assert "overall" in out and "PASS" in out


def test_check_all_low_degree_hypersurfaces_pass(capsys):
    for name in ("quadric_p4_d1", "quadric_p4_d2", "cubic_p4_d3"):
        code, _, _ = run(capsys, "check", "--fixture", name)
        assert code == EXIT_OK


def test_check_quartic_fails_first_inequality_only(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "quartic_p4_d4")
    assert code == EXIT_CHECKS_FAILED
    assert "4 > 4  FAIL" in out
    assert "4 > 0  ok" in out


def test_check_blowup_point_gap_depends_on_k(capsys):
    argv = ("check", "--fixture", "blowup_p3_point", "--gamma", "r=-3,s=-1")
    code, out, _ = run(capsys, *argv, "--k", "2")
    assert code == EXIT_CHECKS_FAILED
    assert "FAIL (integer twist)" in out
    assert "forbidden m = 0" in out
    code, out, _ = run(capsys, *argv)  # default k=3
    assert code == EXIT_OK
    assert "forbidden m = -1/18" in out


def test_check_json(capsys):
    code, out, _ = run(
        capsys, "check", "--fixture", "quadric_p4_d2", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["command"] == "check"
    assert data["fixture"] == "quadric_p4_d2"
    assert data["report"]["passed"] is True
    assert data["report"]["ineq_KL2_gt_L3"] == {"lhs": "6", "rhs": "2", "holds": True}
    assert data["report"]["failures"] == []


def test_check_csv(capsys):
    code, out, _ = run(
        capsys, "check", "--fixture", "quartic_p4_d4", "--format", "csv"
    )
    assert code == EXIT_CHECKS_FAILED
    lines = out.strip().splitlines()
    assert lines[0] == "check,lhs,rhs,holds"
    assert lines[1] == "-K.L^2>L^3,4,4,False"
    assert lines[-1] == "overall,,,False"


def test_check_failing_stability_gap_json_and_csv(capsys):
    argv = ("check", "--fixture", "blowup_p3_point", "--k", "2", "--gamma", "r=-3,s=-1")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_CHECKS_FAILED
    report = json.loads(out)["report"]
    assert report["stability_gap"] == [
        {"candidate": [0, 1], "forbidden_m": "0", "is_integer": True, "holds": False}
    ]
    assert report["failures"] == ["stability gap at (0, 1)"]
    assert report["passed"] is False
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_CHECKS_FAILED
    lines = out.strip().splitlines()
    assert '"stability[0, 1]",0,Z,False' in lines
    assert lines[-1] == "overall,,,False"


def test_check_named_gamma_equals_explicit_vector(capsys):
    _, out_named, _ = run(
        capsys, "check", "--fixture", "quadric_p4_d2", "--gamma", "ell"
    )
    _, out_vec, _ = run(
        capsys, "check", "--fixture", "quadric_p4_d2", "--gamma", "-1"
    )
    assert out_named == out_vec


# ---------------------------------------------------------------------------
# classes


def test_classes_quadric_window3(capsys):
    code, out, _ = run(
        capsys, "classes", "--fixture", "quadric_p4_d2", "--gamma", "ell",
        "--window", "3", "--order", "1", "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["delta"] == 10
    betas = {tuple(r["beta"]) for r in data["rows"]}
    assert betas == {(k, -k) for k in range(-3, 4)}
    for r in data["rows"]:
        k = r["beta"][0]
        if r["n"] == 0:
            assert Fraction(r["q_exponent"]) == -k * k + Fraction(5, 12)
            assert r["beta_sq"] == -2 * k * k


def test_classes_csv(capsys):
    # the quadric, and the rank-6 class lattice of the cubic
    for fixture, gamma, rank in (("quadric_p4_d2", "ell", 2), ("cubic_p4_d3", "1/2", 7)):
        code, out, _ = run(
            capsys, "classes", "--fixture", fixture, "--gamma", gamma,
            "--window", "1", "--order", "1", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == ",".join([f"beta_{i}" for i in range(rank)] + [
            "beta_sq", "n", "xi_num", "xi_den", "q_exp_num", "q_exp_den"])
        assert len(lines) > 1


def test_classes_empty(capsys):
    # default gamma = 0 on the degree-1 fixture: the degree constraint is
    # half-integral, so no classes qualify
    code, out, _ = run(capsys, "classes", "--fixture", "quadric_p4_d1")
    assert code == EXIT_OK
    assert "no curve classes satisfy the degree constraint" in out


def test_classes_rows_sorted_by_exponent(capsys):
    code, out, _ = run(
        capsys, "classes", "--fixture", "quadric_p4_d2", "--gamma", "2ell",
        "--window", "2", "--order", "4", "--format", "json",
    )
    assert code == EXIT_OK
    exps = [Fraction(r["q_exponent"]) for r in json.loads(out)["rows"]]
    assert exps == sorted(exps)


# ---------------------------------------------------------------------------
# series


def test_series_quadric_json(capsys):
    code, out, _ = run(
        capsys, "series", "--fixture", "quadric_p4_d2", "--gamma", "ell",
        "--order", "8", "--window", "2", "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["delta"] == 10
    assert data["virtual_dimension"] == 4
    assert data["convention"] == "theorem_minus_delta"
    assert data["convention_provenance"] == "oracle-resolved"
    assert data["checks_passed"] is True
    assert len(data["blocks"]) == 5
    total = data["total"]
    assert total["offset"] == "-43/12"
    assert total["coeffs"][:4] == ["2", "20", "130", "662"]


def test_series_deterministic(capsys):
    argv = (
        "series", "--fixture", "quadric_p4_d2", "--gamma", "ell",
        "--order", "6", "--window", "2", "--format", "json",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_series_gate_on_failed_checks(capsys):
    code, out, _ = run(capsys, "series", "--fixture", "quartic_p4_d4")
    assert code == EXIT_CHECKS_FAILED
    assert "series not produced" in out


def test_series_gate_json(capsys):
    code, out, _ = run(
        capsys, "series", "--fixture", "quartic_p4_d4", "--format", "json"
    )
    assert code == EXIT_CHECKS_FAILED
    data = json.loads(out)
    assert data["error"] == "hypothesis checks failed"
    assert data["report"]["passed"] is False


def test_series_override_checks(capsys):
    code, out, _ = run(
        capsys, "series", "--fixture", "quartic_p4_d4", "--gamma", "2",
        "--override-checks", "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["checks_passed"] is False
    assert data["convention_provenance"] == "default"
    assert len(data["blocks"]) == 1
    block = data["blocks"][0]
    assert block["beta"] == [1]
    assert block["prefactor_exponent"] == "19/6"
    assert data["euler_factor"]["coeffs"][:2] == ["1", "28"]


def test_series_cubic_empty_total(capsys):
    # no toric model on the cubic: the sign convention falls back to the
    # product-formula default; default gamma admits no classes
    code, out, _ = run(
        capsys, "series", "--fixture", "cubic_p4_d3", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["convention_provenance"] == "default"
    assert data["blocks"] == []
    assert data["euler_factor"] == euler_product(-15, 8).to_json_dict()
    assert data["total"]["offset"] == "5/8"
    assert all(c == "0" for c in data["total"]["coeffs"])


def test_series_window_zero_single_block(capsys):
    code, out, _ = run(
        capsys, "series", "--fixture", "quadric_p4_d2", "--gamma", "ell",
        "--order", "4", "--window", "0", "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["blocks"]) == 1
    assert data["blocks"][0]["beta"] == [0, 0]
    assert data["total"]["offset"] == "5/12"
    assert data["total"]["coeffs"] == ["1", "10", "65", "330"]


def test_series_csv(capsys):
    code, out, _ = run(
        capsys, "series", "--fixture", "quadric_p4_d2", "--gamma", "ell",
        "--order", "4", "--window", "1", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "q_exp_num,q_exp_den,coeff_num,coeff_den"
    # first row is the k=+-1 ground term: 2 q^(-7/12)
    assert lines[1] == "-7,12,2,1"


@pytest.mark.parametrize("argv, offset", [
    (("quadric_p4_d2", "--gamma", "ell", "--order", "30", "--window", "1"), "-7/12"),
    (("cubic_p4_d3", "--gamma", "1/2", "--order", "4", "--window", "1"), "-395/8"),
])
def test_series_csv_exponents_are_offset_plus_i(capsys, argv, offset):
    code, out, _ = run(capsys, "series", "--fixture", *argv, "--format", "json")
    total = json.loads(out)["total"]
    assert code == EXIT_OK and total["offset"] == offset
    code, out, _ = run(capsys, "series", "--fixture", *argv, "--format", "csv")
    assert code == EXIT_OK
    want = []
    for i, c in enumerate(total["coeffs"]):
        e = Fraction(offset) + i
        want.append([str(e.numerator), str(e.denominator), c, "1"])
    assert [line.split(",") for line in out.splitlines()[1:]] == want


def test_series_renders_the_shared_euler_factor_once(capsys, monkeypatch):
    # 729 blocks on the cubic share one Euler factor: one rendering of it
    # per call, plus one of the total, and no block carries a copy, so each
    # format stays small
    from dtseries.qseries import QSeries

    calls = {"pretty": 0, "to_json_dict": 0}
    for name in calls:
        def counted(self, _f=getattr(QSeries, name), _name=name):
            calls[_name] += 1
            return _f(self)
        monkeypatch.setattr(QSeries, name, counted)
    argv = ("series", "--fixture", "cubic_p4_d3", "--gamma", "1/2", "--window", "1",
            "--order", "200", "--format")
    outs = {}
    for fmt in ("pretty", "json", "csv"):
        code, outs[fmt], _ = run(capsys, *argv, fmt)
        assert code == EXIT_OK and len(outs[fmt].encode()) < 200_000, fmt
    assert calls == {"pretty": 2, "to_json_dict": 2}
    lines = outs["pretty"].splitlines()
    assert sum(line.startswith("  euler factor = 1 + 15*q^1 + ") for line in lines) == 1
    assert sum(line.startswith("  block beta=") and line.endswith(")") for line in lines) == 729
    data = json.loads(outs["json"])
    assert data["euler_factor"]["coeffs"][:2] == ["1", "15"]
    assert len(data["blocks"]) == 729
    assert all(set(b) == {"beta", "beta_sq", "prefactor_exponent"} for b in data["blocks"])


def test_series_at_benchmark_order(capsys):
    from dtseries.qseries import euler_product

    code, out, _ = run(
        capsys, "series", "--fixture", "quadric_p4_d2", "--gamma", "ell",
        "--order", "1500", "--window", "1", "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    # blocks beta = +-(e1 - e2) at q^(-7/12) and beta = 0 at q^(5/12),
    # each carrying the full eta-power series prod_k (1 - q^k)^(-10)
    eta = [str(c) for c in euler_product(-10, 1500).coeffs]
    assert sorted(b["prefactor_exponent"] for b in data["blocks"]) == ["-7/12", "-7/12", "5/12"]
    assert data["euler_factor"]["coeffs"] == eta
    total = data["total"]
    assert total["offset"] == "-7/12"
    assert len(total["coeffs"]) == 1500
    want = [2 * int(eta[0])] + [2 * int(a) + int(b) for a, b in zip(eta[1:], eta)]
    assert [int(c) for c in total["coeffs"]] == want


# ---------------------------------------------------------------------------
# oracle


def test_oracle_values_and_determinism(capsys):
    argv = (
        "oracle", "--fixture", "quadric_p4_d2", "--nmax", "3", "--format", "json",
    )
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert "oracle time" in err and "oracle time" not in out
    data = json.loads(out)
    assert data["values"] == [1, 10, 65, 330]
    assert data["bundle"] == "O(1,1)"
    assert len(data["eval_points"]) == 2
    assert set(data) == {"command", "fixture", "bundle", "n_max", "values", "eval_points", "seed"}
    code2, out2, _ = run(capsys, *argv)
    assert code2 == EXIT_OK and out2 == out
    # the pretty points line is the two points and nothing after them
    code, out, _ = run(capsys, *argv[:-2])
    points = ", ".join(f"({x}, {y})" for x, y in data["eval_points"])
    assert code == EXIT_OK and out.splitlines()[1] == f"  evaluation points: {points}"


def test_oracle_trivial_bundle(capsys):
    code, out, _ = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--bundle", "trivial",
        "--nmax", "4", "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["values"] == [1, 4, 14, 40, 105]


def test_oracle_p2(capsys):
    code, out, _ = run(
        capsys, "oracle", "--fixture", "quadric_p4_d1", "--nmax", "3",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["values"] == [1, 7, 35, 140]


def test_oracle_csv(capsys):
    code, out, _ = run(
        capsys, "oracle", "--fixture", "quadric_p4_d1", "--nmax", "2",
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert out.strip().splitlines() == ["n,value", "0,1", "1,7", "2,35"]


def test_oracle_seed_changes_points_not_values(capsys):
    _, out1, _ = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "2",
        "--seed", "1", "--format", "json",
    )
    _, out2, _ = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "2",
        "--seed", "2", "--format", "json",
    )
    a, b = json.loads(out1), json.loads(out2)
    assert a["values"] == b["values"] == [1, 10, 65]
    assert a["eval_points"] != b["eval_points"]


def test_oracle_trace_file(capsys, tmp_path):
    path = tmp_path / "trace.json"
    code, out, _ = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "3",
        "--trace", str(path), "--format", "json",
    )
    assert code == EXIT_OK
    trace = json.loads(path.read_text())
    assert [entry["n"] for entry in trace] == [0, 1, 2, 3]
    assert [len(entry["terms"]) for entry in trace] == [1, 4, 14, 40]
    assert [sum(Fraction(t["term"]) for t in entry["terms"]) for entry in trace] == [
        1, 10, 65, 330]
    # term for term the reference walk over every cell of every fixed
    # point, at the evaluation point the command prints, with each point's
    # empty charts dropped
    payload = json.loads(out)
    at = tuple(Fraction(x) for x in payload["eval_points"][0])
    model = get_fixture("quadric_p4_d2").toric
    assert trace == [
        {"n": n, "terms": [{"point": [[c, list(lam)] for c, lam in nonempty_charts(r["point"])],
                            "term": frac_str(r["term"])}
                           for r in direct_trace_terms(model, model.bundles["L"], n, at)]}
        for n in range(4)
    ]


def _seeded_fan_plane(d):
    """The plane fixture on the smooth fan random_fan draws from seed 4 (six
    rays), with L a divisor of K.D = -3 and D^2 = 1 like the line's, so the
    fixture's surface data still fits its fan."""
    rays = random_fan(random.Random(4))
    model = ToricSurfaceModel("fan", rays, {})
    divisor = next(a for a in product((-1, 0, 1), repeat=len(rays))
                   if model.intersection_numbers(a)[1:] == (-3, 1))
    d["toric"]["rays"] = [list(v) for v in rays]
    d["surface"]["euler"] = len(rays)
    d["toric"]["bundles"]["L"].update(divisor=list(divisor))
    d["toric"]["bundles"]["trivial"].update(divisor=[0] * len(rays))


@pytest.mark.parametrize("fixture, edit, digest", [
    ("quadric_p4_d1", None, "0f71249657f47ef8"),
    ("quadric_p4_d2", None, "c258cc7d392b3b50"),
    ("quadric_p4_d1", _seeded_fan_plane, "f67c46fa53fe27dd"),
])
def test_oracle_trace_file_is_the_reference_walk_byte_for_byte(capsys, tmp_path, fixture, edit,
                                                                digest):
    # the whole file at --nmax 3 is the reference walk's fixed points in
    # their documented order, each by its nonempty charts, written as
    # write_json writes; the digests pin each file, so a change to how the
    # oracle enumerates partitions cannot move a byte of it
    if edit is not None:
        fixture = _edited_fixture(tmp_path, fixture, edit)
    path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "oracle", "--fixture", fixture, "--nmax", "3",
                       "--trace", str(path), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    at = tuple(Fraction(x) for x in payload["eval_points"][0])
    fx = get_fixture(fixture)
    lin = fx.toric.bundles[fx.toric_L]
    want = [
        {"n": n, "terms": [{"point": [[c, list(lam)] for c, lam in nonempty_charts(r["point"])],
                            "term": frac_str(r["term"])}
                           for r in direct_trace_terms(fx.toric, lin, n, at)]}
        for n in range(4)
    ]
    raw = path.read_bytes()
    assert raw == (json.dumps(want, indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(raw).hexdigest()[:16] == digest


def test_oracle_trace_unwritable_exits_bad_input(capsys, tmp_path):
    # the empty path is a path too: it fails to open like any other
    # unwritable one, rather than leaving no trace and exiting 0
    for path in (str(tmp_path / "missing" / "t.json"), ""):
        code, out, err = run(
            capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "1", "--trace", path,
        )
        assert code == EXIT_BAD_INPUT, path
        assert out == ""
        assert "error: cannot write trace: " in err and "Traceback" not in err


def _blown_up_plane(d, rays):
    """P2's fan blown up repeatedly inside one cone: (1,0), (0,1), then
    (-1, k) for k from rays - 3 down to -1, every cone smooth.  D_0 keeps
    K.D = -3 and D^2 = 1, so the oracle's integral over S^[1] is e + 4."""
    fan = [[1, 0], [0, 1]] + [[-1, k] for k in range(rays - 3, -2, -1)]
    d["toric"]["rays"] = fan
    d["surface"]["euler"] = len(fan)
    d["toric"]["bundles"]["L"].update(divisor=[1] + [0] * (len(fan) - 1), surface_class=[1])
    d["toric"]["bundles"]["trivial"].update(divisor=[0] * len(fan))


def test_oracle_trace_on_many_charts_needs_no_nesting_per_chart(capsys, tmp_path):
    # 201 charts under a recursion limit of 150: a fixed-point walk that
    # nests once per chart would end in a RecursionError traceback
    path = _edited_fixture(tmp_path, "quadric_p4_d1", lambda d: _blown_up_plane(d, 200))
    assert run(capsys, "check", "--fixture", path)[0] == EXIT_OK
    trace = tmp_path / "trace.json"
    child = ("import sys; sys.setrecursionlimit(150); from dtseries.cli import main; "
             "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", child, "oracle", "--fixture", path, "--nmax", "1",
         "--trace", str(trace), "--format", "json"],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["values"] == [1, 205]
    terms = [[Fraction(t["term"]) for t in entry["terms"]] for entry in json.loads(trace.read_text())]
    assert [len(t) for t in terms] == [1, 201]
    assert [sum(t) for t in terms] == [1, 205]


def test_oracle_trace_lists_nonempty_charts_only(capsys, tmp_path):
    # 201 charts at --nmax 2: 20,704 fixed points, each written by its few
    # nonempty charts, not by one partition per chart
    path = _edited_fixture(tmp_path, "quadric_p4_d1", lambda d: _blown_up_plane(d, 200))
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, "oracle", "--fixture", path, "--nmax", "2",
                       "--trace", str(trace), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["values"] == [1, 205, 21320]
    entries = json.loads(trace.read_text())
    assert [entry["n"] for entry in entries] == [0, 1, 2]
    assert [len(entry["terms"]) for entry in entries] == [1, 201, 20502]
    assert [sum(Fraction(t["term"]) for t in entry["terms"]) for entry in entries] == [1, 205, 21320]
    for entry in entries:
        for t in entry["terms"]:
            charts = [c for c, _ in t["point"]]
            assert charts == sorted(set(charts)) and all(0 <= c < 201 for c in charts)
            assert all(lam for _, lam in t["point"])
            assert sum(sum(lam) for _, lam in t["point"]) == entry["n"]


def test_oracle_trace_too_large_exits_bad_input(capsys, tmp_path):
    # 1201 charts at --nmax 3: 291,610,007 fixed points are refused before
    # anything is listed
    path = _edited_fixture(tmp_path, "quadric_p4_d1", lambda d: _blown_up_plane(d, 1200))
    trace = tmp_path / "trace.json"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--fixture", path, "--nmax", "3",
                         "--trace", str(trace))
    assert time.perf_counter() - t0 < 5
    assert code == EXIT_BAD_INPUT
    assert out == "" and "Traceback" not in err
    assert (f"--trace would list 291610007 fixed points, "
            f"above the ceiling of {TRACE_CEILING}") in err
    assert not trace.exists()


def test_oracle_trace_ceiling_counts_fixed_points(capsys, tmp_path, monkeypatch):
    # P2 at --nmax 5 lists the 1 + 3 + 9 + 22 fixed points of S^[0..3]: 35,
    # at the ceiling but not above it
    from dtseries import cli

    trace = tmp_path / "trace.json"
    for ceiling, want in ((35, EXIT_OK), (34, EXIT_BAD_INPUT)):
        monkeypatch.setattr(cli, "TRACE_CEILING", ceiling)
        code, _, _ = run(capsys, "oracle", "--fixture", "quadric_p4_d1", "--nmax", "5",
                         "--trace", str(trace))
        assert code == want, ceiling
        assert trace.exists() == (want == EXIT_OK)
        if want == EXIT_OK:
            assert sum(len(entry["terms"]) for entry in json.loads(trace.read_text())) == 35
            trace.unlink()


def test_oracle_rejects_non_toric_fixture(capsys):
    code, _, err = run(capsys, "oracle", "--fixture", "cubic_p4_d3")
    assert code == EXIT_BAD_INPUT
    assert "no toric surface model" in err


def test_oracle_rejects_unknown_bundle(capsys):
    code, _, err = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--bundle", "nope"
    )
    assert code == EXIT_BAD_INPUT
    assert "no bundle" in err


def test_oracle_nmax_bounds(capsys):
    code, _, err = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "21"
    )
    assert code == EXIT_BAD_INPUT
    assert "nmax" in err
    code, _, _ = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "-1"
    )
    assert code == EXIT_BAD_INPUT


def test_oracle_integrality_error_exits_mismatch(capsys, monkeypatch):
    from dtseries import cli
    from dtseries.localization import IntegralityError

    def broken(*args, **kwargs):
        raise IntegralityError("fixed-point sum 1/2 is not an integer (n=1)")

    monkeypatch.setattr(cli, "co_series", broken)
    code, out, err = run(capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "2")
    assert code == EXIT_MISMATCH
    assert out == ""
    assert "error: fixed-point sum 1/2 is not an integer" in err
    assert "Traceback" not in err


def test_oracle_stops_at_its_first_disagreement(capsys, monkeypatch):
    # the sums are exact, so two points that disagree say the model is
    # inconsistent: the oracle draws one pair of points, not a second
    from dtseries import localization

    draw = localization._draw_point
    draws = []
    monkeypatch.setattr(localization, "_draw_point",
                        lambda rng, *bounds: draws.append(1) or draw(rng, *bounds))
    monkeypatch.setattr(localization, "_series_values",
                        lambda scalars, layout: [1, scalars[0][0]])
    code, out, err = run(capsys, "verify", "--fixture", "quadric_p4_d2", "--nmax", "1")
    assert (code, out, len(draws)) == (EXIT_MISMATCH, "", 2)
    assert err == "error: evaluation points disagree; model data is inconsistent\n"


def test_oracle_matching_neither_sign_exits_mismatch(capsys, monkeypatch):
    from dtseries import cli

    real = cli.co_series

    def neither(model, lin, n_max, seed=0):
        result = real(model, lin, n_max, seed=seed)
        return result.replace(values=tuple(7 + n for n in range(n_max + 1)))

    monkeypatch.setattr(cli, "co_series", neither)
    for fmt in ("pretty", "json", "csv"):
        code, out, err = run(capsys, "series", "--fixture", "quadric_p4_d2", "--gamma", "ell",
                             "--format", fmt)
        assert (code, out) == (EXIT_MISMATCH, ""), fmt
        assert err == ("error: oracle values [7, 8, 9] match neither Euler-product sign "
                       "for delta=10\n")
    outputs = {}
    for fmt in ("pretty", "json", "csv"):
        code, outputs[fmt], _ = run(capsys, "verify", "--fixture", "quadric_p4_d2",
                                    "--nmax", "2", "--format", fmt)
        assert code == EXIT_MISMATCH, fmt
    assert "  MISMATCH: oracle agrees with neither exponent sign\n" in outputs["pretty"]
    data = json.loads(outputs["json"])
    assert data["oracle_values"] == [7, 8, 9] and data["resolved_convention"] is None
    assert not data["matches_minus"] and not data["matches_plus"]
    assert outputs["csv"].splitlines()[1] == "0,7,1,1"


def _edited_fixture(tmp_path, name, edit):
    """The builtin saved as JSON with edit applied to its dict."""
    d = json.loads(json.dumps(fixture_to_dict(get_fixture(name))))
    edit(d)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_fixture_without_candidates_says_so(capsys, tmp_path):
    # a reducible class with no candidate decompositions passes the gap
    # vacuously, and the report says that none were supplied
    path = _edited_fixture(tmp_path, "blowup_p3_point", lambda d: d.update(candidates=[]))
    code, out, _ = run(capsys, "check", "--fixture", path)
    assert code == EXIT_OK
    assert "  stability gap       : no candidate decompositions supplied\n" in out


def test_fixture_without_vanishing_fails_checks(capsys, tmp_path):
    path = _edited_fixture(tmp_path, "quadric_p4_d2",
                           lambda d: d["threefold"].update(vanishing_asserted=False))
    code, out, _ = run(capsys, "check", "--fixture", path, "--format", "json")
    assert code == EXIT_CHECKS_FAILED
    assert json.loads(out)["report"]["failures"] == ["cohomology vanishing"]
    code, out, _ = run(capsys, "series", "--fixture", path, "--gamma", "ell")
    assert code == EXIT_CHECKS_FAILED
    assert out.endswith("series not produced: checks failed (use --override-checks to force)\n")


def _refused_at_load(capsys, path, gamma, error):
    """check, classes and series on the fixture file exit 4 in every
    format, with empty stdout and the one error line."""
    for command in ("check", "classes", "series"):
        for fmt in ("pretty", "json", "csv"):
            got = run(capsys, command, "--fixture", str(path), "--gamma", gamma,
                      "--format", fmt)
            assert got == (EXIT_BAD_INPUT, "", f"error: {error}\n"), (command, fmt)


def test_fixture_breaking_the_projection_formula_exits_bad_input(capsys, tmp_path):
    # quadric_p4_d2 with pushforward (3, -1): push L_S is still L^2 = 2, but
    # K_S.e_0 = -2 while (K_X+L).push e_0 = -6.  Its class lattice, spanned
    # by (1, 3) of square +6, would not be negative definite
    d = fixture_to_dict(get_fixture("quadric_p4_d2"))
    d["surface"]["pushforward"] = [[3, -1]]
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(d))
    _refused_at_load(capsys, path, "ell", "quadric surface: projection formula fails at e_0: "
                     "K_S.e_0 = -2 but (K_X+L).push e_0 = -6")


def test_fixture_breaking_wus_formula_exits_bad_input(capsys, tmp_path):
    # a cubic whose surface block meets the projection formula but breaks
    # Wu's formula: e_0 = (1, 0, 0) has e_0^2 = 1 but K_S.e_0 = -2, so the
    # classes of one character would have squares of both parities
    d = fixture_to_dict(get_fixture("cubic_p4_d3"))
    d["surface"].update(gram=[[1, 0, 0], [0, -1, 0], [0, 0, -1]], K_S=[-2, -1, 0],
                        L_S=[2, 1, 0], O1_S=[2, 1, 0], euler=9, pushforward=[[2, -1, 0]])
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(d))
    for gamma in ("1/2", "3/2"):
        _refused_at_load(capsys, path, gamma, "cubic surface: Wu's formula fails at e_0: "
                         "e_0.e_0 = 1 and K_S.e_0 = -2 differ mod 2")


# ---------------------------------------------------------------------------
# verify


def test_verify_quadric_surface(capsys):
    code, out, _ = run(
        capsys, "verify", "--fixture", "quadric_p4_d2", "--nmax", "3",
        "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["delta"] == 10
    assert data["matches_minus"] is True
    assert data["matches_plus"] is False
    assert data["resolved_convention"] == "theorem_minus_delta"
    assert data["oracle_values"] == data["euler_minus_delta"] == [1, 10, 65, 330]


def test_verify_plane(capsys):
    code, out, _ = run(
        capsys, "verify", "--fixture", "quadric_p4_d1", "--nmax", "3",
        "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["delta"] == 7
    assert data["oracle_values"] == [1, 7, 35, 140]
    assert data["resolved_convention"] == "theorem_minus_delta"


def test_verify_trivial_bundle_counts_points(capsys):
    code, out, _ = run(
        capsys, "verify", "--fixture", "quadric_p4_d2", "--bundle", "trivial",
        "--nmax", "4", "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["delta"] == 4
    assert data["oracle_values"] == [1, 4, 14, 40, 105]


def test_verify_nmax_zero_trivially_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--fixture", "quadric_p4_d2", "--nmax", "0",
        "--format", "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["oracle_values"] == [1]
    assert data["matches_minus"] and data["matches_plus"]


def test_verify_at_nmax_ceiling(capsys):
    # P1 x P1 and P2 with L, and with the trivial bundle, whose tables
    # cancel to 1 on every chart: Goettsche's prod (1-q^k)^(-e), e = 4 and 3
    assert NMAX_CEILING == 20
    for fixture, bundle, e in (("quadric_p4_d2", None, None), ("quadric_p4_d1", None, None),
                               ("quadric_p4_d2", "trivial", 4), ("quadric_p4_d1", "trivial", 3)):
        flags = () if bundle is None else ("--bundle", bundle)
        code, out, _ = run(
            capsys, "verify", "--fixture", fixture, "--nmax", "20", "--format", "json", *flags,
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["oracle_values"]) == 21
        assert data["oracle_values"] == data["euler_minus_delta"]
        if e is not None:
            assert data["oracle_values"] == list(euler_product(-e, 21).coeffs)


def test_verify_after_a_redraw(capsys):
    # at seed 22 a tangent weight vanishes, by the reference's torus
    # vectors, at a point of the first pair drawn on P1 x P1 at n <= 12, so
    # the oracle evaluates at a second pair
    code, out, _ = run(capsys, "verify", "--fixture", "quadric_p4_d2", "--nmax", "12",
                       "--seed", "22", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["matches_minus"] and not data["matches_plus"]
    assert data["oracle_values"] == data["euler_minus_delta"]


def test_verify_pretty_output(capsys):
    code, out, _ = run(
        capsys, "verify", "--fixture", "quadric_p4_d2", "--nmax", "2"
    )
    assert code == EXIT_OK
    assert "resolved convention: theorem_minus_delta" in out


# ---------------------------------------------------------------------------
# bad input


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "check", "--fixture", "no_such_fixture")
    assert code == EXIT_BAD_INPUT
    assert "error" in err


def test_gamma_wrong_length(capsys):
    code, _, err = run(
        capsys, "check", "--fixture", "quadric_p4_d2", "--gamma", "1,2"
    )
    assert code == EXIT_BAD_INPUT
    assert "length" in err


def test_gamma_unparseable(capsys):
    code, _, _ = run(
        capsys, "check", "--fixture", "quadric_p4_d2", "--gamma", "abc"
    )
    assert code == EXIT_BAD_INPUT


def test_gamma_params_on_plain_fixture(capsys):
    code, _, _ = run(
        capsys, "check", "--fixture", "quadric_p4_d2", "--gamma", "r=1"
    )
    assert code == EXIT_BAD_INPUT


def test_gamma_repeated_parameter(capsys):
    # the last value must not silently win
    code, out, err = run(
        capsys, "classes", "--fixture", "blowup_p3_point", "--gamma", "r=1,r=2,s=0"
    )
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:") and "parameter 'r' given more than once" in err


@pytest.mark.parametrize("spec, name", [
    ("a=1,b=1,b=2,a=3", "a"),  # the first name given that repeats, not the first repeat
    (",".join(f"a{i}=1" for i in range(20000)) + ",a19999=1", "a19999"),
])
def test_gamma_repeated_parameter_named_in_order(capsys, spec, name):
    # the names are counted once, so a long spec with a late repeat is
    # refused as fast as a short one
    code, out, err = run(capsys, "check", "--fixture", "blowup_p3_point", "--gamma", spec)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert f"bad character {spec!r}: parameter {name!r} given more than once" in err


@pytest.mark.parametrize("spec, item",[("r=1,s", "s"), ("r=1,s=0,", "")])
def test_gamma_parameter_without_value(capsys, spec, item):
    # an item without '=' is named in the one error line, not left to dict()
    code, out, err = run(capsys, "classes", "--fixture", "blowup_p3_point", "--gamma", spec)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: bad character {spec!r}: {item!r} is not name=value\n"


@pytest.mark.parametrize("fixture, gamma", [
    ("quadric_p4_d2", "1e5000"), ("blowup_p3_point", "r=1e9999,s=0")])
def test_character_too_long_to_print_exits_bad_input(capsys, fixture, gamma):
    # its entry has more digits than int-to-str conversion allows: refused
    # before any output, in every format
    for cmd in ("check", "series"):
        for fmt in ("pretty", "json", "csv"):
            code, out, err = run(capsys, cmd, "--fixture", fixture, "--gamma", gamma,
                                 "--format", fmt)
            assert code == EXIT_BAD_INPUT, (cmd, fmt)
            assert out == ""
            assert err.startswith(f"error: bad character {gamma!r}: ") and err.count("\n") == 1


def test_huge_decimal_exponent_exits_bad_input_at_once(capsys, tmp_path):
    # Fraction would build 10**(10**7) first, for seconds; the exponent is
    # refused before that, in a --gamma vector, in a --gamma parameter and
    # in a fixture file's character
    d = fixture_to_dict(get_fixture("quadric_p4_d2"))
    d["gamma_names"]["big"] = ["1e10000000"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(d))
    for argv in (("--fixture", "quadric_p4_d2", "--gamma", "1e10000000"),
                 ("--fixture", "blowup_p3_point", "--gamma", "r=1e10000000,s=0"),
                 ("--fixture", str(path))):
        start = time.perf_counter()
        code, out, err = run(capsys, "check", *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (EXIT_BAD_INPUT, "") and err.count("\n") == 1, argv
        assert err.startswith("error: ") and "decimal exponent 10000000 exceeds" in err


def test_k_on_non_blowup(capsys):
    code, _, _ = run(capsys, "check", "--fixture", "quadric_p4_d2", "--k", "2")
    assert code == EXIT_BAD_INPUT


def test_k_only_where_it_acts(capsys):
    # --k moves check's gate and so series' output; classes, oracle and
    # verify do not read it and refuse it like any flag they do not list
    base = ("--fixture", "blowup_p3_point", "--gamma", "r=-3,s=-1")
    assert run(capsys, "check", *base, "--k", "2")[0] == EXIT_CHECKS_FAILED
    assert run(capsys, "check", *base, "--k", "3")[0] == EXIT_OK
    assert run(capsys, "series", *base, "--k", "2")[0] == EXIT_CHECKS_FAILED
    assert run(capsys, "series", *base, "--k", "3")[0] == EXIT_OK
    for argv in (("classes", *base), ("oracle", "--fixture", "blowup_p3_point"),
                 ("verify", "--fixture", "blowup_p3_point")):
        code, out, err = run(capsys, *argv, "--k", "3")
        assert (code, out) == (EXIT_BAD_INPUT, ""), argv
        assert "unrecognized arguments: --k 3" in err, argv
        assert run(capsys, *argv)[0] == EXIT_OK, argv


def test_every_flag_has_help():
    # every option of every subcommand says what it does in --help, and
    # --seed says where it moves the oracle's points and where it does not
    import argparse

    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["check", "classes", "oracle", "series", "verify"]
    for name, parser in sub.choices.items():
        for action in parser._actions:
            assert action.help and action.help != argparse.SUPPRESS, (name, action.dest)
        seed, = (a.help for a in parser._actions if a.dest == "seed")
        assert ("ignored" in seed) == (name in ("check", "classes")), name
        assert ("evaluation points" in seed), name


def test_missing_subcommand(capsys):
    assert main([]) == EXIT_BAD_INPUT
    capsys.readouterr()


def test_unknown_flag(capsys):
    for bad in (["--bogus"], ["--format", "xml"]):
        code = main(["check", "--fixture", "quadric_p4_d2", *bad])
        capsys.readouterr()
        assert code == EXIT_BAD_INPUT, bad


def test_bad_order_and_window(capsys):
    code, _, _ = run(
        capsys, "series", "--fixture", "quadric_p4_d2", "--order", "0"
    )
    assert code == EXIT_BAD_INPUT
    # the order has a ceiling: above it both commands refuse at once
    for command in ("classes", "series"):
        code, out, err = run(capsys, command, "--fixture", "quadric_p4_d2", "--gamma", "ell",
                             "--order", str(ORDER_CEILING + 1))
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == f"error: --order must lie in 1..{ORDER_CEILING}\n"
    code, _, _ = run(capsys, "classes", "--fixture", "quadric_p4_d2", "--gamma", "ell",
                     "--order", str(ORDER_CEILING), "--window", "0", "--format", "csv")
    assert ORDER_CEILING == 2000
    assert code == EXIT_OK
    code, _, _ = run(
        capsys, "classes", "--fixture", "quadric_p4_d2", "--window", "-1"
    )
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("command, flags", [
    ("check", ()),
    ("classes", ("--order", "8", "--window", "2")),
    ("series", ("--order", "8", "--window", "2")),
    ("oracle", ("--nmax", "4", "--bundle", "L")),
    ("verify", ("--nmax", "4", "--bundle", "L")),
])
def test_defaults_spelled_out_change_nothing(capsys, command, flags):
    # the defaults README documents: a call that spells each one out prints
    # and exits as the call that leaves them out
    gamma = ("--gamma", "ell") if command in ("check", "classes", "series") else ()
    argv = (command, "--fixture", "quadric_p4_d2", *gamma)
    code, out, _ = run(capsys, *argv)
    assert out
    assert run(capsys, *argv, "--format", "pretty", "--seed", "0", *flags)[:2] == (code, out)


# the shape written before fans: hand-typed charts, edges and weights
OLD_TORIC_SHAPE = {
    "name": "p2", "charts": [[[1, 0], [0, 1]]], "edges": [[0, 1, [1, 0]]],
    "bundles": {"L": {"name": "O(1)", "weights": [[0, 0]], "edge_degrees": [1],
                      "surface_class": [1]}},
    "L_bundle": "L",
}


def _with_divisor(t, divisor):
    return {**t, "bundles": {"L": {**t["bundles"]["L"], "divisor": divisor}}}


@pytest.mark.parametrize(
    "bad, reason",
    [
        # its bundles are built first, and their first old key is 'weights'
        pytest.param(lambda t: OLD_TORIC_SHAPE, "'weights'", id="old-shape"),
        # keys of the older schema: the cones and the bundle of L are derived
        pytest.param(lambda t: {**t, "cones": [[0, 1], [2, 3], [2, 0]]},
                     "unexpected keyword argument 'cones'", id="old-key-cones"),
        pytest.param(lambda t: {**t, "L_bundle": "L"}, "unexpected keyword argument 'L_bundle'",
                     id="old-key-L-bundle"),
        # the cones are the consecutive pairs of rays, det(v_k, v_(k+1)) all
        # 1 or all -1: a repeated ray makes the cone [1, 2] of one ray
        pytest.param(lambda t: {**t, "rays": [[1, 0], [0, 1], [0, 1], [-1, -1]]},
                     "det(v_k, v_(k+1)) = [1, 0, 1, 1]", id="ray-repeated"),
        pytest.param(lambda t: {**t, "rays": [[1, 0], [0, 1], [-1, -2]]}, "not smooth",
                     id="cone-not-smooth"),
        pytest.param(lambda t: {**t, "rays": []}, "wind 0 times", id="no-cones"),
        pytest.param(lambda t: {**t, "rays": t["rays"] * 2}, "wind 2 times",
                     id="cone-duplicated"),
        pytest.param(lambda t: {**t, "rays": [[1, 0], [0, 1]]},
                     "det(v_k, v_(k+1)) = [1, -1]", id="too-few-rays"),
        pytest.param(lambda t: {**t, "rays": [[1, 0], [0, 1], [-1, 0], [-1, 1]]},
                     "det(v_k, v_(k+1)) = [1, 1, -1, -1]", id="rays-turn-both-ways"),
        pytest.param(lambda t: {**t, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                "bundles": {k: {**b, "divisor": [0, 0, 1, 1]}
                                            for k, b in t["bundles"].items()}},
                     "bundle 'L' has (e, K.D, D^2) = (4, -4, 2) on the fan, "
                     "but (3, -3, 1) on the surface", id="fan-of-another-surface"),
        pytest.param(lambda t: _with_divisor(t, [0, 1]), "divisor", id="divisor-too-short"),
        pytest.param(lambda t: _with_divisor(t, [0, 0, 1, 0]), "divisor",
                     id="divisor-too-long"),
        pytest.param(lambda t: {**t, "bundles": {"L": {**t["bundles"]["L"],
                                                       "surface_class": [1.0]}}},
                     "Linearization.surface_class", id="float-in-surface-class"),
        pytest.param(lambda t: _with_divisor(t, [[0], 0, 1]), "divisor", id="nested-divisor"),
        pytest.param(lambda t: {**t, "bundles": {"L": {**t["bundles"]["L"],
                                                       "surface_class": [[1]]}}},
                     "not in the surface basis", id="nested-surface-class"),
        pytest.param(lambda t: {**t, "name": 2}, "ToricSurfaceModel.name",
                     id="number-as-toric-name"),
        pytest.param(lambda t: {**t, "bundles": {"L": {**t["bundles"]["L"], "name": None}}},
                     "Linearization.name", id="null-as-bundle-name"),
        pytest.param(lambda t: {**t, "fan": "complete"}, "'fan'", id="unknown-toric-key"),
        pytest.param(lambda t: {**t, "bundles": {"L": {**t["bundles"]["L"], "degree": 1}}},
                     "'degree'", id="unknown-bundle-key"),
        # only null means "not toric"
        pytest.param(lambda t: {}, "malformed fixture data", id="empty-block"),
        pytest.param(lambda t: False, "malformed fixture data", id="false-block"),
    ],
)
def test_bad_toric_block_exits_bad_input(capsys, tmp_path, bad, reason):
    d = fixture_to_dict(get_fixture("quadric_p4_d1"))
    d["toric"] = bad(d["toric"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    for cmd in ("check", "oracle", "verify", "series"):
        code, out, err = run(capsys, cmd, "--fixture", str(path))
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error: ") and reason in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, keys, value, reason",
    [
        pytest.param("quadric_p4_d2", ("surface", "gram"), [[0, 1.0], [1, 0]],
                     "SurfaceModel.gram", id="float-in-gram"),
        pytest.param("quadric_p4_d2", ("surface", "pushforward"), [[1.0, 1]],
                     "SurfaceModel.pushforward", id="float-in-pushforward"),
        pytest.param("quadric_p4_d2", ("surface", "euler"), 4.0, "SurfaceModel.euler",
                     id="float-euler"),
        pytest.param("quadric_p4_d2", ("surface", "K_S"), ["-2", -2], "SurfaceModel.K_S",
                     id="string-in-K_S"),
        pytest.param("blowup_p3_point", ("candidates",), [[0, 1.5]],
                     "GeometryFixture.candidates", id="float-in-candidates"),
        # L1 = 0 or L1 = L decomposes nothing
        pytest.param("blowup_p3_point", ("candidates",), [[0, 0]], "class is zero",
                     id="zero-candidate"),
        pytest.param("blowup_p3_point", ("candidates",), [[1, 0]], "class equals L",
                     id="L-candidate"),
        pytest.param("quadric_p4_d2", ("threefold", "vanishing_asserted"), "no",
                     "ThreefoldModel.vanishing_asserted", id="string-vanishing"),
        pytest.param("blowup_p3_point", ("irreducible",), "false",
                     "GeometryFixture.irreducible", id="string-irreducible"),
        pytest.param("quadric_p4_d2", ("gamma_names", "ell"), [0.1], "gamma_names['ell']",
                     id="float-in-gamma-names"),
        pytest.param("quadric_p4_d2", ("surface", "gramm"), [[0, 1], [1, 0]], "'gramm'",
                     id="unknown-surface-key"),
        pytest.param("quadric_p4_d2", ("threefold", "L"), [True], "ThreefoldModel.L",
                     id="bool-in-L"),
        pytest.param("blowup_p3_point", ("gamma_params", "r"), ["1/0", "0"],
                     "gamma_params['r']", id="zero-denominator-in-gamma-params"),
        pytest.param("blowup_p3_point", ("gamma_param",), {"r": ["1/2", "0"]}, "'gamma_param'",
                     id="unknown-top-level-key"),
        pytest.param("quadric_p4_d2", ("threefold", "quad"), [[2]],
                     "quad must be 1x1 of curve classes of length 1", id="ragged-quad"),
        pytest.param("blowup_p3_line", ("threefold", "quad"),
                     [[[1, 0], [1, 1]], [[1, 1], [-1, -2]]],
                     "triple product not symmetric at (0, 1, 0)", id="asymmetric-quad"),
        # a key of the older schema, whose numbers are now derived
        pytest.param("quadric_p4_d2", ("threefold", "triple"), [[[2]]],
                     "unexpected keyword argument 'triple'", id="old-key-triple"),
        pytest.param("quadric_p4_d2", ("surface", "h2_rank"), 2,
                     "unexpected keyword argument 'h2_rank'", id="old-key-h2-rank"),
        pytest.param("quadric_p4_d2", ("threefold",), [1],
                     "malformed fixture data: threefold must be a JSON object, not list",
                     id="threefold-not-an-object"),
        pytest.param("quadric_p4_d2", ("gamma_names",), [["-1"]], "malformed fixture data",
                     id="gamma-names-not-a-table"),
        # the bundle of L is the toric bundle whose class is L_S
        pytest.param("quadric_p4_d2", ("toric_L",), "L", "'toric_L'", id="top-level-toric-L"),
        # a vector is a list of integers, not of lists
        pytest.param("blowup_p3_point", ("candidates",), [[[0], 1]], "candidate ((0,), 1)",
                     id="nested-candidate"),
        pytest.param("quadric_p4_d2", ("threefold", "canonical"), [[-3]], "divisor vectors",
                     id="nested-canonical"),
        pytest.param("quadric_p4_d2", ("surface", "K_S"), [[-2], -2], "divisor vectors",
                     id="nested-K_S"),
        # a table row or entry of the wrong length
        pytest.param("quadric_p4_d2", ("threefold", "h4_h2_pairing"), [[1, 0]],
                     "quadric_p4_d2: pairing must be 1x1", id="pairing-row-length"),
        pytest.param("quadric_p4_d2", ("surface", "pushforward"), [[1]],
                     "quadric surface: pushforward rows must have length 2",
                     id="pushforward-row-length"),
        pytest.param("quadric_p4_d2", ("gamma_names", "bad"), ["1", "2"],
                     "quadric_p4_d2: gamma_names['bad'] has wrong length",
                     id="named-gamma-length"),
        # one pushforward row per curve class of X, and the error names both
        pytest.param("blowup_p3_point", ("surface", "pushforward"), [[1]],
                     "pushforward row count 1 differs from the number of curve classes "
                     "of blowup_p3_point(k=3), 2", id="pushforward-one-row"),
        pytest.param("blowup_p3_point", ("surface", "pushforward"), [[1], [0], [0]],
                     "pushforward row count 3 differs from the number of curve classes "
                     "of blowup_p3_point(k=3), 2", id="pushforward-three-rows"),
    ],
)
def test_bad_model_value_exits_bad_input(capsys, tmp_path, name, keys, value, reason):
    d = json.loads(json.dumps(fixture_to_dict(get_fixture(name))))
    *path, last = keys
    target = d
    for key in path:
        target = target[key]
    target[last] = value
    fx_path = tmp_path / "bad.json"
    fx_path.write_text(json.dumps(d))
    for cmd in ("check", "classes", "series", "oracle", "verify"):
        code, out, err = run(capsys, cmd, "--fixture", str(fx_path))
        assert code == EXIT_BAD_INPUT, (cmd, err)
        assert out == ""
        assert err.startswith("error: ") and reason in err and "Traceback" not in err


@pytest.mark.parametrize("depth, reason", [
    (900, "SurfaceModel.gram nests lists more than three deep"),
    (200_000, "fixture nests JSON arrays or objects too deeply to read")])
def test_deeply_nested_gram_exits_bad_input(tmp_path, depth, reason):
    # json reads 900 levels and the model refuses them; 200,000 levels
    # overflow json's own recursion.  A fresh process, as a user runs it.
    d = fixture_to_dict(get_fixture("quadric_p4_d2"))
    d["surface"]["gram"] = "NESTED"
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(d).replace('"NESTED"', "[" * depth + "0" + "]" * depth),
                    encoding="utf-8")
    for cmd in ("check", "series"):
        proc = subprocess.run([sys.executable, "-m", "dtseries.cli", cmd, "--fixture", str(path)],
                              capture_output=True, text=True, env=_package_env(), timeout=120)
        assert proc.returncode == EXIT_BAD_INPUT, proc.stderr[-500:]
        assert proc.stdout == ""
        assert proc.stderr == f"error: {reason}\n"


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_saved_fixture_matches_builtin(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    save_fixture(get_fixture(name), path)
    formats = ("pretty", "json", "csv")
    calls = [(cmd, "--format", fmt) for cmd in ("check", "classes", "series", "oracle", "verify")
             for fmt in formats]
    gamma = {"blowup_p3_point": "r=0,s=-1", "blowup_p3_line": "r=1,s1=0,s2=-1"}.get(name)
    if gamma:
        calls += [(cmd, "--format", fmt, "--gamma", gamma)
                  for cmd in ("check", "classes", "series") for fmt in formats]
    for cmd, *flags in calls:
        builtin = run(capsys, cmd, "--fixture", name, *flags)
        loaded = run(capsys, cmd, "--fixture", str(path), *flags)
        assert loaded[:2] == builtin[:2], (cmd, *flags)


def test_fan_of_another_bundle_exits_bad_input(capsys, tmp_path):
    # the quadric's L with the divisor of O(2,1) and the class (1, 1) of
    # O(1,1): the fan's (e, K.D, D^2) are not the surface's, and every
    # subcommand refuses the file
    fx = get_fixture("quadric_p4_d2")
    d = fixture_to_dict(fx)
    d["toric"]["bundles"]["L"]["divisor"] = [0, 0, 2, 1]
    path = tmp_path / "o21.json"
    path.write_text(json.dumps(d))
    for cmd in ("check", "classes", "series", "oracle", "verify"):
        code, out, err = run(capsys, cmd, "--fixture", str(path))
        assert (code, out) == (EXIT_BAD_INPUT, ""), cmd
        assert ("bundle 'L' has (e, K.D, D^2) = (4, -6, 4) on the fan, "
                "but (4, -4, 2) on the surface") in err


def test_oracle_defaults_to_the_bundle_of_L(capsys, tmp_path):
    # the bundle of L is found by its class, whatever its key: with L's
    # bundle renamed, oracle and verify integrate against it by default and
    # print what the builtin prints, and series resolves the same sign
    fx = get_fixture("quadric_p4_d2")
    d = fixture_to_dict(fx)
    d["toric"]["bundles"] = {"O11" if k == "L" else k: b
                             for k, b in d["toric"]["bundles"].items()}
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(d))
    assert get_fixture(str(path)).toric_L == "O11"
    for argv in (("oracle",), ("verify",), ("oracle", "--bundle", "trivial"),
                 ("series", "--gamma", "ell")):
        for fmt in ("pretty", "json", "csv"):
            builtin = run(capsys, *argv, "--fixture", "quadric_p4_d2", "--format", fmt)
            assert builtin[0] == EXIT_OK
            assert run(capsys, *argv, "--fixture", str(path), "--format", fmt)[:2] == builtin[:2]
    code, _, err = run(capsys, "oracle", "--fixture", str(path), "--bundle", "L")
    assert code == EXIT_BAD_INPUT and "no bundle 'L'; available: ['O11', 'trivial']" in err
    # a toric block must hold the bundle of L, and only one: L made O(1,0),
    # or the trivial bundle made a second O(1,1)
    for key, count in (("L", 0), ("trivial", 2)):
        d = fixture_to_dict(fx)
        d["toric"]["bundles"][key].update(
            {"L": {"surface_class": [1, 0], "divisor": [0, 0, 1, 0]},
             "trivial": {"surface_class": [1, 1], "divisor": [0, 0, 1, 1]}}[key])
        bad = tmp_path / f"count{count}.json"
        bad.write_text(json.dumps(d))
        code, out, err = run(capsys, "check", "--fixture", str(bad))
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert f"{count} toric bundles have the class L_S, not exactly one" in err


def _inverse(U):
    """U^-1 for a square integer matrix U of determinant +-1, by exact
    Gauss-Jordan elimination."""
    n = len(U)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(U)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c])
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                A[r] = [x - A[r][c] * y for x, y in zip(A[r], A[c])]
    return [[int(x) for x in row[n:]] for row in A]


def _in_basis(fx, U):
    """The fixture with its surface rewritten in the basis U of Pic(S), an
    integer matrix of determinant +-1: gram U^T G U, pushforward P U, and
    U^-1 v for K_S, L_S, O1_S and every toric bundle's surface class."""
    n, V = len(U), _inverse(U)

    def inv(v):
        return tuple(sum(V[i][k] * v[k] for k in range(n)) for i in range(n))

    def times_U(row):
        return tuple(sum(row[k] * U[k][j] for k in range(n)) for j in range(n))

    S = fx.surface
    T = S.replace(
        gram=tuple(times_U(col) for col in zip(*map(times_U, S.gram))),
        pushforward=tuple(map(times_U, S.pushforward)),
        K_S=inv(S.K_S), L_S=inv(S.L_S), O1_S=inv(S.O1_S))
    toric = fx.toric
    if toric is not None:
        toric = toric.replace(bundles={
            key: lin.replace(surface_class=inv(lin.surface_class))
            for key, lin in toric.bundles.items()})
    return fx.replace(surface=T, toric=toric), inv


@pytest.mark.parametrize("U", [((1, 1), (0, 1)), ((2, 1), (1, 1)), ((-1, 0), (3, 1))])
def test_quadric_in_another_surface_basis_prints_the_same(capsys, tmp_path, U):
    # the quadric's surface P1 x P1 in the basis U of Pic(S), saved and run
    # by path: only the classes (and the series blocks) name beta, which
    # moves to U^-1 beta
    fx = get_fixture("quadric_p4_d2")
    fy, inv = _in_basis(fx, U)
    assert fy.surface.gram != fx.surface.gram
    path = tmp_path / "quadric_in_basis.json"
    save_fixture(fy, path)
    for cmd in ("check", "oracle", "verify"):
        for fmt in ("pretty", "json", "csv"):
            builtin = run(capsys, cmd, "--fixture", "quadric_p4_d2", "--format", fmt)
            assert run(capsys, cmd, "--fixture", str(path), "--format", fmt)[:2] == builtin[:2]
    for gamma in ("ell", "2ell"):
        flags = ("--gamma", gamma, "--order", "4", "--window", "2")
        builtin = run(capsys, "series", "--fixture", "quadric_p4_d2", *flags, "--format", "csv")
        assert run(capsys, "series", "--fixture", str(path), *flags, "--format", "csv") == builtin

        def lines(fixture):
            out = run(capsys, "series", "--fixture", fixture, *flags)[1].splitlines()
            return [line for line in out if line.lstrip().startswith(("convention", "total"))]
        assert len(lines("quadric_p4_d2")) == 2
        assert lines(str(path)) == lines("quadric_p4_d2")
        g, found = fx.gamma_names[gamma], 0
        for beta_sq in range(2, -13, -1):
            got = enumerate_beta(fy.surface, g, beta_sq)
            assert got == sorted(inv(beta) for beta in enumerate_beta(fx.surface, g, beta_sq))
            found += len(got)
        assert found >= 4


def _same_check_output(capsys, name, path, *flags):
    for fmt in ("pretty", "json", "csv"):
        builtin = run(capsys, "check", "--fixture", name, *flags, "--format", fmt)
        assert run(capsys, "check", "--fixture", str(path), *flags, "--format", fmt) == builtin


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_cubic_in_another_surface_basis_through_json(capsys, tmp_path, seed):
    """cubic_p4_d3 in a random basis U of Pic(S), saved and run by path:
    the checks print the same, and the loaded surface's classes at
    beta^2 = 1 ... -8 are the old ones mapped by U^-1.  The box `total` of
    `series` is not compared: it depends on the basis until the box scan
    is replaced by the graded total (ROADMAP item 1)."""
    from test_classenum import _unimodular

    fx = get_fixture("cubic_p4_d3")
    U, _ = _unimodular(random.Random(seed), fx.surface.h2_rank, 12)
    fy, inv = _in_basis(fx, U)
    path = tmp_path / "cubic_in_basis.json"
    save_fixture(fy, path)
    for flags in ((), ("--gamma", "1/2")):
        _same_check_output(capsys, "cubic_p4_d3", path, *flags)
    loaded = get_fixture(str(path)).surface
    assert loaded.gram != fx.surface.gram
    found = 0
    for beta_sq in range(1, -9, -1):
        got = enumerate_beta(loaded, (Fraction(1, 2),), beta_sq)
        assert got == sorted(inv(b) for b in enumerate_beta(fx.surface, (Fraction(1, 2),), beta_sq))
        found += len(got)
    assert found > 300


@pytest.mark.parametrize("name, U, characters", [
    *(("blowup_p3_line", U, ("r=1,s1=0,s2=-1", "r=0,s1=1,s2=0"))
      for U in (((0, 1), (1, 0)), ((1, 0), (2, 1)), ((1, -1), (-1, 2)))),
    ("blowup_p3_point", ((-1,),), ("r=1,s=0", "r=-1,s=0", "r=0,s=-1")),
])
def test_blowup_in_another_surface_basis_through_json(capsys, tmp_path, name, U, characters):
    # both blow-ups push Pic(S) injectively into the threefold, so the class
    # lattice has rank 0: the series total does not depend on the basis, and
    # the one class per character moves to U^-1 beta
    fx = get_fixture(name)
    fy, inv = _in_basis(fx, U)
    path = tmp_path / f"{name}_in_basis.json"
    save_fixture(fy, path)
    fixtures = (name, str(path))
    if fx.toric is not None:
        for cmd in ("oracle", "verify"):
            for fmt in ("pretty", "json", "csv"):
                builtin = run(capsys, cmd, "--fixture", name, "--format", fmt)
                assert run(capsys, cmd, "--fixture", str(path), "--format", fmt)[:2] == builtin[:2]
    rows = 0
    for gamma in characters:
        _same_check_output(capsys, name, path, "--gamma", gamma)
        # the series of a character whose checks fail is compared too
        series = ("series", "--gamma", gamma, "--override-checks")
        csv_out = [run(capsys, *series, "--fixture", fx_, "--format", "csv") for fx_ in fixtures]
        assert csv_out[0][0] == EXIT_OK and csv_out[1] == csv_out[0]
        totals = [[line for line in run(capsys, *series, "--fixture", fx_)[1].splitlines()
                   if line.lstrip().startswith("total")] for fx_ in fixtures]
        assert len(totals[0]) == 1 and totals[1] == totals[0]
        old, new = (json.loads(run(capsys, "classes", "--fixture", fx_, "--gamma", gamma,
                                   "--format", "json")[1])["rows"] for fx_ in fixtures)
        assert new == [dict(r, beta=list(inv(r["beta"]))) for r in old]
        rows += len(old)
    assert rows > 0


def _package_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = PACKAGE_PATH + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _without_oracle_time(err):
    return "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith("oracle time:"))


def test_reused_parser_carries_nothing_between_calls(capsys, monkeypatch):
    # every call in one process shares one parser; each must print and exit
    # exactly as the same argv does in a fresh interpreter
    assert build_parser() is build_parser()
    q2 = ("--fixture", "quadric_p4_d2")
    calls = [
        (("check", *q2, "--order", "3"), 80, EXIT_BAD_INPUT),  # --order is not a check flag
        (("--help",), 60, EXIT_OK),
        (("--help",), 200, EXIT_OK),
        (("oracle", *q2, "--nmax", str(NMAX_CEILING + 1)), 80, EXIT_BAD_INPUT),
        (("series", *q2, "--format", "csv"), 80, EXIT_OK),
        (("verify", *q2, "--format", "json"), 80, EXIT_OK),
        (("classes", *q2), 80, EXIT_OK),
    ]
    helps = []
    for argv, columns, want in calls:
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "dtseries.cli", *argv], capture_output=True, text=True,
            env=_package_env(COLUMNS=str(columns)), timeout=120,
        )
        assert code == want, argv
        assert (code, out, _without_oracle_time(err)) == (
            fresh.returncode, fresh.stdout, _without_oracle_time(fresh.stderr)
        ), argv
        if argv == ("--help",):
            helps.append(out)
    # the help text is laid out for the width at each call
    assert helps[0] != helps[1]


@pytest.mark.parametrize("name, gamma", [
    ("quadric_p4_d1", "0"), ("quadric_p4_d2", "ell"), ("blowup_p3_point", "r=1,s=0"),
])
def test_series_and_verify_resolve_the_same_convention(capsys, name, gamma):
    assert get_fixture(name).toric is not None
    for seed in ("0", "1", "2"):
        code, out, _ = run(capsys, "series", "--fixture", name, "--gamma", gamma,
                           "--seed", seed, "--order", "2")
        assert code == EXIT_OK
        line, = (x for x in out.splitlines() if x.startswith("  convention = "))
        code, out, _ = run(capsys, "verify", "--fixture", name, "--seed", seed,
                           "--format", "json")
        assert code == EXIT_OK
        assert line == f"  convention = {json.loads(out)['resolved_convention']} (oracle-resolved)"


def test_package_exports_are_the_module_objects():
    assert len(set(dtseries.__all__)) == len(dtseries.__all__) == 24
    for name in dtseries.__all__:
        obj = getattr(dtseries, name)
        home = "dtseries.fixtures" if name == "BUILTIN" else obj.__module__
        assert getattr(sys.modules[home], name) is obj, name
    star = {}
    exec("from dtseries import *", star)
    assert set(star) - {"__builtins__"} == set(dtseries.__all__)
    for name in ("nonexistent", "xi_from_n"):
        with pytest.raises(ImportError):
            exec(f"from dtseries import {name}", {})


# Run in a fresh interpreter, since pytest itself loads dataclasses,
# inspect and typing.  -I -S leave out site-packages and PYTHONPATH, and the
# child adds only PACKAGE_PATH (site-packages itself once installed), so the
# guards read which modules from outside the standard library it loaded.
# -W error with -X warn_default_encoding fails any text open that leaves
# the encoding to the locale (fixture and trace JSON is UTF-8).
# save_fixture with series on its file, and oracle --trace, run both text
# opens in the package.  The child prints what it found on its first line
# before it asserts, so each import guard below reads its own finding from
# the one child.
STDLIB_ONLY_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import dtseries
submodules = sorted(m for m in sys.modules if m.startswith("dtseries."))
from dtseries import classenum, cli, fixtures, geometry, intlinalg, localization, qseries
outside = {m.partition(".")[0] for m in sys.modules} - sys.stdlib_module_names - {"dtseries", "__main__"}
loaded = {"dataclasses", "inspect", "typing"} & sys.modules.keys()
print(json.dumps({"submodules": submodules, "outside": sorted(outside), "loaded": sorted(loaded)}), flush=True)
assert not submodules, "import dtseries loads a submodule"
assert not outside, outside
assert not loaded, loaded
for cmd in ("check", "classes", "series", "oracle", "verify"):
    assert cli.main([cmd, "--help"]) == 0, cmd
fixtures.save_fixture(fixtures.get_fixture("blowup_p3_point"), "fx.json")
assert cli.main(["series", "--fixture", "fx.json", "--gamma", "r=0,s=-1"]) == 0
assert cli.main(["oracle", "--fixture", "quadric_p4_d2", "--nmax", "3", "--trace", "trace.json"]) == 0
"""


@pytest.fixture(scope="module")
def stdlib_child(tmp_path_factory):
    return subprocess.run(
        [sys.executable, "-I", "-S", "-X", "warn_default_encoding", "-W", "error",
         "-c", STDLIB_ONLY_CHILD, PACKAGE_PATH],
        cwd=tmp_path_factory.mktemp("stdlib"), capture_output=True, text=True, timeout=120,
    )


def _child_finding(proc, key):
    first = proc.stdout.partition("\n")[0]
    assert first.startswith("{"), proc.stderr[-2000:]
    return json.loads(first)[key]


def test_import_dtseries_imports_no_submodule(stdlib_child):
    assert _child_finding(stdlib_child, "submodules") == []


def test_cli_imports_no_dataclasses_inspect_or_typing(stdlib_child):
    assert _child_finding(stdlib_child, "loaded") == []


def test_package_runs_on_the_standard_library_alone(stdlib_child):
    assert _child_finding(stdlib_child, "outside") == []
    assert stdlib_child.returncode == 0, stdlib_child.stderr[-2000:]


def test_json_files_are_written_as_before(capsys, tmp_path):
    # UTF-8, indent 2, sorted keys and a final newline; the fixture's
    # digest is that of the file written before save_fixture and --trace
    # shared one writer, and the trace's that of the earlier trace, one
    # partition per chart, with each point's empty charts dropped
    fixture, trace = tmp_path / "fx.json", tmp_path / "trace.json"
    save_fixture(get_fixture("quadric_p4_d2"), fixture)
    assert run(capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "2",
               "--trace", str(trace))[0] == EXIT_OK
    for path in (fixture, trace):
        raw = path.read_bytes()
        assert raw == (json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n").encode()
    assert [hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (fixture, trace)] == [
        "ad64759788abf263", "7dea5808d65916b3"]


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_CHECKS_FAILED, EXIT_MISMATCH, EXIT_BAD_INPUT,
                EXIT_BROKEN_PIPE}) == 5


def test_closed_pipe_exits_broken_pipe_without_traceback():
    # a real pipe whose reader closes after the first line; the rest of the
    # series (about 550 kB at this order, far beyond a pipe's buffer) then
    # meets a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-S", "-W", "error", "-m", "dtseries.cli", "series",
         "--fixture", "quadric_p4_d2", "--gamma", "ell", "--order", "1500", "--window", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_package_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert first == b"fixture quadric_p4_d2  gamma=(-1)\n"
    assert "Traceback" not in err
