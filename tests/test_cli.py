"""End-to-end tests of the command-line front end.

All invocations go through main(argv) so exit codes and emitted text are
exactly what a shell user would see.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dtseries.cli import (
    EXIT_BAD_INPUT,
    EXIT_BROKEN_PIPE,
    EXIT_CHECKS_FAILED,
    EXIT_MISMATCH,
    EXIT_OK,
    NMAX_CEILING,
    build_parser,
    main,
)
from dtseries.fixtures import BUILTIN, fixture_to_dict, get_fixture, save_fixture


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
    argv = ("check", "--fixture", "blowup_p3_point", "--gamma", "r=0,s=-1")
    code, out, _ = run(capsys, *argv, "--k", "1")
    assert code == EXIT_CHECKS_FAILED
    assert "FAIL (integer twist)" in out
    assert "forbidden m = -1" in out
    code, out, _ = run(capsys, *argv)  # default k=3
    assert code == EXIT_OK
    assert "forbidden m = -5/9" in out


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
    code, out, _ = run(
        capsys, "classes", "--fixture", "quadric_p4_d2", "--gamma", "ell",
        "--window", "1", "--order", "1", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "beta_0,beta_1,beta_sq,n,xi_num,xi_den,q_exp_num,q_exp_den"
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
    assert block["n_series"]["coeffs"][:2] == ["1", "28"]


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
    # per call, plus one of the total
    from dtseries.qseries import QSeries

    calls = {"pretty": 0, "to_json_dict": 0}
    for name in calls:
        def counted(self, _f=getattr(QSeries, name), _name=name):
            calls[_name] += 1
            return _f(self)
        monkeypatch.setattr(QSeries, name, counted)
    argv = ("series", "--fixture", "cubic_p4_d3", "--gamma", "1/2", "--window", "1",
            "--order", "2", "--format")
    code, out, _ = run(capsys, *argv, "pretty")
    assert code == EXIT_OK and out.count("block beta=") == 729
    code, out, _ = run(capsys, *argv, "json")
    assert code == EXIT_OK and len(json.loads(out)["blocks"]) == 729
    assert calls == {"pretty": 2, "to_json_dict": 2}


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
    assert all(b["n_series"]["coeffs"] == eta for b in data["blocks"])
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
    assert "backend" not in data
    code2, out2, _ = run(capsys, *argv)
    assert code2 == EXIT_OK and out2 == out


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
    code, _, _ = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "2",
        "--trace", str(path), "--format", "json",
    )
    assert code == EXIT_OK
    trace = json.loads(path.read_text())
    assert [entry["n"] for entry in trace] == [0, 1, 2]
    terms = trace[2]["terms"]
    assert len(terms) == 14
    assert sum(Fraction(t["term"]) for t in terms) == 65


def test_oracle_trace_unwritable_exits_bad_input(capsys, tmp_path):
    path = tmp_path / "missing" / "t.json"
    code, out, err = run(
        capsys, "oracle", "--fixture", "quadric_p4_d2", "--nmax", "1", "--trace", str(path),
    )
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert "error: cannot write trace: " in err and "Traceback" not in err


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


def test_indefinite_kernel_error_exits_mismatch(capsys, monkeypatch):
    from dtseries import cli
    from dtseries.classenum import IndefiniteKernelError

    def broken(*args, **kwargs):
        raise IndefiniteKernelError("form is not positive definite")

    monkeypatch.setattr(cli, "enumerate_contributions", broken)
    for command in ("classes", "series"):
        code, out, err = run(capsys, command, "--fixture", "quadric_p4_d2")
        assert code == EXIT_MISMATCH
        assert out == ""
        assert "error: form is not positive definite" in err
        assert "Traceback" not in err


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
    code, out, _ = run(
        capsys, "verify", "--fixture", "quadric_p4_d2", "--nmax", "20",
        "--format", "json",
    )
    assert NMAX_CEILING == 20
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["oracle_values"]) == 21
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


def test_k_on_non_blowup(capsys):
    code, _, _ = run(capsys, "check", "--fixture", "quadric_p4_d2", "--k", "2")
    assert code == EXIT_BAD_INPUT


def test_missing_subcommand(capsys):
    assert main([]) == EXIT_BAD_INPUT
    capsys.readouterr()


def test_unknown_flag(capsys):
    code = main(["check", "--fixture", "quadric_p4_d2", "--bogus"])
    capsys.readouterr()
    assert code == EXIT_BAD_INPUT


def test_bad_order_and_window(capsys):
    code, _, _ = run(
        capsys, "series", "--fixture", "quadric_p4_d2", "--order", "0"
    )
    assert code == EXIT_BAD_INPUT
    code, _, _ = run(
        capsys, "classes", "--fixture", "quadric_p4_d2", "--window", "-1"
    )
    assert code == EXIT_BAD_INPUT


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
        pytest.param(lambda t: OLD_TORIC_SHAPE, "'rays'", id="old-shape"),
        pytest.param(lambda t: {**t, "cones": [[0, 1], [2, 3], [2, 0]]}, "cone [2, 3]",
                     id="cone-index-out-of-range"),
        pytest.param(lambda t: {**t, "cones": [[0, 1], [2, -1], [2, 0]]}, "cone [2, -1]",
                     id="cone-index-negative"),
        pytest.param(lambda t: {**t, "cones": [[0, 1], [2, 2], [2, 0]]}, "cone [2, 2]",
                     id="cone-index-repeated"),
        pytest.param(lambda t: {**t, "rays": [[1, 0], [0, 1], [-1, -2]]}, "not smooth",
                     id="cone-not-smooth"),
        pytest.param(lambda t: {**t, "cones": []}, "no cone", id="no-cones"),
        pytest.param(lambda t: {**t, "cones": [[0, 1], [0, 1], [2, 0]]}, "incomplete fan",
                     id="cone-duplicated"),
        pytest.param(lambda t: {**t, "cones": [[0, 1], [2, 1]]}, "incomplete fan",
                     id="cone-missing"),
        pytest.param(lambda t: {**t, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                "cones": [[0, 1], [0, 3], [2, 1], [2, 3]],
                                "bundles": {k: {**b, "divisor": [0, 0, 1, 1]}
                                            for k, b in t["bundles"].items()}},
                     "4 cones, but e(S) = 3", id="fan-of-another-surface"),
        pytest.param(lambda t: _with_divisor(t, [0, 1]), "divisor", id="divisor-too-short"),
        pytest.param(lambda t: _with_divisor(t, [0, 0, 1, 0]), "divisor",
                     id="divisor-too-long"),
        pytest.param(lambda t: {**t, "bundles": {"L": {**t["bundles"]["L"],
                                                       "surface_class": [1.0]}}},
                     "surface class", id="float-in-surface-class"),
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
        pytest.param("quadric_p4_d2", ("threefold", "triple"), [2], "malformed fixture data",
                     id="ragged-triple"),
        pytest.param("quadric_p4_d2", ("gamma_names",), [["-1"]], "malformed fixture data",
                     id="gamma-names-not-a-table"),
        # the saved shape keeps the bundle key in toric.L_bundle
        pytest.param("quadric_p4_d2", ("toric_L",), "L", "'toric_L'", id="top-level-toric-L"),
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
    for cmd in ("check", "series"):
        code, out, err = run(capsys, cmd, "--fixture", str(fx_path))
        assert code == EXIT_BAD_INPUT, (cmd, err)
        assert out == ""
        assert err.startswith("error: ") and reason in err and "Traceback" not in err


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


def _src_env(**extra):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
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
            env=_src_env(COLUMNS=str(columns)), timeout=120,
        )
        assert code == want, argv
        assert (code, out, _without_oracle_time(err)) == (
            fresh.returncode, fresh.stdout, _without_oracle_time(fresh.stderr)
        ), argv
        if argv == ("--help",):
            helps.append(out)
    # the help text is laid out for the width at each call
    assert helps[0] != helps[1]


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_CHECKS_FAILED, EXIT_MISMATCH, EXIT_BAD_INPUT,
                EXIT_BROKEN_PIPE}) == 5


def test_closed_pipe_exits_broken_pipe_without_traceback():
    # a real pipe whose reader closes after the first line; the rest of the
    # series (about 550 kB at this order, far beyond a pipe's buffer) then
    # meets a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "dtseries.cli", "series", "--fixture", "quadric_p4_d2",
         "--gamma", "ell", "--order", "1500", "--window", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert first == b"fixture quadric_p4_d2  gamma=(-1)\n"
    assert "Traceback" not in err
