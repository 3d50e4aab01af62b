"""Command-line front end.

Subcommands: check (numeric hypotheses), classes (contributing curve
classes), series (the assembled q-series), oracle (localization integrals),
verify (oracle vs. Euler-product coefficients).  Output is deterministic
for a fixed configuration and seed: timing goes to stderr, never stdout.

Exit codes: 0 success, 2 hypothesis checks failed, 3 the oracle agrees
with neither exponent sign or finds its sums inconsistent, 4 invalid input
(a fixture whose surface breaks the projection formula or Wu's formula
included), 141 stdout closed before the output was written (a broken pipe,
as in `dtseries ... | head`).
"""

import argparse
import csv
import functools
import io
import json
import os
import sys

from .classenum import enumerate_contributions
from .fixtures import get_fixture, write_json
from .geometry import delta_invariant, run_all_checks, virtual_dimension, ChernVector
from .localization import OracleError, co_series, trace_terms
from .qseries import (
    CONVENTION_MINUS,
    CONVENTION_PLUS,
    dt_series,
    euler_product,
    frac_str,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 2
EXIT_MISMATCH = 3
EXIT_BAD_INPUT = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer the pipe killed

NMAX_CEILING = 20
ORDER_CEILING = 2000
# oracle --trace lists every fixed point of S^[n], n <= min(--nmax, 3), each
# by its nonempty charts; a trace of more fixed points than this exits 4
# (near it, an 80-ray fan at --nmax 3 lists 98,441 in about 3 s and 80 MB)
TRACE_CEILING = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the bad-input code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it:
    parsing does not change it, so repeated main() calls reuse one.

    It is the run configuration: each flag's type and default are stated
    once, in its add_argument, and the parsed namespace is what the cmd_*
    functions read, each flag under its own name.  A subcommand's namespace
    holds only its own flags, and `run`, its command function."""
    parser = _Parser(prog="dtseries", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(run, summary, seed_help, gamma=False, k=False, order_help=None, oracle_flags=False):
        p = sub.add_parser(run.__name__.removeprefix("cmd_"), help=summary)
        p.set_defaults(run=run)
        p.add_argument("--fixture", required=True, help="builtin fixture name or JSON file")
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty",
                       help="output format (default: pretty)")
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        if k:
            p.add_argument("--k", type=int,
                           help="polarization parameter for the blow-up fixtures")
        if gamma:
            p.add_argument("--gamma",
                           help="character: named ('ell'), parameters ('r=0,s=-1'), "
                                "or a comma-separated rational vector")
        if order_help:
            p.add_argument("--order", type=int, default=8,
                           help=f"{order_help} (at most {ORDER_CEILING})")
            p.add_argument("--window", type=int, default=2,
                           help="lattice search radius for curve classes")
        if oracle_flags:
            p.add_argument("--nmax", type=int, default=4,
                           help=f"largest number of points (at most {NMAX_CEILING})")
            p.add_argument("--bundle", help="which linearized bundle to integrate against "
                                            "(default: the bundle of L)")
        return p

    ignored = "accepted and ignored: nothing here draws evaluation points"
    points = "seed of the oracle's two random evaluation points (default: 0)"
    add(cmd_check, "run the positivity and stability-gap checks", ignored, gamma=True, k=True)
    add(cmd_classes, "enumerate contributing curve classes", ignored, gamma=True,
        order_help="keep the rows whose exponent beta^2/2 + delta/24 + n is at most ORDER")
    p = add(cmd_series, "assemble the generating series",
            "seed of the evaluation points of the oracle that resolves the exponent sign "
            "on a toric fixture (default: 0)", gamma=True, k=True,
            order_help="print ORDER coefficients, from the lowest exponent up")
    p.add_argument("--override-checks", action="store_true",
                   help="produce the series even when the checks fail")
    p = add(cmd_oracle, "equivariant integrals on the Hilbert scheme", points, oracle_flags=True)
    p.add_argument("--trace", help="write a per-fixed-point JSON trace (small n) to this file")
    add(cmd_verify, "compare the oracle against the Euler product", points, oracle_flags=True)
    return parser


def check_bounds(cfg):
    """Refuse an --order, --window or --nmax out of its range; a subcommand
    without one of these flags has nothing of it to check."""
    if "order" in cfg and not 1 <= cfg.order <= ORDER_CEILING:
        raise ValueError(f"--order must lie in 1..{ORDER_CEILING}")
    if "window" in cfg and cfg.window < 0:
        raise ValueError("--window must be nonnegative")
    if "nmax" in cfg and not 0 <= cfg.nmax <= NMAX_CEILING:
        raise ValueError(f"--nmax must lie in 0..{NMAX_CEILING}")


def emit_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _csv_print(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _report_dict(report):
    d = {
        "vanishing_asserted": report.vanishing_asserted,
        "irreducible": report.irreducible,
        "passed": report.passed,
        "failures": report.failures,
    }
    for key in ("ineq_KL2_gt_L3", "ineq_KLO1_pos"):
        iq = getattr(report, key)
        d[key] = {"lhs": frac_str(iq.lhs), "rhs": frac_str(iq.rhs), "holds": iq.holds}
    d["stability_gap"] = [
        {
            "candidate": list(e.candidate),
            "forbidden_m": frac_str(e.forbidden_m),
            "is_integer": e.is_integer,
            "holds": e.gap_holds,
        }
        for e in report.stability_gap
    ]
    return d


def _print_report_pretty(fx, gamma, report):
    print(f"fixture {fx.name}")
    print(f"  character gamma     : ({', '.join(frac_str(g) for g in gamma)})")
    for iq in report.inequalities:
        print(f"  {iq.label:<20}: {frac_str(iq.lhs)} > {frac_str(iq.rhs)}  "
              f"{'ok' if iq.holds else 'FAIL'}")
    print(f"  vanishing asserted  : {'yes' if report.vanishing_asserted else 'NO'}")
    if report.irreducible and not report.stability_gap:
        print("  stability gap       : vacuous (irreducible support class)")
    elif not report.stability_gap:
        print("  stability gap       : no candidate decompositions supplied")
    else:
        for e in report.stability_gap:
            verdict = "ok" if e.gap_holds else "FAIL (integer twist)"
            print(f"  stability gap at {e.candidate}: forbidden m = "
                  f"{frac_str(e.forbidden_m)}  {verdict}")
    print(f"  overall             : {'PASS' if report.passed else 'FAIL'}")


def cmd_check(cfg):
    fx = get_fixture(cfg.fixture, cfg.k)
    gamma = fx.character(cfg.gamma)
    report = run_all_checks(
        fx.threefold, ChernVector(gamma), fx.candidates, irreducible=fx.irreducible
    )
    if cfg.format == "json":
        emit_json({
            "command": "check",
            "fixture": fx.name,
            "gamma": [frac_str(g) for g in gamma],
            "report": _report_dict(report),
        })
    elif cfg.format == "csv":
        rows = [["check", "lhs", "rhs", "holds"]]
        rows += [[iq.label.replace(" ", ""), frac_str(iq.lhs), frac_str(iq.rhs), iq.holds]
                 for iq in report.inequalities]
        rows.append(["vanishing_asserted", "", "", report.vanishing_asserted])
        for e in report.stability_gap:
            rows.append([f"stability{list(e.candidate)}", frac_str(e.forbidden_m), "Z",
                         e.gap_holds])
        rows.append(["overall", "", "", report.passed])
        _csv_print(rows)
    else:
        _print_report_pretty(fx, gamma, report)
    return EXIT_OK if report.passed else EXIT_CHECKS_FAILED


def _table_rows_csv(fx, table):
    s = fx.surface.h2_rank
    header = [f"beta_{i}" for i in range(s)]
    header += ["beta_sq", "n", "xi_num", "xi_den", "q_exp_num", "q_exp_den"]
    rows = [header]
    for r in table.rows:
        rows.append(
            list(r.beta)
            + [r.beta_sq, r.n, r.xi.numerator, r.xi.denominator,
               r.q_exponent.numerator, r.q_exponent.denominator]
        )
    return rows


def cmd_classes(cfg):
    fx = get_fixture(cfg.fixture)
    gamma = fx.character(cfg.gamma)
    table = enumerate_contributions(fx.surface, fx.threefold, gamma, cfg.order, cfg.window)
    if cfg.format == "json":
        emit_json({
            "command": "classes",
            "fixture": fx.name,
            "gamma": [frac_str(g) for g in gamma],
            "delta": table.delta,
            "window": table.window,
            "max_power": frac_str(table.max_power),
            "rows": [
                {
                    "beta": list(r.beta),
                    "beta_sq": r.beta_sq,
                    "n": r.n,
                    "xi": frac_str(r.xi),
                    "q_exponent": frac_str(r.q_exponent),
                }
                for r in table.rows
            ],
        })
    elif cfg.format == "csv":
        _csv_print(_table_rows_csv(fx, table))
    else:
        print(f"fixture {fx.name}  gamma=({', '.join(frac_str(g) for g in gamma)})  "
              f"delta={table.delta}")
        if not table.rows:
            print("  no curve classes satisfy the degree constraint")
        for r in table.rows:
            print(f"  beta={r.beta}  beta^2={r.beta_sq}  n={r.n}  xi={frac_str(r.xi)}  "
                  f"q^{frac_str(r.q_exponent)}")
    return EXIT_OK


def oracle_verdict(fx, lin, n_max, seed):
    """Run the oracle on the toric bundle lin up to n_max points and compare
    its values with the first n_max + 1 coefficients of
    prod(1-q^k)^(-delta) (minus) and prod(1-q^k)^delta (plus), for the delta
    of lin's class.  Returns (convention, result, delta, minus, plus): the
    convention whose coefficients equal the values, minus when both do
    (delta = 0), None when neither does."""
    result = co_series(fx.toric, lin, n_max, seed=seed)
    delta = delta_invariant(fx.surface, lin.surface_class)
    vals = list(result.values)
    minus = list(euler_product(-delta, n_max + 1).coeffs)
    plus = list(euler_product(delta, n_max + 1).coeffs)
    convention = (CONVENTION_MINUS if vals == minus else
                  CONVENTION_PLUS if vals == plus else None)
    return convention, result, delta, minus, plus


def resolve_convention(fx, seed):
    """Pick the exponent sign from the localization oracle when the fixture
    has a toric surface; otherwise use the product-formula default."""
    if fx.toric is None:
        return CONVENTION_MINUS, "default"
    convention, result, delta, _, _ = oracle_verdict(fx, fx.toric.bundles[fx.toric_L], 2, seed)
    if convention is None:
        raise OracleError(f"oracle values {list(result.values)} match neither "
                          f"Euler-product sign for delta={delta}")
    return convention, "oracle-resolved"


def cmd_series(cfg):
    fx = get_fixture(cfg.fixture, cfg.k)
    gamma = fx.character(cfg.gamma)
    report = run_all_checks(
        fx.threefold, ChernVector(gamma), fx.candidates, irreducible=fx.irreducible
    )
    if not report.passed and not cfg.override_checks:
        if cfg.format == "json":
            emit_json({
                "command": "series",
                "fixture": fx.name,
                "error": "hypothesis checks failed",
                "report": _report_dict(report),
            })
        else:
            _print_report_pretty(fx, gamma, report)
            print("series not produced: checks failed (use --override-checks to force)")
        return EXIT_CHECKS_FAILED
    convention, provenance = resolve_convention(fx, cfg.seed)
    table = enumerate_contributions(fx.surface, fx.threefold, gamma, cfg.order, cfg.window)
    result = dt_series(fx.surface, table, cfg.order, convention)
    v = virtual_dimension(fx.threefold)
    if cfg.format == "json":
        emit_json({
            "command": "series",
            "fixture": fx.name,
            "gamma": [frac_str(g) for g in gamma],
            "delta": result.delta,
            "virtual_dimension": v,
            "convention": result.convention,
            "convention_provenance": provenance,
            "checks_passed": report.passed,
            "euler_factor": result.euler_factor.to_json_dict(),
            "blocks": [
                {
                    "beta": list(b.beta),
                    "beta_sq": b.beta_sq,
                    "prefactor_exponent": frac_str(b.prefactor_exponent),
                }
                for b in result.blocks
            ],
            "total": result.total.to_json_dict(),
        })
    elif cfg.format == "csv":
        # q^(offset + i) is (p + i*d)/d in lowest terms for offset p/d
        p, d = result.total.offset.numerator, result.total.offset.denominator
        rows = [["q_exp_num", "q_exp_den", "coeff_num", "coeff_den"]]
        rows += [[p + i * d, d, c, 1] for i, c in enumerate(result.total.coeffs)]
        _csv_print(rows)
    else:
        print(f"fixture {fx.name}  gamma=({', '.join(frac_str(g) for g in gamma)})")
        print(f"  delta = {result.delta}   virtual dimension = {v}")
        print(f"  convention = {result.convention} ({provenance})")
        print(f"  euler factor = {result.euler_factor.pretty()}")
        if not result.blocks:
            print("  no contributing curve classes in this window")
        for b in result.blocks:
            print(f"  block beta={b.beta} (beta^2={b.beta_sq}): "
                  f"q^({frac_str(b.prefactor_exponent)})")
        print(f"  total = {result.total.pretty()}")
    return EXIT_OK


def _toric_bundle(cfg):
    """The fixture and the toric bundle named by --bundle (default: the bundle of L)."""
    fx = get_fixture(cfg.fixture)
    if fx.toric is None:
        raise ValueError(f"fixture {fx.name} has no toric surface model")
    key = fx.toric_L if cfg.bundle is None else cfg.bundle
    if key not in fx.toric.bundles:
        raise ValueError(f"no bundle {key!r}; available: {sorted(fx.toric.bundles)}")
    return fx, fx.toric.bundles[key]


def cmd_oracle(cfg):
    fx, lin = _toric_bundle(cfg)
    depth = min(cfg.nmax, 3)
    if cfg.trace is not None:
        # the fixed points of S^[n] number [q^n] prod (1-q^k)^(-e), e charts
        points = sum(euler_product(-fx.toric.euler, depth + 1).coeffs)
        if points > TRACE_CEILING:
            raise ValueError(f"--trace would list {points} fixed points, "
                             f"above the ceiling of {TRACE_CEILING}")
    result = co_series(fx.toric, lin, cfg.nmax, seed=cfg.seed)
    print(f"oracle time: {result.elapsed:.3f}s", file=sys.stderr)
    if cfg.trace is not None:
        by_n = trace_terms(fx.toric, lin, depth, result.eval_points[0])
        trace = [
            {"n": n, "terms": [{"point": t["point"], "term": frac_str(t["term"])} for t in terms]}
            for n, terms in enumerate(by_n)
        ]
        try:
            write_json(trace, cfg.trace)
        except OSError as exc:
            raise ValueError(f"cannot write trace: {exc}") from exc
    payload = {
        "command": "oracle",
        "fixture": fx.name,
        "bundle": lin.name,
        "n_max": result.n_max,
        "values": list(result.values),
        "eval_points": [[frac_str(x), frac_str(y)] for (x, y) in result.eval_points],
        "seed": result.seed,
    }
    if cfg.format == "json":
        emit_json(payload)
    elif cfg.format == "csv":
        rows = [["n", "value"]] + [[n, v] for n, v in enumerate(result.values)]
        _csv_print(rows)
    else:
        print(f"fixture {fx.name}  bundle {lin.name}")
        pts = ", ".join(f"({frac_str(x)}, {frac_str(y)})" for (x, y) in result.eval_points)
        print(f"  evaluation points: {pts}")
        for n, v in enumerate(result.values):
            print(f"  n={n}: {v}")
    return EXIT_OK


def cmd_verify(cfg):
    fx, lin = _toric_bundle(cfg)
    sign, result, delta, minus, plus = oracle_verdict(fx, lin, cfg.nmax, cfg.seed)
    print(f"oracle time: {result.elapsed:.3f}s", file=sys.stderr)
    order = cfg.nmax + 1
    vals = list(result.values)
    matches_minus = vals == minus
    matches_plus = vals == plus
    payload = {
        "command": "verify",
        "fixture": fx.name,
        "bundle": lin.name,
        "delta": delta,
        "n_max": cfg.nmax,
        "oracle_values": vals,
        "euler_minus_delta": minus,
        "euler_plus_delta": plus,
        "matches_minus": matches_minus,
        "matches_plus": matches_plus,
        "resolved_convention": sign,
    }
    if cfg.format == "json":
        emit_json(payload)
    elif cfg.format == "csv":
        rows = [["n", "oracle", "euler_minus_delta", "euler_plus_delta"]]
        for n in range(order):
            rows.append([n, vals[n], minus[n], plus[n]])
        _csv_print(rows)
    else:
        print(f"fixture {fx.name}  bundle {lin.name}  delta={delta}")
        for n in range(order):
            mark = "==" if vals[n] == (minus[n] if matches_minus else plus[n]) else "!="
            print(f"  n={n}: oracle {vals[n]}  {mark}  "
                  f"minus:{minus[n]} plus:{plus[n]}")
        if sign:
            print(f"  resolved convention: {sign}")
        else:
            print("  MISMATCH: oracle agrees with neither exponent sign")
    return EXIT_OK if sign else EXIT_MISMATCH


def main(argv=None):
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush of stdout goes to
        # the null device, so it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _dispatch(argv):
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_BAD_INPUT
    # the one map from a command's exception to its exit code: an
    # OracleError is a mismatch, and every ValueError is invalid input
    try:
        check_bounds(cfg)
        return cfg.run(cfg)
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
