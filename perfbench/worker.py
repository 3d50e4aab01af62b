"""One workload's library side, in a fresh interpreter.

Started by run.py as `python perfbench/worker.py '<json spec>'`.  It
imports dtseries, builds the workload's fixtures and toric models, prints
one `{"ready": ...}` line (run.py times set-up up to that line), then,
unless the spec asks for set-up only, runs one library pass for each
"pass" line on stdin (replying with its wall time and, untraced, its time
at the reference speed of speed.py) and, on "done", checks
every output and prints one JSON result line.

With tracing on, spans wrap each layer's public functions; traced and
untraced passes alternate so their difference is the tracing overhead.
"""

import json
import sys
from time import perf_counter

import workloads as W
from speed import REFERENCE_CAL_S, Speed


def emit(obj):
    print(json.dumps(obj), flush=True)


def main():
    spec = json.loads(sys.argv[1])
    workload = spec["workload"]

    from types import SimpleNamespace

    from dtseries import classenum, cli, fixtures, geometry, intlinalg, localization, qseries

    mods = SimpleNamespace(cli=cli, fixtures=fixtures, geometry=geometry, intlinalg=intlinalg,
                           classenum=classenum, qseries=qseries, localization=localization,
                           kernel_py=optional_module("dtseries._kernel_py"))
    if spec.get("hide_optional"):
        hide_optional(mods)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        install(tracer, mods)
        tracer.enabled = True
        tracer.phase = "setup"
    built = {name: mods.fixtures.get_fixture(name) for name in W.FIXTURES[workload]}
    toric = {name: fx.toric for name, fx in built.items() if fx.toric is not None}
    if tracer:
        tracer.enabled = False
    emit({"ready": True, "toric_models": sorted(m.name for m in toric.values())})
    if spec["setup_only"]:
        return 0

    run = Run(spec, mods, built)
    run.start(tracer)
    # run.py sends "pass" for each timed pass, then "done"
    for line in sys.stdin:
        try:
            if line.strip() == "pass":
                emit(run.one_pass())
                continue
            emit(run.finish())
        except Exception as exc:  # report, do not hide: run.py counts it as a failure
            import traceback

            traceback.print_exc()
            emit({"error": f"{type(exc).__name__}: {exc}"})
        break
    return 0


def optional_module(name):
    """The module, or None where it does not exist."""
    import importlib

    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class ModuleView:
    """A module with some attributes hidden; every other attribute, set or
    read, is the module's own."""

    def __init__(self, module, hidden):
        object.__setattr__(self, "_module", module)
        object.__setattr__(self, "_hidden", frozenset(hidden))

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        return getattr(self._module, name)

    def __setattr__(self, name, value):
        setattr(self._module, name, value)


def hide_optional(m):
    """Show the worker dtseries without its pure-Python kernel module and
    its backend registry, as it is once the oracle has a single summation
    path, so that the benchmark is seen to run without them."""
    m.kernel_py = None
    m.localization = ModuleView(m.localization, ("DEFAULT_BACKEND", "available_backends"))


def backend_info(loc):
    """The default backend's name and the names of all backends; (None, [])
    when the oracle has no backend registry."""
    registry = getattr(loc, "available_backends", None)
    return getattr(loc, "DEFAULT_BACKEND", None), sorted(registry()) if registry else []


def install(tracer, m):
    """Wrap each public function at every module attribute a caller looks
    it up through.  A function or module that does not exist is skipped,
    and its layer's metrics read 0."""
    sites = [
        (m.cli, "main", "cli.main"),
        (m.fixtures, "get_fixture", "fixtures.get_fixture"),
        (m.cli, "get_fixture", "fixtures.get_fixture"),
        (m.fixtures, "save_fixture", "fixtures.save_fixture"),
        (m.fixtures, "load_fixture", "fixtures.load_fixture"),
        (m.geometry, "run_all_checks", "geometry.run_all_checks"),
        (m.cli, "run_all_checks", "geometry.run_all_checks"),
        (m.intlinalg, "smith_normal_form", "intlinalg.smith_normal_form"),
        (m.classenum, "beta_constraint_lattice", "classenum.beta_constraint_lattice"),
        (m.classenum, "enumerate_beta", "classenum.enumerate_beta"),
        (m.classenum, "enumerate_contributions", "classenum.enumerate_contributions"),
        (m.cli, "enumerate_contributions", "classenum.enumerate_contributions"),
        (m.qseries, "euler_product", "qseries.euler_product"),
        (m.cli, "euler_product", "qseries.euler_product"),
        (m.qseries, "dt_series", "qseries.dt_series"),
        (m.cli, "dt_series", "qseries.dt_series"),
        (m.qseries.QSeries, "pretty", "qseries.render"),
        (m.qseries.QSeries, "to_json_dict", "qseries.render"),
        (m.localization, "partition_list", "partitions.partition_list"),
        (m.localization, "co_series", "localization.co_series"),
        (m.cli, "co_series", "localization.co_series"),
        (m.localization, "integrate", "localization.integrate"),
        (m.kernel_py, "sum_ratio_products", "kernel_py.sum_ratio_products"),
    ]
    for owner, attr, name in sites:
        if owner is not None and hasattr(owner, attr):
            tracer.wrap(owner, attr, name)


class Run:
    def __init__(self, spec, mods, built):
        import random

        self.spec, self.m, self.fx = spec, mods, built
        self.workload = spec["workload"]
        self.sizes = W.sizes(self.workload, spec["smoke"])
        self.attempted = 0
        self.failures = []
        rng = random.Random(spec["seed"])
        self.oracle_seeds = [rng.randrange(1 << 30) for _ in self.oracle_jobs()]
        self.calls = W.cli_calls(self.workload, spec["smoke"], spec["cli_seed"], spec["workdir"])
        self.speed = None if spec["trace"] else Speed()
        self.steps = None  # [(raw, scaled) seconds] of the pass being run

    def timed(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) as one step of an untraced pass, scaled to the
        reference speed by the calibrations just before and after it."""
        if self.steps is None:
            return fn(*args, **kwargs)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        self.steps.append((dt, self.speed.scale(dt)))
        return out

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    # ------------------------------------------------------------ passes

    def pass_oracle(self):
        loc = self.m.localization
        out = []
        for (fx_name, bundle), seed in zip(self.oracle_jobs(), self.oracle_seeds):
            model = self.fx[fx_name].toric
            n = self.sizes["nmax"][model.name]
            res = self.timed(loc.co_series, model, model.bundles[bundle], n, seed=seed)
            out.append({"fixture": fx_name, "bundle": bundle, "values": list(res.values)})
        self.attempted += len(out)
        return out

    def oracle_jobs(self):
        return [(fx, b) for fx in W.ORACLE_FIXTURES for b in ("L", "trivial")]

    def pass_lattice(self):
        from fractions import Fraction

        m, sz = self.m, self.sizes
        fx = self.fx[W.LATTICE_FIXTURE]
        S, X = fx.surface, fx.threefold
        gamma = (Fraction(sz["gamma"]),)
        D, U, V = m.intlinalg.smith_normal_form([list(r) for r in S.pushforward])
        lattice = m.classenum.beta_constraint_lattice(S, gamma, S.push(S.L_S))
        classes = {lvl: self.timed(m.classenum.enumerate_beta, S, gamma, lvl)
                   for lvl in range(sz["top"], -sz["depth"] - 1, -1)}
        table = self.timed(m.classenum.enumerate_contributions,
                           S, X, gamma, sz["order"], sz["window"])
        result = self.timed(m.qseries.dt_series, S, table, sz["order"])
        self.attempted += 5 + len(classes)
        return {
            "smith": (D, U, V),
            "lattice": lattice,
            "classes": classes,
            "table": table,
            "result": result,
        }

    def pass_series(self):
        m, sz = self.m, self.sizes
        fx = self.fx[W.SERIES_FIXTURE]
        S, X = fx.surface, fx.threefold
        lin = fx.toric.bundles[fx.toric_L]
        delta = m.geometry.delta_invariant(S, lin.surface_class)
        probe = m.localization.co_series(fx.toric, lin, 2, seed=self.oracle_seeds[0])
        minus3 = [int(c) for c in m.qseries.euler_product(-delta, 3).coeffs]
        convention = (m.qseries.CONVENTION_MINUS if list(probe.values) == minus3
                      else m.qseries.CONVENTION_PLUS)
        pair = (self.timed(m.qseries.euler_product, -delta, sz["euler_order"]),
                self.timed(m.qseries.euler_product, delta, sz["euler_order"]))
        table = self.timed(m.classenum.enumerate_contributions,
                           S, X, fx.gamma_names[W.SERIES_GAMMA], sz["order"], sz["window"])
        result = self.timed(m.qseries.dt_series, S, table, sz["order"], convention)
        rendered = self.timed(lambda: {
            "pretty": result.total.pretty(),
            "json": result.total.to_json_dict(),
            "blocks": [b.n_series.pretty() for b in result.blocks],
        })
        self.attempted += 7
        return {"delta": delta, "probe": list(probe.values), "pair": pair, "table": table,
                "result": result, "rendered": rendered}

    def cli_round(self):
        """Every CLI call of the workload through cli.main, in process."""
        import contextlib
        import io

        outs = []
        for call in self.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.m.cli.main(list(call.argv))
            text = out.getvalue()
            outs.append((call, rc, text))
        self.attempted += len(outs)
        return outs

    pass_cli = cli_round

    # ------------------------------------------------- canonical outputs

    def canonical(self, out):
        """Seed-independent, JSON-able form of a pass's output."""
        from fractions import Fraction

        w = self.workload
        if w == "oracle":
            return out
        if w == "lattice":
            D, _, _ = out["smith"]
            t = out["table"]
            return {
                "smith_diagonal": D,
                "lattice": [out["lattice"].origin, out["lattice"].basis],
                "classes": {str(k): v for k, v in out["classes"].items()},
                "rows": [(r.beta, r.beta_sq, r.n, str(r.xi), str(r.q_exponent)) for r in t.rows],
                "total": out["result"].total.to_json_dict(),
            }
        if w == "series":
            return {
                "probe": out["probe"],
                "pair": [[str(Fraction(c)) for c in s.coeffs] for s in out["pair"]],
                "rows": len(out["table"].rows),
                "rendered": out["rendered"],
                "convention": out["result"].convention,
            }
        return [(call.key, rc, W.canonical_stdout(call, text)) for call, rc, text in out]

    # ------------------------------------------------------------ checks

    def check_pass(self, out):
        getattr(self, f"check_{self.workload}")(out)

    def check_oracle(self, out):
        import checks

        q, g = self.m.qseries, self.m.geometry
        for row in out:
            fx = self.fx[row["fixture"]]
            lin = fx.toric.bundles[row["bundle"]]
            delta = g.delta_invariant(fx.surface, lin.surface_class)
            n = len(row["values"])
            minus = [int(c) for c in q.euler_product(-delta, n).coeffs]
            plus = [int(c) for c in q.euler_product(delta, n).coeffs]
            sign = checks.euler_sign(row["values"], minus, plus)
            self.check(sign is not None,
                       f"oracle {row['fixture']}/{row['bundle']}: {row['values']} matches "
                       f"neither or both Euler-product signs for delta={delta}")
        loc = self.m.localization
        default, backends = backend_info(loc)
        for other in backends:
            if other == default:
                continue
            for row, seed in zip(out, self.oracle_seeds):
                model = self.fx[row["fixture"]].toric
                res = loc.co_series(model, model.bundles[row["bundle"]], len(row["values"]) - 1,
                                    seed=seed, backend=other)
                self.check(list(res.values) == row["values"],
                           f"backend {other} disagrees with {default} on "
                           f"{row['fixture']}/{row['bundle']}")

    def check_lattice(self, out):
        from fractions import Fraction
        from math import prod

        import checks

        fx = self.fx[W.LATTICE_FIXTURE]
        S = fx.surface
        gamma = (Fraction(self.sizes["gamma"]),)
        A = [list(r) for r in S.pushforward]
        self.check(checks.smith_ok(A, *out["smith"]), "smith_normal_form: U*A*V != D")
        lat = checks.LatticeCheck(S, gamma, out["lattice"], self.sizes["window"])
        box = {r.beta for r in out["table"].rows}
        failures, compared, _ = lat.check(out["classes"], box)
        self.attempted += sum(len(v) for v in out["classes"].values())
        self.failures.extend(failures)
        self.check(compared > 0, "no enumerated class lies in the box: nothing was compared")
        # every class of the shallow levels, by brute force over the ellipsoid's box
        levels = sorted(out["classes"], reverse=True)
        small = [lvl for lvl in levels if prod(map(len, lat.scan_ranges(lvl))) <= MAX_SCAN]
        found = lat.brute_force(small[-1]) if small else {}
        for lvl in small:
            self.check(set(out["classes"][lvl]) == found.get(lvl, set()),
                       f"beta^2={lvl}: enumerate_beta differs from a brute-force scan")
        self.check(any(found.values()), "the brute-force scan found no class to compare")
        self.check_theta_eta(S, out["table"], out["result"], self.sizes["order"])

    def check_series(self, out):
        import checks

        q = self.m.qseries
        delta = out["delta"]
        minus3 = [int(c) for c in q.euler_product(-delta, 3).coeffs]
        plus3 = [int(c) for c in q.euler_product(delta, 3).coeffs]
        self.check(checks.euler_sign(out["probe"], minus3, plus3) is not None,
                   f"sign probe {out['probe']} matches neither or both signs")
        a, b = ([int(c) for c in s.coeffs] for s in out["pair"])
        self.check(all(c.denominator == 1 for s in out["pair"] for c in s.coeffs),
                   "euler_product has non-integer coefficients")
        self.check(checks.product_is_one(a, b), "euler_product(e) * euler_product(-e) != 1")
        fx = self.fx[W.SERIES_FIXTURE]
        self.check_theta_eta(fx.surface, out["table"], out["result"], self.sizes["order"])
        # class counts per level against the box scan; on this rank-1 lattice
        # the box holds whole ellipsoids, which the cubic's window-1 box does not
        S, gamma = fx.surface, fx.gamma_names[W.SERIES_GAMMA]
        lattice = self.m.classenum.beta_constraint_lattice(S, gamma, S.push(S.L_S))
        box = {r.beta for r in out["table"].rows}
        levels = sorted({r.beta_sq for r in out["table"].rows}, reverse=True)
        classes = {lvl: self.m.classenum.enumerate_beta(S, gamma, lvl) for lvl in levels}
        lat = checks.LatticeCheck(S, gamma, lattice, self.sizes["window"])
        failures, compared, contained = lat.check(classes, box)
        self.attempted += len(levels)
        self.failures.extend(failures)
        self.check(contained > 0, "no level has its whole ellipsoid inside the box, "
                                  "so no class count was compared in full")

    def check_theta_eta(self, S, table, result, order):
        """dt_series total == theta(beta^2/2 over the table's classes) * eta^(sign*delta),
        moved to the blocks' prefactor q^(delta/24): eta^e carries q^(e/24)."""
        from fractions import Fraction

        q = self.m.qseries
        delta = self.m.geometry.delta_invariant(S)
        sign = -1 if result.convention == q.CONVENTION_MINUS else 1
        squares = {r.beta: r.beta_sq for r in table.rows}
        theta = q.theta_block([Fraction(b, 2) for b in squares.values()], order)
        expected = (theta * q.eta_power(sign * delta, order)).shift(
            Fraction(delta - sign * delta, 24))
        self.check(result.total == expected,
                   "dt_series total differs from theta_block * eta_power")
        self.check(len(result.blocks) == len(squares), "dt_series: one block per class expected")

    def check_cli(self, out):
        import checks

        for call, rc, text in out:
            trace_text = None
            if call.trace_file:
                with open(call.trace_file) as fh:
                    trace_text = fh.read()
            failures = checks.check_cli_output(call, rc, text, self.expected[call.key],
                                               trace_text)
            self.check(not failures, "; ".join(failures))

    # ---------------------------------------------- CLI expectations

    def cli_expectations(self, in_process=None):
        """{call key: what the call's output must hold}, from the library's
        own results for the same inputs (see checks.check_cli_output).
        in_process: cli.main's output of each call, which the stdout of the
        same call run as a subprocess must equal byte for byte."""
        import hashlib

        memo = {}
        expected = {call.key: self.expect(call, memo) for call in self.calls}
        for call, _, text in in_process or ():
            expected[call.key]["stdout_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        return expected

    def expect(self, call, memo):
        """What one call's output must hold; the call's subcommand and flags
        decide, whatever the workload."""
        from fractions import Fraction

        cmd, o = W.parse_call(call)
        if call.expect_rc == W.EXIT_BAD_INPUT:
            return {}
        fx = self.fx[o["fixture"]]
        fmt = o["format"]
        if cmd in ("oracle", "verify"):
            values, _ = self.expected_oracle(fx, o["bundle"], int(o["nmax"]), int(o["seed"]),
                                             memo)
            field, column = ("values", "value") if cmd == "oracle" else ("oracle_values", "oracle")
            word = [] if cmd == "oracle" else ["oracle"]
            if fmt == "json":
                e = {"json": {field: values}}
            elif fmt == "csv":
                e = {"csv_column": {column: [str(v) for v in values]}}
            else:
                e = {"line_tokens": [[f"n={n}:", *word, str(v)] for n, v in enumerate(values)]}
            if call.trace_file:
                e["trace_sums"] = values
            return e

        spec = o["gamma"]
        X = fx.threefold
        gamma = (tuple(Fraction(0) for _ in range(X.h4_rank)) if spec is None
                 else fx.gamma_names[spec] if spec in fx.gamma_names
                 else tuple(Fraction(x) for x in spec.split(",")))
        if cmd == "classes":
            rows = len(self.expected_table(fx, gamma, int(o["order"]), int(o["window"]),
                                           memo).rows)
            return ({"json_len": {"rows": rows}} if fmt == "json" else
                    {"csv_rows": rows} if fmt == "csv" else {"line_count": 1 + max(rows, 1)})

        g = self.m.geometry
        report = g.run_all_checks(X, g.ChernVector(gamma), fx.candidates,
                                  irreducible=fx.irreducible)
        self.check(report.passed == (call.expect_rc != W.EXIT_CHECKS_FAILED),
                   f"{call.key}: run_all_checks gives passed={report.passed}, "
                   f"the documented exit code is {call.expect_rc}")
        if cmd == "check":
            verdict = "PASS" if report.passed else "FAIL"
            return ({"json": {"report.passed": report.passed}} if fmt == "json" else
                    {"csv_last": {"holds": str(report.passed)}} if fmt == "csv" else
                    {"line_tokens": [["overall", ":", verdict]]})
        if not report.passed:  # series refused
            return ({"json": {"error": "hypothesis checks failed"}} if fmt == "json" else
                    {"line_tokens": [["series", "not", "produced:"]]})
        result = self.expected_series(fx, gamma, int(o["order"]), int(o["window"]),
                                      int(o["seed"]), memo)
        total = result.total
        if fmt == "json":
            return {"json": {"total": total.to_json_dict(), "convention": result.convention},
                    "json_len": {"blocks": len(result.blocks)}}
        if fmt == "csv":
            return {"csv_column": {"coeff_num": [str(c.numerator) for c in total.coeffs],
                                   "coeff_den": [str(c.denominator) for c in total.coeffs]}}
        return {"line_tokens": [["convention", "=", result.convention],
                                ["total", "=", *total.pretty().split()]]}

    def expected_oracle(self, fx, bundle, n_max, seed, memo):
        """The library's oracle values and the Euler-product sign that they
        match, which must be exactly one."""
        import checks

        key = ("oracle", fx.name, bundle, n_max, seed)
        if key not in memo:
            q = self.m.qseries
            lin = fx.toric.bundles[bundle]
            values = list(self.m.localization.co_series(fx.toric, lin, n_max, seed=seed).values)
            delta = self.m.geometry.delta_invariant(fx.surface, lin.surface_class)
            minus = [int(c) for c in q.euler_product(-delta, n_max + 1).coeffs]
            plus = [int(c) for c in q.euler_product(delta, n_max + 1).coeffs]
            sign = checks.euler_sign(values, minus, plus)
            self.check(sign is not None, f"oracle {fx.name}/{bundle} at n_max={n_max}: {values} "
                                         f"matches neither or both Euler-product signs")
            memo[key] = values, sign
        return memo[key]

    def expected_table(self, fx, gamma, order, window, memo):
        key = ("table", fx.name, gamma, order, window)
        if key not in memo:
            memo[key] = self.m.classenum.enumerate_contributions(
                fx.surface, fx.threefold, gamma, order, window)
        return memo[key]

    def expected_series(self, fx, gamma, order, window, seed, memo):
        """The library's dt_series, checked against theta_block * eta_power;
        the sign comes from the oracle's n_max=2 probe as the CLI documents."""
        q = self.m.qseries
        convention = q.CONVENTION_MINUS
        if fx.toric is not None:
            _, sign = self.expected_oracle(fx, fx.toric_L, 2, seed, memo)
            convention = q.CONVENTION_PLUS if sign == "plus" else q.CONVENTION_MINUS
        key = ("series", fx.name, gamma, order, window, convention)
        if key not in memo:
            table = self.expected_table(fx, gamma, order, window, memo)
            result = q.dt_series(fx.surface, table, order, convention)
            self.check_theta_eta(fx.surface, table, result, order)
            memo[key] = result
        return memo[key]

    # -------------------------------------------------------- measuring

    def start(self, tracer):
        self.tracer = tracer
        self.pass_fn = getattr(self, f"pass_{self.workload}")
        self.walls = {False: [], True: []}
        self.first = self.digest = None
        self.pass_phases = []

    def one_pass(self):
        """Run one pass (traced and untraced passes alternate when tracing)
        and return {"wall": seconds, "scaled": seconds at the reference
        speed, untraced runs only}."""
        import hashlib
        import statistics

        tracer, speed = self.tracer, self.speed
        if speed:
            first = len(speed.cal)
            speed.mark()
            self.steps = []
        i = len(self.walls[False]) + len(self.walls[True])
        on = bool(tracer) and i % 2 == 0
        if on:
            tracer.phase = f"pass{i}"
            self.pass_phases.append(tracer.phase)
            tracer.enabled = True
        t0 = perf_counter()
        out = self.pass_fn()
        wall = perf_counter() - t0
        if on:
            tracer.enabled = False
        reply = {}
        if speed:
            speed.mark()
            cal = speed.cal[first:]
            wall -= sum(cal[1:-1])  # the calibrations between steps
            # what lies outside the timed steps, at the pass's mean speed
            rest = wall - sum(raw for raw, _ in self.steps)
            reply["scaled"] = (sum(s for _, s in self.steps)
                               + rest * REFERENCE_CAL_S / statistics.mean(cal))
            self.steps = None
        self.walls[on].append(wall)
        d = hashlib.sha256(json.dumps(self.canonical(out), sort_keys=True,
                                      default=str).encode()).hexdigest()
        if self.first is None:
            self.first, self.digest = out, d
        else:
            self.check(d == self.digest, f"pass {i} output differs from pass 0")
        reply["wall"] = wall
        return reply

    def finish(self):
        import hashlib
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        first, walls = self.first, self.walls
        default, backends = backend_info(self.m.localization)
        self.expected = self.cli_expectations(first if self.workload == "cli" else None)
        self.check_pass(first)
        result = {
            "pass_walls": walls[False],
            "peak_rss_mb": peak_kb / 1024.0,
            "lib_digest": self.digest,
            "cli_expected": self.expected,
            "default_backend": default,
            "backends": backends,
        }
        if self.tracer:
            result["layers"], cli_out = self.layer_metrics()
            result["cli_items"] = [
                (call.key, rc, hashlib.sha256(W.canonical_stdout(call, text).encode()).hexdigest())
                for call, rc, text in cli_out
            ]
        result["attempted"] = self.attempted
        result["failures"] = self.failures
        return result

    def layer_metrics(self):
        import os
        import statistics

        import tracing

        tracer, walls = self.tracer, self.walls
        # traced in-process CLI round (the cli workload's passes already are one)
        cli_out = self.first
        if self.workload != "cli":
            tracer.phase, tracer.enabled = "cli", True
            cli_out = self.cli_round()
            tracer.enabled = False
            self.check_cli(cli_out)
        # fixture write path: save then load each of the workload's fixtures
        tracer.phase, tracer.enabled = "roundtrip", True
        json_bytes = 0
        for name, fx in self.fx.items():
            path = os.path.join(self.spec["workdir"], f"fixture-{name}.json")
            self.m.fixtures.save_fixture(fx, path)
            back = self.m.fixtures.load_fixture(path)
            json_bytes += os.path.getsize(path)
            self.check(self.m.fixtures.fixture_to_dict(back) == self.m.fixtures.fixture_to_dict(fx),
                       f"fixture {name} changed in a save/load round trip")
        tracer.enabled = False

        per_pass = [phase_counts(tracer.phase_spans(p)) for p in self.pass_phases]
        for c in per_pass[1:]:
            self.check(c["counts"] == per_pass[0]["counts"],
                       "per-layer counters differ between traced passes")
        once = [phase_counts(tracer.phase_spans("setup"))]
        if self.workload != "cli":
            once.append(phase_counts(tracer.phase_spans("cli")))
        roundtrip = tracing.durations(tracer.phase_spans("roundtrip"))[0]

        def combined(kind, key):
            # counters repeat exactly across passes; times take the median
            mid = statistics.median_low if kind == "counts" else statistics.median
            zero = 0 if kind == "counts" else 0.0
            val = mid(c[kind].get(key, zero) for c in per_pass)
            return val + sum(c[kind].get(key, zero) for c in once)

        t = lambda name: combined("time", name)  # noqa: E731
        n = lambda name: combined("counts", name)  # noqa: E731
        L = {}
        L["cli.main_s"] = t("cli.main")
        L["cli.calls"] = len(cli_out)
        L["cli.stdout_bytes"] = sum(len(text.encode()) for _, _, text in cli_out)
        L["fixtures.get_fixture_s"] = t("fixtures.get_fixture")
        L["fixtures.roundtrip_s"] = (roundtrip.get("fixtures.save_fixture", 0.0)
                                     + roundtrip.get("fixtures.load_fixture", 0.0))
        L["fixtures.json_bytes"] = json_bytes
        L["geometry.checks_s"] = t("geometry.run_all_checks")
        L["geometry.checks_calls"] = n("geometry.run_all_checks")
        L["intlinalg.smith_s"] = t("intlinalg.smith_normal_form")
        L["classenum.lattice_s"] = t("classenum.beta_constraint_lattice")
        L["classenum.enumerate_beta_s"] = t("classenum.enumerate_beta")
        L["classenum.classes"] = n("classes")
        for lvl in range(W.SIZES["lattice"]["full"]["top"],
                         -W.SIZES["lattice"]["full"]["depth"] - 1, -1):
            L[f"classenum.classes.b2_{lvl}"] = n(f"classes.b2_{lvl}")
        L["classenum.classes_per_s"] = ratio(L["classenum.classes"],
                                             L["classenum.enumerate_beta_s"])
        L["classenum.box_scan_s"] = t("classenum.enumerate_contributions")
        L["classenum.box_points"] = n("box_points")
        L["classenum.rows"] = n("rows")
        L["classenum.box_yield"] = ratio(n("row_classes"), n("box_points"))
        L["qseries.euler_product_s"] = t("qseries.euler_product")
        L["qseries.euler_coeffs"] = n("euler_coeffs")
        L["qseries.dt_series_s"] = t("qseries.dt_series")
        L["qseries.blocks"] = n("blocks")
        L["qseries.render_s"] = t("qseries.render")
        L["qseries.max_coeff_bits"] = max(c["counts"].get("max_coeff_bits", 0)
                                          for c in per_pass + once)
        # cold: the first traced pass runs before any other pass in this process
        L["partitions.partition_list_s"] = per_pass[0]["time"].get(
            "partitions.partition_list", 0.0)
        L["partitions.count"] = n("partitions")
        L["localization.co_series_s"] = t("localization.co_series")
        L["localization.integrate_s"] = t("localization.integrate")
        L["localization.integrate_calls"] = n("localization.integrate")
        L["localization.useful_ratio"] = ratio(n("useful_integrals"),
                                               L["localization.integrate_calls"])
        L["localization.reshifts"] = n("reshifts")
        L["localization.fixed_points"] = n("fixed_points")
        L["localization.max_int_bits"] = max(c["counts"].get("max_int_bits", 0)
                                             for c in per_pass + once)
        L["kernel_py.sum_s"] = t("kernel_py.sum_ratio_products")
        L["kernel_py.calls"] = n("kernel_py.sum_ratio_products")
        for layer in LAYERS:
            L[f"{layer}.self_s"] = combined("self", layer)
        L["trace.spans"] = n("spans")
        L["trace.traced_wall_s"] = min(walls[True])
        L["trace.overhead_s"] = L["trace.traced_wall_s"] - min(walls[False])
        tracer.write(os.path.join(self.spec["spans_dir"],
                                  f"spans-{self.workload}-seed{self.spec['seed']}.json"))
        return L, cli_out


MAX_SCAN = 60000  # lattice points a brute-force class check may visit

LAYERS = ("cli", "fixtures", "geometry", "intlinalg", "classenum", "qseries", "partitions",
          "localization", "kernel_py")


def ratio(a, b):
    return a / b if b else 0.0


def _arg(span, i, name):
    args = span["args"]
    if len(args) > i:
        return args[i]
    return span.get("kwargs", {}).get(name)


def phase_counts(spans):
    """Times and exact counters of one phase, taken from its spans."""
    import checks
    import tracing

    total, self_time = tracing.durations(spans)
    c = {}

    def add(key, v):
        c[key] = c.get(key, 0) + v

    partitions_seen = {}
    for s in spans:
        add(s["name"], 1)
        name, res = s["name"], s.get("result")
        if "error" in s:
            if name == "localization.integrate" and getattr(s["error"], "structural", False):
                add("reshifts", 1)
            continue
        if name == "classenum.enumerate_beta":
            add("classes", len(res))
            add(f"classes.b2_{_arg(s, 2, 'beta_sq')}", len(res))
        elif name == "classenum.enumerate_contributions":
            kids = [k for k in spans if k["parent"] == s["id"]
                    and k["name"] == "classenum.beta_constraint_lattice"]
            lattice = kids[0].get("result") if kids else None
            if lattice is not None:
                add("box_points", (2 * _arg(s, 4, "window") + 1) ** lattice.rank)
            add("rows", len(res.rows))
            add("row_classes", len({r.beta for r in res.rows}))
        elif name == "qseries.euler_product":
            add("euler_coeffs", res.order)
            c["max_coeff_bits"] = max(c.get("max_coeff_bits", 0), coeff_bits(res))
        elif name == "qseries.dt_series":
            add("blocks", len(res.blocks))
            c["max_coeff_bits"] = max(c.get("max_coeff_bits", 0), coeff_bits(res.total))
        elif name == "partitions.partition_list":
            partitions_seen[_arg(s, 0, "n")] = len(res)
        elif name == "localization.co_series":
            add("useful_integrals", 2 * (_arg(s, 2, "n_max") + 1))
        elif name == "localization.integrate":
            model, n = _arg(s, 0, "model"), _arg(s, 2, "n")
            add("fixed_points", checks.fixed_point_count(len(model.charts), n))
            c["max_int_bits"] = max(c.get("max_int_bits", 0), abs(res).bit_length())
    add("partitions", sum(partitions_seen.values()))
    c["spans"] = len(spans)
    return {"time": total, "self": self_time, "counts": c}


def coeff_bits(series):
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for x in series.coeffs), default=0)


if __name__ == "__main__":
    sys.exit(main())
