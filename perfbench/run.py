"""dtseries benchmark: four workloads, timed end to end and layer by layer.

    python3 perfbench/run.py --workload oracle|lattice|series|cli|all
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                             [--out FILE]
    python3 perfbench/run.py --selfcheck

Each workload is a closed loop with one client and one call at a time.
Library calls run in process, in a fresh worker interpreter per workload
(worker.py); CLI calls run as `python -m dtseries.cli ...` subprocesses, so
interpreter start and import are included.  Every output is checked
(checks.py); any failed check makes the command exit 1.

With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  --workload all runs both for every workload and
prints everything.  --selfcheck runs every workload at smoke size on two
seeds and asserts identical output digests and counters.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as W
from speed import REFERENCE_CAL_S, Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SCRATCH = ROOT / ".perfbench"

SETUP_SAMPLES = 19  # fresh interpreters per run for setup_s (the worker's is one more)
START_SAMPLES = 7  # bare and importing interpreters per traced run
MIN_PASSES = 3
TAIL_BEYOND = 10  # samples beyond the tail percentile
# CLI samples per run: enough that the tail percentile is above the median
MIN_CLI_SAMPLES = 2 * (TAIL_BEYOND + 1) + 1
MIN_ROUNDS = 2  # whole rounds of the workload's CLI calls per run, at least
CALL_TIMEOUT = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cli_p50_s": "s", "cli_tail_s": "s",
                    "peak_rss_mb": "MB"}
# counters whose value may legitimately depend on the seed: the evaluation
# points decide integer sizes, retries and the printed points themselves
SEED_DEPENDENT = {"localization.integrate_calls", "localization.useful_ratio",
                  "localization.reshifts", "localization.fixed_points",
                  "localization.max_int_bits", "kernel_py.calls", "trace.spans",
                  "cli.stdout_bytes"}


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = str(SRC) + (os.pathsep + e["PYTHONPATH"] if e.get("PYTHONPATH") else "")
    return e


def sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def unit_of(name):
    if name.endswith("_s"):
        return "1/s" if name.endswith("per_s") else "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


class Worker:
    """A worker interpreter; `ready_s` is the time from spawn to its ready
    line.  It runs one library pass per `step()` and reports on `finish()`."""

    def __init__(self, spec):
        t0 = perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(spec)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env(),
                                     cwd=ROOT, text=True)
        self.ready = self._reply()
        self.ready_s = perf_counter() - t0

    def _reply(self):
        try:
            return json.loads(self.proc.stdout.readline())
        except ValueError:
            return None

    def _send(self, line):
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except OSError:
            return None
        return self._reply()

    def step(self):
        """One library pass: {"wall": seconds}, or {"error": ...}."""
        return self._send("pass") or {"error": "worker exited during a pass"}

    def finish(self):
        reply = self._send("done")
        self.close()
        return reply

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CALL_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def interpreter_start(code):
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=CALL_TIMEOUT)
    return perf_counter() - t0


def tail(samples):
    """Value at the highest percentile with at least ten samples beyond it,
    with that percentile."""
    s = sorted(samples)
    i = max(0, len(s) - TAIL_BEYOND - 1)
    return s[i], 100.0 * (i + 1) / len(s)


def run_workload(workload, seed, seconds, trace, smoke, hide_optional=False):
    """One run; returns a dict with metrics, counts, failures and provenance.
    hide_optional: run as if dtseries had no pure-Python kernel module and
    no backend registry (see worker.hide_optional)."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, smoke, workdir, hide_optional)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, smoke, workdir, hide_optional):
    rng = random.Random(f"dtseries-bench-{workload}-{seed}")
    cli_seed = rng.randrange(1 << 30)
    lib_share = W.LIB_SHARE[workload]
    spec = {"workload": workload, "seed": seed, "cli_seed": cli_seed, "smoke": smoke,
            "trace": trace, "setup_only": False, "hide_optional": hide_optional,
            "workdir": str(workdir),
            "spans_dir": str(SCRATCH)}
    notes = {}
    cli = CliLoop(workload, smoke, cli_seed, workdir, rng)
    if trace:
        bare = [interpreter_start("pass") for _ in range(START_SAMPLES)]
        imp = [interpreter_start("import dtseries.cli") for _ in range(START_SAMPLES)]
        seconds *= lib_share  # the traced run makes no CLI subprocess calls
    speed = None if trace else Speed()
    worker = Worker(spec)
    setup = [worker.ready_s]
    walls, lib_t = [], 0.0
    # set-up, pass and CLI times at the reference speed (untraced runs)
    scaled = {"setup": [speed.scale(worker.ready_s)] if speed else [], "pass": [], "cli": []}
    res = None if worker.ready else {"error": "worker failed during set-up"}
    # traced runs alternate traced and untraced passes and need both
    min_passes = (1 if smoke else MIN_PASSES) * (2 if trace else 1)
    rounds = 1 if smoke else max(MIN_ROUNDS, -(-MIN_CLI_SAMPLES // len(cli.calls)))
    min_cli = 0 if trace else rounds * len(cli.calls)
    min_setup = 0 if trace else 2 if smoke else SETUP_SAMPLES + 1
    # Interleave set-up samples, library passes and CLI calls over the whole
    # run, so that a burst of load from elsewhere touches every metric's
    # samples alike instead of shifting one metric's median.
    t0 = perf_counter()
    while res is None:
        elapsed = perf_counter() - t0
        if (elapsed >= seconds and len(walls) >= min_passes and len(cli.samples) >= min_cli
                and len(setup) >= min_setup):
            break
        if len(setup) < min(min_setup, 1 + min_setup * elapsed / seconds):
            w = Worker(dict(spec, setup_only=True))
            setup.append(w.ready_s)
            w.close()
            if speed:
                scaled["setup"].append(speed.scale(w.ready_s))
        elif trace or lib_t * (1 - lib_share) <= cli.total * lib_share or len(walls) < 1:
            reply = worker.step()
            if "wall" not in reply:
                res = reply
                break
            walls.append(reply["wall"])
            lib_t += reply["wall"]
            if speed:
                speed.mark()  # the worker scales a pass call by call
                scaled["pass"].append(reply["scaled"])
        else:
            dt = cli.call()
            if speed:
                scaled["cli"].append(speed.scale(dt))
    if res is None:
        res = worker.finish() or {"error": "worker produced no result"}
    else:
        worker.close()
    if "error" in res:
        return {"workload": workload, "attempted": 1, "failed": 1,
                "failures": [f"worker: {res['error']}"], "metrics": {}, "notes": notes,
                "samples": {}, "provenance": provenance(workload, seed, smoke, None, None)}
    attempted = res["attempted"] + cli.attempted
    failures = res["failures"] + cli.check(res["cli_expected"])

    if trace:
        cli_items = [tuple(x) for x in res["cli_items"]]
        layers = dict(res["layers"])
        layers["cli.interp_s"] = statistics.median(bare)
        layers["cli.import_s"] = statistics.median(imp) - layers["cli.interp_s"]
        metrics = layers
        notes["tracing overhead"] = (f"{layers['trace.overhead_s']:.6f} s per pass "
                                     f"(traced {layers['trace.traced_wall_s']:.6f} s)")
    else:
        cli_items = cli.items()
        cli_s = scaled["cli"][:len(cli.whole_rounds())]
        tail_value, pct = tail(cli_s)
        metrics = {
            "setup_s": statistics.median(scaled["setup"]),
            "wall_s": statistics.median(scaled["pass"]),
            "cli_p50_s": statistics.median(cli_s),
            "cli_tail_s": tail_value,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        cal = speed.cal
        notes["speed"] = (f"times at the reference speed: calibrate() took {REFERENCE_CAL_S} s "
                          f"there and here median {statistics.median(cal):.6f} s, fastest "
                          f"{min(cal):.6f} s, slowest {max(cal):.6f} s over {len(cal)} runs")
        notes["setup_s"] = (f"median of {len(setup)} fresh interpreters "
                            f"(raw {statistics.median(setup):.6f} s)")
        notes["wall_s"] = (f"median of {len(walls)} library passes, each scaled call by call "
                           f"(raw median {statistics.median(walls):.6f} s, fastest "
                           f"{min(walls):.6f} s)")
        raw_cli = cli.whole_rounds()
        notes["cli_p50_s"] = (f"median of {len(cli_s)} CLI invocations, "
                              f"{len(cli_s) // len(cli.calls)} whole rounds of the workload's calls "
                              f"(raw {statistics.median(raw_cli):.6f} s)")
        notes["cli_tail_s"] = (f"p{pct:.1f} of {len(cli_s)} CLI invocations "
                               f"(raw {tail(raw_cli)[0]:.6f} s)")
    attempted = max(attempted, 1)
    notes["fail_frac"] = f"{len(failures)}/{attempted} = {len(failures) / attempted:.6f}"
    digest = sha256({"lib": res["lib_digest"], "cli": sorted(cli_items)})
    raw = {"setup_s": setup, "pass_walls_s": res["pass_walls"], "cli_s": cli.samples,
           "scaled_s": scaled, "calibration_s": speed.cal if speed else []}
    return {"workload": workload, "attempted": attempted, "failed": len(failures),
            "failures": failures, "metrics": metrics, "notes": notes, "samples": raw,
            "provenance": provenance(workload, seed, smoke, res, digest)}


class CliLoop:
    """CLI subprocesses, one at a time: every call of the workload once per
    round, each round in an order drawn from the seed.  The first output of
    each call is kept for the content checks, which need the library's
    results; later outputs must equal it."""

    def __init__(self, workload, smoke, cli_seed, workdir, rng):
        self.workload, self.rng = workload, rng
        self.calls = W.cli_calls(workload, smoke, cli_seed, str(workdir))
        self.samples, self.failures, self.first = [], [], {}
        self.total = 0.0
        self.attempted = 0
        self._queue = []

    def call(self):
        """One invocation; returns its wall time."""
        if not self._queue:
            self._queue = list(self.calls)
            self.rng.shuffle(self._queue)
        call = self._queue.pop()
        t0 = perf_counter()
        try:
            p = subprocess.run([sys.executable, "-m", "dtseries.cli", *call.argv], env=env(),
                               cwd=ROOT, capture_output=True, text=True, timeout=CALL_TIMEOUT)
            rc, text = p.returncode, p.stdout
        except subprocess.TimeoutExpired:
            rc, text = None, ""
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.total += dt
        self.attempted += 1
        trace_text = None
        if call.trace_file and os.path.exists(call.trace_file):
            with open(call.trace_file) as fh:
                trace_text = fh.read()
        canon = (rc, W.canonical_stdout(call, text), trace_text)
        if call.key not in self.first:
            self.first[call.key] = (call, rc, text, canon)
        elif self.first[call.key][3] != canon:
            self.failures.append(f"{' '.join(call.argv)}: output changed between calls")
        return dt

    def check(self, expected):
        """Content checks on the first output of every call."""
        import checks

        failures = list(self.failures)
        for call, rc, text, (_, _, trace_text) in self.first.values():
            self.attempted += 1
            failures += checks.check_cli_output(call, rc, text, expected[call.key], trace_text)
        return failures

    def whole_rounds(self):
        """The samples of whole rounds, so that every call weighs the same
        in the median and the tail whatever the seed."""
        return self.samples[:len(self.samples) - len(self.samples) % len(self.calls)]

    def items(self):
        return [(k, rc, hashlib.sha256(canon.encode()).hexdigest())
                for k, (_, rc, _, (_, canon, _)) in self.first.items()]


def git_revision():
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def provenance(workload, seed, smoke, res, digest):
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "default_backend": res["default_backend"] if res else None,
        "backends": res["backends"] if res else None,
        "seed": seed,
        "workload": workload,
        "sizes": W.sizes(workload, smoke),
        "output_sha256": digest,
    }


def print_run(r, trace):
    print(f"workload {r['workload']}  trace={trace}  seed={r['provenance']['seed']}")
    for name, value in r["metrics"].items():
        print(f"  {name:34s} {value!r:>24} {END_TO_END_UNITS.get(name) or unit_of(name)}")
    for name, note in r["notes"].items():
        print(f"  # {name}: {note}")
    for f in r["failures"][:20]:
        print(f"  FAILED: {f}")
    print("  provenance " + json.dumps(r["provenance"], sort_keys=True, default=str))


def result_line(runs):
    """The final JSON line: end-to-end metrics (trace 0) or per-layer
    metrics (trace 1), prefixed by workload when there are several runs."""
    metrics = {}
    for r in runs:
        for name, value in r["metrics"].items():
            key = name if len(runs) == 1 else f"{r['workload']}.{name}"
            metrics[key] = {"value": value, "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
    failed = sum(r["failed"] for r in runs)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in runs),
            "failed": failed, "metrics": metrics}


def selfcheck(seconds):
    """Smoke runs on two seeds: outputs identical across seeds, counters
    identical across runs of one seed, every check passing."""
    problems, digest = [], {}
    for w in W.WORKLOADS:
        a = run_workload(w, 1, seconds, 1, True)
        b = run_workload(w, 2, seconds, 1, True)
        a2 = run_workload(w, 1, seconds, 1, True)
        plain = run_workload(w, 2, seconds, 0, True)
        runs = (a, b, a2, plain)
        problems += [f"{w}: {f}" for r in runs for f in r["failures"]]
        if any(r["failed"] for r in runs):
            continue
        digests = {r["provenance"]["output_sha256"] for r in runs}
        digest[w] = a["provenance"]["output_sha256"]
        if len(digests) != 1:
            problems.append(f"{w}: output digests differ across seeds or modes: {digests}")
        counters = [n for n in a["metrics"] if unit_of(n) not in ("s", "1/s")]
        for n in counters:
            if a["metrics"][n] != a2["metrics"][n]:
                problems.append(f"{w}: counter {n} not repeatable: "
                                f"{a['metrics'][n]} vs {a2['metrics'][n]}")
            if n not in SEED_DEPENDENT and a["metrics"][n] != b["metrics"][n]:
                problems.append(f"{w}: counter {n} changed with the seed: "
                                f"{a['metrics'][n]} vs {b['metrics'][n]}")
        print(f"selfcheck {w}: digest {a['provenance']['output_sha256'][:16]}  "
              f"{len(counters)} counters  {a['attempted'] + b['attempted']} checks")
    # the oracle workload must also run once the kernel module and the
    # backend registry are gone; their layers then read 0
    for trace in (0, 1):
        r = run_workload("oracle", 1, seconds, trace, True, hide_optional=True)
        problems += [f"oracle without kernel module: {f}" for f in r["failures"]]
        zeros = {n: v for n, v in r["metrics"].items() if n.startswith("kernel_py.")}
        if trace and (not zeros or any(zeros.values())):
            problems.append(f"oracle without kernel module: kernel_py metrics {zeros}")
        if r["provenance"]["default_backend"] is not None:
            problems.append("oracle without backend registry still reports a default backend")
        if r["provenance"]["output_sha256"] != digest.get("oracle"):
            problems.append("oracle without kernel module: output digest differs")
    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps({"selfcheck": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*W.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    ap.add_argument("--selfcheck", action="store_true",
                    help="smoke runs on two seeds; assert equal digests and counters")
    ap.add_argument("--out", help="also write every run's full record to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "dtseries" / "cli.py").is_file():
        print(f"error: no dtseries sources under {SRC}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(min(args.seconds, 1.0))

    if args.workload == "all":
        runs = []
        for w in W.WORKLOADS:
            for trace in (0, 1):
                r = run_workload(w, args.seed, args.seconds, trace, args.smoke)
                print_run(r, trace)
                runs.append(r)
    else:
        runs = [run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)]
        print_run(runs[0], args.trace)
    line = result_line(runs)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
