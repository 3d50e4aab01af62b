"""Workload definitions shared by run.py and the worker.

Sizes were chosen so that one library pass takes about 0.2-2.5 s on a
2-core x86 VM with CPython 3.11, which gives several passes per run.
`smoke` sizes run all four workloads in seconds.
"""

import json
from dataclasses import dataclass

WORKLOADS = ("oracle", "lattice", "series", "cli")

BUILTIN_FIXTURES = (
    "blowup_p3_line",
    "blowup_p3_point",
    "cubic_p4_d3",
    "quadric_p4_d1",
    "quadric_p4_d2",
    "quartic_p4_d4",
)
TORIC_FIXTURES = ("blowup_p3_point", "quadric_p4_d1", "quadric_p4_d2")
ORACLE_FIXTURES = ("quadric_p4_d1", "quadric_p4_d2")
CHECKS_FAIL_FIXTURES = ("quartic_p4_d4",)
SUBCOMMANDS = ("check", "classes", "series", "oracle", "verify")
FORMATS = ("pretty", "json", "csv")

# documented exit codes of the dtseries command
EXIT_OK, EXIT_CHECKS_FAILED, EXIT_BAD_INPUT = 0, 2, 4

SIZES = {
    "oracle": {
        "full": {"nmax": {"p1xp1": 10, "p2": 12}, "cli_nmax": 6},
        "smoke": {"nmax": {"p1xp1": 4, "p2": 4}, "cli_nmax": 3},
    },
    "lattice": {
        "full": {"gamma": "1/2", "top": 1, "depth": 14, "window": 1, "order": 2},
        "smoke": {"gamma": "1/2", "top": 1, "depth": 4, "window": 1, "order": 2},
    },
    "series": {
        "full": {"euler_order": 2000, "order": 1500, "window": 1},
        "smoke": {"euler_order": 150, "order": 100, "window": 1},
    },
    "cli": {
        "full": {"fixtures": BUILTIN_FIXTURES, "formats": FORMATS},
        "smoke": {"fixtures": ("quadric_p4_d2", "quartic_p4_d4"), "formats": FORMATS},
    },
}

# share of --seconds spent on in-process library passes; the rest goes to
# CLI subprocess rounds.  `oracle` splits its run about evenly, for a
# steady tail over its short CLI calls; `series` leaves most of the run to
# the run.MIN_CLI_SAMPLES 0.6-0.9 s CLI calls it needs, and `cli` to its
# run.MIN_ROUNDS rounds of 90 calls
LIB_SHARE = {"oracle": 0.5, "lattice": 0.55, "series": 0.3, "cli": 0.1}

# fixtures each workload builds during set-up
FIXTURES = {
    "oracle": ORACLE_FIXTURES,
    "lattice": ("cubic_p4_d3",),
    "series": ("quadric_p4_d2",),
    "cli": BUILTIN_FIXTURES,
}

LATTICE_FIXTURE = "cubic_p4_d3"
SERIES_FIXTURE = "quadric_p4_d2"
SERIES_GAMMA = "ell"


def sizes(workload, smoke):
    return SIZES[workload]["smoke" if smoke else "full"]


@dataclass(frozen=True)
class CliCall:
    argv: tuple
    expect_rc: int
    trace_file: str | None = None

    @property
    def key(self):
        """The call without its seed and trace path: what the output may
        depend on."""
        out, skip = [], False
        for a in self.argv:
            if skip:
                skip = False
                continue
            if a in ("--seed", "--trace"):
                skip = True
                continue
            out.append(a)
        return " ".join(out)


def cli_calls(workload, smoke, cli_seed, workdir):
    """The workload's CLI invocations, in a fixed order."""
    sz = sizes(workload, smoke)
    seed = ["--seed", str(cli_seed)]
    calls = []
    if workload == "oracle":
        nmax = str(sz["cli_nmax"])
        for fx in ORACLE_FIXTURES:
            calls.append(CliCall(
                ("verify", "--fixture", fx, "--nmax", nmax, "--format", "json", *seed), EXIT_OK))
            path = f"{workdir}/trace-{fx}.json"
            calls.append(CliCall(
                ("oracle", "--fixture", fx, "--nmax", nmax, "--format", "json",
                 "--trace", path, *seed), EXIT_OK, trace_file=path))
    elif workload == "lattice":
        flags = ("--fixture", LATTICE_FIXTURE, "--gamma", sz["gamma"],
                 "--window", str(sz["window"]), "--order", str(sz["order"]))
        calls.append(CliCall(("classes", *flags, "--format", "csv", *seed), EXIT_OK))
        calls.append(CliCall(("series", *flags, "--format", "json", *seed), EXIT_OK))
    elif workload == "series":
        flags = ("--fixture", SERIES_FIXTURE, "--gamma", SERIES_GAMMA,
                 "--order", str(sz["order"]), "--window", str(sz["window"]))
        for fmt in ("pretty", "json"):
            calls.append(CliCall(("series", *flags, "--format", fmt, *seed), EXIT_OK))
    elif workload == "cli":
        for cmd in SUBCOMMANDS:
            for fx in sz["fixtures"]:
                for fmt in sz["formats"]:
                    calls.append(CliCall(
                        (cmd, "--fixture", fx, "--format", fmt, *seed), expected_rc(cmd, fx)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


# the dtseries command's documented defaults, for flags a call leaves out
CLI_DEFAULTS = {"format": "pretty", "seed": "0", "gamma": None, "order": "8", "window": "2",
                "nmax": "4", "bundle": "L"}


def parse_call(call):
    """The call's subcommand and {flag: value}, defaults filled in."""
    opts = dict(CLI_DEFAULTS)
    for flag, value in zip(call.argv[1::2], call.argv[2::2]):
        opts[flag.lstrip("-")] = value
    return call.argv[0], opts


def expected_rc(cmd, fixture):
    """Exit code the dtseries command documents for a call at default flags."""
    if cmd in ("oracle", "verify") and fixture not in TORIC_FIXTURES:
        return EXIT_BAD_INPUT
    if cmd in ("check", "series") and fixture in CHECKS_FAIL_FIXTURES:
        return EXIT_CHECKS_FAILED
    return EXIT_OK


def canonical_stdout(call, text):
    """Stdout with the fields that legitimately depend on the seed removed
    (the oracle's evaluation points, shift and seed); everything else,
    every coefficient included, must not change with the seed."""
    if call.argv[0] != "oracle" or not text:
        return text
    fmt = call.argv[call.argv.index("--format") + 1] if "--format" in call.argv else "pretty"
    if fmt == "json":
        payload = json.loads(text)
        for k in ("eval_points", "shift", "seed"):
            payload.pop(k, None)
        return json.dumps(payload, sort_keys=True)
    if fmt == "pretty":
        return "".join(
            line for line in text.splitlines(keepends=True)
            if not line.startswith("  evaluation points:")
        )
    return text
