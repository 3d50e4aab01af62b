"""Smoke run of the package on the standard library alone.

Run from the repository root, isolated and without site-packages, so that
any import outside the standard library fails:

    python -I -S -X warn_default_encoding -W error tests/stdlib_smoke.py

-X warn_default_encoding with -W error fails any text open that leaves the
encoding to the locale: fixture and trace JSON is UTF-8.  The fixture and
trace files it writes (fx.json, line.json, q2.json, o21.json,
indefinite.json, odd.json, nest900.json, nest200k.json, trace.json) go to
the working directory.  It also asks each subcommand for its --help, which
must exit 0 (under -W error an argparse deprecation warning fails it), and
runs oracle with an empty --trace path, which must exit 4.  It reads the
character r=1/2,s1=0,s2=0 of blowup_p3_line through the fixture's one
reader, GeometryFixture.character, and runs check on that fixture with
the parameter s2 missing, which must exit 4.  Exits 0 when every call
gives its documented code.
The name does not match test_*.py, so pytest does not collect it.
"""

import json
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dtseries.classenum import enumerate_beta  # noqa: E402
from dtseries.cli import main  # noqa: E402
from dtseries.fixtures import fixture_to_dict, get_fixture, save_fixture  # noqa: E402


def write(path, data):
    pathlib.Path(path).write_text(json.dumps(data), encoding="utf-8")


# No subcommand reaches enumerate_beta, so one library call runs its
# descent on the cubic (the E6* coset counts at beta^2 = 0, -2, -4).
cubic = get_fixture("cubic_p4_d3").surface
counts = [len(enumerate_beta(cubic, (Fraction(1, 2),), b)) for b in (0, -2, -4)]
assert counts == [27, 216, 459], counts

# the last call below reads this fixture back through the JSON loader
save_fixture(get_fixture("blowup_p3_point"), "fx.json")

# The line blow-up's saved JSON stores each intersection number once (no
# triple tensor, no ranks) and its check passes from the file.
save_fixture(get_fixture("blowup_p3_line"), "line.json")
line = json.loads(pathlib.Path("line.json").read_text(encoding="utf-8"))
assert not {"triple", "h2_rank", "h4_rank"} & {*line["threefold"], *line["surface"]}, line
assert main(["check", "--fixture", "line.json"]) == 0

# The quadric's saved toric block is its rays and bundles only (the cones
# and the bundle of L are derived), and verify passes from the file.
save_fixture(get_fixture("quadric_p4_d2"), "q2.json")
toric = json.loads(pathlib.Path("q2.json").read_text(encoding="utf-8"))["toric"]
assert not {"cones", "L_bundle"} & {*toric}, toric
assert main(["verify", "--fixture", "q2.json"]) == 0

# Its L bundle given the divisor of O(2,1) but kept in the class of O(1,1)
# is another surface's fan: check exits 4.
o21 = fixture_to_dict(get_fixture("quadric_p4_d2"))
o21["toric"]["bundles"]["L"]["divisor"] = [0, 0, 2, 1]
write("o21.json", o21)
assert main(["check", "--fixture", "o21.json"]) == 4

# The quadric saved with pushforward (3, -1) breaks the projection formula
# (K_S.e_0 = -2, (K_X+L).push e_0 = -6); its kernel class would have square
# +6.  The fixture is refused when it loads: classes exits 4.
indefinite = fixture_to_dict(get_fixture("quadric_p4_d2"))
indefinite["surface"]["pushforward"] = [[3, -1]]
write("indefinite.json", indefinite)
assert main(["classes", "--fixture", "indefinite.json", "--gamma", "ell"]) == 4

# The package root imports its names on first use.
from dtseries import get_fixture as root_get_fixture  # noqa: E402

assert root_get_fixture is get_fixture

# The cubic saved with a surface that breaks Wu's formula (beta^2 = 1 but
# K_S.beta = -2) would have classes whose squares have both parities.  The
# fixture is refused when it loads: check and series exit 4.
odd = fixture_to_dict(root_get_fixture("cubic_p4_d3"))
odd["surface"].update(gram=[[1, 0, 0], [0, -1, 0], [0, 0, -1]], K_S=[-2, -1, 0],
                      L_S=[2, 1, 0], O1_S=[2, 1, 0], euler=9, pushforward=[[2, -1, 0]])
write("odd.json", odd)
assert main(["check", "--fixture", "odd.json"]) == 4
assert main(["series", "--fixture", "odd.json", "--gamma", "1/2"]) == 4

# A gram nested 900 or 200,000 lists deep is refused (exit 4), not a
# RecursionError.
q = fixture_to_dict(get_fixture("quadric_p4_d2"))
q["surface"]["gram"] = "NESTED"
for n, f in ((900, "nest900.json"), (200000, "nest200k.json")):
    pathlib.Path(f).write_text(json.dumps(q).replace(json.dumps("NESTED"), "[" * n + "0" + "]" * n),
                               encoding="utf-8")
assert main(["check", "--fixture", "nest900.json"]) == 4
assert main(["check", "--fixture", "nest200k.json"]) == 4

assert main(["verify", "--fixture", "quadric_p4_d2", "--nmax", "6"]) == 0

# The check call with a series flag must exit 4 between good calls: every
# call in the process shares one argument parser.
assert main(["check", "--fixture", "quadric_p4_d2", "--order", "3"]) == 4

# Each subcommand's help exits 0 with the flags it lists.
for cmd in ("check", "classes", "series", "oracle", "verify"):
    assert main([cmd, "--help"]) == 0, cmd

# Every --gamma spelling is read by GeometryFixture.character: the line
# blow-up's parameters give (r/2 + s1, s1 + s2), and a missing one exits 4.
line_fx = get_fixture("blowup_p3_line")
assert line_fx.character("r=1/2,s1=0,s2=0") == (Fraction(1, 4), Fraction(0))
assert main(["check", "--fixture", "blowup_p3_line", "--gamma", "r=1,s1=0"]) == 4

# The point blow-up at k=1 fails its stability gap, so the check report's
# failing verdict runs here too (exit 2).
assert main(["check", "--fixture", "blowup_p3_point", "--k", "1", "--gamma", "r=0,s=-1"]) == 2

# The oracle call writes a --trace file, whose per-fixed-point terms are
# read from the tables the oracle sums.
assert main(["oracle", "--fixture", "quadric_p4_d2", "--nmax", "3", "--trace", "trace.json"]) == 0

# An empty --trace path fails to open like any unwritable one: exit 4, not
# a silent run without a trace.
assert main(["oracle", "--fixture", "quadric_p4_d2", "--nmax", "1", "--trace", ""]) == 4

# The verify of quadric_p4_d1 runs P2 at the --nmax ceiling, 20; the classes
# call runs the integer row builder on the rank-6 cubic, and the last call
# reads a fixture back through the JSON loader.
sys.exit(main(["verify", "--fixture", "quadric_p4_d1", "--nmax", "20"])
         or main(["series", "--fixture", "quadric_p4_d2", "--gamma", "ell"])
         or main(["classes", "--fixture", "cubic_p4_d3", "--gamma", "1/2",
                  "--window", "1", "--order", "2", "--format", "csv"])
         or main(["series", "--fixture", "fx.json", "--gamma", "r=0,s=-1"]))
