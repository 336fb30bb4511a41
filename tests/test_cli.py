import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from torusdyn import dynamics, polyalg
from torusdyn.cli import ORBIT_LENGTH_CAP, load_map_spec, main, to_jsonable
from torusdyn.intlinalg import IntMatrix, charpoly
from torusdyn.kummer import PRINT_DIGIT_LIMIT, parse_point

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"


def _write_spec(tmp_path, doc, name="map.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


WILD = {"matrix": [[1, 0], [0, 1]], "gamma": ["2", "3"], "options": {"seed": 5}}
FIB = {"matrix": [[1, 0], [0, 1]], "gamma": ["2", "4"], "options": {}}
DENSE = {"matrix": [[2, 1], [1, 1]], "gamma": ["1", "1"], "options": {"seed": 5, "family_budget": 8}}


def test_classify_wild(tmp_path, capsys):
    rc = main(["classify", _write_spec(tmp_path, WILD)])
    out = capsys.readouterr().out
    assert rc == 0 and "DEGREE_ONE_WILD" in out and "dense = True" in out


def test_classify_json_shape(tmp_path, capsys):
    rc = main(["classify", _write_spec(tmp_path, DENSE), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "DEGREE_GT_ONE_DENSE_INVARIANTS"
    assert doc["report"]["density"]["status"] == "NOT_CONTAINED"
    assert len(doc["report"]["invariant_family"]) == 8
    interval = doc["report"]["dynamical_degree"]["interval"]
    assert interval is not None and "/" in interval[0]


def test_fibration_command(tmp_path, capsys):
    rc = main(["fibration", _write_spec(tmp_path, FIB), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"]["iterate"] == 1 and doc["witness"]["character"] == [2, -1]


def test_wild_command_and_precondition_exit(tmp_path, capsys):
    rc = main(["wild", _write_spec(tmp_path, WILD)])
    assert rc == 0
    rc = main(["wild", _write_spec(tmp_path, DENSE)])
    assert rc == 3
    assert "precondition" in capsys.readouterr().err


def test_decompose_command(tmp_path, capsys):
    spec = {"matrix": [[3, 0], [0, 1]], "gamma": ["7", "1"], "options": {}}
    rc = main(["decompose", _write_spec(tmp_path, spec), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decomposition"]["beta2"] == ["7^(1/2)"]
    assert doc["decomposition"]["conjugated_translation"] == ["1"]


def test_periodic_command(tmp_path, capsys):
    spec = {"matrix": [[2]], "gamma": ["1"], "options": {}}
    rc = main(["periodic", _write_spec(tmp_path, spec), "-d", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    periods = {tuple(p["point"]): p["period"] for p in doc["points"]}
    assert periods == {("1",): 1, ("zeta(3)",): 2, ("zeta(3)^2",): 2}
    rc = main(["periodic", _write_spec(tmp_path, spec), "-d", "4"])
    assert rc == 3


def test_orbit_command(tmp_path, capsys):
    rc = main(["orbit", _write_spec(tmp_path, WILD), "--point", "1,1", "-n", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit"] == [["1", "1"], ["2", "3"], ["4", "9"]]


def test_orbit_prints_coordinates_past_the_digit_limit(capsys):
    path = str(FIXDIR / "example_dense.json")
    rc = main(["orbit", path, "--point", "2,3", "-n", "11", "--json"])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)["orbit"]
    phi = load_map_spec(path).to_map()
    assert [parse_point(p) for p in printed] == phi.orbit(parse_point(["2", "3"]), 11)
    assert printed[-1][0] == "2^10946 * 3^6765"


@pytest.mark.parametrize("cmd, flag", [("orbit", "-n"), ("check-density", "--budget")])
def test_orbit_length_cap(tmp_path, capsys, cmd, flag):
    spec = _write_spec(tmp_path, WILD)
    assert main([cmd, spec, "--point", "2,3", flag, str(ORBIT_LENGTH_CAP), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if cmd == "orbit":
        assert len(doc["orbit"]) == ORBIT_LENGTH_CAP
    else:
        assert doc["result"]["status"] == "NOT_CONTAINED"
    assert main([cmd, spec, "--point", "2,3", flag, str(ORBIT_LENGTH_CAP + 1), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"ORBIT_LENGTH_CAP = {ORBIT_LENGTH_CAP}" in captured.err


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_orbit_digit_limit(tmp_path, capsys, mode):
    # exponents gain about 6 digits a step: 700 steps print, 800 pass the limit
    spec = _write_spec(tmp_path, {"matrix": [[1000000, 1], [1, 1]], "gamma": ["1", "1"], "options": {}})
    assert main(["orbit", spec, "--point", "2,3", "-n", "700", *mode]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out) > 5 * 10**6
    assert main(["orbit", spec, "--point", "2,3", "-n", "800", *mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{PRINT_DIGIT_LIMIT} digits" in captured.err
    assert "Traceback" not in captured.err
    # check-density prints no coordinates, so the same orbit is fine there
    assert main(["check-density", spec, "--point", "2,3", "--budget", "800", *mode]) == 0
    assert "NOT_CONTAINED" in capsys.readouterr().out


def test_check_density_and_strict(tmp_path, capsys):
    rc = main(["check-density", _write_spec(tmp_path, WILD), "--point", "1,1", "--budget", "25"])
    assert rc == 0 and "NOT_CONTAINED" in capsys.readouterr().out
    ident = {"matrix": [[1, 0], [0, 1]], "gamma": ["1", "1"], "options": {}}
    rc = main(["check-density", _write_spec(tmp_path, ident), "--point", "1,1", "--budget", "25"])
    assert rc == 0 and "UNDECIDED" in capsys.readouterr().out
    rc = main(["check-density", _write_spec(tmp_path, ident), "--point", "1,1", "--budget", "25", "--strict"])
    assert rc == 4


def test_check_density_on_a_degenerate_orbit_tries_no_prime(tmp_path, capsys):
    # the second coordinate is constant, so every prime would report a rank deficit;
    # the torsion order and the radical make each prime scan slow
    spec = _write_spec(tmp_path, {"matrix": [[1, 0], [0, 1]], "gamma": ["zeta(999983)*2^(1/3989)", "1"]})
    for strict, want_rc in (([], 0), (["--strict"], 4)):
        start = time.perf_counter()
        rc = main(["check-density", spec, "--point", "1,1", "--json", *strict])
        assert time.perf_counter() - start < 1
        result = json.loads(capsys.readouterr().out)["result"]
        assert rc == want_rc
        assert result == {
            "status": "UNDECIDED", "degree_bound": 3, "point_count": 50, "monomial_count": 10,
            "prime": None, "rank": None, "attempts": 0,
        }


def test_parse_errors_exit_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    assert main(["classify", _write_spec(tmp_path, {"matrix": [[1, 1], [1, 1]], "gamma": ["1", "1"]})]) == 2
    assert main(["classify", _write_spec(tmp_path, {"matrix": [[1]], "gamma": ["bogus!"]})]) == 2
    assert main(["classify", _write_spec(tmp_path, {"matrix": [[1]], "gamma": ["2^(1/0)"]})]) == 2
    assert main(["classify", _write_spec(tmp_path, {"matrix": [[1]], "gamma": ["1"], "options": {"seed": -1}})]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        {"matrix": [[True, 0], [0, 1]], "gamma": ["2", "3"]},
        {"matrix": [[2, 1], [1, False]], "gamma": ["1", "1"]},
        {"matrix": [[2, 1], [1, 1]], "gamma": ["1", "1"], "options": {"seed": True}},
        {"matrix": [[2, 1], [1, 1]], "gamma": ["1", "1"], "options": {"family_budget": True}},
    ],
    ids=["matrix-true", "matrix-false", "option-seed", "option-family-budget"],
)
def test_json_booleans_are_not_integers(tmp_path, capsys, doc):
    assert main(["classify", _write_spec(tmp_path, doc)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_graeffe_cap_exits_4_with_a_message(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(polyalg, "_MAX_GRAEFFE", 1)
    rc = main(["classify", _write_spec(tmp_path, DENSE), "--json"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "Graeffe" in err and "Traceback" not in err


@pytest.mark.parametrize("error, resource", [(MemoryError, "memory"), (RecursionError, "recursion depth")])
def test_exhausted_resource_exits_3_with_a_message(tmp_path, capsys, monkeypatch, error, resource):
    def exhausted(*args):
        raise error()

    monkeypatch.setattr(dynamics, "classify", exhausted)
    rc = main(["classify", _write_spec(tmp_path, DENSE), "--json"])
    captured = capsys.readouterr()
    assert rc == 3
    assert f"out of {resource}" in captured.err and "Traceback" not in captured.err + captured.out


def test_text_classify_decodes_no_base(capsys, monkeypatch):
    reports = []
    classify = dynamics.classify
    monkeypatch.setattr(dynamics, "classify", lambda *args: reports.append(classify(*args)) or reports[-1])
    assert main(["classify", str(FIXDIR / "example_dense.json")]) == 0
    (report,) = reports
    assert report.family and not any("cycle" in vars(f) for f in report.family)
    to_jsonable(report)
    assert all("cycle" in vars(f) for f in report.family)


@pytest.mark.parametrize(
    "matrix, gamma",
    [
        ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], ["3", "5", "7", "11"]),
        (
            [
                [3, -3, -3, -3, 3, -2],
                [3, 2, -1, -2, 2, -2],
                [1, -2, 1, -3, 1, -2],
                [-3, -1, 2, -1, 1, 2],
                [2, -1, 3, -1, 0, -1],
                [3, -2, -3, 1, 1, 0],
            ],
            ["1"] * 6,
        ),
    ],
    ids=["doubling-n4", "n6-order-3-sample"],
)
def test_strict_classify_certifies_after_a_degenerate_first_sample(tmp_path, capsys, matrix, gamma):
    rc = main(["classify", _write_spec(tmp_path, {"matrix": matrix, "gamma": gamma}), "--strict", "--json"])
    density = json.loads(capsys.readouterr().out)["report"]["density"]
    assert rc == 0
    assert density["status"] == "NOT_CONTAINED" and density["rank"] == density["monomial_count"]


# every subcommand with the arguments it requires
SUBCOMMANDS = [
    ["classify"],
    ["fibration"],
    ["wild"],
    ["decompose"],
    ["periodic", "-d", "7"],
    ["orbit", "--point", "1,1"],
    ["check-density", "--point", "1,1"],
]


@pytest.mark.parametrize("flag", ["--iterate-cap", "--degree-bound", "--torsion-cap", "--retries"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_cap_flags_must_be_positive(tmp_path, capsys, flag, value):
    spec = _write_spec(tmp_path, WILD)
    for cmd, *extra in SUBCOMMANDS:
        assert main([cmd, spec, *extra, flag, value]) == 2, cmd
        assert f"{flag} must be positive" in capsys.readouterr().err


def test_every_subcommand_takes_seed(tmp_path, capsys):
    wild, dense = _write_spec(tmp_path, WILD), _write_spec(tmp_path, DENSE, "dense.json")
    for cmd, *extra in SUBCOMMANDS:
        spec = dense if cmd == "decompose" else wild  # decompose needs degree > 1
        assert main([cmd, spec, *extra, "--seed", "7"]) == 0, cmd
    capsys.readouterr()


def test_negative_seed_flag_exits_2_on_every_subcommand(tmp_path, capsys):
    # Random(-s) draws the same stream as Random(s), so a negative seed would
    # silently repeat a positive one; it is refused as in a spec
    spec = _write_spec(tmp_path, WILD)
    for cmd, *extra in SUBCOMMANDS:
        assert main([cmd, spec, *extra, "--seed", "-3"]) == 2, cmd
        assert "option 'seed' must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [("periodic", "budget"), ("periodic", "modulus"), ("orbit", "length"), ("check-density", "budget")],
)
def test_periodic_budget_must_be_positive(tmp_path, capsys, command, flag, value):
    # a length, budget or modulus below 1 is a bad flag (exit 2), refused before any work
    extra = {"periodic": ["-d", "7"], "orbit": ["--point", "2,3"], "check-density": ["--point", "2,3"]}[command]
    assert main([command, _write_spec(tmp_path, DENSE), *extra, f"--{flag}", value]) == 2
    assert f"--{flag} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["1/1000000000", "1/100001", "0", "-1/10", "1/0", "abc"])
def test_bad_tolerance_exits_2_at_once(tmp_path, capsys, tolerance):
    spec = {"matrix": [[2, 1], [1, 1]], "gamma": ["1", "1"], "options": {"tolerance": tolerance}}
    start = time.perf_counter()
    assert main(["classify", _write_spec(tmp_path, spec)]) == 2
    assert time.perf_counter() - start < 1
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["4", "1000000", "1e400"])
def test_large_tolerance_gives_the_interval_of_tolerance_3(tmp_path, capsys, tolerance):
    # any tolerance of 1 or more is met after the first Graeffe squaring
    def interval(text):
        spec = {"matrix": [[2, 1], [1, 1]], "gamma": ["1", "1"], "options": {"tolerance": text}}
        assert main(["classify", _write_spec(tmp_path, spec), "--json"]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        return json.loads(out)["report"]["dynamical_degree"]["interval"]

    assert interval(tolerance) == interval("3")


def test_large_tolerance_retries_at_the_default_retry_tolerance(tmp_path, capsys):
    # the plastic number: tolerances 10^6, 10^4 and 100 all leave the lower bound
    # below 1, so the retries go on from 1/1000, as they would for the default
    rows = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    spec = {"matrix": rows, "gamma": ["1", "1", "1"], "options": {"tolerance": "1000000"}}
    assert main(["classify", _write_spec(tmp_path, spec), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)["report"]["dynamical_degree"]["interval"]
    lo, hi = polyalg.spectral_radius(charpoly(IntMatrix.from_rows(rows)), Fraction(1, 10**5))
    assert got == [str(lo), str(hi)]
    assert 1 < lo and float(lo) > 1.3247124 and float(hi) < 1.3247216


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["fibration"],
        ["wild"],
        ["decompose"],
        ["periodic", "-d", "3"],
        ["orbit", "--point", "2,3"],
        ["check-density", "--point", "2,3"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_refuses_a_bad_tolerance(tmp_path, capsys, argv):
    spec = _write_spec(tmp_path, dict(WILD, options={"seed": 7, "tolerance": "inf"}))
    assert main([argv[0], spec, *argv[1:]]) == 2
    assert "tolerance 'inf' is not a fraction" in capsys.readouterr().err


def test_large_prime_coordinate_ends_in_bounded_time(tmp_path):
    spec = _write_spec(tmp_path, {"matrix": [[2, 1], [1, 1]], "gamma": ["1000000000000000003", "1"]})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "torusdyn.cli", "classify", spec], env=env, capture_output=True, timeout=10
    )
    assert proc.returncode in (0, 2), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", str(FIXDIR / "example_wild.json"), "--point", "2^" + "1" * 4400 + ",1", "-n", "2"],
        ["check-density", str(FIXDIR / "example_wild.json"), "--point", "zeta(" + "7" * 4400 + "),1"],
    ],
    ids=["orbit", "check-density"],
)
def test_point_integer_past_the_digit_limit_exits_2(argv):
    # int() refuses strings of more than 4300 digits with a ValueError
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "torusdyn.cli", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 2, proc.stderr
    assert "parse error" in proc.stderr and "Traceback" not in proc.stderr


def _limit_address_space():
    # 2 GB, under which `periodic -d 1000000007` once ran out of memory
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))


# a torsion order whose q - 1 would be factored by trial division up to 10^9,
# and a radical whose admissible prime would take ~10^6 candidates to find
_PAST_THE_DENSITY_CAPS = ["zeta(1000000000000000003),2", "2^(1/999983),3"]


@pytest.mark.parametrize(
    "argv, undecided_rc",
    [
        (["classify", str(FIXDIR / "example_dense3.json"), "--degree-bound", "1000", "--json"], None),
        (["check-density", str(FIXDIR / "example_wild.json"), "--point", "2,3", "--degree-bound", "100000", "--json"], None),
        (["periodic", str(FIXDIR / "example_dense.json"), "-d", "1000000007", "--json"], None),
    ]
    + [
        (["check-density", str(FIXDIR / "example_dense.json"), "--point", point, *strict], rc)
        for point in _PAST_THE_DENSITY_CAPS
        for strict, rc in (([], 0), (["--strict"], 4))
    ],
    ids=[
        "classify-degree-bound",
        "check-density-degree-bound",
        "periodic-large-modulus",
        "check-density-torsion-cap",
        "check-density-torsion-cap-strict",
        "check-density-radical-cap",
        "check-density-radical-cap-strict",
    ],
)
def test_hostile_repros_end_in_bounded_time(argv, undecided_rc):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "torusdyn.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr
    if undecided_rc is not None:
        assert proc.returncode == undecided_rc and "UNDECIDED" in proc.stdout, proc.stderr


def _ten_to(k: int) -> str:
    return "1" + "0" * k


@pytest.mark.parametrize(
    "matrix, argv, rc, message",
    [
        # past CPython's 4,300-digit limit on int-from-str, which json.loads meets as a plain ValueError
        (f"[[{_ten_to(4400)}, 0], [0, 1]]", ["classify"], 2, "parse error: "),
        # |det| = 10^4400 has too many digits to print in the precondition message
        (f"[[{_ten_to(2200)}, 0], [0, {_ten_to(2200)}]]", ["periodic", "-d", "2"], 3, "precondition violated: "),
        # a spectral radius of 10^320 is past the float range of the Graeffe bounds
        (f"[[{_ten_to(320)}, 0], [0, 1]]", ["classify"], 4, "oracle failure: "),
        # 10^3000 * I: the exact minimal polynomial x - 10^3000 comes at once, then the radius is past the float range
        (f"[[{_ten_to(3000)}, 0], [0, {_ten_to(3000)}]]", ["classify"], 4, "oracle failure: "),
        # decompose needs no spectral radius, so it answers with empty stderr
        (f"[[{_ten_to(3000)}, 0], [0, {_ten_to(3000)}]]", ["decompose"], 0, ""),
    ],
    ids=[
        "int-past-digit-limit",
        "det-too-long-to-print",
        "radius-past-float-range",
        "scalar-3000-digits-classify",
        "scalar-3000-digits-decompose",
    ],
)
def test_huge_entries_exit_with_a_message(tmp_path, matrix, argv, rc, message):
    spec = tmp_path / "map.json"
    spec.write_text(f'{{"matrix": {matrix}, "gamma": ["1", "1"]}}')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "torusdyn.cli", argv[0], str(spec), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr.startswith(message) if message else not proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect"])
def test_import_leaves_module_unloaded(module):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys, torusdyn.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


def _modules_loaded_by(argv: list[str]) -> tuple[int, bool, bool, bool]:
    """The exit code of one command in a fresh interpreter, and whether it
    loaded torusdyn.oracle, torusdyn.reference and dataclasses."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import contextlib, io, sys, torusdyn.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = torusdyn.cli.main(sys.argv[1:])\n"
        "print(rc, *(name in sys.modules for name in ('torusdyn.oracle', 'torusdyn.reference', 'dataclasses')))"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, *loaded = proc.stdout.split()
    return int(rc), *(flag == "True" for flag in loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "example_wild.json"],
        ["classify", "example_fibration.json"],
        ["fibration", "example_fibration.json"],
        ["wild", "example_shear_wild.json"],
        ["decompose", "example_dense.json"],
        ["periodic", "example_dense.json", "-d", "7"],
        ["orbit", "example_dense.json", "--point", "2,3"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_off_the_density_path_load_neither_oracle_nor_reference(argv):
    assert _modules_loaded_by([argv[0], str(FIXDIR / argv[1]), *argv[2:]]) == (0, False, False, False)


@pytest.mark.parametrize(
    "argv",
    [["classify", "example_dense.json"], ["check-density", "example_dense.json", "--point", "2,3"]],
    ids=lambda argv: argv[0],
)
def test_density_commands_load_the_oracle_but_not_the_reference(argv):
    assert _modules_loaded_by([argv[0], str(FIXDIR / argv[1]), *argv[2:]]) == (0, True, False, False)


def test_every_exported_name_resolves():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import torusdyn\n"
        "from torusdyn import *\n"
        "print([n for n in torusdyn.__all__ if n not in globals()])"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr
    import torusdyn

    with pytest.raises(AttributeError):
        torusdyn.no_such_name


def test_spec_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["classify", str(path)]) == 2
    assert f"parse error: map spec {path} is not UTF-8: " in capsys.readouterr().err


def test_map_spec_round_trip(tmp_path):
    path = _write_spec(tmp_path, {"matrix": [[1, 0], [0, 1]], "gamma": ["2/1", "zeta(6)^7"], "options": {"seed": 2}})
    spec = load_map_spec(path)
    canon = spec.canonical_json()
    path2 = tmp_path / "canon.json"
    path2.write_text(canon)
    spec2 = load_map_spec(str(path2))
    assert spec2.canonical_json() == canon  # printing is idempotent
    assert spec2.to_map().translation == spec.to_map().translation


def test_determinism_byte_identical(tmp_path, capsys):
    path = _write_spec(tmp_path, DENSE)
    outs = []
    for _ in range(2):
        rc = main(["classify", path, "--json"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    rc = main(["classify", path, "--json", "--seed", "99"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == json.loads(outs[0])["report"]["verdict"]


def test_repo_fixtures_parse():
    for name in ("example_wild.json", "example_fibration.json", "example_dense.json"):
        spec = load_map_spec(str(FIXDIR / name))
        assert spec.to_map().dim == 2


# --json bytes (sha256 of stdout) and exit code of each fixture under each
# command; a change to the serialiser or to a command must keep every one.
_PINNED_ARGS = {
    "classify": ["classify", "--json"],
    "classify-seed": ["classify", "--json", "--seed", "7"],
    "classify-force-family": ["classify", "--json", "--force-family"],
    "classify-strict": ["classify", "--json", "--strict"],
    "classify-text": ["classify"],
    "fibration": ["fibration", "--json"],
    "wild": ["wild", "--json"],
    "decompose": ["decompose", "--json"],
    "periodic": ["periodic", "--json", "-d", "7"],
    "orbit": ["orbit", "--json", "--point"],
    "check-density": ["check-density", "--json", "--point"],
}
_PINNED_OUTPUT = {
    ("example_dense", "classify"): (0, "105b1f1136e4285fc92c600663cdfd501faa1106e6dba24e1b8723aec9d47a52"),
    ("example_dense", "classify-seed"): (0, "36504c75f1b7b442f9583ea0447d6ad2af2d314b02082d9b0d24c80c8c8d0292"),
    ("example_dense", "classify-force-family"): (0, "105b1f1136e4285fc92c600663cdfd501faa1106e6dba24e1b8723aec9d47a52"),
    ("example_dense", "classify-strict"): (0, "105b1f1136e4285fc92c600663cdfd501faa1106e6dba24e1b8723aec9d47a52"),
    ("example_dense", "classify-text"): (0, "d68bfa0f959abdcbbb87c2ec1704ffdf71273ea8edfa9c871f288b6335645846"),
    ("example_dense", "fibration"): (0, "9d31500b2525bfce78f482f22f9734e4c0ecc35bbc4b27c504eca2a87b632954"),
    ("example_dense", "wild"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_dense", "decompose"): (0, "dc80f848551f7ec9c6e9e3cc1fad609c8babb419fb39aaae4e03d807264dc580"),
    ("example_dense", "periodic"): (0, "2f54f00b38bf9398c305d28d0751559399fcc1d6bbcfaa02e841f7c668970417"),
    ("example_dense", "orbit"): (0, "44fd0459d149eff1ebda5547d57669264d556e7a7e93c2f46094281d0f027f56"),
    ("example_dense", "check-density"): (0, "71d8bb89d2a7ed8916aef90c08ec43b85b55dc5902bb37559fdc95ae7ffeb6e7"),
    ("example_dense3", "classify"): (0, "240c72ab95514440520282c996a8262d8c13f0728f72b6b5afda571bd9274acc"),
    ("example_dense3", "classify-seed"): (0, "6974f96fbe889497862c1ec5355accd9b83604872605f1b668209c28244a473a"),
    ("example_dense3", "classify-force-family"): (0, "240c72ab95514440520282c996a8262d8c13f0728f72b6b5afda571bd9274acc"),
    ("example_dense3", "classify-strict"): (0, "240c72ab95514440520282c996a8262d8c13f0728f72b6b5afda571bd9274acc"),
    ("example_dense3", "classify-text"): (0, "d87a9b77d865a100ee1b2ff611df41a703c8bc2815c1bc666ffc61e56b2ea267"),
    ("example_dense3", "fibration"): (0, "9d31500b2525bfce78f482f22f9734e4c0ecc35bbc4b27c504eca2a87b632954"),
    ("example_dense3", "wild"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_dense3", "decompose"): (0, "29cea047b87d9456985ecd6a2eb1e99e32171a5535836e20bedf95ebe86ea2d2"),
    ("example_dense3", "periodic"): (0, "181d8463bce72fdb50c5e2855bb306589c761c56d4966ba4741c6c22249e001d"),
    ("example_dense3", "orbit"): (0, "994d5fd2a25eeb37278ac45d08356c953a6cf837e0e653b1971655c12183b104"),
    ("example_dense3", "check-density"): (0, "7092cc3723a536bea7d80072f6a6438fa5c8feb0741aec45a13f516286bd5e5c"),
    ("example_fibration", "classify"): (0, "cd2e15a73b4f3cd6df9cedfd879bb5d9fd02702ca07f591139e635e53e9c3ffc"),
    ("example_fibration", "classify-seed"): (0, "cd2e15a73b4f3cd6df9cedfd879bb5d9fd02702ca07f591139e635e53e9c3ffc"),
    ("example_fibration", "classify-force-family"): (0, "cd2e15a73b4f3cd6df9cedfd879bb5d9fd02702ca07f591139e635e53e9c3ffc"),
    ("example_fibration", "classify-strict"): (0, "cd2e15a73b4f3cd6df9cedfd879bb5d9fd02702ca07f591139e635e53e9c3ffc"),
    ("example_fibration", "classify-text"): (0, "d67e808d4b8b4ad7b5bb8502a87aec57cd1cbbe93cb4c176330a29deca2f9c5f"),
    ("example_fibration", "fibration"): (0, "8bb9327ddba4c6362d8927bd354f8e81ba1cce5659d8c0feb749db18f8777c68"),
    ("example_fibration", "wild"): (0, "00d81cba057d52796af630c061074007181abfdddadee1ef7bfe37d661120adf"),
    ("example_fibration", "decompose"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_fibration", "periodic"): (0, "a085fe639fe54c8cbdd104c3d59a68730d23e2a16f4c1d5f7ca4c0f6b3dc4da7"),
    ("example_fibration", "orbit"): (0, "a91f27682cd8e7963a94930d3e652e13daff982a87c15b363f8818a343e83835"),
    ("example_fibration", "check-density"): (0, "870d00947d78253f3921c0d2b9fca1361a52b006ca351b4ac2d74aeff252839d"),
    ("example_shear_wild", "classify"): (0, "14296e74f0724d1aeb2b5fcb4e315be52a7448480ab856cd4e55b006bf6798f8"),
    ("example_shear_wild", "classify-seed"): (0, "14296e74f0724d1aeb2b5fcb4e315be52a7448480ab856cd4e55b006bf6798f8"),
    ("example_shear_wild", "classify-force-family"): (0, "14296e74f0724d1aeb2b5fcb4e315be52a7448480ab856cd4e55b006bf6798f8"),
    ("example_shear_wild", "classify-strict"): (0, "14296e74f0724d1aeb2b5fcb4e315be52a7448480ab856cd4e55b006bf6798f8"),
    ("example_shear_wild", "classify-text"): (0, "791e7744b96054dce9ef73f61c2bf760605c9302ba7e990e57952108460b18cd"),
    ("example_shear_wild", "fibration"): (0, "9d31500b2525bfce78f482f22f9734e4c0ecc35bbc4b27c504eca2a87b632954"),
    ("example_shear_wild", "wild"): (0, "ed3efca0d07731639106cc20339cfcda4475e1847004242323bb8fde4d0da7a0"),
    ("example_shear_wild", "decompose"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_shear_wild", "periodic"): (0, "b32e738bf539c03b9bd22ec6fc78c48b2111c480e33ed66e9abc28bd71b42a41"),
    ("example_shear_wild", "orbit"): (0, "622d07ec9eaaaf08be68936c231a692bc50838bb61d54c28f81413226e6b90b3"),
    ("example_shear_wild", "check-density"): (0, "44d973fc29731ffc3742bfb870360a7bda09fc204a3cae65271e63c8a3f8c1ae"),
    ("example_torsion_fibration", "classify"): (0, "3fb354b5f592469b19f66c3e860576dcc811f87f383f9ba17853bd5869653d98"),
    ("example_torsion_fibration", "classify-seed"): (0, "3fb354b5f592469b19f66c3e860576dcc811f87f383f9ba17853bd5869653d98"),
    ("example_torsion_fibration", "classify-force-family"): (0, "3fb354b5f592469b19f66c3e860576dcc811f87f383f9ba17853bd5869653d98"),
    ("example_torsion_fibration", "classify-strict"): (0, "3fb354b5f592469b19f66c3e860576dcc811f87f383f9ba17853bd5869653d98"),
    ("example_torsion_fibration", "classify-text"): (0, "b2afe356b58317c2c718b651f1bf1c6ccdaba0fd2d46ebb53e21270a87ad292b"),
    ("example_torsion_fibration", "fibration"): (0, "a0c575bd88922296af3b0dd0474efc6473428b1b25c7a7e8a243f1efc948de19"),
    ("example_torsion_fibration", "wild"): (0, "4b065d4645325cc4afd2ed250cd739cd2f3f78a52478fa6feb36dbedcdfcbb62"),
    ("example_torsion_fibration", "decompose"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_torsion_fibration", "periodic"): (0, "a085fe639fe54c8cbdd104c3d59a68730d23e2a16f4c1d5f7ca4c0f6b3dc4da7"),
    ("example_torsion_fibration", "orbit"): (0, "cab92c7e3eafbb53ef04a93dc480e8d00e3b59c556231bedc24d76b0a657b418"),
    ("example_torsion_fibration", "check-density"): (0, "fe5ba27330a77771db0a4760401bd2410c4ca304f26f937605be23dc6f3c2b05"),
    ("example_wild", "classify"): (0, "0c826756ab5c74b16af0d70d12ece968e637e150875e0455c9f0235306627d21"),
    ("example_wild", "classify-seed"): (0, "0c826756ab5c74b16af0d70d12ece968e637e150875e0455c9f0235306627d21"),
    ("example_wild", "classify-force-family"): (0, "0c826756ab5c74b16af0d70d12ece968e637e150875e0455c9f0235306627d21"),
    ("example_wild", "classify-strict"): (0, "0c826756ab5c74b16af0d70d12ece968e637e150875e0455c9f0235306627d21"),
    ("example_wild", "classify-text"): (0, "0378678c6bd41da04877a7876ad953156843c8df28defa00324b12d086cb64d9"),
    ("example_wild", "fibration"): (0, "9d31500b2525bfce78f482f22f9734e4c0ecc35bbc4b27c504eca2a87b632954"),
    ("example_wild", "wild"): (0, "0c52e428a24e0edd5b030cffbe6883e177b6254be7a1985fc56e9965220dca56"),
    ("example_wild", "decompose"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_wild", "periodic"): (0, "a085fe639fe54c8cbdd104c3d59a68730d23e2a16f4c1d5f7ca4c0f6b3dc4da7"),
    ("example_wild", "orbit"): (0, "cc4ebf6ef18c679b7f3c7928330e92d8b9f3ee5172964dd29536202f580f2c40"),
    ("example_wild", "check-density"): (0, "81830617d01ef759f459d043f77c8909ed03e92b4295a950b2e41b63072eaa20"),
}


@pytest.mark.parametrize(
    "fixture, variant", sorted(_PINNED_OUTPUT), ids=[f"{f}-{v}" for f, v in sorted(_PINNED_OUTPUT)]
)
def test_json_bytes_pinned(capsys, fixture, variant):
    path = FIXDIR / f"{fixture}.json"
    cmd, *rest = _PINNED_ARGS[variant]
    if rest[-1:] == ["--point"]:
        rest.append(",".join(("2", "3", "5")[: len(json.loads(path.read_text())["gamma"])]))
    rc = main([cmd, str(path), *rest])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (rc, digest) == _PINNED_OUTPUT[fixture, variant]


def test_spec_may_set_the_default_seed(tmp_path, capsys):
    doc = {"matrix": [[2, 1], [1, 1]], "gamma": ["1", "1"]}
    runs = [
        ["classify", _write_spec(tmp_path, {**doc, "options": {"seed": 0}}, "seed0.json"), "--json"],
        ["classify", _write_spec(tmp_path, doc, "plain.json"), "--json"],
        ["classify", _write_spec(tmp_path, doc, "plain.json"), "--json", "--seed", "0"],
    ]
    outs = []
    for argv in runs:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
