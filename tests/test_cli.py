import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from torusdyn import polyalg
from torusdyn.cli import ORBIT_LENGTH_CAP, load_map_spec, main
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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_periodic_budget_must_be_positive(tmp_path, capsys, value):
    assert main(["periodic", _write_spec(tmp_path, DENSE), "-d", "7", "--budget", value]) == 2
    assert "--budget must be positive" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", str(FIXDIR / "example_dense3.json"), "--degree-bound", "1000", "--json"],
        ["check-density", str(FIXDIR / "example_wild.json"), "--point", "2,3", "--degree-bound", "100000", "--json"],
        ["periodic", str(FIXDIR / "example_dense.json"), "-d", "1000000007", "--json"],
    ],
    ids=["classify-degree-bound", "check-density-degree-bound", "periodic-large-modulus"],
)
def test_hostile_repros_end_in_bounded_time(argv):
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


def test_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, torusdyn.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


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
