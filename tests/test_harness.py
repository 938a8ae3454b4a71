import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin import cli, harness, spaces
from gaudin.betheop import BetheOperator, build_bethe_operator
from gaudin.cli import FORMATS, OPTIONS, _plain_args, build_parser, main
from gaudin.linalg import MatrixPoly
from gaudin.harness import (
    ConfigError,
    InstanceConfig,
    dump_report,
    render_table,
    run_report,
    spectrum_pipeline,
    verify_pipeline,
    wronski_pipeline,
)

from gaudin.scalars import parse_scalar
from gaudin.spectral import Tolerances, joint_diagonalize

from conftest import JORDAN, mutant_operator, unit_matrix

GOLDEN = {
    "N": 2,
    "K": ["0", "1"],
    "partitions": [[1], [1]],
    "b": ["0", "1"],
    "weight": [1, 1],
    "options": {"seed": 2024},
}


def test_config_parses():
    cfg = InstanceConfig.from_dict(GOLDEN)
    assert cfg.spec.rank == 2
    assert cfg.seed == 2024
    assert cfg.tolerances.residual == 1e-9


def test_config_rejects_repeated_points():
    bad = copy.deepcopy(GOLDEN)
    bad["b"] = ["0", "0"]
    with pytest.raises(ConfigError):
        InstanceConfig.from_dict(bad)


def test_config_rejects_non_partition_weight():
    bad = copy.deepcopy(GOLDEN)
    bad["weight"] = [1, 2]
    with pytest.raises(ConfigError):
        InstanceConfig.from_dict(bad)


def test_config_rejects_bad_scalar():
    bad = copy.deepcopy(GOLDEN)
    bad["K"] = ["0", "zebra"]
    with pytest.raises(ConfigError):
        InstanceConfig.from_dict(bad)


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"options": {"samples": 5}}, "samples"),
        ({"options": {"tolerances": {"residul": 1e-9}}}, "residul"),
        ({"spcae": {"polys": [["1"], ["0", "1"]]}}, "spcae"),
        ({"optoins": {"seed": 7}}, "optoins"),
    ],
    ids=["removed-option", "misspelt-tolerance", "misspelt-space", "misspelt-options"],
)
def test_config_rejects_unknown_keys(extra, key):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        InstanceConfig.from_dict({**GOLDEN, **extra})


@pytest.mark.parametrize(
    "space, message",
    [
        ([1], "space must be an object"),
        ({"poly": [["-2", "1"]]}, "unknown space key 'poly' (known: polys)"),
        ({"polys": [["-2", "1"]], "extra": 1}, "unknown space key 'extra' (known: polys)"),
        ({}, "space must have a 'polys' entry"),
    ],
    ids=["space-not-an-object", "space-key-misspelt", "space-extra-key", "space-without-polys"],
)
def test_cli_refuses_a_bad_space_object(tmp_path, capsys, space, message):
    """The space entry is checked like the config, options and tolerances: an object of known keys only."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**GOLDEN, "space": space}))
    assert main(["wronski", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["N", "K", "b", "partitions", "weight"])
def test_cli_names_a_missing_required_key(tmp_path, capsys, key):
    """A config without one of the five required keys exits 2 with a message that names the key."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({k: v for k, v in GOLDEN.items() if k != key}))
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: config is missing the required key {key!r}\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"K": [True, "0"]}, "each entry of K must be an integer or a string, got True"),
        ({"b": [False, "1"]}, "each entry of b must be an integer or a string, got False"),
        ({"space": {"polys": [[True, "1"], ["0", "1"]]}},
         "bad space description: each space coefficient must be an integer or a string, got True"),
    ],
    ids=["K", "b", "space"],
)
def test_cli_refuses_a_boolean_scalar(tmp_path, capsys, extra, message):
    """A JSON boolean is not an exact scalar: true in K, b or a space polynomial is refused, not read as 1."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**GOLDEN, **extra}))
    for command in ("verify", "wronski"):
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert parse_scalar(1) == 1  # the library's parser still reads an integer


def test_report_determinism():
    cfg1 = InstanceConfig.from_dict(GOLDEN)
    cfg2 = InstanceConfig.from_dict(GOLDEN)
    r1 = run_report("verify", cfg1, verify_pipeline(cfg1))
    r2 = run_report("verify", cfg2, verify_pipeline(cfg2))
    r1.pop("timings")
    r2.pop("timings")
    assert dump_report(r1) == dump_report(r2)



SPECTRUM_STAGES = {"module", "operator", "exact_checks", "spectral"}


@pytest.mark.parametrize("run_bae,stages", [(True, SPECTRUM_STAGES | {"roots", "eigenvectors"}),
                                            (False, SPECTRUM_STAGES)])
def test_report_times_each_stage(run_bae, stages):
    """timings.stages holds the seconds of each stage that ran: none negative,
    and together at most the elapsed time."""
    cfg = InstanceConfig.from_dict({**GOLDEN, "options": {"run_bae": run_bae}})
    timings = json.loads(dump_report(run_report("verify", cfg, verify_pipeline(cfg))))["timings"]
    assert set(timings["stages"]) == stages
    assert all(t >= 0 for t in timings["stages"].values())
    assert sum(timings["stages"].values()) <= timings["elapsed_seconds"]

def test_report_serializes_and_renders():
    cfg = InstanceConfig.from_dict(GOLDEN)
    report = run_report("spectrum", cfg, spectrum_pipeline(cfg))
    text = dump_report(report)
    assert "\n" not in text  # compact
    parsed = json.loads(text)
    assert parsed["all_passed"] is True
    table = render_table(parsed)
    assert "all checks passed" in table


def test_wronski_pipeline_rank_one():
    data = {
        "N": 1,
        "K": ["3"],
        "partitions": [[1]],
        "b": ["2"],
        "weight": [1],
        "space": {"polys": [["-2", "1"]]},
    }
    cfg = InstanceConfig.from_dict(data)
    out = wronski_pipeline(cfg)
    assert all(c.passed for c in out["checks"])
    assert out["exponents"]["0"] == [1]
    assert out["operator_text"] == "D + ((-3*u + 5)/(u - 2))"


def test_wronski_operator_text_reduces_each_coefficient():
    """Span(u, e^u u) over one point of cell (1,1): G_1/G_0 and G_2/G_0 are
    reduced by their gcd with G_0 = u^2 before printing."""
    cfg = InstanceConfig.from_file(Path(__file__).resolve().parents[1] / "fixtures" / "wronski_cell_n2.json")
    out = wronski_pipeline(cfg)
    assert all(c.passed for c in out["checks"])
    assert out["operator_text"] == "D^2 + ((-u - 2)/(u))*D + ((u + 2)/(u^2))"


@pytest.mark.parametrize("name, polys", [
    ("wronski_rank1", [["-4", "2"]]),
    ("wronski_n3", [["0", "3/2", "-3/2"], ["2", "1"], ["5"]]),
])
def test_wronskian_does_not_move_with_the_scaling_of_the_basis(name, polys):
    """Parts scaled by constants span the same space, so the monic Wronskian and the Wronski map stay."""
    data = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / f"{name}.json").read_text())
    monic = wronski_pipeline(InstanceConfig.from_dict(data))
    scaled = wronski_pipeline(InstanceConfig.from_dict({**data, "space": {"polys": polys}}))
    assert scaled["wronskian"] == monic["wronskian"]
    assert scaled["operator_text"] == monic["operator_text"]
    assert [c.passed for c in scaled["checks"]] == [c.passed for c in monic["checks"]]


def test_wronski_builds_the_minors_once(monkeypatch):
    """The Wronskian, the operator text and the membership test read one ``cleared_operators`` stack:
    one ``trailing_minors`` expansion per run, on each wronski fixture."""
    calls = []
    original = spaces.trailing_minors

    def counted(exponents, parts):
        calls.append(exponents)
        return original(exponents, parts)

    monkeypatch.setattr(spaces, "trailing_minors", counted)
    for name in ("wronski_cell_n2", "wronski_n3", "wronski_rank1"):
        calls.clear()
        out = wronski_pipeline(InstanceConfig.from_file(Path(__file__).resolve().parents[1] / "fixtures" / f"{name}.json"))
        assert all(c.passed for c in out["checks"])
        assert len(calls) == 1, name


def test_wronski_on_a_space_off_the_points_exits_1_with_its_report(tmp_path, capsys):
    """span{u + 5, e^u (u + 7)} is not over b = (0, 1): the run exits 1, writes its report, names the
    Wronskian it got, and reads no exponents at either point."""
    cfg_path = tmp_path / "off.json"
    cfg_path.write_text(json.dumps({**GOLDEN, "space": {"polys": [["5", "1"], ["7", "1"]]}}))
    out_path = tmp_path / "report.json"
    assert main(["wronski", "--config", str(cfg_path), "--out", str(out_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out_path.read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert report["all_passed"] is False and checks["membership"]["passed"] is False
    assert checks["membership/wronskian-matches-pole-polynomial"] == {
        "name": "membership/wronskian-matches-pole-polynomial", "passed": False, "value": "got u^2 + 12*u + 33"}
    assert report["exponents"] == {"0": None, "1": None}
    assert report["wronskian"] == {"poly": [[33.0, 0.0], [12.0, 0.0], [1.0, 0.0]], "map": [[-12.0, 0.0], [33.0, 0.0]]}


def test_bethe_float_checks_report_their_margin():
    """On golden_n2 each Bethe float check carries the worst value over the
    solutions, the bound it was held to and their difference."""
    cfg = InstanceConfig.from_file(Path(__file__).resolve().parents[1] / "fixtures" / "golden_n2.json")
    out = verify_pipeline(cfg)
    values = {c.name: (c.passed, c.value) for c in out["checks"]}
    entries = out["bae"]
    assert len(entries) == 2
    fit = cfg.tolerances.kernel_fit
    for name, key, tolerance in (
        ("solutions-satisfy-equations", "bae_residual", 1e-10),  # the gap unit is 1 on golden
        ("weight-function-eigenvectors", "eigenvector_residual", 10 * fit),
        ("factorized-operators-match-characters", "match_distance", fit),
    ):
        passed, value = values[name]
        assert passed
        assert set(value) == {"measured", "tolerance", "margin"}
        assert value["measured"] == max(e[key] for e in entries)
        assert 0 <= value["measured"] < 1e-12
        assert value["tolerance"] == tolerance
        assert value["margin"] == tolerance - value["measured"]


def test_a_non_finite_measurement_is_null_and_fails():
    """A float check passes on its worst value, or as it is told; a value
    that is not finite is written as null and fails it either way."""
    for worst in (float("nan"), float("inf"), None):
        check = harness._float_check("x", [1e-12, worst], 1e-10, passed=True)
        assert not check.passed
        assert check.value == {"measured": None, "tolerance": 1e-10, "margin": None}
    assert harness._float_check("x", [], 1e-10).value == {"measured": 0.0, "tolerance": 1e-10, "margin": 1e-10}
    assert harness._float_check("x", [1e-12, 2e-10], 1e-10).passed is False
    assert harness._float_check("x", [1e-12], 1e-10, passed=False).passed is False


def test_block_values_are_shared_by_every_solution(monkeypatch):
    """verify evaluates each B_i at each of the n + 2 eigenvector points once,
    however many Bethe solutions are checked against them, in one
    block_evaluate call per coefficient."""
    calls, batches = [], []
    original = BetheOperator.block_evaluate

    def counted(self, i, points):
        batches.append(i)
        calls.extend((i, pt) for pt in points)
        return original(self, i, points)

    monkeypatch.setattr(BetheOperator, "block_evaluate", counted)
    cfg = InstanceConfig.from_file(Path(__file__).resolve().parents[1] / "fixtures" / "golden_n2.json")
    out = verify_pipeline(cfg)
    assert all(c.passed for c in out["checks"])
    assert len(out["bae"]) == 2
    spec = cfg.spec
    assert len(calls) == spec.rank * (spec.size + 2)
    assert len(set(calls)) == len(calls)
    assert sorted(batches) == list(range(1, spec.rank + 1))


@pytest.mark.parametrize(
    "mutate, failing",
    [
        # B_1 + I/(u - 7): the pole polynomial cannot clear B_1
        (lambda op: mutant_operator(op, 1, MatrixPoly.identity(op.dim), spaces.Poly([Fraction(-7), Fraction(1)])),
         "cleared-coefficients-polynomial"),
        # B_2 + e_01/(u - 13): neither can it clear B_2
        (lambda op: mutant_operator(op, 2, unit_matrix(op.dim, 0, 1), spaces.Poly([Fraction(-13), Fraction(1)])),
         "cleared-coefficients-polynomial"),
        # B_1 + e_01/(u - b_0): cleared, but the residue of B_1 at b_0 is not a scalar matrix
        (lambda op: mutant_operator(op, 1, unit_matrix(op.dim, 0, 1), spaces.Poly([Fraction(0), Fraction(1)])),
         "local-values-scalar"),
    ],
    ids=["pole-off-points", "pole-off-points-b2", "non-scalar-residue"],
)
def test_spectrum_pipeline_fails_the_local_structure_checks(monkeypatch, mutate, failing):
    """Each mutant of the golden operator fails its local-structure check in
    the report, and only that one of the two."""
    build = harness.build_bethe_operator
    monkeypatch.setattr(harness, "build_bethe_operator", lambda spec, module=None: mutate(build(spec, module)))
    out = spectrum_pipeline(InstanceConfig.from_dict(GOLDEN))
    passed = {c.name: c.passed for c in out["checks"]}
    assert {name for name in ("cleared-coefficients-polynomial", "local-values-scalar") if not passed[name]} == {failing}


@pytest.mark.parametrize(
    "mutate, failing",
    [
        # B_1 + I/(u - b_0): cleared, with a scalar residue at b_0, but a different one
        (lambda op: mutant_operator(op, 1, MatrixPoly.identity(op.dim), spaces.Poly([Fraction(0), Fraction(1)])),
         {"indicial-identity", "first-coefficient-identity"}),
        # B_1 + e_01/(u - b_0): the residue at b_0 is not a scalar matrix
        (lambda op: mutant_operator(op, 1, unit_matrix(op.dim, 0, 1), spaces.Poly([Fraction(0), Fraction(1)])),
         {"local-values-scalar", "indicial-identity", "first-coefficient-identity"}),
    ],
    ids=["scalar-residue", "non-scalar-residue"],
)
def test_spectrum_pipeline_fails_the_indicial_identity(monkeypatch, mutate, failing):
    """A residue of B_1 at b_0 that is scalar but wrong fails the indicial
    identity and nothing else of the local structure; one that is not
    scalar fails both the scalar check and the indicial identity."""
    build = harness.build_bethe_operator
    monkeypatch.setattr(harness, "build_bethe_operator", lambda spec, module=None: mutate(build(spec, module)))
    out = spectrum_pipeline(InstanceConfig.from_dict(GOLDEN))
    passed = {c.name: c.passed for c in out["checks"]}
    exact = ("first-coefficient-identity", "leading-symbol-identity", "cleared-coefficients-polynomial",
             "local-values-scalar", "indicial-identity")
    assert {name for name in exact if not passed[name]} == failing


def test_cli_empty_weight_block_passes_every_exact_identity(tmp_path):
    """lam = (2) in the one factor L_(1,1) has no vectors: on the 0-dimensional
    block every identity holds, and verify exits 0."""
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps({"N": 2, "K": ["0", "1"], "b": ["0"], "partitions": [[1, 1]], "weight": [2]}))
    out_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["dimension"] == 0 and report["all_passed"] is True
    passed = {c["name"]: c["passed"] for c in report["checks"]}
    for name in ("first-coefficient-identity", "leading-symbol-identity", "cleared-coefficients-polynomial",
                 "local-values-scalar", "indicial-identity", "commutativity", "weight-blocks-preserved"):
        assert passed[name], name


def test_wronski_pipeline_requires_space():
    cfg = InstanceConfig.from_dict(GOLDEN)
    with pytest.raises(ConfigError):
        wronski_pipeline(cfg)


def test_cli_roundtrip(tmp_path):
    cfg_path = tmp_path / "golden.json"
    cfg_path.write_text(json.dumps(GOLDEN))
    out_path = tmp_path / "report.json"
    code = main(["verify", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["all_passed"] is True
    assert report["module_dimension"] == 4
    assert main(["report", str(out_path)]) == 0


@pytest.mark.parametrize(
    "command, content, flags",
    [
        ("spectrum", {**GOLDEN, "b": ["0", "0"]}, []),
        ("spectrum", {**GOLDEN, "options": {"tolerances": {"residual": "abc"}}}, []),
        ("spectrum", {**GOLDEN, "options": {"seed": "abc"}}, []),
        ("spectrum", {**GOLDEN, "options": {"samples": "abc"}}, []),
        ("spectrum", {**GOLDEN, "options": {"samples": 5}}, []),
        ("spectrum", {**GOLDEN, "options": {"tolerances": {"residul": 1e-9}}}, []),
        ("verify", {**GOLDEN, "optoins": {"seed": 7}}, []),
        ("verify", {**GOLDEN, "options": {"seed": -5}}, []),
        ("verify", GOLDEN, ["--seed", "-1"]),
        ("verify", {**GOLDEN, "options": {"tolerances": {"cluster": "nan"}}}, []),
        ("verify", {**GOLDEN, "options": {"tolerances": {"dedup": "inf"}}}, []),
        ("verify", {**GOLDEN, "options": {"tolerances": {"kernel_fit": 0}}}, []),
        ("verify", {**GOLDEN, "options": {"tolerances": {"residual": -1e-9}}}, []),
        ("verify", GOLDEN, ["--tol-residual", "inf"]),
        ("verify", GOLDEN, ["--tol-cluster", "nan"]),
        ("verify", GOLDEN, ["--tol-cluster=-1e-7"]),
        ("verify", {**GOLDEN, "K": "01"}, []),
        ("verify", {**GOLDEN, "b": "01"}, []),
        ("verify", {**GOLDEN, "partitions": "11"}, []),
        ("verify", {**GOLDEN, "partitions": ["1", "1"]}, []),
        ("verify", {**GOLDEN, "weight": "11"}, []),
        ("wronski", {**GOLDEN, "space": {"polys": ["01", ["1"]]}}, []),
        ("report", None, []),
        ("report", "{not json", []),
        ("report", GOLDEN, []),
        ("verify", {**GOLDEN, "options": {"run_bae": "false"}}, []),
        ("verify", {**GOLDEN, "options": {"seed": 2.7}}, []),
        ("verify", {**GOLDEN, "options": {"seed": True}}, []),
        ("verify", {**GOLDEN, "N": 2.9}, []),
        ("verify", {**GOLDEN, "options": {"tolerances": {"kernel_fit": True}}}, []),
        ("verify", {**GOLDEN, "options": {"tolerances": {"equations": "-1e-10"}}}, []),
        ("verify", {**GOLDEN, "b": ["0", "1/0"]}, []),
        ("wronski", {**GOLDEN, "space": {"polys": [["1/0", "1"], ["1"]]}}, []),
        ("verify", {**GOLDEN, "partitions": [[1.5], [1]]}, []),
        ("verify", {**GOLDEN, "partitions": [[True], [1]]}, []),
        ("verify", {**GOLDEN, "partitions": [["1"], [1]]}, []),
        ("verify", {**GOLDEN, "weight": [1, 1.0]}, []),
    ],
    ids=[
        "repeated-points",
        "tolerance-not-numeric",
        "seed-not-integer",
        "samples-not-integer",
        "samples-option-removed",
        "tolerance-key-misspelt",
        "top-level-key-misspelt",
        "seed-negative",
        "seed-flag-negative",
        "tolerance-nan",
        "tolerance-infinite",
        "tolerance-zero",
        "tolerance-negative",
        "tolerance-flag-infinite",
        "tolerance-flag-nan",
        "tolerance-flag-negative",
        "K-string",
        "b-string",
        "partitions-string",
        "partition-string",
        "weight-string",
        "space-poly-string",
        "report-missing-file",
        "report-invalid-json",
        "report-not-a-report",
        "run-bae-string",
        "seed-fractional",
        "seed-bool",
        "N-fractional",
        "tolerance-bool",
        "tolerance-equations-negative",
        "b-zero-denominator",
        "space-zero-denominator",
        "partition-part-fractional",
        "partition-part-bool",
        "partition-part-string",
        "weight-part-float",
    ],
)
def test_cli_config_error_exit_code(tmp_path, capsys, command, content, flags):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [command, str(path)] if command == "report" else [command, "--config", str(path)]
    assert main(argv + flags) == 2
    assert "error" in capsys.readouterr().err


ROOT_HELP = """\
usage: gaudin [-h] {spectrum,bae,wronski,verify,report} ...

Exact Gaudin Bethe algebra and quasi-exponential cross-checks

positional arguments:
  {spectrum,bae,wronski,verify,report}
    spectrum            build the operator, diagonalize, recover kernels
    bae                 solve the Bethe ansatz equations and verify
                        eigenvectors
    wronski             analyze a user-supplied quasi-exponential space
    verify              full cross-check suite with count identities
    report              pretty-print a stored report

options:
  -h, --help            show this help message and exit
"""

# the usage line wraps by the length of the command's name
_LONG_USAGE = "{pad}[--tol-residual TOL_RESIDUAL]\n{pad}[--tol-cluster TOL_CLUSTER] [--json | --table]\n"
_SHORT_USAGE = "{pad}[--tol-residual TOL_RESIDUAL] [--tol-cluster TOL_CLUSTER]\n{pad}[--json | --table]\n"
COMMAND_USAGE = {name: "usage: gaudin {name} [-h] --config CONFIG [--out OUT] [--seed SEED]\n" + rest
                 for name, rest in (("spectrum", _LONG_USAGE), ("bae", _SHORT_USAGE),
                                    ("wronski", _LONG_USAGE), ("verify", _SHORT_USAGE))}

COMMAND_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --config CONFIG       path to the instance JSON
  --out OUT             write the report here (default stdout)
  --seed SEED           override the instance seed
  --tol-residual TOL_RESIDUAL
  --tol-cluster TOL_CLUSTER
  --json
  --table
"""

REPORT_HELP = """\
usage: gaudin report [-h] path

positional arguments:
  path        report JSON file

options:
  -h, --help  show this help message and exit
"""


def _cli_output(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


@pytest.mark.parametrize("name", ["spectrum", "bae", "wronski", "verify"])
def test_cli_command_help_and_usage_error(monkeypatch, capsys, name):
    """Each command's help lists the common flags in one fixed text, and a
    missing --config is a usage error with exit status 2."""
    usage = COMMAND_USAGE[name].format(name=name, pad=" " * len(f"usage: gaudin {name} "))
    assert _cli_output(monkeypatch, capsys, [name, "--help"]) == (0, usage + COMMAND_OPTIONS, "")
    error = f"gaudin {name}: error: the following arguments are required: --config\n"
    assert _cli_output(monkeypatch, capsys, [name]) == (2, "", usage + error)


def test_cli_root_and_report_help(monkeypatch, capsys):
    assert _cli_output(monkeypatch, capsys, ["--help"]) == (0, ROOT_HELP, "")
    assert _cli_output(monkeypatch, capsys, ["report", "--help"]) == (0, REPORT_HELP, "")


def _parsed(argv):
    """vars(build_parser().parse_args(argv)), or the exit code argparse stops with."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _same(plain, parsed) -> bool:
    """Equal attributes of equal types, nan equal to nan."""
    return isinstance(parsed, dict) and plain.keys() == parsed.keys() and all(
        type(a) is type(b) and (a == b or a != a and b != b) for a, b in ((plain[k], parsed[k]) for k in plain))


_FLAGS = [*OPTIONS, "--conf", "--tol", "--se", "--jso", "-h", "--", "-x", "--json"]
_VALUES = ["r.json", "7", "1e-7", "nan", "-1", "-1e-7", "abc", "", "-", "a=b", "--json", "verify"]
# values each option's type accepts, signs, spaces and underscores included
_TYPED = {str: ["r.json", "a=b", "verify", " x", "-x"], int: ["7", "+7", " 7", "1_0", "-1"],
          float: ["1e-7", "-1e-7", "nan", "inf", "2"]}


def _plain_chunk(flag, value):
    """--opt value, or --opt=value where the value starts with - (argparse reads the other as an option)."""
    return st.sampled_from([[f"{flag}={value}"]] + ([[flag, value]] if value[0] != "-" else []))


_OPTION = st.sampled_from(list(OPTIONS)).flatmap(
    lambda flag: st.sampled_from(_TYPED[OPTIONS[flag][0]]).flatmap(lambda value: _plain_chunk(flag, value)))
_PLAIN_ARGV = st.tuples(
    st.sampled_from(["verify", "spectrum", "bae", "wronski"]),
    st.tuples(_plain_chunk("--config", "c.json"), st.sampled_from([[], ["--json"], ["--table"]]),
              st.lists(_OPTION, max_size=4)).flatmap(lambda a: st.permutations([a[0], a[1], *a[2]])),
).map(lambda a: [a[0], *(token for chunk in a[1] for token in chunk)])
_PAIR = st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES))
_CHUNK = st.one_of(
    _OPTION,
    _PAIR.map(list),
    _PAIR.map(lambda fv: ["=".join(fv)]),
    st.sampled_from(_FLAGS + _VALUES).map(lambda token: [token]),
)
_ANY_ARGV = st.one_of(
    st.tuples(
        st.sampled_from(["verify", "spectrum", "bae", "wronski", "report", "-h", "verif", ""]),
        st.lists(st.one_of(_OPTION, _CHUNK), max_size=5),
    ).map(lambda a: [a[0], *(token for chunk in a[1] for token in chunk)]),
    # a plain line with one token put in anywhere after the command
    st.tuples(_PLAIN_ARGV, st.sampled_from(_FLAGS + _VALUES), st.integers(1, 12)).map(
        lambda a: a[0][:a[2]] + [a[1]] + a[0][a[2]:]),
    st.lists(st.sampled_from(["report", "r.json", "-r", "", "--", "x=y"]), max_size=3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_PLAIN_ARGV)
def test_plain_command_lines_parse_as_argparse_does(argv):
    """A command, exact options with values of their type and at most one
    format flag, in any order: the option table answers, as argparse does."""
    plain = _plain_args(argv)
    assert plain is not None and _same(plain, _parsed(argv)), argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ANY_ARGV)
def test_option_table_answers_only_as_argparse_does(argv):
    """Prefixes, bad values, negative numbers and junk tokens: wherever the
    option table answers, argparse gives the same attributes."""
    plain = _plain_args(argv)
    if plain is not None:
        assert _same(plain, _parsed(argv)), argv


@pytest.mark.parametrize(
    "argv, plain, parsed",
    [
        (["verify", "--config", "c.json", "--tol-cluster=-1e-7"], True, {"tol_cluster": -1e-7}),
        (["verify", "--config", "a", "--seed", "3", "--seed=5", "--config=b", "--table"], True,
         {"config": "b", "seed": 5, "as_json": False}),
        (["bae", "--out=r.json", "--tol-residual", "1e-9", "--config=c.json", "--json"], True,
         {"command": "bae", "out": "r.json", "tol_residual": 1e-9}),
        (["report", "r.json"], True, {"command": "report", "path": "r.json"}),
        # argparse reads these as before: the seed is a config error later, and the abbreviation is taken
        (["verify", "--config", "c.json", "--seed", "-1"], False, {"seed": -1}),
        (["verify", "--conf", "c.json"], False, {"config": "c.json"}),
        (["verify", "--config", "c.json", "--json", "--table"], False, None),  # argparse's verdict varies by version
        (["verify", "--config", "c.json", "--seed", "1.5"], False, 2),
        (["verify", "--out", "r.json"], False, 2),
        (["report", "--help"], False, 0),
        ([], False, 2),
    ],
)
def test_plain_command_line_cases(argv, plain, parsed):
    """The option table answers the plain lines, and the others reach argparse."""
    got = _parsed(argv)
    if parsed is not None:
        assert parsed.items() <= got.items() if isinstance(parsed, dict) else got == parsed
    assert _same(_plain_args(argv), got) if plain else _plain_args(argv) is None


def _pipelines_must_not_run(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    for name in ("spectrum_pipeline", "bae_pipeline", "wronski_pipeline", "verify_pipeline"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_unwritable_out_is_an_output_error(tmp_path, capsys, monkeypatch, where):
    """An --out path that is a directory or lies in a missing directory exits
    2 with an output error once the config has loaded, before any pipeline
    runs, and creates no file."""
    cfg_path = tmp_path / "golden.json"
    cfg_path.write_text(json.dumps(GOLDEN))
    out = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
    _pipelines_must_not_run(monkeypatch)
    for command in ("verify", "spectrum", "bae", "wronski"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["golden.json"]


def test_cli_checks_the_config_before_the_out_path(tmp_path, capsys, monkeypatch):
    _pipelines_must_not_run(monkeypatch)
    missing = tmp_path / "missing"
    assert main(["verify", "--config", str(missing / "c.json"), "--out", str(missing / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_out_check_leaves_an_existing_report_alone(tmp_path, monkeypatch):
    """A writable --out passes the check, which neither truncates an existing
    file nor creates one: a pipeline that fails leaves the old report."""
    cfg_path = tmp_path / "golden.json"
    cfg_path.write_text(json.dumps(GOLDEN))
    old = tmp_path / "r.json"
    old.write_text("old report\n")
    _pipelines_must_not_run(monkeypatch)
    for out in (old, tmp_path / "new.json"):
        with pytest.raises(AssertionError, match="the pipeline ran"):
            main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert old.read_text() == "old report\n" and not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("command", ["verify", "spectrum", "bae"])
def test_cli_numerical_failure_is_a_failing_check(tmp_path, command):
    """A residual tolerance no float eigenvector meets makes the joint
    diagonalization fail: the run exits 1 with a failing check that names
    that cause, writes its report, and prints no traceback."""
    root = Path(__file__).resolve().parents[1]
    out_path = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "gaudin.cli", command, "--config", str(root / "fixtures" / "golden_n2.json"),
            "--tol-residual", "1e-30", "--out", str(out_path)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    report = json.loads(out_path.read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["spectrum-analysis"]
    assert "joint eigen-residual above 1.0e-28" in failed[0]["value"]
    assert report["all_passed"] is False


@pytest.mark.parametrize("seed", [2024, 1, 7])
def test_cli_jordan_instance_fails_without_traceback(tmp_path, seed):
    """A non-semisimple block is a failing check, not a crash: exit 1, the
    report written, no traceback."""
    root = Path(__file__).resolve().parents[1]
    cfg_path = tmp_path / "jordan.json"
    cfg_path.write_text(json.dumps(JORDAN))
    out_path = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "gaudin.cli", "verify", "--config", str(cfg_path), "--seed", str(seed),
            "--out", str(out_path)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert json.loads(out_path.read_text())["all_passed"] is False


def test_cli_rank_six_instance_verifies(tmp_path):
    """N = 6 is past the reach of a permutation expansion of the row
    determinant (720 terms); the graded build verifies it end to end."""
    root = Path(__file__).resolve().parents[1]
    cfg_path = tmp_path / "rank6.json"
    cfg_path.write_text(json.dumps({
        "N": 6, "K": ["0", "1", "5/2", "9/2", "7", "10"],
        "partitions": [[1], [1]], "b": ["0", "1"], "weight": [1, 1],
    }))
    out_path = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "gaudin.cli", "verify", "--config", str(cfg_path), "--out", str(out_path)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    report = json.loads(out_path.read_text())
    assert report["all_passed"] is True
    assert report["dimension"] == 2

def test_gaussian_rational_instance():
    data = {
        "N": 2,
        "K": ["0", "i"],
        "partitions": [[1], [1]],
        "b": ["0", "1"],
        "weight": [1, 1],
    }
    cfg = InstanceConfig.from_dict(data)
    out = verify_pipeline(cfg)
    assert all(c.passed for c in out["checks"])
    assert len(out["characters"]) == 2


def test_option_toggles():
    data = copy.deepcopy(GOLDEN)
    data["options"] = {"run_wronski": False, "run_bae": False}
    cfg = InstanceConfig.from_dict(data)
    out = verify_pipeline(cfg)
    names = [c.name for c in out["checks"]]
    assert "kernel-membership" not in names
    assert all(c.passed for c in out["checks"])


def test_bae_without_wronski():
    data = copy.deepcopy(GOLDEN)
    data["options"] = {"run_wronski": False}
    out = verify_pipeline(InstanceConfig.from_dict(data))
    assert all(c.passed for c in out["checks"])
    assert [s["matched_character"] for s in out["bae"]] in ([0, 1], [1, 0])


def test_match_tolerance_comes_from_the_config():
    """A Bethe solution matches a character only within tolerances.kernel_fit."""
    data = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "golden_n2.json").read_text())
    out = verify_pipeline(InstanceConfig.from_dict(data))
    assert all(c.passed for c in out["checks"])
    closest = min(s["match_distance"] for s in out["bae"])
    assert closest > 0
    data["options"]["tolerances"] = {"kernel_fit": closest / 2}
    verdicts = {c.name: c.passed for c in verify_pipeline(InstanceConfig.from_dict(data))["checks"]}
    assert verdicts["factorized-operators-match-characters"] is False


def test_equations_tolerance_comes_from_the_config():
    """solutions-satisfy-equations reads tolerances.equations, 1e-10 by default."""
    data = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "golden_n2.json").read_text())

    def check():
        out = verify_pipeline(InstanceConfig.from_dict(data))
        return next(c for c in out["checks"] if c.name == "solutions-satisfy-equations")

    default = check()
    assert default.passed and default.value["tolerance"] == Tolerances().equations == 1e-10
    worst = default.value["measured"]
    assert worst > 0
    data["options"]["tolerances"] = {"equations": worst / 2}
    tight = check()
    assert tight.value["tolerance"] == worst / 2 and tight.passed is False
    data["options"]["tolerances"] = {"equations": 0}
    with pytest.raises(ConfigError, match="tolerance 'equations'"):
        InstanceConfig.from_dict(data)


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_reports_carry_spectral_counters(tmp_path, command):
    """spectrum and verify reports record how many eigenvalue clusters were
    split inside their subspace, and the gates that measure the cluster
    margin and the worst kernel fit."""
    out = tmp_path / "report.json"
    assert main([command, "--config", str(Path(__file__).resolve().parents[1] / "fixtures" / "golden_n2.json"),
                 "--out", str(out)]) == 0
    counters = json.loads(out.read_text())["counters"]
    assert counters["spectral"].keys() == {"clusters", "gates"}
    assert counters["spectral"]["clusters"] == 0
    assert counters["spectral"]["gates"]["cluster_margin"]["measured"] > 1e-6
    assert 0 < counters["spectral"]["gates"]["kernel_fit"]["measured"] <= 1
    assert ("newton" in counters) == (command == "verify")


def test_spectral_gates_report_their_margin():
    """On golden_n2 each spectral float gate reads {measured, tolerance, margin}, a positive margin passing:
    the worst joint eigen-residual against 100 residual, the cluster margin against 10 cluster, and the
    worst kernel fit over its bound against 1."""
    data = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "golden_n2.json").read_text())
    out = verify_pipeline(InstanceConfig.from_dict(data))
    counters, characters = out["counters"]["spectral"], out["characters"]
    gates = counters["gates"]
    assert gates.keys() == {"joint_residual", "cluster_margin", "kernel_fit"}
    tol = Tolerances()
    assert gates["joint_residual"] == {"measured": max(ch["residual"] for ch in characters),
                                       "tolerance": 100 * tol.residual,
                                       "margin": 100 * tol.residual - max(ch["residual"] for ch in characters)}
    cluster, fit = gates["cluster_margin"]["measured"], gates["kernel_fit"]["measured"]
    assert gates["cluster_margin"] == {"measured": cluster, "tolerance": 10 * tol.cluster,
                                       "margin": cluster - 10 * tol.cluster}
    assert gates["kernel_fit"] == {"measured": fit, "tolerance": 1.0, "margin": 1.0 - fit}
    assert all(gate["margin"] > 0 for gate in gates.values())


def test_spectral_gates_are_null_where_they_did_not_run():
    """joint_diagonalize alone leaves the kernel-fit gate null, and a block with one cluster
    leaves its cluster gate null."""
    data = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "trivial_n1.json").read_text())
    config = InstanceConfig.from_dict(data)
    gates = joint_diagonalize(build_bethe_operator(config.spec), config.tolerances, config.seed).counters["gates"]
    assert gates["kernel_fit"] == {"measured": None, "tolerance": 1.0, "margin": None}
    assert gates["cluster_margin"] == {"measured": None, "tolerance": 10 * Tolerances().cluster, "margin": None}
    assert gates["joint_residual"]["margin"] > 0


def test_cli_table_output(tmp_path, capsys):
    cfg_path = tmp_path / "golden.json"
    cfg_path.write_text(json.dumps(GOLDEN))
    code = main(["spectrum", "--config", str(cfg_path), "--table"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all checks passed" in captured.out


# The modules gaudin imports at module level from outside the package.  A new
# one adds to the start-up time of every run, so it must be added here
# knowingly.  os (the CLI's check of --out) is already loaded at start-up,
# by the site module.
PACKAGE_IMPORTS = {
    "__future__", "bisect", "dataclasses", "fractions", "functools", "itertools",
    "json", "math", "numpy", "os", "random", "re", "sys", "time",
}

FOOTPRINT = """
import importlib, json, sys
for name in sys.argv[1].split(","):
    importlib.import_module(name)
deps = set(sys.modules)
import gaudin.cli
loaded = sorted(set(sys.modules) - deps)
code = gaudin.cli.main(["verify", "--config", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"loaded": loaded, "code": code, "numpy.random": "numpy.random" in sys.modules,
                  "parsers": sorted(set(sys.modules) & {"argparse", "gettext", "locale"})}))
"""


ROOT = Path(__file__).resolve().parent.parent


def _verify_footprint(config, tmp_path):
    """Run one verify pass in a fresh interpreter after importing
    PACKAGE_IMPORTS; returns its exit code, the modules ``import gaudin``
    added and whether numpy.random was loaded at the end.  The command line
    is a plain one, so the pass never loads argparse, gettext or locale."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-c", FOOTPRINT, ",".join(sorted(PACKAGE_IMPORTS)), str(config), str(tmp_path / "r.json")]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["parsers"] == [], out["parsers"]
    return out


def test_verify_pass_footprint(tmp_path):
    """A verify pass without Bethe roots never loads numpy.random, and
    ``import gaudin`` loads nothing beyond its own modules and what its
    module-level imports load."""
    import ast

    imports = set()
    for path in sorted((ROOT / "src" / "gaudin").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imports |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.add(node.module)
    assert imports == PACKAGE_IMPORTS
    config = ROOT / "fixtures" / "exact_n3.json"
    assert json.loads(config.read_text())["options"]["run_bae"] is False
    out = _verify_footprint(config, tmp_path)
    assert out["code"] == 0
    assert not out["numpy.random"]
    assert all(name == "gaudin" or name.startswith("gaudin.") for name in out["loaded"]), out["loaded"]


def test_verify_pass_with_bethe_roots_never_loads_numpy_random(tmp_path):
    """The Newton starts come from the standard library's generator too."""
    config = ROOT / "fixtures" / "golden_n2.json"
    assert json.loads(config.read_text()).get("options", {}).get("run_bae", True) is True
    out = _verify_footprint(config, tmp_path)
    assert out["code"] == 0
    assert not out["numpy.random"]
