"""Configuration, verification pipelines, and JSON reports.

A config describes one instance (rank, twist exponents, partitions with
evaluation points, target weight) plus options; pipelines assemble the
spectral, Bethe-ansatz, and function-side checks and emit deterministic
reports keyed by descriptive check names.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import ModuleSpec, Partition, build_embedded_module
from .bae import bae_residual, gap_unit, level_profile, level_slices, newton_solve, verify_eigenvector
from .betheop import (
    build_bethe_operator,
    check_polynomiality,
    commutativity_check,
    expected_leading_symbol,
    first_coefficient_residual,
    leading_symbol,
    weight_blocks_preserved,
)
from .polynomials import Poly
from .scalars import GaussianRational, format_scalar, parse_scalar
from .spaces import QuasiExpSpace, cleared_operators, membership_test, operator_text
from .spectral import Tolerances, gate, joint_diagonalize, spectrum_analysis


class ConfigError(ValueError):
    """The instance description is rejected before any computation."""


CONFIG_KEYS = ("N", "K", "b", "partitions", "weight", "space", "options")
REQUIRED_KEYS = CONFIG_KEYS[:5]
OPTION_KEYS = ("seed", "run_bae", "run_wronski", "tolerances")
TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))


def _reject_unknown(d: dict, known, kind: str):
    for key in d:
        if key not in known:
            raise ConfigError(f"unknown {kind} {key!r} (known: {', '.join(known)})")


def _json_list(value, what: str) -> list:
    """A JSON list; a string would otherwise be read one character at a time."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON list, got {value!r}")
    return value


def _json_int(value, what: str) -> int:
    """A JSON integer; a float, a string or a boolean is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_scalar(value, what: str):
    """An exact scalar, a JSON integer or string; true or false would otherwise be read as 1 or 0."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer or a string, got {value!r}")
    return parse_scalar(value)


def _json_partition(value, what: str) -> Partition:
    """A JSON list of JSON integers; 1.5, true or "1" is refused, not read as 1."""
    return Partition([_json_int(p, f"each part of {what}") for p in _json_list(value, what)])


def _json_bool(value, what: str) -> bool:
    """A JSON boolean; the string "false" would otherwise switch a stage on."""
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _parsed(what: str, convert, value, valid, rule: str):
    try:
        out = convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not valid(out):
        raise ConfigError(f"{what} must be {rule}, got {out}")
    return out


def parse_seed(value) -> int:
    """A seed from the config or the command line."""
    return _parsed("seed", int, value, lambda s: s >= 0, "a non-negative integer")


def parse_tolerance(key: str, value) -> float:
    """A tolerance from the config or the command line; inf, nan or true (read as 1.0) would pass any fit."""
    if isinstance(value, bool):
        raise ConfigError(f"tolerance {key!r} must be a number, got {value!r}")
    return _parsed(f"tolerance {key!r}", float, value, lambda t: t > 0 and math.isfinite(t),
                   "finite and positive")


def parse_tolerances(d) -> Tolerances:
    """The config's ``tolerances`` object; a key left out keeps its default."""
    if not isinstance(d, dict):
        raise ConfigError("tolerances must be an object")
    _reject_unknown(d, TOLERANCE_KEYS, "tolerance")
    return Tolerances(**{key: parse_tolerance(key, value) for key, value in d.items()})


@dataclass
class InstanceConfig:
    spec: ModuleSpec
    run_bae: bool = True
    run_wronski: bool = True
    seed: int = 2024
    tolerances: Tolerances = field(default_factory=Tolerances)
    space: QuasiExpSpace = None
    raw: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(data) -> "InstanceConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be an object")
        _reject_unknown(data, CONFIG_KEYS, "config key")
        for key in REQUIRED_KEYS:
            if key not in data:
                raise ConfigError(f"config is missing the required key {key!r}")
        try:
            rank = _json_int(data["N"], "N")
            exponents = [_json_scalar(k, "each entry of K") for k in _json_list(data["K"], "K")]
            points = [_json_scalar(b, "each entry of b") for b in _json_list(data["b"], "b")]
            partitions = [_json_partition(p, "each partition") for p in _json_list(data["partitions"], "partitions")]
            weight = _json_partition(data["weight"], "weight")
            spec = ModuleSpec(rank, exponents, partitions, points, weight)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        space = None
        if "space" in data:
            if not isinstance(data["space"], dict):
                raise ConfigError("space must be an object")
            _reject_unknown(data["space"], ("polys",), "space key")
            if "polys" not in data["space"]:
                raise ConfigError("space must have a 'polys' entry")
            try:
                polys = [
                    Poly([_json_scalar(c, "each space coefficient") for c in _json_list(coeffs, "each space polynomial")])
                    for coeffs in _json_list(data["space"]["polys"], "space polys")
                ]
                space = QuasiExpSpace(tuple(spec.exponents), tuple(polys))
            except (KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"bad space description: {exc}") from exc
        options = data.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError("options must be an object")
        _reject_unknown(options, OPTION_KEYS, "option")
        return InstanceConfig(
            spec=spec,
            run_bae=_json_bool(options.get("run_bae", True), "run_bae"),
            run_wronski=_json_bool(options.get("run_wronski", True), "run_wronski"),
            seed=parse_seed(_json_int(options.get("seed", 2024), "seed")),
            tolerances=parse_tolerances(options.get("tolerances", {})),
            space=space,
            raw=data,
        )

    @staticmethod
    def from_file(path) -> "InstanceConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"invalid JSON: {exc}") from exc
        return InstanceConfig.from_dict(data)


@dataclass
class Check:
    name: str
    passed: bool
    value: object = None

    def to_dict(self):
        out = {"name": self.name, "passed": bool(self.passed)}
        if self.value is not None:
            out["value"] = self.value
        return out


def _float_check(name: str, measured, tolerance: float, passed=None) -> Check:
    """A check valued ``gate`` of the worst value (None as inf) against the tolerance.

    It passes when measured <= tolerance, or as ``passed`` says; a non-finite measured is null and fails."""
    value = gate(float(np.max([math.inf if m is None else m for m in measured], initial=0.0)), tolerance)
    ok = value["measured"] is not None and (value["measured"] <= tolerance if passed is None else passed)
    return Check(name, ok, value)


def _pairs(a) -> list:
    """An array of scalars as nested lists with [real, imaginary] of each, as complex floats, innermost."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def cleared_numerators(operators) -> list:
    """The numerators P h_i, i = 1..N, of every eigen-operator [P, P h_1, ..., P h_N] of the
    ``character_to_operator`` stack, as [character][i - 1][k] = [real, imaginary] of the u^k coefficient."""
    return _pairs(operators[:, 1:])


def _is_real_data(spec: ModuleSpec) -> bool:
    return not any(
        isinstance(v, GaussianRational) and v.im != 0 for v in spec.exponents + spec.points
    )


def _lap(stages: dict, name: str, since: float) -> float:
    """Records the seconds from since to now as stage name; returns now."""
    now = time.perf_counter()
    stages[name] = now - since
    return now


def spectrum_pipeline(config: InstanceConfig) -> dict:
    """Exact identities, commutativity, diagonalization, kernel recovery."""
    spec = config.spec
    checks = []
    stages = {}
    t = t0 = time.perf_counter()
    module = build_embedded_module(spec)
    dim = len(module.weight_indices(spec.weight))
    t = _lap(stages, "module", t)
    op = build_bethe_operator(spec, module)
    t = _lap(stages, "operator", t)

    checks.append(Check("first-coefficient-identity", first_coefficient_residual(op).is_zero()))
    checks.append(Check("leading-symbol-identity", leading_symbol(op) == expected_leading_symbol(op)))
    poly_report = check_polynomiality(op)
    checks.append(Check("cleared-coefficients-polynomial", poly_report.polynomial))
    checks.append(Check("local-values-scalar", poly_report.scalar))
    checks.append(Check("indicial-identity", poly_report.indicial_ok))
    checks.append(Check("coefficient-degree-bound", all(d <= spec.size for d in poly_report.degrees), value=poly_report.degrees))
    checks.append(Check("commutativity", commutativity_check(op)))
    checks.append(Check("weight-blocks-preserved", weight_blocks_preserved(op)))
    t = _lap(stages, "exact_checks", t)

    try:
        if config.run_wronski:
            report = spectrum_analysis(op, config.tolerances, config.seed)
        else:
            report = joint_diagonalize(op, config.tolerances, config.seed)
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        # a numerical failure, or an operator the pole polynomial cannot
        # clear, fails this stage; the report is still written
        checks.append(Check("spectrum-analysis", False, value=f"{type(exc).__name__}: {exc}"))
        _lap(stages, "spectral", t)
        return {"dimension": dim, "module_dimension": module.dim, "checks": checks, "characters": [],
                "spectrum": None, "operator": op, "stages": stages, "elapsed": time.perf_counter() - t0}
    _lap(stages, "spectral", t)
    characters = [{"residual": res, "simple": size == 1, "cluster_size": size, "vector": vector}
                  for res, size, vector in zip(report.residuals.tolist(), report.cluster_sizes.tolist(),
                                               _pairs(report.characters))]
    if config.run_wronski:
        kernels = [_pairs(p) for p in report.kernels]
        for k, (entry, numerators, m) in enumerate(zip(characters, cleared_numerators(report.operators),
                                                       report.memberships)):
            entry.update(coefficient_numerators=numerators, membership=hasattr(m, "ok") and m.ok)
            if hasattr(m, "ok"):
                entry["kernel_polys"] = [p[k] for p in kernels]
                entry["membership_checks"] = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in m.checks]
            else:
                entry["membership_error"] = m
        checks.append(Check("kernel-membership", all(entry["membership"] for entry in characters)))
    if _is_real_data(spec):
        checks.append(Check("character-count-equals-dimension", report.count == dim, value=[report.count, dim]))
        checks.append(Check("eigenspaces-one-dimensional", report.diagonalizable and all(report.cluster_sizes == 1)))
    else:
        checks.append(Check("character-count", True, value=[report.count, dim]))
    checks.append(Check("pole-orders-recorded", True, value={f"B{i}@s{s}": o for (i, s), o in poly_report.pole_orders.items()}))

    return {
        "dimension": dim,
        "module_dimension": module.dim,
        "checks": checks,
        "characters": characters,
        "counters": {"spectral": report.counters},
        "spectrum": report,
        "operator": op,
        "stages": stages,
        "elapsed": time.perf_counter() - t0,
    }


def bae_pipeline(config: InstanceConfig, spectrum=None) -> dict:
    """Newton solutions, eigenvector residuals, matching to the spectrum."""
    spec = config.spec
    checks = []
    t0 = time.perf_counter()
    if not spec.all_vector_factors:
        return {
            "checks": [Check("bae-applicable", False, value="needs all factor sizes equal to one")],
            "solutions": [],
            "elapsed": time.perf_counter() - t0,
        }
    if spectrum is None:
        spectrum = spectrum_pipeline(config)
    if spectrum["spectrum"] is None:  # the spectrum stage failed: report its check
        failed = [c for c in spectrum["checks"] if c.name == "spectrum-analysis"]
        return {"checks": failed, "solutions": [], "stages": spectrum["stages"], "elapsed": time.perf_counter() - t0}
    op = spectrum["operator"]
    dim = spectrum["dimension"]
    tol = config.tolerances
    stages = spectrum["stages"]  # the Bethe stages join the spectrum's, also in a verify report
    t = time.perf_counter()
    sols = newton_solve(spec, seed=config.seed, dedup_tol=tol.dedup)
    t = _lap(stages, "roots", t)
    if _is_real_data(spec):
        checks.append(Check("solution-count-equals-dimension", len(sols) == dim, value=[len(sols), dim]))
    else:
        checks.append(Check("solution-count", True, value=[len(sols), dim]))

    char_values = spectrum["spectrum"].values  # every character's [h_1, ..., h_N] at the eigenvector points
    char_scale = np.maximum(np.abs(char_values), 1.0)
    taken = np.zeros(len(char_values), dtype=bool)
    ev_residuals, values = verify_eigenvector(sols.roots, spec, op)
    eigenvectors = _float_check("weight-function-eigenvectors", ev_residuals.tolist(), tol.kernel_fit * 10)
    # every solution's worst relative distance over points and coefficients to every character
    dists = (np.abs(values[:, None] - char_values) / char_scale).max(axis=(2, 3))
    residuals = np.abs(bae_residual(sols.roots, spec)).max(axis=1, initial=0.0).tolist() if len(sols) else []
    levels = level_slices(level_profile(spec.weight, spec.rank)[1:])
    entries = []
    for solution, ev_res, row, res_norm in zip(sols.roots, ev_residuals.tolist(), dists, residuals):
        # the nearest still-free character
        free = np.flatnonzero(~taken)
        best = best_dist = None
        if free.size:
            best = int(free[np.argmin(row[free])])
            best_dist = float(row[best])
            taken[best] = best_dist <= tol.kernel_fit
        entries.append(
            {
                "roots": [[[z.real, z.imag] for z in map(complex, solution[level])] for level in levels],
                "bae_residual": res_norm,
                "eigenvector_residual": ev_res,
                "eigenvector_ok": ev_res <= eigenvectors.value["tolerance"],
                "matched_character": best,
                "match_distance": best_dist,
            }
        )
    # the search accepts residuals in units of the smallest gap between the points
    unit = gap_unit(spec.points)
    checks.append(_float_check("solutions-satisfy-equations", [unit * e["bae_residual"] for e in entries],
                               tol.equations))
    checks.append(eigenvectors)
    checks.append(_float_check("factorized-operators-match-characters", [e["match_distance"] for e in entries],
                               tol.kernel_fit, int(taken.sum()) == len(entries) == len(char_values)))
    _lap(stages, "eigenvectors", t)
    return {
        "checks": checks,
        "solutions": entries,
        "counters": {"newton": sols.counters},
        "stages": stages,
        "elapsed": time.perf_counter() - t0,
    }


def wronski_pipeline(config: InstanceConfig) -> dict:
    """Function-side analysis of a user-supplied space."""
    spec = config.spec
    checks = []
    t0 = time.perf_counter()
    if config.space is None:
        raise ConfigError("this command needs a space entry in the config")
    space = config.space
    # one row [G_0, ..., G_N], G_0 the monic Wronskian of degree n = |lam|
    gs = cleared_operators(space.exponents, space.stacked())
    g0, n = gs[0, 0], space.size
    report = membership_test(gs, spec)[0]
    checks.append(Check("membership", report.ok))
    for c in report.checks:
        checks.append(Check(f"membership/{c.name}", c.passed, value=c.detail or None))
    return {
        "checks": checks,
        "wronskian": {
            "poly": _pairs(g0),
            "map": _pairs([(-1) ** s * g0[n - s] for s in range(1, n + 1)]),  # a_s, u^n + sum (-1)^s a_s u^{n-s}
        },
        "operator_text": operator_text(gs[0]),
        "exponents": {
            str(s): list(data.exponents) if data.exponents else None
            for s, data in report.indicial.items()
        },
        "elapsed": time.perf_counter() - t0,
    }


def verify_pipeline(config: InstanceConfig) -> dict:
    """Counts and cross-checks across the three pipelines."""
    t0 = time.perf_counter()
    spectrum = spectrum_pipeline(config)
    out = {
        "checks": list(spectrum["checks"]),
        "characters": spectrum["characters"],
        "dimension": spectrum["dimension"],
        "module_dimension": spectrum["module_dimension"],
        "stages": spectrum["stages"],
    }
    dim = spectrum["dimension"]
    if spectrum["spectrum"] is None:  # the spectrum stage failed: nothing to count
        return {**out, "elapsed": time.perf_counter() - t0}
    out["counters"] = dict(spectrum["counters"])
    if config.run_bae and config.spec.all_vector_factors:
        bae = bae_pipeline(config, spectrum)
        out["bae"] = bae["solutions"]
        out["counters"].update(bae["counters"])
        out["checks"].extend(bae["checks"])
        counts = [dim, spectrum["spectrum"].count, len(bae["solutions"])]
        out["checks"].append(Check("count-triple-equality", len(set(counts)) == 1, value=counts))
    else:
        out["checks"].append(
            Check("count-pair-equality", spectrum["spectrum"].count == dim, value=[spectrum["spectrum"].count, dim])
        )
    out["elapsed"] = time.perf_counter() - t0
    return out


def run_report(command: str, config: InstanceConfig, result: dict) -> dict:
    """Deterministic JSON document (timings are the only unstable fields)."""
    checks = [c.to_dict() for c in result.get("checks", [])]
    report = {
        "tool": {"name": "gaudin", "version": __version__},
        "command": command,
        "instance": config.raw,
        "seed": config.seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    for key in ("dimension", "module_dimension", "characters", "solutions", "bae",
                "wronskian", "operator_text", "exponents", "counters"):
        if key in result:
            report[key] = result[key]
    report["timings"] = {"elapsed_seconds": result.get("elapsed", 0.0), "stages": result.get("stages", {})}
    return report


def render_table(report: dict) -> str:
    lines = []
    lines.append(f"gaudin {report['command']} report (tool {report['tool']['version']})")
    if "dimension" in report:
        lines.append(f"weight-subspace dimension: {report['dimension']}")
    width = max((len(c["name"]) for c in report["checks"]), default=10)
    for c in report["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        extra = f"  {c['value']}" if "value" in c else ""
        lines.append(f"  {c['name']:<{width}}  {status}{extra}")
    lines.append("all checks passed" if report["all_passed"] else "SOME CHECKS FAILED")
    return "\n".join(lines)


def dump_report(report: dict) -> str:
    """The report as compact JSON with sorted keys, through json's C encoder."""
    return json.dumps(report, separators=(",", ":"), sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (Fraction, GaussianRational)):
        return format_scalar(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    raise TypeError(f"cannot serialize {type(obj)!r}")
