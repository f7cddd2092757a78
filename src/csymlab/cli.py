"""Command line entry point: named examples or problem files in, JSON
reports out.

Exit codes: 0 when every property check passed, 1 when a check failed or a
verified identity was violated (the report carries the residuals), 2 for
input errors (bad flags, malformed files, parameters outside their
contract).  Identical (problem, flags, seed) produce byte-identical reports
except for the generated_at stamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys

import numpy as np

from . import __version__
from .csym import is_c_selfadjoint, is_c_symmetric, weak_c_symmetry_residual
from .doubling import DoubledProblem, deficiency, race_decomposition, vn_decomposition
from .errors import InputError, PropertyViolationError
from .extensions import (
    ExtensionParameter,
    ExtensionResult,
    brute_force_extensions,
    canonical_extension,
    completeness_roundtrip,
    extension_from_parameter,
)
from .fixtures import EXAMPLE_BUILDERS, build_example
from .linalg import Tolerance
from .polar import CjtRefusal, cjt_factorization, conjugation_covariance, takagi
from .powers import QA_TERMS, doubled_matrix, power_report, qa_partial_sums
from .problems import ProblemSpec, decode_matrix, encode_matrix, parse_spec
from .reporting import CheckList

COMMANDS = (
    "check",
    "deficiency",
    "extend",
    "enumerate",
    "polar",
    "takagi",
    "powers",
    "verify-all",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csymlab",
        description="Numerical checks for conjugations, C-symmetric relations "
        "and their C-self-adjoint extensions.",
    )
    parser.add_argument("command", choices=COMMANDS)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="path to a problem JSON file")
    source.add_argument(
        "--example",
        help="named example: " + ", ".join(sorted(EXAMPLE_BUILDERS)),
    )
    parser.add_argument("--n", type=int, help="grid size / dimension for --example")
    parser.add_argument("--h", type=float, help="grid spacing for --example")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--tol", type=float, help="override the problem tolerance")
    parser.add_argument(
        "--budget", type=int, help="sample budget (enumerate) or max exponent (powers)"
    )
    parser.add_argument("--param", help="path to an extension parameter JSON file")
    parser.add_argument(
        "--swap", action="store_true", help="companion canonical extension"
    )
    parser.add_argument("--json", dest="json_path", help="also write the report here")
    return parser


def load_problem(args) -> ProblemSpec:
    if args.spec is not None:
        spec = parse_spec(args.spec)
    else:
        params = {}
        if args.n is not None:
            params["n"] = args.n
        if args.h is not None:
            params["h"] = args.h
        if args.example == "random_csym":
            params["seed"] = args.seed
        spec = build_example(args.example, **params)
    if args.tol is not None:
        if not 0 < args.tol < 1:
            raise InputError(f"--tol must be in (0, 1), got {args.tol}")
        spec = dataclasses.replace(spec, tol=Tolerance(args.tol))
    return spec


def load_parameter(path) -> ExtensionParameter:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read parameter file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in parameter file: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data or "matrix" not in data:
        raise InputError("parameter file must be an object with 'kind' and 'matrix'")
    return ExtensionParameter(data["kind"], decode_matrix(data["matrix"], "/matrix"))


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonify(encode_matrix(value) if value.ndim == 2 else value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return [_jsonify(z.real), _jsonify(z.imag)]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if np.isfinite(f) else str(f)
    return value


def cmd_check(spec: ProblemSpec, args) -> tuple[dict, CheckList]:
    rel = spec.relation()
    c = spec.conjugation()
    sym = is_c_symmetric(rel, c)
    csa = is_c_selfadjoint(rel, c)
    weak = weak_c_symmetry_residual(rel, c)
    checks = CheckList()
    checks.add(
        "weak_form_matches_predicate",
        (weak <= spec.tol.bound()) == sym,
        residual=weak,
        detail="sesquilinear-form characterization of C-symmetry",
    )
    results = {
        "c_symmetric": sym,
        "c_selfadjoint": csa,
        "weak_form_residual": weak,
        "is_operator": rel.is_operator,
        "everywhere_defined": rel.is_everywhere_defined,
    }
    return results, checks


def cmd_deficiency(spec: ProblemSpec, args) -> tuple[dict, CheckList]:
    dp = spec.doubled()
    checks = deficiency(dp)
    results = {"n_plus": dp.n_plus.dim, "n_minus": dp.n_minus.dim}
    return results, checks


def _extension_dims(dp: DoubledProblem, res: ExtensionResult) -> dict:
    return {
        "graph_a": dp.a.graph.dim,
        "graph_ext": res.a_ext.graph.dim,
        "graph_bstar": dp.bstar_dim,
        "n_plus": dp.n_plus.dim,
        "l_graph": res.a_ext.graph.dim - dp.a.graph.dim,
    }


def cmd_extend(spec: ProblemSpec, args) -> tuple[dict, CheckList]:
    dp = spec.doubled()
    if args.param is not None:
        res = extension_from_parameter(dp, load_parameter(args.param))
    else:
        res = canonical_extension(dp, swap=args.swap)
    status = {check.name: check.status for check in res.checks}
    results = {
        "parameter_unitary": res.parameter.matrix,
        "dims": _extension_dims(dp, res),
        "is_operator": res.a_ext.is_operator,
        "is_c_selfadjoint": status["extension_c_selfadjoint"] == "pass",
    }
    return results, res.checks


def cmd_enumerate(spec: ProblemSpec, args) -> tuple[dict, CheckList]:
    dp = spec.doubled()
    budget = args.budget if args.budget is not None else 2000
    if budget < 1:
        raise InputError(f"--budget must be positive, got {budget}")
    hits = brute_force_extensions(dp, budget=budget, seed=args.seed)
    worst, operators = completeness_roundtrip(dp, hits)
    checks = CheckList()
    if dp.frakM.dim == 0:
        checks.skip("completeness_roundtrip", "frakM = 0: the one hit is A itself and nothing is rebuilt")
    else:
        checks.add_residual(
            "completeness_roundtrip",
            worst,
            spec.tol.bound(),
            detail=f"{len(hits)} hits reproduced from recovered parameters",
        )
    results = {
        "budget": budget,
        "hits": len(hits),
        "operator_hits": operators,
        "multivalued_hits": len(hits) - operators,
        "max_roundtrip_angle": worst,
    }
    return results, checks


def cmd_polar(spec: ProblemSpec, args) -> tuple[dict, CheckList]:
    factors = spec.polar()
    c = spec.conjugation()
    checks = CheckList()
    checks.extend(conjugation_covariance(factors, c), prefix="covariance")
    results: dict = {"rank": factors.rank, "modulus_norm": float(factors.s[0])}
    outcome = cjt_factorization(factors, c)
    if isinstance(outcome, CjtRefusal):
        checks.skip("cjt_factorization", outcome.reason)
        results["cjt"] = {"refused": True, "residuals": outcome.residuals}
    else:
        results["cjt"] = {"refused": False, "rank": factors.rank}
    return results, checks


def cmd_takagi(spec: ProblemSpec, args) -> tuple[dict, CheckList]:
    if spec.matrix() is None:
        raise InputError("symmetric factorization needs an everywhere-defined matrix")
    factors = spec.polar()
    v, s = takagi(factors)
    # V comes from the same SVD as the factors; the checks compare what V and
    # s rebuild against them, so a wrong V still fails
    bound = factors.bound
    checks = CheckList()
    checks.add_residual(
        "modulus_crosscheck",
        float(np.abs(np.conj(v) * s @ v.T - factors.modulus).max()),
        bound,
    )
    rank_block = np.zeros(s.shape)
    rank_block[: factors.rank] = 1.0
    checks.add_residual(
        "phase_crosscheck",
        float(np.abs((v * rank_block) @ v.T - factors.phase).max()),
        bound,
    )
    results = {"singular_values": [float(x) for x in s]}
    return results, checks


def cmd_powers(spec: ProblemSpec, args) -> tuple[dict, CheckList]:
    m = spec.matrix()
    if m is None:
        raise InputError("power identities need an everywhere-defined matrix")
    c = spec.conjugation()
    n_max = args.budget if args.budget is not None else 4
    if n_max < 1:
        raise InputError(f"--budget must be positive, got {n_max}")
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    y = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    doubled = doubled_matrix(m, c, spec.tol)
    qa = qa_partial_sums(doubled, x, QA_TERMS)
    checks = CheckList()
    per_n = []
    for n in range(1, n_max + 1):
        rep = power_report(doubled, x, y, n)
        checks.extend(rep.checks, prefix=f"n{n}")
        per_n.append(
            {
                "n": n,
                "block_residual": rep.block_residual,
                "crosscheck_residual": rep.crosscheck_residual,
                "norm_residuals": list(rep.norm_residuals),
                "partial_sums": qa.partial_sums,
                "growth_bound": qa.growth_bound,
            }
        )
    return {"reports": per_n}, checks


def cmd_verify_all(spec: ProblemSpec, args) -> tuple[dict, CheckList]:
    checks = CheckList()
    results: dict = {}

    res, sub = cmd_check(spec, args)
    results["check"] = res
    checks.extend(sub, prefix="check")

    # deficiency raises PreconditionError (exit 2) unless A is C-symmetric,
    # the hypothesis of everything below
    res, sub = cmd_deficiency(spec, args)
    results["deficiency"] = res
    checks.extend(sub, prefix="deficiency")

    dp = spec.doubled()
    for label, swap in (("extend", False), ("extend_swap", True)):
        ext = canonical_extension(dp, swap=swap)
        checks.extend(ext.checks, prefix=label)
        results[label] = {"dims": _extension_dims(dp, ext)}

    enum_args = argparse.Namespace(**vars(args))
    enum_args.budget = min(args.budget, 200) if args.budget is not None else 200
    res, sub = cmd_enumerate(spec, enum_args)
    results["enumerate"] = res
    checks.extend(sub, prefix="enumerate")

    vn = vn_decomposition(dp)
    checks.extend(vn.checks, prefix="vn")
    results["vn"] = {"regime": vn.regime}
    race = race_decomposition(dp)
    checks.extend(race.checks, prefix="race")
    results["race"] = {"regime": race.regime, "measurements": race.measurements}

    if spec.matrix() is not None:
        res, sub = cmd_polar(spec, args)
        results["polar"] = res
        checks.extend(sub, prefix="polar")
        try:
            res, sub = cmd_takagi(spec, args)
            results["takagi"] = res
            checks.extend(sub, prefix="takagi")
        except InputError as exc:
            checks.skip("takagi", str(exc))
        powers_args = argparse.Namespace(**vars(args))
        powers_args.budget = min(args.budget, 3) if args.budget is not None else 3
        try:
            res, sub = cmd_powers(spec, args=powers_args)
            results["powers"] = res
            checks.extend(sub, prefix="powers")
        except InputError as exc:
            checks.skip("powers", str(exc))
    else:
        checks.skip("polar", "input is not an everywhere-defined matrix")
    return results, checks


DISPATCH = {
    "check": cmd_check,
    "deficiency": cmd_deficiency,
    "extend": cmd_extend,
    "enumerate": cmd_enumerate,
    "polar": cmd_polar,
    "takagi": cmd_takagi,
    "powers": cmd_powers,
    "verify-all": cmd_verify_all,
}


def build_report(command: str, spec: ProblemSpec, args) -> dict:
    results, checks = DISPATCH[command](spec, args)
    return {
        "command": command,
        "spec_name": spec.name,
        "inputs_digest": spec.digest(),
        "regime": spec.relation().regime,
        "seed": args.seed,
        "tol": spec.tol.eps,
        "tool_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "all_pass": checks.all_pass,
        "results": _jsonify(results),
        "check_list": _jsonify(checks.to_list()),
    }


def emit(payload: dict, json_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if json_path:
        with open(json_path, "w") as handle:
            handle.write(text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_problem(args)
        report = build_report(args.command, spec, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropertyViolationError as exc:
        payload = {
            "command": args.command,
            "error": str(exc),
            "residuals": _jsonify(exc.residuals),
            "all_pass": False,
        }
        emit(payload, args.json_path)
        return 1
    emit(report, args.json_path)
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
