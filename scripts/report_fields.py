#!/usr/bin/env python3
"""Exit codes and the int, bool and string fields of a fixed corpus of reports.

    python3 scripts/report_fields.py > change.json
    python3 scripts/report_fields.py --src OTHER_CHECKOUT/src > parent.json
    diff parent.json change.json

Every report of CORPUS is run in process through csymlab's CLI, imported
from --src (this checkout's src/ by default).  For each report the JSON
document holds the exit code, the report or error payload that the CLI
printed with `generated_at` dropped and every float replaced by "<float>",
and the last line of stderr for input errors (numpy's RuntimeWarnings are
silenced).  A refactor that claims to change no report gives an empty diff
against its parent; one that does change reports shows exactly which
fields moved.  The whole corpus runs
in well under a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MASK = "<float>"

# the fixtures on which deficiency, extend and verify-all are all run;
# "complex_symmetric_n32" is the spec written by complex_symmetric_spec
FAMILIES = (
    ("race_n16", ("--example", "race_schrodinger", "--n", "16")),
    ("race_n24", ("--example", "race_schrodinger", "--n", "24")),
    ("race_n32", ("--example", "race_schrodinger", "--n", "32")),
    ("fd_n16", ("--example", "fd_derivative_minimal", "--n", "16")),
    ("zero_n8", ("--example", "zero_on_subspace", "--n", "8")),
    ("zero_n16", ("--example", "zero_on_subspace", "--n", "16")),
    ("random_csym_n6", ("--example", "random_csym", "--n", "6")),
    ("random_csym_n64", ("--example", "random_csym", "--n", "64")),
    ("complex_symmetric_n32", ("--spec", "{spec}")),
)


def race(n: int, *extra: str) -> tuple[str, ...]:
    return ("--example", "race_schrodinger", "--n", str(n), *extra)


def corpus() -> list[tuple[str, tuple[str, ...]]]:
    cases = []
    for label, source in FAMILIES:
        for command in ("deficiency", "extend", "verify-all"):
            cases.append((f"{command}_{label}", (command, *source)))
        cases.append((f"extend_swap_{label}", ("extend", *source, "--swap")))
    for n in (64, 128):
        small_h = race(n, "--h", "0.02")
        cases.append((f"deficiency_race_h0.02_n{n}", ("deficiency", *small_h)))
        cases.append((f"extend_race_h0.02_n{n}", ("extend", *small_h)))
        cases.append((f"extend_swap_race_h0.02_n{n}", ("extend", *small_h, "--swap")))
    cases.append(("enumerate_race_n8", ("enumerate", *race(8), "--budget", "500")))
    # the random part of the sweep and hundreds of round-trip hits
    zero = ("--example", "zero_on_subspace", "--n", "16")
    for label, source in (("race_n16", race(16)), ("zero_n16", zero)):
        for seed in ("0", "1"):
            argv = ("enumerate", *source, "--budget", "2000", "--seed", seed)
            cases.append((f"enumerate_{label}_budget2000_seed{seed}", argv))
    # 307 hits with 301 operator flags, and fd's 236 hits: the round trip's
    # most marginal top-block cuts
    for label, source in (("race_n32", race(32)), ("fd_n16", ("--example", "fd_derivative_minimal", "--n", "16"))):
        cases.append((f"enumerate_{label}_budget2000", ("enumerate", *source, "--budget", "2000", "--seed", "0")))
    # 246 hits in 31 round-trip blocks, with 128-row new columns
    cases.append(("enumerate_race_h0.02_n64", ("enumerate", *race(64, "--h", "0.02"), "--budget", "2000")))
    # race at the default h where vn's kernel split decides the exit code,
    # and both canonical extensions where the kernel cut loses a direction
    for n in (22, 26, 28):
        cases.append((f"verify-all_race_n{n}", ("verify-all", *race(n))))
    for n in (26, 28):
        cases.append((f"extend_race_n{n}", ("extend", *race(n))))
        cases.append((f"extend_swap_race_n{n}", ("extend", *race(n), "--swap")))
    # race at the default h where the extensions' domain sums refuse
    cases.append(("verify-all_race_n48", ("verify-all", *race(48))))
    cases.append(("verify-all_fd_n32", ("verify-all", "--example", "fd_derivative_minimal", "--n", "32")))
    cases.append(("verify-all_zero_n32", ("verify-all", "--example", "zero_on_subspace", "--n", "32")))
    cases.append(("deficiency_race_n56", ("deficiency", *race(56))))
    cases.append(("deficiency_race_n128", ("deficiency", *race(128))))
    # the 1 x 1 operator 1e308, whose powers overflow to inf and nan
    for command in ("check", "powers", "verify-all"):
        cases.append((f"{command}_scalar_1e308", (command, "--spec", "{scalar}")))
    return cases


def import_csymlab(src: Path):
    """Import csymlab from src and nowhere else."""
    sys.path.insert(0, str(src))
    import csymlab

    if Path(csymlab.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: csymlab was imported from {csymlab.__file__}, not from {src}")
    return csymlab


def complex_symmetric_spec(cs, directory: Path) -> Path:
    """z + z^T with z drawn from default_rng([0, 2]), C entrywise, n=32."""
    import numpy as np

    m = cs.random_symmetric(32, np.random.default_rng([0, 2]))
    spec = cs.ProblemSpec("complex_symmetric_n32", 32, "entrywise", None, None, m, cs.DEFAULT_TOL)
    path = directory / "complex_symmetric_n32.json"
    path.write_text(json.dumps(spec.to_json_dict()))
    return path


def scalar_spec(directory: Path) -> Path:
    """The 1 x 1 operator 1e308 under the entrywise C: an everywhere-defined
    operator whose graph [1; 1e308] is as ill-scaled as a float allows."""
    data = {"name": "scalar_1e308", "dim": 1, "conjugation": {"kind": "entrywise"}}
    data["operator"] = {"images": [[1e308]]}
    path = directory / "scalar_1e308.json"
    path.write_text(json.dumps(data))
    return path


def mask(value):
    if isinstance(value, float):
        return MASK
    if isinstance(value, dict):
        return {key: mask(item) for key, item in value.items() if key != "generated_at"}
    if isinstance(value, list):
        return [mask(item) for item in value]
    return value


def run_case(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # numpy's overflow warnings are not part of a report
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    entry = {"exit_code": code}
    if out.getvalue().strip():
        entry["report"] = mask(json.loads(out.getvalue()))
    if err.getvalue().strip():
        entry["stderr"] = err.getvalue().strip().splitlines()[-1]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="src/ directory to import csymlab from")
    args = parser.parse_args(argv)
    cs = import_csymlab(args.src)
    from csymlab.cli import main as cli_main

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        files = {"spec": str(complex_symmetric_spec(cs, Path(tmp))), "scalar": str(scalar_spec(Path(tmp)))}
        for name, case in corpus():
            results[name] = run_case(cli_main, [part.format(**files) for part in case])
    print(json.dumps(results, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
