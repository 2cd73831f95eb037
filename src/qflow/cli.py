"""Command-line front end.

Subcommands: ``run-lagrangian``, ``run-reference``, ``run-qtm``,
``compare``, ``tensor-check``, ``gaussian-accept``.  Outputs are CSV and
JSON files in the chosen directory, byte-identical for identical
configuration and seed.  Exit codes: 0 success, 2 validation failure
(any ``ValidationError``, or an output that cannot be written), 3
numerical abort (any other ``QflowError``: a crossing, an instability, a
node); a failed acceptance or identity suite exits 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .config import Settings
from .errors import QflowError, ValidationError
from .output import (COMPARE_SCHEMA, read_fields, write_fields, write_summary,
                     write_trajectories)
from .pipeline import (compare_fields, gaussian_accept, run_lagrangian,
                       run_qtm, run_reference, tensor_check)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflow",
        description="Trajectory-based quantum evolution with spectral "
                    "cross-validation.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="key = value configuration file")
    common.add_argument("--out", type=Path, default=Path("qflow-out"),
                        help="output directory (created if missing)")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed override (tensor-check draws)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    for name, help_text in (
            ("run-lagrangian", "evolve the trajectory continuum and "
                               "reconstruct the wavefunction"),
            ("run-reference", "spectral wave-equation reference solve"),
            ("run-qtm", "discrete-particle co-moving solve"),
            ("tensor-check", "deformation-algebra identity suite"),
            ("gaussian-accept", "full closed-form benchmark acceptance run"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    cmp_p = sub.add_parser("compare", parents=[common],
                           help="error norms between two result sets")
    cmp_p.add_argument("result_a", type=Path,
                       help="fields.csv (or directory containing one)")
    cmp_p.add_argument("result_b", type=Path)
    return parser


def _load_settings(args) -> Settings:
    settings = (Settings.from_file(args.config) if args.config
                else Settings.defaults())
    if args.seed is None:
        return settings
    return Settings({**settings.values, "run.seed": int(args.seed)})


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _check_out(out: Path) -> None:
    """Reject, before any work is done, an ``--out`` that cannot become a
    directory: one that exists and is not a directory, or whose nearest
    existing ancestor is not one.  The directory itself is created only
    once the run has succeeded."""
    path = out
    try:
        while not path.exists() and path.parent != path:
            path = path.parent
        usable = path.is_dir()
    except OSError as exc:
        raise ValidationError(f"--out {out}: {exc.strerror or exc}") from exc
    if not usable:
        raise ValidationError(f"--out {out}: {path} exists and is not a directory")


@contextmanager
def _writing(out: Path):
    """Create ``out`` for the writes of the block; a write that fails (a
    read-only or full disk, a directory the user cannot write to) raises a
    ValidationError naming the path."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        path = exc.filename or out
        raise ValidationError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _fields_path(path: Path) -> Path:
    return path / "fields.csv" if path.is_dir() else path


def _cmd_run_lagrangian(args) -> int:
    settings = _load_settings(args)
    t0 = time.perf_counter()
    snapshots, fields, summary, wall = run_lagrangian(settings)
    out = args.out
    keep = [s for s in snapshots if any(abs(s.t - f.t) < 1e-12 for f in fields)]
    with _writing(out):
        write_trajectories(out / "trajectories.csv", keep)
        write_fields(out / "fields.csv", fields)
        write_summary(out / "summary.json", summary)
    _say(args, f"evolved {len(snapshots)} snapshots in {wall:.2f}s "
               f"(total {time.perf_counter() - t0:.2f}s); wrote {out}")
    if "trajectory_max_rel_error" in summary:
        _say(args, f"trajectory max relative error: "
                   f"{summary['trajectory_max_rel_error']:.3e}")
    return EXIT_OK


def _cmd_run_reference(args) -> int:
    settings = _load_settings(args)
    t0 = time.perf_counter()
    waves, fields, summary = run_reference(settings)
    out = args.out
    with _writing(out):
        write_fields(out / "fields.csv", fields)
        write_summary(out / "summary.json", summary)
    _say(args, f"reference solve: {len(waves)} snapshots, norm drift "
               f"{summary['norm_drift']:.2e} ({time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def _cmd_run_qtm(args) -> int:
    settings = _load_settings(args)
    t0 = time.perf_counter()
    result, trajectories, summary = run_qtm(settings)
    out = args.out
    with _writing(out):
        write_trajectories(out / "trajectories.csv", trajectories)
        write_summary(out / "summary.json", summary)
    _say(args, f"particle run: {len(result.snapshots)} snapshots, discrete "
               f"norm {summary['discrete_norm_final']:.6f} "
               f"({time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def _cmd_compare(args) -> int:
    settings = _load_settings(args)
    hbar = settings["physics.hbar"]
    fields_a = read_fields(_fields_path(args.result_a), hbar)
    fields_b = read_fields(_fields_path(args.result_b), hbar)
    report = compare_fields(fields_a, fields_b)
    with _writing(args.out):
        write_summary(args.out / "compare.json", report, schema=COMPARE_SCHEMA)
    for entry in report["comparisons"]:
        line = f"t = {entry['t']:.6g}: "
        line += ", ".join(f"{k} = {v:.3e}" for k, v in entry.items()
                          if k not in ("t", "points"))
        _say(args, line)
    return EXIT_OK


def _cmd_tensor_check(args) -> int:
    settings = _load_settings(args)
    seed = settings["run.seed"]
    report = tensor_check(seed=seed, params=settings.physics())
    payload = dict(report)
    payload["seed"] = seed
    with _writing(args.out):
        write_summary(args.out / "tensor_check.json", payload)
    n = report["cofactor_identity_draws"]
    ok = report["cofactor_identity_rel_max"] <= 1e-12
    _say(args, f"cofactor identity: {n if ok else 0}/{n} pass "
               f"(max rel {report['cofactor_identity_rel_max']:.2e})")
    _say(args, f"cofactor divergence orders: "
               f"{['%.2f' % o for o in report['cofactor_divergence_orders']]}")
    _say(args, f"stress equivalence rel: {report['stress_equivalence_rel_max']:.2e}")
    _say(args, f"force identity order: {report['force_identity_order']:.2f}")
    _say(args, "tensor-check: " + ("PASS" if report["passed"] else "FAIL"))
    return EXIT_OK if report["passed"] else EXIT_FAILED


def _cmd_gaussian_accept(args) -> int:
    settings = _load_settings(args)
    t0 = time.perf_counter()
    checks, details = gaussian_accept(settings)
    all_ok = all(c.passed for c in checks)
    payload = {
        "checks": [{"criterion": c.criterion, "name": c.name, "value": c.value,
                    "tolerance": c.tolerance, "op": c.op, "passed": c.passed}
                   for c in checks],
        "details": details,
        "passed": all_ok,
    }
    with _writing(args.out):
        write_summary(args.out / "acceptance.json", payload)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"criterion {c.criterion:2d} {c.name}: {c.value:.3e} "
              f"({c.op} {c.tolerance:.1e}) {status}")
    _say(args, f"gaussian-accept finished in {time.perf_counter() - t0:.1f}s: "
               + ("ALL PASS" if all_ok else "FAILURES PRESENT"))
    return EXIT_OK if all_ok else EXIT_FAILED


_COMMANDS = {
    "run-lagrangian": _cmd_run_lagrangian,
    "run-reference": _cmd_run_reference,
    "run-qtm": _cmd_run_qtm,
    "compare": _cmd_compare,
    "tensor-check": _cmd_tensor_check,
    "gaussian-accept": _cmd_gaussian_accept,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QflowError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
