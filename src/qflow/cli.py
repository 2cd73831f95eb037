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
import dataclasses
import os
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
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")

    # each handler's docstring is its help line
    def command(name, handler):
        cmd = sub.add_parser(name, parents=[common], help=handler.__doc__)
        cmd.set_defaults(handler=handler)
        return cmd

    command("run-lagrangian", _cmd_run_lagrangian)
    command("run-reference", _cmd_run_reference)
    command("run-qtm", _cmd_run_qtm)
    compare = command("compare", _cmd_compare)
    compare.add_argument("result_a", type=Path,
                         help="fields.csv (or directory containing one)")
    compare.add_argument("result_b", type=Path)
    tensor = command("tensor-check", _cmd_tensor_check)
    tensor.add_argument("--seed", type=int, default=None,
                        help="seed of the random draws (overrides run.seed)")
    command("gaussian-accept", _cmd_gaussian_accept)
    return parser


def _emit(message: str, stream) -> None:
    """Print a line to ``stream``.  Once the stream's reader has gone, the
    stream is pointed at the null device, so the run finishes with its own
    exit code and no traceback."""
    try:
        print(message, file=stream, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _printer(quiet: bool):
    """``say(message, always=False)``: print a line to stdout unless
    ``quiet`` (a line with ``always`` prints regardless)."""
    def say(message: str, always: bool = False) -> None:
        if not quiet or always:
            _emit(message, sys.stdout)
    return say


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


def _cmd_run_lagrangian(settings: Settings, args, say) -> int:
    """evolve the trajectory continuum and reconstruct the wavefunction"""
    t0 = time.perf_counter()
    snapshots, fields, summary, wall = run_lagrangian(settings)
    out = args.out
    keep = [s for s in snapshots if any(abs(s.t - f.t) < 1e-12 for f in fields)]
    with _writing(out):
        write_trajectories(out / "trajectories.csv", keep)
        write_fields(out / "fields.csv", fields)
        write_summary(out / "summary.json", summary)
    say(f"evolved {len(snapshots)} snapshots in {wall:.2f}s "
        f"(total {time.perf_counter() - t0:.2f}s); wrote {out}")
    if "trajectory_max_rel_error" in summary:
        say(f"trajectory max relative error: "
            f"{summary['trajectory_max_rel_error']:.3e}")
    return EXIT_OK


def _cmd_run_reference(settings: Settings, args, say) -> int:
    """spectral wave-equation reference solve"""
    t0 = time.perf_counter()
    waves, fields, summary = run_reference(settings)
    out = args.out
    with _writing(out):
        write_fields(out / "fields.csv", fields)
        write_summary(out / "summary.json", summary)
    say(f"reference solve: {len(waves)} snapshots, norm drift "
        f"{summary['norm_drift']:.2e} ({time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def _cmd_run_qtm(settings: Settings, args, say) -> int:
    """discrete-particle co-moving solve"""
    t0 = time.perf_counter()
    result, summary = run_qtm(settings)
    out = args.out
    with _writing(out):
        write_trajectories(out / "trajectories.csv", result.snapshots)
        write_summary(out / "summary.json", summary)
    say(f"particle run: {len(result.snapshots)} snapshots, discrete "
        f"norm {summary['discrete_norm_final']:.6f} "
        f"({time.perf_counter() - t0:.2f}s)")
    return EXIT_OK


def _cmd_compare(settings: Settings, args, say) -> int:
    """error norms between two result sets"""
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
        say(line)
    return EXIT_OK


def _cmd_tensor_check(settings: Settings, args, say) -> int:
    """deformation-algebra identity suite"""
    if args.seed is not None:
        settings = Settings({**settings.values, "run.seed": args.seed})
    seed = settings["run.seed"]
    report = tensor_check(seed=seed, params=settings.physics())
    payload = dict(report)
    payload["seed"] = seed
    with _writing(args.out):
        write_summary(args.out / "tensor_check.json", payload)
    n = report["cofactor_identity_draws"]
    worst = report["cofactor_identity_rel_max"]
    # the worst draw decides: within the bound, every draw is
    verdict = (f"PASS, {n}/{n} draws within" if worst <= 1e-12
               else f"FAIL, at least 1/{n} draws over")
    say(f"cofactor identity: max rel {worst:.2e} over {n} draws "
        f"(<= 1e-12) {verdict}")
    say(f"cofactor divergence orders: "
        f"{['%.2f' % o for o in report['cofactor_divergence_orders']]}")
    say(f"stress equivalence rel: {report['stress_equivalence_rel_max']:.2e}")
    say(f"force identity order: {report['force_identity_order']:.2f}")
    say("tensor-check: " + ("PASS" if report["passed"] else "FAIL"))
    return EXIT_OK if report["passed"] else EXIT_FAILED


def _cmd_gaussian_accept(settings: Settings, args, say) -> int:
    """full closed-form benchmark acceptance run"""
    t0 = time.perf_counter()
    checks, details = gaussian_accept(settings)
    all_ok = all(c.passed for c in checks)
    payload = {
        "checks": [dataclasses.asdict(c) for c in checks],
        "details": details,
        "passed": all_ok,
    }
    with _writing(args.out):
        write_summary(args.out / "acceptance.json", payload)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        say(f"criterion {c.criterion:2d} {c.name}: {c.value:.3e} "
            f"({c.op} {c.tolerance:.1e}) {status}", always=True)
    say(f"gaussian-accept finished in {time.perf_counter() - t0:.1f}s: "
        + ("ALL PASS" if all_ok else "FAILURES PRESENT"))
    return EXIT_OK if all_ok else EXIT_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        settings = (Settings.from_file(args.config) if args.config
                    else Settings.defaults())
        return args.handler(settings, args, _printer(args.quiet))
    except ValidationError as exc:
        _emit(f"error: {exc}", sys.stderr)
        return EXIT_VALIDATION
    except QflowError as exc:
        _emit(f"numerical abort: {exc}", sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
