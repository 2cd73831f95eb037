"""qflow benchmark driver.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists is recorded in ``inputs.WHY``): free_gauss,
two_hump, particles, tensor_grid.  The driver writes the seeded inputs,
then runs the workload in fresh child processes, one at a time, with
``QFLOW_THREADS=1`` (the plain single-threaded baseline):

* ``N_SETUP`` set-up-only children, and the set-up of every workload
  child, give ``setup_s``: child start until the inputs are ready;
* with ``--trace 0``, workload children repeat until ``--seconds`` have
  passed (at least one); their medians give the end-to-end metrics;
* with ``--trace 1``, one untraced child and ``TRACED_RUNS`` traced
  children give the per-layer metrics and ``trace.overhead_s``.

Both times are corrected for the host's speed while they ran (the child's
``speed.Probe``; NOTES.md), and the uncorrected medians are printed too.

Every child is checked: a child that raises, exits non-zero, misses its
accuracy gate or writes an output whose sha256 differs from the first run
of the same workload, seed and source (recorded under
``.perfbench_runs/hashes``, so reruns of a set are compared too) counts
as failed.  The traced run also checks that its counts repeat exactly and
match ``t_final / dt`` of the inputs.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Exit status 0 means
every check held.  perfbench/NOTES.md describes the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, WHY, write_inputs

HERE = Path(__file__).resolve().parent
N_SETUP = 3           # set-up-only children per run
TRACED_RUNS = 2       # counts must repeat exactly between these
DEADLINE_S = 170.0    # a run ends well inside the 180 s limit
RUNS_DIR = ".perfbench_runs"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("psi_err", "1"))


def _span(name, field):
    return lambda spans, counters: spans.get(name, {}).get(field, 0)


def _counter(key):
    return lambda spans, counters: counters.get(key, 0)


def _per_step_us(span, steps):
    def get(spans, counters):
        n = counters.get(steps, 0)
        return spans[span]["total_s"] / n * 1e6 if n else 0.0
    return get


# (name, unit, value from one traced child's spans and counters).  A layer a
# workload never calls reads 0 there (the bypass case).
PER_LAYER = (
    ("stencils.derivative.calls", "count", _span("stencils.derivative", "count")),
    ("stencils.derivative.self_s", "s", _span("stencils.derivative", "self_s")),
    ("stencils.derivative.median_us", "us", _span("stencils.derivative", "median_us")),
    ("stencils.derivative.p99_us", "us", _span("stencils.derivative", "p99_us")),
    ("stencils.derivative.bytes_computed", "B",
     _counter("stencils.derivative.bytes_computed")),
    ("lagrangian.evolve.self_s", "s", _span("lagrangian.evolve", "self_s")),
    ("lagrangian.steps", "count", _counter("lagrangian.steps")),
    ("lagrangian.step_us", "us", _per_step_us("lagrangian.evolve", "lagrangian.steps")),
    ("lagrangian.rhs_evals", "count", _span("lagrangian.ModeProjector", "count")),
    ("lagrangian.ModeProjector.self_s", "s", _span("lagrangian.ModeProjector", "self_s")),
    ("lagrangian.energy_of.calls", "count", _span("lagrangian.energy_of", "count")),
    ("lagrangian.energy_of.s", "s", _span("lagrangian.energy_of", "total_s")),
    ("reconstruction.reconstruct_wavefunction.calls", "count",
     _span("reconstruction.reconstruct_wavefunction", "count")),
    ("reconstruction.reconstruct_wavefunction.s", "s",
     _span("reconstruction.reconstruct_wavefunction", "total_s")),
    ("reconstruction.invert_map.calls", "count", _span("reconstruction.invert_map", "count")),
    ("reconstruction.invert_map.self_s", "s", _span("reconstruction.invert_map", "self_s")),
    ("reconstruction.phase_consistency_deviation.s", "s",
     _span("reconstruction.phase_consistency_deviation", "total_s")),
    ("spectral.split_step_evolve.s", "s", _span("spectral.split_step_evolve", "total_s")),
    ("spectral.steps", "count", _counter("spectral.steps")),
    ("spectral.reference_fields.s", "s", _span("spectral.reference_fields", "total_s")),
    ("qtm.qtm_evolve.s", "s", _span("qtm.qtm_evolve", "total_s")),
    ("qtm.steps", "count", _counter("qtm.steps")),
    ("qtm.step_us", "us", _per_step_us("qtm.qtm_evolve", "qtm.steps")),
    ("qtm.mwls_derivatives.s", "s", _span("qtm.mwls_derivatives", "total_s")),
    ("kinematics.cofactor_matrix.s", "s", _span("kinematics.cofactor_matrix", "total_s")),
    ("kinematics.stress_eulerian.s", "s", _span("kinematics.stress_eulerian", "total_s")),
    ("kinematics.quantum_potential.s", "s", _span("kinematics.quantum_potential", "total_s")),
    ("pipeline.tensor_check.self_s", "s", _span("pipeline.tensor_check", "self_s")),
    ("pipeline.run_lagrangian.s", "s", _span("pipeline.run_lagrangian", "total_s")),
    ("pipeline.run_reference.s", "s", _span("pipeline.run_reference", "total_s")),
    ("pipeline.run_qtm.s", "s", _span("pipeline.run_qtm", "total_s")),
    ("pipeline.compare_fields.s", "s", _span("pipeline.compare_fields", "total_s")),
    ("output.write_trajectories.s", "s", _span("output.write_trajectories", "total_s")),
    ("output.write_fields.s", "s", _span("output.write_fields", "total_s")),
    ("output.read_fields.s", "s", _span("output.read_fields", "total_s")),
    ("output.bytes_written", "B", _counter("output.bytes_written")),
)
# measured by the driver from the children, not from spans
DRIVER_LAYER = (("setup.import_s", "s"), ("config.load_s", "s"),
                ("trace.overhead_s", "s"), ("failed_frac", "1"))


def _median(values):
    return statistics.median(values) if values else math.nan


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (math.nan, math.nan)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Run:
    """One benchmark run: the children of one workload and seed."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.trace = trace
        self.dir = root / RUNS_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        write_inputs(workload, seed, self.dir)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), QFLOW_THREADS="1")
        self.start = time.monotonic()
        self.children: list[dict] = []
        source = hashlib.sha256()
        for path in sorted([*(root / "src" / "qflow").rglob("*.py"),
                            *HERE.glob("*.py")]):
            source.update(path.relative_to(root).as_posix().encode())
            source.update(path.read_bytes())
        self.hash_file = (root / RUNS_DIR / "hashes"
                          / f"{workload}-seed{seed}-{source.hexdigest()[:16]}.json")
        self.hash_file.parent.mkdir(exist_ok=True)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, mode: str, traced: bool = False) -> dict:
        out = self.dir / f"{len(self.children):02d}-{mode}{'-traced' if traced else ''}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--mode", mode, "--trace", str(int(traced)),
               "--inputs", str(self.dir), "--out", str(out)]
        spawned = time.monotonic()
        with open(out / "child.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        result_file = out / "result.json"
        if result_file.is_file():
            res = json.loads(result_file.read_text(encoding="utf-8"))
        else:
            res = {"failure": "timeout" if code is None else "traceback",
                   "detail": f"no result (exit status {code}); see {out / 'child.log'}"}
        res.update(mode=mode, traced=traced, name=out.name,
                   elapsed_s=time.monotonic() - spawned)
        if "t_ready" in res:
            res["setup_raw_s"] = res["t_ready"] - spawned - res["setup_probe_s"]
            res["setup_s"] = res["setup_raw_s"] / res["setup_slowdown"]
        if mode == "run" and res["failure"] is None:
            self._compare_outputs(res)
        self.children.append(res)
        self._report(res)
        return res

    def _compare_outputs(self, res: dict) -> None:
        if not self.hash_file.is_file():
            self.hash_file.write_text(json.dumps(res["outputs"], indent=1) + "\n",
                                      encoding="utf-8")
            return
        first = json.loads(self.hash_file.read_text(encoding="utf-8"))
        if first != res["outputs"]:
            res["failure"] = "hash mismatch"
            res["detail"] = f"outputs differ from those recorded in {self.hash_file}"

    def _report(self, res: dict) -> None:
        parts = [f"[{res['name']}]"]
        for key, unit in (("setup_s", " s"), ("setup_raw_s", " s"), ("setup_slowdown", ""),
                          ("wall_s", " s"), ("wall_raw_s", " s"), ("run_slowdown", ""),
                          ("rss_mb", " MB")):
            if key in res:
                parts.append(f"{key} {res[key]:.4f}{unit}")
        parts.append("ok" if res["failure"] is None else f"FAILED ({res['failure']})")
        print(", ".join(parts), flush=True)
        if res.get("detail"):
            print("    " + res["detail"].rstrip().replace("\n", "\n    "), flush=True)

    def runs(self, traced=None) -> list[dict]:
        return [c for c in self.children if c["mode"] == "run"
                and (traced is None or c["traced"] == traced)]


def _measure(run: Run, seconds: float) -> None:
    for _ in range(N_SETUP):
        run.child("setup")
    if run.trace:
        for traced in [False] + [True] * TRACED_RUNS:
            run.child("run", traced=traced)
        return
    began = time.monotonic()
    longest = 0.0
    while True:
        longest = max(longest, run.child("run")["elapsed_s"])
        if (time.monotonic() - began >= seconds
                or run.remaining() < 1.5 * longest):
            break


def _end_to_end(run: Run) -> dict:
    good = [c for c in run.runs(traced=False) if c["failure"] is None]
    setups = [c["setup_s"] for c in run.children if "setup_s" in c]
    samples = {
        "wall_s": [c["wall_s"] for c in good],
        "setup_s": setups,
        "peak_rss_mb": [c["rss_mb"] for c in good],
        "psi_err": [c["psi_err"] for c in good],
    }
    print(f"end-to-end metrics, {run.workload} (QFLOW_THREADS=1):")
    metrics = {}
    for name, unit in END_TO_END:
        vals = samples[name]
        med = _median(vals)
        q1, q3 = _quartiles(vals)
        print(f"  {name} = {med!r} {unit}  (n = {len(vals)}, q1 = {q1!r}, q3 = {q3!r})")
        metrics[name] = {"value": med, "unit": unit}
    for name, key, vals in (("wall_s", "wall_raw_s", good), ("setup_s", "setup_raw_s",
                                                            run.children)):
        raw = [c[key] for c in vals if key in c]
        print(f"  ({name} before the host-speed correction: {_median(raw)!r} s)")
    return metrics


def _per_layer(run: Run, failed_frac: float) -> tuple[dict, list[str]]:
    """Per-layer medians over the traced children, and the failed checks."""
    problems = []
    traced = [c for c in run.runs(traced=True) if "trace" in c]
    per_child = [{name: get(c["trace"]["spans"], c["trace"]["counters"])
                  for name, _, get in PER_LAYER} for c in traced]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        vals = [m[name] for m in per_child]
        repeats = len(set(vals)) == 1
        if unit in ("count", "B") and not repeats:
            problems.append(f"{name} differs between traced runs: {vals}")
        value = vals[0] if unit in ("count", "B") and repeats else _median(vals)
        metrics[name] = {"value": value, "unit": unit}
    for child, m in zip(traced, per_child):
        for key, want in child["expected_counts"].items():
            if m[key] != want:
                problems.append(f"{key} = {m[key]}, inputs imply t_final / dt = {want}")
        if m["lagrangian.rhs_evals"] != 4 * m["lagrangian.steps"]:
            problems.append(f"lagrangian.rhs_evals = {m['lagrangian.rhs_evals']} "
                            f"is not 4 x lagrangian.steps = {m['lagrangian.steps']}")
    if not traced:
        problems.append("no traced child finished")

    setups = [c for c in run.children if "import_s" in c]
    untraced = [c["wall_s"] for c in run.runs(traced=False) if "wall_s" in c]
    overhead = _median([c["wall_s"] for c in traced]) - _median(untraced)
    driver = {"setup.import_s": _median([c["import_s"] for c in setups]),
              "config.load_s": _median([c["config_load_s"] for c in setups
                                        if "config_load_s" in c]),
              "trace.overhead_s": overhead, "failed_frac": failed_frac}
    for name, unit in DRIVER_LAYER:
        metrics[name] = {"value": driver[name], "unit": unit}

    print(f"spans, {run.workload} (first traced run):")
    if traced:
        spans = traced[0]["trace"]["spans"]
        for name in sorted(spans, key=lambda n: -spans[n]["self_s"]):
            s = spans[name]
            print(f"  {name:45s} n = {s['count']:>7d}  total {s['total_s']:9.4f} s"
                  f"  self {s['self_s']:9.4f} s  median {s['median_us']:9.2f} us"
                  f"  p99 {s['p99_us']:9.2f} us")
    print(f"per-layer metrics (median of {len(traced)} traced runs):")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    return metrics, problems


def _finite(metrics: dict) -> dict:
    return {k: {"value": v["value"] if math.isfinite(v["value"]) else None,
                "unit": v["unit"]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qflow benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qflow" / "__init__.py").is_file():
        print(f"perfbench: no qflow source at {root / 'src' / 'qflow'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    print(f"workload {args.workload} (seed {args.seed}): {WHY[args.workload]}")
    run = Run(root, args.workload, args.seed, bool(args.trace))
    _measure(run, args.seconds)

    attempted = len(run.runs())  # _measure starts at least one
    failures = [c for c in run.children if c["failure"] is not None]
    failed = sum(1 for c in failures if c["mode"] == "run")
    failed_frac = failed / attempted
    classes = sorted({c["failure"] for c in failures})
    print(f"failed_frac = {failed_frac!r} 1  ({failed} of {attempted} workload "
          f"runs; {len(failures)} failed children"
          + (f": {', '.join(classes)})" if classes else ")"))

    metrics = _end_to_end(run)
    problems = []
    if run.trace:
        metrics, problems = _per_layer(run, failed_frac)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": _finite(metrics)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
