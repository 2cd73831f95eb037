"""One benchmark child process: set up a workload, optionally run it.

Started by ``perfbench/run.py`` from the repository root, with ``src`` on
``PYTHONPATH`` and ``QFLOW_THREADS=1``; it writes ``result.json`` into its
``--out`` directory:

* ``--mode setup`` stops once the inputs are ready (set-up samples);
* ``--mode run`` also runs the workload, times it, applies the accuracy
  gate and hashes every output file; ``--trace 1`` runs it under the span
  tracer and adds the trace summary.

``qflow`` is imported before anything numeric, so the ``QFLOW_THREADS``
cap reaches the numeric libraries.

A host-speed probe (``speed.py``) runs from the start of the child until
the workload ends; ``setup_slowdown`` and ``run_slowdown`` are its
readings over set-up and over the run, and ``wall_s`` is the run's wall
time (``wall_raw_s``, probe time taken off) corrected by it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SETUP, Probe, run_mode


def _hashes(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _run(args, result: dict, probe: Probe) -> None:
    t_start = time.monotonic()
    probe.use(SETUP)
    t0 = time.perf_counter()
    import qflow
    import qflow.cli  # noqa: F401  (part of the import cost of CLI workloads)
    result["import_s"] = time.perf_counter() - t0
    expected = (Path.cwd() / "src" / "qflow").resolve()
    if Path(qflow.__file__).resolve().parent != expected:
        raise RuntimeError(f"imported qflow from {qflow.__file__}, not {expected}")

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    t1 = time.perf_counter()
    ctx = workload.setup(Path(args.inputs))
    result["config_load_s"] = time.perf_counter() - t1
    result["t_ready"] = time.monotonic()
    result["setup_probe_s"] = probe.spent
    result["setup_slowdown"] = probe.slowdown(t_start, result["t_ready"])
    if args.mode == "setup":
        return
    result["expected_counts"] = workload.expected_counts(ctx)

    outputs = Path(args.out) / "outputs"
    outputs.mkdir()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(run_id=Path(args.out).name)
        tracer.install()
    probe.use(run_mode())
    spent = probe.spent
    t_run = time.monotonic()
    t2 = time.perf_counter()
    code = workload.run(ctx, outputs)
    result["wall_raw_s"] = time.perf_counter() - t2 - (probe.spent - spent)
    probe.stop()
    result["run_slowdown"] = probe.slowdown(t_run, time.monotonic())
    result["wall_s"] = result["wall_raw_s"] / result["run_slowdown"]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.save(Path(args.out) / "spans.npz")
    if code:
        result["failure"] = f"exit {code}"
        return
    ok, psi_err, detail = workload.check(ctx, outputs)
    result["psi_err"] = psi_err
    result["detail"] = detail
    if not ok:
        result["failure"] = "tolerance miss"
    result["outputs"] = _hashes(outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = {"failure": None}
    status = 0
    probe = Probe()
    try:
        _run(args, result, probe)
    except Exception:  # the driver classifies and reports every failure
        result["failure"] = "traceback"
        result["detail"] = traceback.format_exc()
        status = 1
    finally:
        probe.stop()
    Path(args.out, "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                             encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
