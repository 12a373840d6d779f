"""projsum benchmark: time to a verified result on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of check, brown, converge, or ``all``, which runs each
workload in its own process and prints every metric of every workload.
The benchmark imports projsum from ``src/`` next to this directory and fails
without a result when that tree is missing.

One run, in one process: set ``PROJSUM_THREADS`` and the OpenBLAS thread
count to ``THREADS``, set up projsum (and time that set-up in fresh
interpreters), generate the workload's inputs from ``--seed``, then make
``passes()`` passes over the workload: as many as fill ``--seconds`` at the
workload's reference pass time, at least one.  The pass count depends on the
arguments only, so the same arguments always attempt the same operations,
however fast the host runs.  Every operation goes through its correctness
gate inside the timed pass.

``--trace 0`` reports the end-to-end metrics from unpatched passes.
``--trace 1`` alternates traced and unpatched passes, starting with a traced
one, and reports per-layer metrics; the spans go to
``.perfbench_out/trace-<workload>-<seed>.json``.  Per-layer values are per
pass (median over traced passes); ``trace.overhead_s`` is the median traced
pass minus the median unpatched pass of the same run, so it also holds the
first pass's cold start and the pass-to-pass noise.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it start with ``#``
and give the machine facts and each metric with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import setup_probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = tuple(workloads.OPS)
SETUP_REPEATS = 3
# One thread for projsum's pool and for OpenBLAS.  On the 2-vCPU reference
# machine a second thread made check slower (n=200 is too small to split),
# left brown as it was, saved converge about 16 %, and doubled cpu_s
# through OpenBLAS spin-waits.
THREADS = 1
# seconds one unpatched pass takes on the reference machine (2 vCPUs of a
# shared Xeon host, THREADS threads); they fix the pass count only
PASS_SECONDS = {"check": 3.0, "brown": 11.5, "converge": 41.0}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# span name -> reported fields; a field missing from a pass's spans reads 0
LAYER_FIELDS = {
    "model.sample_haar_unitary": ("calls", "self_s", "work_n3"),
    "model.assemble_model": ("self_s",),
    "spectra.esd": ("calls", "self_s", "work_n3"),
    "spectra.structure_report": ("self_s",),
    "spectra.verify_sv_bound": ("calls", "self_s"),
    "convergence.corner_atom_masses": ("self_s",),
    "geometry.dist_to_hr_many": ("calls", "self_s", "points"),
    "hermitization.potential_grid": ("calls", "self_s", "node_atom_pairs", "perturbed_per_node"),
    "hermitization.sample_potential_grid": ("self_s",),
    "hermitization.laplacian_recover": ("self_s",),
    "convergence.bl_distance": ("calls", "self_s", "atoms_in"),
    "convergence.convergence_run": ("self_s",),
    "cli.main": ("calls", "self_s", "bytes_written"),
}
FIELD_UNITS = {
    "calls": "count", "self_s": "s", "work_n3": "count", "points": "count",
    "node_atom_pairs": "count", "perturbed_per_node": "ratio", "atoms_in": "count",
    "bytes_written": "B",
}
PER_LAYER = {
    **{f"{span}.{f}": FIELD_UNITS[f] for span, fields in LAYER_FIELDS.items() for f in fields},
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _bytes_written(result, argv, *args, **kwargs) -> dict:
    prefix = argv[argv.index("--out-prefix") + 1]
    return {"bytes_written": sum(os.path.getsize(p) for p in glob.glob(glob.escape(prefix) + ".*"))}


def _grid_counts(grid, measure, *args, **kwargs) -> dict:
    nodes = grid.nx * grid.ny
    return {
        "node_atom_pairs": nodes * measure.points.size,
        "nodes": nodes,
        "perturbed": len(grid.perturbations),
    }


def traced_targets():
    """Span name -> (projsum function, counter) for every traced call."""
    from projsum import cli, convergence, geometry, hermitization, model, spectra

    return {
        "model.sample_haar_unitary": (model.sample_haar_unitary, lambda r, n, *a, **k: {"work_n3": n**3}),
        "model.assemble_model": (model.assemble_model, None),
        "spectra.esd": (spectra.esd, lambda r, x, *a, **k: {"work_n3": x.n**3}),
        "spectra.structure_report": (spectra.structure_report, None),
        "spectra.verify_sv_bound": (spectra.verify_sv_bound, None),
        "geometry.dist_to_hr_many": (geometry.dist_to_hr_many, lambda r, *a, **k: {"points": r.size}),
        "hermitization.potential_grid": (hermitization.potential_grid, _grid_counts),
        "hermitization.sample_potential_grid": (hermitization.sample_potential_grid, None),
        "hermitization.laplacian_recover": (hermitization.laplacian_recover, None),
        # the root span of the brown workload; not reported on its own
        "hermitization.brown_pipeline": (hermitization.brown_pipeline, None),
        "convergence.corner_atom_masses": (convergence.corner_atom_masses, None),
        "convergence.bl_distance": (
            convergence.bl_distance,
            lambda r, mu1, mu2, *a, **k: {"atoms_in": mu1.points.size + mu2.points.size},
        ),
        "convergence.convergence_run": (convergence.convergence_run, None),
        "cli.main": (cli.main, _bytes_written),
    }


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy's wheel bundles, if any."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        get.argtypes = []
        get.restype = ctypes.c_int
        return int(get())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "PROJSUM_THREADS": os.environ.get("PROJSUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def _setup_seconds() -> float:
    """Set-up time of one fresh interpreter (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _run_op(op) -> str:
    try:
        return op()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return workloads.ERROR


def _pass_layers(tr, selfs, lo: int, hi: int) -> dict:
    totals = tracer.layer_totals(tr.spans[lo:hi], selfs[lo:hi])
    out = {}
    for span, fields in LAYER_FIELDS.items():
        entry = totals.get(span, {})
        for f in fields:
            if f == "perturbed_per_node":
                out[f"{span}.{f}"] = entry["perturbed"] / entry["nodes"] if entry else 0.0
            else:
                out[f"{span}.{f}"] = entry.get(f, 0)
    return out


def passes(workload: str, seconds: int, trace: bool) -> int:
    """Number of passes in one run; a traced run makes them in traced/unpatched pairs."""
    count = max(1, round(seconds / PASS_SECONDS[workload]))
    return 2 * max(1, round(count / 2)) if trace else count


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload in this process; returns the result object."""
    setup_probe.warm_up()
    setup_s = statistics.median(_setup_seconds() for _ in range(SETUP_REPEATS))
    facts = machine_facts()
    inputs = workloads.make_inputs(workload, seed)
    make_ops = workloads.OPS[workload]

    import projsum

    if Path(projsum.__file__).resolve().parent != SRC / "projsum":
        raise ImportError(f"projsum was imported from {projsum.__file__}, not from {SRC}")
    modules = [projsum, *(getattr(projsum, m) for m in ("model", "geometry", "spectra",
                                                        "hermitization", "convergence", "cli"))]
    targets = traced_targets() if trace else None
    tr = tracer.Tracer()
    done = []  # one dict per pass: traced, wall, cpu, t0, t1, span range
    outcomes = []
    OUT.mkdir(exist_ok=True)
    # a traced run starts with a traced pass, so the cold start of the
    # process counts against tracing in trace.overhead_s, never for it
    for i in range(passes(workload, seconds, trace)):
        traced = trace and i % 2 == 0
        restore = tracer.install(tr, modules, targets) if traced else None
        try:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                lo = len(tr.spans)
                c0, t0 = time.process_time(), time.perf_counter()
                for op in make_ops(inputs, Path(tmp)):
                    tr.op = len(outcomes)
                    outcomes.append(_run_op(op))
                t1, c1 = time.perf_counter(), time.process_time()
        finally:
            if restore is not None:
                restore()
        done.append({"traced": traced, "wall": t1 - t0, "cpu": c1 - c0,
                     "t0": t0, "t1": t1, "spans": (lo, len(tr.spans))})

    attempted = len(outcomes)
    failed = sum(o != workloads.OK for o in outcomes)
    correct = workloads.WRONG not in outcomes
    plain = [p for p in done if not p["traced"]]
    if not trace:
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        traced_passes = [p for p in done if p["traced"]]
        selfs = tracer.self_times(tr.spans)
        per_pass = [_pass_layers(tr, selfs, *p["spans"]) for p in traced_passes]
        metrics = {name: statistics.median(pp[name] for pp in per_pass) for name in per_pass[0]}
        metrics["trace.coverage"] = statistics.median(
            tracer.root_coverage(tr.spans[slice(*p["spans"])], p["t0"], p["t1"]) for p in traced_passes
        )
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced_passes)
            - statistics.median(p["wall"] for p in plain)
        )
        units = PER_LAYER
        dump = {
            "workload": workload, "seed": seed, "machine": facts, "passes": done,
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "self_s": self_s, "counts": s.counts}
                for s, self_s in zip(tr.spans, selfs)
            ],
        }
        (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(dump) + "\n", encoding="utf-8")

    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# workload {workload} seed {seed}: fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    print("# pass walls (s, * = traced): "
          + " ".join(f"{p['wall']:.3f}{'*' if p['traced'] else ''}" for p in done))
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]!r} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Every workload in its own process; metric names get a workload prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"workload {workload} exited {done.returncode}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "projsum" / "__init__.py").is_file():
        print(f"projsum sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        # read by OpenBLAS when NumPy loads it, and inherited by the set-up probes
        os.environ["OPENBLAS_NUM_THREADS"] = str(THREADS)
        os.environ["PROJSUM_THREADS"] = str(THREADS)
        sys.path.insert(0, str(SRC))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
