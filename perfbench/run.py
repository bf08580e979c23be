#!/usr/bin/env python3
"""coretune benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_dense --seed 1 --seconds 30 --trace 0

Workloads (inputs are generated from --seed before timing; see workloads.py):

  grid_imbalanced   coretune.tuner.run_grid in-process on the criterion-5
                    grid, serially and with nproc pool workers
  cli_dense         split -> score -> build -> tune -> refine -> report, each
                    command its own ``python -m coretune.cli`` process
  cli_sparse_lewis  the same chain on sparse LIBSVM input with Lewis scores

The load is a closed loop with one caller: an operation starts only after
the previous one returned. With ``--trace 0`` the run repeats the workload's
operation while another one fits in ``--seconds`` and reports the end-to-end
metrics as medians over the iterations. With ``--trace 1`` it makes one
untraced and one traced pass in-process and reports the per-layer metrics.

Every run checks the outputs: exit codes, serial against parallel run_grid,
byte-identical artifacts across iterations and across runs of the same seed.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (run metadata,
samples, digests, checks) is written to ``.perfbench_runs/results/`` and the
traced run's spans to ``.perfbench_runs/results/*.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

END_TO_END = {"setup_s": "s", "chain_s": "s", "tune_cells_per_s": "1/s",
              "peak_rss_mb": "MB"}
# Printed and recorded but not gated. The pool runs only on grid_imbalanced,
# and a gated metric must exist on every workload. The quality numbers
# repeat exactly for a seed, but between seeds F1 on a 90/10 validation split
# spreads by about 20% of its median, wider than a bound may be; a
# difference can be 0 or change sign; refine does not run on grid_imbalanced.
RECORDED = {"tune_cells_per_s_par": "1/s",
            "best_val_f1": "frac", "tuned_minus_vanilla_test_f1": "frac",
            "refined_val_f1": "frac", "loss_ratio_err": "frac",
            "failed_frac": "frac"}

SETUP_IMPORTS = 3
# Every child process must end inside the 180 s a run may take.
DEADLINE_S = 170.0
_START = time.perf_counter()


class Tally:
    """Operations attempted and failed, and the named correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += int(failed)

    def check(self, name: str, ok: bool) -> None:
        self.ops(1, not ok)
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def remaining() -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - _START))


def another_fits(start: float, seconds: float, last: float) -> bool:
    return time.perf_counter() - start + last <= seconds


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb(include_self: bool) -> float:
    """Highest RSS of any waited-for child (and of this process if asked).
    Linux reports ru_maxrss in KiB, propagates it from grandchildren, and
    starts a child's figure at this process's RSS when it was spawned; that
    stays well below the commands' peaks because the CLI workloads import
    coretune here only after their timed part."""
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kib = max(kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kib / 1024.0


def time_imports(env: dict, cwd: Path, count: int) -> list[float]:
    """Wall time of fresh interpreters running ``import coretune``. One
    extra import first compiles the bytecode and is not counted."""
    times = []
    for _ in range(count + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import coretune"], cwd=cwd, env=env,
                       check=True, timeout=remaining())
        times.append(time.perf_counter() - t0)
    return times[1:]


def check_digests(tally: Tally, workload: str, seed: int, digests: dict) -> None:
    """Artifacts of a seed must match those of every earlier run of it in
    this checkout, traced or not."""
    path = RUNS / "digests" / f"{workload}-s{seed}.json"
    if path.exists():
        tally.check("artifacts_match_earlier_runs",
                    json.loads(path.read_text()) == digests)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def probe_rss(env: dict, train_split, work: Path, provider: str, params: dict) -> float:
    """sensitivity.rss_delta_mb: see probe_rss.py."""
    import numpy as np

    path = work / "train.npz"
    features = train_split.features
    if isinstance(features, np.ndarray):
        arrays = {"dense": features}
    else:
        arrays = {"data": features.data, "indices": features.indices,
                  "indptr": features.indptr, "shape": np.asarray(features.shape)}
    np.savez(path, labels=train_split.labels, weights=train_split.weights,
             point_ids=train_split.point_ids, **arrays)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "probe_rss.py"), str(path),
         provider, json.dumps(params)],
        env=env, check=True, capture_output=True, text=True, timeout=remaining())
    return json.loads(proc.stdout.strip().splitlines()[-1])["rss_delta_mb"]


def loss_ratio_err(train_split, scores, sampler_config) -> float:
    """|coreset / full weighted logistic loss - 1| at a full-data model."""
    from coretune import TrainConfig, build_coreset, train, weighted_loss

    coreset = build_coreset(train_split, scores, sampler_config)
    X, y, w = coreset.materialize(train_split)
    model = train(train_split.features, train_split.labels, train_split.weights,
                  TrainConfig(**workloads.TRAIN))
    full = weighted_loss(model, train_split.features, train_split.labels,
                         train_split.weights)
    return abs(weighted_loss(model, X, y, w) / full - 1.0)


# ---------------------------------------------------------------- grid


def grid_inputs(seed: int):
    from coretune import Dataset, GridSpec, stratified_split

    X, y = workloads.grid_problem(seed)
    splits = stratified_split(Dataset(X, y), workloads.FRACTIONS, seed)
    return splits, GridSpec(base_seed=seed, **workloads.GRID_AXES)


def trials_digest(result, path: Path) -> str:
    from coretune.tuner import trials_to_csv

    trials_to_csv(result, path)
    return sha256(path)


def grid_untraced(workload, seed, seconds, work, env, tally, record) -> dict:
    from coretune import TrainConfig, compute_scores, run_grid

    splits, grid = grid_inputs(seed)
    workers = record["meta"]["workers"]
    cells = workloads.CELLS["grid_imbalanced"]
    serial_s, parallel_s, digests = [], [], set()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        serial = run_grid(splits, grid, TrainConfig(), workers=1)
        t1 = time.perf_counter()
        parallel = run_grid(splits, grid, TrainConfig(), workers=workers)
        t2 = time.perf_counter()
        serial_s.append(t1 - t0)
        parallel_s.append(t2 - t1)
        for result in (serial, parallel):
            tally.ops(len(result.trials) + len(result.failures), len(result.failures))
        digest = trials_digest(serial, work / "trials.csv")
        tally.check("serial_equals_parallel",
                    digest == trials_digest(parallel, work / "trials_parallel.csv"))
        digests.add(digest)
        if not another_fits(start, seconds, t2 - t0):
            break
    peak = peak_rss_mb(include_self=True)
    tally.check("all_cells_ran", len(serial.trials) + len(serial.failures) == cells)
    tally.check("identical_across_iterations", len(digests) == 1)
    record["digests"] = {"trials.csv": digest}
    check_digests(tally, "grid_imbalanced", seed, record["digests"])
    record["samples"] = {"serial_s": serial_s, "parallel_s": parallel_s}

    best = serial.best
    vanilla = next(t for t in serial.trials
                   if t.vanilla and t.coreset_ratio == best.coreset_ratio)
    scores = compute_scores(grid.sensitivity_provider, splits.train,
                            **grid.provider_params)
    return {
        "chain_s": statistics.median(s + p for s, p in zip(serial_s, parallel_s)),
        "tune_cells_per_s": statistics.median(cells / s for s in serial_s),
        "tune_cells_per_s_par": statistics.median(cells / p for p in parallel_s),
        "peak_rss_mb": peak,
        "best_val_f1": best.validation.f1,
        "tuned_minus_vanilla_test_f1": best.test.f1 - vanilla.test.f1,
        "loss_ratio_err": loss_ratio_err(splits.train, scores, best.config),
    }


def grid_traced(workload, seed, seconds, work, env, tally, record):
    from coretune import TrainConfig, run_grid

    splits, grid = grid_inputs(seed)
    workers = record["meta"]["workers"]

    def timed(fn, n_workers):
        t0 = time.perf_counter()
        result = fn(splits, grid, TrainConfig(), workers=n_workers)
        return result, time.perf_counter() - t0

    # Untraced serial passes on both sides of the traced one, so warm-up
    # cost does not land on one side of the overhead ratio.
    _, untraced_1 = timed(run_grid, 1)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    tracer.run_id = f"grid_imbalanced-s{seed}-run_grid"
    try:
        result, traced = timed(tracer.wrap(run_grid, "tuner.run_grid",
                                           tracing.grid_info), 1)
    finally:
        restore()
    _, untraced_2 = timed(run_grid, 1)
    _, parallel = timed(run_grid, workers)
    untraced = (untraced_1 + untraced_2) / 2
    tally.ops(len(result.trials) + len(result.failures), len(result.failures))
    record["digests"] = {"trials.csv": trials_digest(result, work / "trials.csv")}
    check_digests(tally, "grid_imbalanced", seed, record["digests"])

    extra = {
        "cli.import_s": 0.0,
        "data.split_bytes": 0,
        "sensitivity.rss_delta_mb": probe_rss(env, splits.train, work,
                                              grid.sensitivity_provider,
                                              grid.provider_params),
        "tuner.parallel_speedup": untraced / parallel,
        "tuner.parallel_efficiency": untraced / parallel / workers,
        "trace_overhead_frac": traced / untraced - 1.0,
    }
    record["samples"] = {"untraced_serial_s": [untraced_1, untraced_2],
                         "traced_serial_s": [traced], "parallel_s": [parallel]}
    return tracer, traced, extra


# ---------------------------------------------------------------- cli


def cli(env: dict, work: Path, config: str, *args: str) -> int:
    """Run one ``coretune`` command as its own process; return its exit code."""
    command = [sys.executable, "-m", "coretune.cli", *args, "--config", config]
    try:
        proc = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=remaining())
    except subprocess.TimeoutExpired:
        print(f"timed out: coretune {' '.join(args)}", file=sys.stderr)
        return -1
    if proc.returncode != 0:
        print(f"coretune {' '.join(args)} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
    return proc.returncode


def artifact_digests(out: Path) -> dict:
    return {name: sha256(out / name) if (out / name).is_file() else None
            for name in workloads.HASHED_ARTIFACTS}


def csv_rows(path: Path) -> list[dict]:
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def cli_quality(workload: str, work: Path, tally: Tally) -> dict:
    """Quality numbers from the artifacts, after the timed part."""
    from coretune.data import load_split_bundle
    from coretune.sampler import SamplerConfig
    from coretune.sensitivity import SensitivityScores

    out = work / "out"
    config = json.loads((work / "config.json").read_text())
    best = json.loads((out / "best_config.json").read_text())
    trials = csv_rows(out / "trials.csv")
    tally.check("all_cells_ran", len(trials) == workloads.CELLS[workload])
    tally.check("comparison_rows", len(csv_rows(out / "comparison.csv")) == 8)
    top = next(r for r in trials if r["rank"] == "0")
    vanilla = next(r for r in trials
                   if r["vanilla"] == "1" and r["coreset_ratio"] == top["coreset_ratio"])
    trace = csv_rows(out / "refine_trace.csv")
    refined = (float(trace[-1]["phi_after"]) if trace[-1]["decision"] == "kept_refined"
               else float(trace[0]["phi_before"]))

    bundle, _ = load_split_bundle(out / "splits")
    scored = csv_rows(out / "scores.csv")
    tally.check("scores_cover_train",
                [int(r["point_id"]) for r in scored] == bundle.train.point_ids.tolist())
    values = [float(r["sensitivity"]) for r in scored]
    scores = SensitivityScores(values, float(sum(values)),
                               config["sensitivity"]["provider"])
    sampler = dict(best["sampler"])
    if isinstance(sampler["class_allocation"], dict):
        sampler["class_allocation"] = {int(k): v for k, v in
                                       sampler["class_allocation"].items()}
    return {
        "best_val_f1": best["validation"]["f1"],
        "tuned_minus_vanilla_test_f1": float(top["test_f1"]) - float(vanilla["test_f1"]),
        "refined_val_f1": refined,
        "loss_ratio_err": loss_ratio_err(bundle.train, scores,
                                         SamplerConfig(**sampler)),
    }


def cli_untraced(workload, seed, seconds, work, env, tally, record) -> dict:
    config = workloads.write_cli_inputs(workload, seed, str(work))
    out = work / "out"
    cells = workloads.CELLS[workload]
    chain_s, per_command, digests = [], {c: [] for c in workloads.CLI_COMMANDS}, []

    def timed_cli(command):
        t0 = time.perf_counter()
        code = cli(env, work, config, command)
        tally.ops(1, code != 0)
        return time.perf_counter() - t0

    # Whole chains while another chain fits, then lone tune commands for the
    # rest of the time, so the tune rate rests on more than one sample.
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        for command in workloads.CLI_COMMANDS:
            per_command[command].append(timed_cli(command))
        chain_s.append(time.perf_counter() - t0)
        digests.append(artifact_digests(out))
        if not another_fits(start, seconds, chain_s[-1]):
            break
    tune_s = list(per_command["tune"])
    while another_fits(start, seconds, tune_s[-1]):
        tune_s.append(timed_cli("tune"))
        digests.append(artifact_digests(out))
    peak = peak_rss_mb(include_self=False)
    tally.check("artifacts_present", None not in digests[0].values())
    tally.check("identical_across_iterations", all(d == digests[0] for d in digests))
    record["digests"] = digests[0]
    check_digests(tally, workload, seed, digests[0])
    record["samples"] = {"chain_s": chain_s, "command_s": per_command,
                         "tune_s": tune_s}
    metrics = {
        "chain_s": statistics.median(chain_s),
        "tune_cells_per_s": statistics.median(cells / t for t in tune_s),
        "peak_rss_mb": peak,
    }
    if tally.checks["artifacts_present"]:
        metrics.update(cli_quality(workload, work, tally))
    return metrics


def cli_traced(workload, seed, seconds, work, env, tally, record):
    config = workloads.write_cli_inputs(workload, seed, str(work))
    os.chdir(work)
    t0 = time.perf_counter()
    cli_module = importlib.import_module("coretune.cli")
    import_s = time.perf_counter() - t0

    # Every command is idempotent, so each runs twice in-process: untraced
    # and traced, alternating which goes first to spread warm-up cost.
    tracer = tracing.Tracer()
    traced = untraced = 0.0
    for i, command in enumerate(workloads.CLI_COMMANDS):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            argv = [command, "--config", config]
            t0 = time.perf_counter()
            if with_trace:
                restore = tracing.install(tracer)
                tracer.run_id = f"{workload}-s{seed}-{command}"
                try:
                    with tracer.span(f"cli.{command}"):
                        code = cli_module.main(argv)
                finally:
                    restore()
                traced += time.perf_counter() - t0
            else:
                code = cli_module.main(argv)
                untraced += time.perf_counter() - t0
            tally.ops(1, code != 0)
    out = work / "out"
    digests = artifact_digests(out)
    tally.check("artifacts_present", None not in digests.values())
    record["digests"] = digests
    check_digests(tally, workload, seed, digests)

    sensitivity = json.loads((work / config).read_text())["sensitivity"]
    bundle, _ = importlib.import_module("coretune.data").load_split_bundle(out / "splits")
    extra = {
        "cli.import_s": import_s,
        "data.split_bytes": sum(f.stat().st_size for f in (out / "splits").iterdir()),
        "sensitivity.rss_delta_mb": probe_rss(env, bundle.train, work,
                                              sensitivity["provider"],
                                              sensitivity["params"]),
        "tuner.parallel_speedup": 0.0,
        "tuner.parallel_efficiency": 0.0,
        "trace_overhead_frac": traced / untraced - 1.0,
    }
    record["samples"] = {"untraced_chain_s": [untraced], "traced_chain_s": [traced]}
    return tracer, traced, extra


# ---------------------------------------------------------------- metadata


def git_sha() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def blas_info() -> dict:
    """BLAS vendor from numpy's build record, and the thread count OpenBLAS
    reports in this process. Neither is changed by the benchmark."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None,
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def metadata() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        # The pool never has more workers than CPUs this process may use.
        "workers": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "coretune").glob("*.py"))),
    }


RUNNERS = {
    ("grid_imbalanced", 0): grid_untraced,
    ("grid_imbalanced", 1): grid_traced,
    ("cli_dense", 0): cli_untraced,
    ("cli_dense", 1): cli_traced,
    ("cli_sparse_lewis", 0): cli_untraced,
    ("cli_sparse_lewis", 1): cli_traced,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coretune" / "__init__.py").is_file():
        print(f"error: no coretune package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH"))
                                        if p)
    work = RUNS / "work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "shape": workloads.SHAPES[args.workload],
              "meta": metadata()}
    setup = time_imports(env, work, 0 if args.trace else SETUP_IMPORTS)
    runner = RUNNERS[(args.workload, args.trace)]
    run_args = (args.workload, args.seed, args.seconds, work, env, tally, record)
    if args.trace:
        tracer, wall, extra = runner(*run_args)
        spans = RUNS / "results" / f"{args.workload}-s{args.seed}.spans.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(spans))
        values = tracing.layer_metrics(tracer.spans, wall, extra)
        units = tracing.PER_LAYER_METRICS
        shown = units
    else:
        values = runner(*run_args)
        values["setup_s"] = statistics.median(setup)
        values["failed_frac"] = tally.failed / max(1, tally.attempted)
        record["samples"]["setup_s"] = setup
        units = {**END_TO_END, **RECORDED}
        shown = END_TO_END
    record.update(metrics=values, checks=tally.checks, attempted=tally.attempted,
                  failed=tally.failed)
    result_path = RUNS / "results" / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, unit in units.items():
        if name in values:
            print(f"{name:40s} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
