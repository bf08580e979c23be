"""Spans for the traced run, recorded from outside the program.

``install`` replaces each layer's public functions at the module that calls
them (``coretune.tuner.build_coreset``, ``coretune.cli.load_split_bundle``,
``Coreset.materialize``, ...) with a wrapper that records a span, and returns
a function that puts the originals back. Nothing under ``src/`` changes.
Spans stay in memory until ``write_jsonl``; ``layer_metrics`` turns them into
the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "data", "sensitivity", "sampler", "learners", "metrics",
          "refine", "tuner")

PER_LAYER_METRICS = {
    "cli.import_s": "s", "cli.split_s": "s", "cli.score_s": "s",
    "cli.build_s": "s", "cli.tune_s": "s", "cli.refine_s": "s",
    "cli.report_s": "s", "cli.self_s": "s",
    "data.parse_s": "s", "data.stratified_split_s": "s",
    "data.save_split_bundle_s": "s", "data.load_split_bundle_s": "s",
    "data.load_split_bundle_calls": "count", "data.split_bytes": "bytes",
    "data.subset_by_ids_s": "s", "data.subset_by_ids_calls": "count",
    "data.self_s": "s",
    "sensitivity.compute_scores_s": "s", "sensitivity.compute_scores_calls": "count",
    "sensitivity.rss_delta_mb": "MB", "sensitivity.converged": "frac",
    "sensitivity.ridge_fallback": "frac", "sensitivity.self_s": "s",
    "sampler.build_coreset_p50_s": "s", "sampler.build_coreset_p95_s": "s",
    "sampler.build_coreset_total_s": "s", "sampler.build_coreset_calls": "count",
    "sampler.unique_per_budget": "frac", "sampler.materialize_s": "s",
    "sampler.self_s": "s",
    "learners.train_p50_s": "s", "learners.train_p95_s": "s",
    "learners.train_total_s": "s", "learners.train_calls": "count",
    "learners.converged_frac": "frac", "learners.self_s": "s",
    "metrics.classification_report_s": "s",
    "metrics.classification_report_calls": "count", "metrics.self_s": "s",
    "refine.refine_s": "s", "refine.rounds": "count", "refine.train_calls": "count",
    "refine.kept_refined": "count", "refine.self_s": "s",
    "tuner.run_grid_s": "s", "tuner.self_s": "s", "tuner.cells": "count",
    "tuner.failed_cells": "count", "tuner.parallel_speedup": "x",
    "tuner.parallel_efficiency": "frac", "tuner.compare_to_baselines_s": "s",
    "tuner.refine_best_s": "s",
    "trace_overhead_frac": "frac", "uncovered_frac": "frac",
}

# A percentile is reported only when at least ten calls lie beyond it.
P95_MIN_CALLS = 200


class Tracer:
    """In-memory span recorder for one single-threaded process.

    Each span holds its name, start, end, the id of the span open when it
    began, and ``run``: the id of the operation (one CLI command or one
    run_grid call) that all of its spans share.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"run": self.run_id, "id": len(self.spans),
                  "parent": self._open[-1] if self._open else None,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if describe is not None:
                    record.update(describe(args, kwargs, result))
            return result
        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _scores_info(args, kwargs, scores):
    return {"converged": bool(scores.converged),
            "ridge_fallback": bool(scores.ridge_fallback)}


def _coreset_info(args, kwargs, coreset):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"unique": int(coreset.n_unique), "budget": int(config.coreset_size)}


def _model_info(args, kwargs, model):
    return {"converged": bool(model.converged)}


def _refine_info(args, kwargs, outcome):
    _, trace = outcome
    return {"rounds": len(trace.rounds), "decision": trace.decision}


def grid_info(args, kwargs, result):
    return {"cells": len(result.trials) + len(result.failures),
            "failed": len(result.failures)}


# (caller module, attribute, span name, describe). Each entry is where a
# caller looks the function up at call time, so wrapping it there is seen.
FUNCTION_TARGETS = (
    ("coretune.cli", "parse_csv", "data.parse", None),
    ("coretune.cli", "parse_libsvm", "data.parse", None),
    ("coretune.cli", "stratified_split", "data.stratified_split", None),
    ("coretune.cli", "save_split_bundle", "data.save_split_bundle", None),
    ("coretune.cli", "load_split_bundle", "data.load_split_bundle", None),
    ("coretune.cli", "compute_scores", "sensitivity.compute_scores", _scores_info),
    ("coretune.cli", "scores_to_csv", "sensitivity.scores_to_csv", None),
    ("coretune.cli", "build_coreset", "sampler.build_coreset", _coreset_info),
    ("coretune.cli", "coreset_to_csv", "sampler.coreset_to_csv", None),
    ("coretune.cli", "run_grid", "tuner.run_grid", grid_info),
    ("coretune.cli", "trials_to_csv", "tuner.trials_to_csv", None),
    ("coretune.cli", "compare_to_baselines", "tuner.compare_to_baselines", None),
    ("coretune.cli", "refine_best", "tuner.refine_best", None),
    # cmd_refine imports trace_to_csv from coretune.refine when it runs.
    ("coretune.refine", "trace_to_csv", "refine.trace_to_csv", None),
    ("coretune.tuner", "compute_scores", "sensitivity.compute_scores", _scores_info),
    ("coretune.tuner", "build_coreset", "sampler.build_coreset", _coreset_info),
    ("coretune.tuner", "train", "learners.train", _model_info),
    ("coretune.tuner", "decision_scores", "learners.decision_scores", None),
    ("coretune.tuner", "classification_report", "metrics.classification_report", None),
    ("coretune.tuner", "refine", "refine.refine", _refine_info),
    ("coretune.refine", "train", "learners.train", _model_info),
    ("coretune.refine", "decision_scores", "learners.decision_scores", None),
    ("coretune.refine", "classification_report", "metrics.classification_report",
     None),
)

# (module, class, method, span name)
METHOD_TARGETS = (
    ("coretune.sampler", "Coreset", "materialize", "sampler.materialize"),
    ("coretune.data", "Dataset", "subset_by_ids", "data.subset_by_ids"),
)


def install(tracer: Tracer):
    """Wrap every target; return a function that restores the originals."""
    saved = []
    for module_name, attr, name, describe in FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, describe))
    for module_name, cls_name, attr, name in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        saved.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, name))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def layer_metrics(spans: list[dict], wall_s: float, extra: dict) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    ``wall_s`` is the traced operations' wall time; ``extra`` supplies the
    values measured outside the spans (import time, split bytes, RSS probe,
    pool speedup, tracing overhead). A layer that did no work reports 0.
    """
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return float(sum(dur[s["id"]] for s in named(name)))

    def calls(name):
        return len(named(name))

    def pct(name, q, min_calls=1):
        values = [dur[s["id"]] for s in named(name)]
        return float(np.percentile(values, q)) if len(values) >= min_calls else 0.0

    def frac(name, key):
        values = [bool(s[key]) for s in named(name)]
        return float(np.mean(values)) if values else 0.0

    def under(span, ancestor_name):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == ancestor_name:
                return True
        return False

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_by_layer[s["name"].split(".")[0]] += dur[s["id"]] - child_time[s["id"]]
    roots = [s for s in spans if s["parent"] is None]
    uncovered = sum(dur[s["id"]] - child_time[s["id"]] for s in roots)
    uncovered += max(0.0, wall_s - sum(dur[s["id"]] for s in roots))

    coresets = named("sampler.build_coreset")
    refines = named("refine.refine")
    grids = named("tuner.run_grid")
    m = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
    m.update({f"cli.{c}_s": total(f"cli.{c}") for c in
              ("split", "score", "build", "tune", "refine", "report")})
    m.update({
        "data.parse_s": total("data.parse"),
        "data.stratified_split_s": total("data.stratified_split"),
        "data.save_split_bundle_s": total("data.save_split_bundle"),
        "data.load_split_bundle_s": total("data.load_split_bundle"),
        "data.load_split_bundle_calls": calls("data.load_split_bundle"),
        "data.subset_by_ids_s": total("data.subset_by_ids"),
        "data.subset_by_ids_calls": calls("data.subset_by_ids"),
        "sensitivity.compute_scores_s": total("sensitivity.compute_scores"),
        "sensitivity.compute_scores_calls": calls("sensitivity.compute_scores"),
        "sensitivity.converged": frac("sensitivity.compute_scores", "converged"),
        "sensitivity.ridge_fallback": frac("sensitivity.compute_scores",
                                           "ridge_fallback"),
        "sampler.build_coreset_p50_s": pct("sampler.build_coreset", 50),
        "sampler.build_coreset_p95_s": pct("sampler.build_coreset", 95, P95_MIN_CALLS),
        "sampler.build_coreset_total_s": total("sampler.build_coreset"),
        "sampler.build_coreset_calls": len(coresets),
        "sampler.unique_per_budget": (float(np.mean([s["unique"] / s["budget"]
                                                     for s in coresets]))
                                      if coresets else 0.0),
        "sampler.materialize_s": total("sampler.materialize"),
        "learners.train_p50_s": pct("learners.train", 50),
        "learners.train_p95_s": pct("learners.train", 95, P95_MIN_CALLS),
        "learners.train_total_s": total("learners.train"),
        "learners.train_calls": calls("learners.train"),
        "learners.converged_frac": frac("learners.train", "converged"),
        "metrics.classification_report_s": total("metrics.classification_report"),
        "metrics.classification_report_calls": calls("metrics.classification_report"),
        "refine.refine_s": total("refine.refine"),
        "refine.rounds": sum(s["rounds"] for s in refines),
        "refine.train_calls": sum(1 for s in named("learners.train")
                                  if under(s, "refine.refine")),
        "refine.kept_refined": sum(s["decision"] == "kept_refined" for s in refines),
        "tuner.run_grid_s": total("tuner.run_grid"),
        "tuner.cells": sum(s["cells"] for s in grids),
        "tuner.failed_cells": sum(s["failed"] for s in grids),
        "tuner.compare_to_baselines_s": total("tuner.compare_to_baselines"),
        "tuner.refine_best_s": total("tuner.refine_best"),
        "uncovered_frac": uncovered / wall_s if wall_s > 0 else 0.0,
    })
    m.update(extra)
    missing = set(PER_LAYER_METRICS) - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: m[name] for name in PER_LAYER_METRICS}
