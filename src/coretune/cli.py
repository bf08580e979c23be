"""Command-line pipeline: split | score | build | tune | refine | report.

Every command is driven by one JSON run config (--config) and is idempotent
for fixed inputs and seeds; outputs embed the config hash. Every output but
the split files is written atomically; a partly written split fails its
manifest at the next load. Exit codes: 0 success, 1 usage/config error,
2 runtime failure, 3 partial grid (some cells failed).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys
import traceback
from dataclasses import asdict, replace

import numpy as np

from .data import (SplitError, load_split_bundle, parse_csv, parse_libsvm,
                   read_table, save_split_bundle, stratified_split, write_table)
from .learners import TrainConfig
from .refine import RefineConfig
from .runconfig import ConfigError, RunConfig, atomic_output, load_run_config
from .sampler import build_coreset, coreset_to_csv
from .sensitivity import SensitivityScores, compute_scores, scores_to_csv
from .tuner import (TrialResult, compare_to_baselines, coreset_size_for,
                    curve_rows, refine_best, run_grid, trials_to_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


class UsageError(Exception):
    pass


class ArtifactMissingError(RuntimeError):
    """A downstream command ran before its upstream producer."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="coretune",
                     description="Coreset construction and tuning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("split", "parse the dataset and write train/validation/test splits"),
            ("score", "compute sensitivity scores for the train split"),
            ("build", "build one coreset from the configured sampler knobs"),
            ("tune", "grid-search the sampler parameters"),
            ("refine", "refine the best tuned coreset via active sampling"),
            ("report", "write the baselines comparison and ratio-F1 curves")]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override split.seed, grid.base_seed, and build.seed")
        cmd.add_argument("--workers", type=int, default=None,
                         help="worker processes for tune")
        cmd.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="override a config field (dotted path, JSON value)")
    return parser


def _append_run_log(cfg: RunConfig, message: str) -> None:
    # Timestamps live only here, never in artifacts.
    os.makedirs(cfg.output_dir, exist_ok=True)
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(os.path.join(cfg.output_dir, "run.log"), "a") as fh:
        fh.write(f"{stamp} {message}\n")


def _log(cfg: RunConfig, message: str) -> None:
    _append_run_log(cfg, message)
    print(message, file=sys.stderr)


def _load_dataset(cfg: RunConfig):
    if not os.path.exists(cfg.dataset_path):
        raise ConfigError(f"dataset file not found: {cfg.dataset_path}")
    if cfg.dataset_format == "libsvm":
        return parse_libsvm(cfg.dataset_path, dimension_hint=cfg.dimension_hint)
    return parse_csv(cfg.dataset_path, cfg.label_column, cfg.has_header)


def _splits_dir(cfg: RunConfig) -> str:
    return os.path.join(cfg.output_dir, "splits")


def _load_splits(cfg: RunConfig):
    try:
        return load_split_bundle(_splits_dir(cfg))
    except FileNotFoundError:
        raise ArtifactMissingError(
            f"no splits under {_splits_dir(cfg)}; run the split command first"
        ) from None


def _train_scores(cfg: RunConfig, bundle, manifest: dict,
                  sensitivity: tuple[str, dict] | None = None
                  ) -> SensitivityScores:
    """The train split's scores under ``sensitivity``, the (provider,
    params) recorded with the tuned best, or by default the configured ones.

    They come from ``<output_dir>/scores.npz`` when its key (provider,
    params, train-split digest) matches; otherwise they are computed once
    and stored there, replacing any scores of another key.
    """
    provider, params = sensitivity or (cfg.provider, cfg.provider_params)
    key = json.dumps([provider, params, manifest["splits"]["train"]["sha256"]],
                     sort_keys=True)
    path = os.path.join(cfg.output_dir, "scores.npz")
    if os.path.exists(path):
        with np.load(path, allow_pickle=False) as stored:
            if str(stored["key"]) == key:
                return SensitivityScores(
                    stored["values"], float(stored["total"]),
                    str(stored["provider_name"]), bool(stored["converged"]),
                    bool(stored["ridge_fallback"]))
    scores = compute_scores(provider, bundle.train, **params)
    with atomic_output(path) as tmp:
        with open(tmp, "wb") as fh:
            np.savez(fh, key=np.asarray(key), values=scores.values,
                     total=scores.total,
                     provider_name=np.asarray(scores.provider_name),
                     converged=scores.converged,
                     ridge_fallback=scores.ridge_fallback)
    return scores


def cmd_split(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    # The learners and metrics are binary; fail here, not at tune.
    n_classes = len(dataset.classes)
    if n_classes != 2:
        raise SplitError(f"{cfg.dataset_path}: expected 2 label classes, "
                         f"found {n_classes}")
    bundle = stratified_split(dataset, cfg.split_fractions, cfg.split_seed)
    save_split_bundle(bundle, _splits_dir(cfg), cfg.split_seed,
                      cfg.split_fractions,
                      extra={"config_hash": cfg.config_hash(),
                             "source": cfg.dataset_path})
    sizes = {name: split.n for name, split in zip(bundle.names, bundle)}
    _log(cfg, f"split: wrote {sizes} to {_splits_dir(cfg)}")
    return EXIT_OK


def cmd_score(cfg: RunConfig) -> int:
    bundle, manifest = _load_splits(cfg)
    scores = _train_scores(cfg, bundle, manifest)
    out = os.path.join(cfg.output_dir, "scores.csv")
    with atomic_output(out) as tmp:
        scores_to_csv(scores, bundle.train.point_ids, tmp,
                      header_comment=f"config_hash={cfg.config_hash()}")
    _log(cfg, f"score: provider={cfg.provider} n={bundle.train.n} -> {out}")
    return EXIT_OK


def cmd_build(cfg: RunConfig) -> int:
    bundle, manifest = _load_splits(cfg)
    train = bundle.train
    config = replace(cfg.build, coreset_size=coreset_size_for(
        cfg.build_ratio, train.n, len(train.classes)))
    scores = _train_scores(cfg, bundle, manifest)
    coreset = build_coreset(train, scores, config)
    out = os.path.join(cfg.output_dir, "coreset.csv")
    with atomic_output(out) as tmp:
        coreset_to_csv(coreset, tmp,
                       header_comment=f"config_hash={cfg.config_hash()} "
                                      f"sampler={json.dumps(config.to_dict(), sort_keys=True)}")
    _log(cfg, f"build: m={config.coreset_size} unique={coreset.n_unique} -> {out}")
    return EXIT_OK


def _best_config_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.output_dir, "best_config.json")


def cmd_tune(cfg: RunConfig) -> int:
    if cfg.grid is None:
        raise ConfigError(f"{cfg.path}: missing config field 'grid'")
    bundle, manifest = _load_splits(cfg)
    result = run_grid(bundle, cfg.grid, cfg.train, workers=cfg.workers,
                      scores=_train_scores(cfg, bundle, manifest))
    for failure in result.failures:
        _log(cfg, f"tune: failed cell {failure.cell_index} repeat {failure.repeat} "
                  f"seed {failure.seed}: {failure.error}")
    trials_out = os.path.join(cfg.output_dir, "trials.csv")
    if not result.trials:
        # An earlier tune's best must not pass for this one's in refine and
        # report.
        for stale in (trials_out, _best_config_path(cfg)):
            with contextlib.suppress(FileNotFoundError):
                os.remove(stale)
    best = result.best  # raises, before any artifact is written, if all failed
    with atomic_output(trials_out) as tmp:
        trials_to_csv(result, tmp,
                      header_comment=f"config_hash={cfg.config_hash()}")
    best_record = {**best.to_dict(), "config_hash": cfg.config_hash(),
                   "provider_params": cfg.provider_params,
                   "train": asdict(cfg.train)}
    with atomic_output(_best_config_path(cfg)) as tmp:
        with open(tmp, "w") as fh:
            json.dump(best_record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    _log(cfg, f"tune: {len(result.trials)} trials, {len(result.failures)} failed "
              f"cells; best validation F1 {best.validation.f1:.4f} "
              f"-> {trials_out}")
    return EXIT_PARTIAL if result.failures else EXIT_OK


def _load_best(cfg: RunConfig) -> tuple[TrialResult, tuple[str, dict], TrainConfig]:
    """The tuned best trial, its (provider, params) and tune's TrainConfig."""
    path = _best_config_path(cfg)
    if not os.path.exists(path):
        raise ArtifactMissingError(
            f"no best-config record at {path}; run the tune command first")
    with open(path) as fh:
        record = json.load(fh)
    if "train" not in record:
        raise ArtifactMissingError(
            f"{path} records no training settings; rerun the tune command")
    return (TrialResult.from_dict(record),
            (record["provider"], record["provider_params"]),
            TrainConfig(**record["train"]))


def cmd_refine(cfg: RunConfig) -> int:
    bundle, manifest = _load_splits(cfg)
    best, sensitivity, train_config = _load_best(cfg)
    refine_cfg = cfg.refine or RefineConfig(batch_size=max(1, bundle.train.n // 20))
    coreset, trace = refine_best(bundle, best, refine_cfg, train_config,
                                 _train_scores(cfg, bundle, manifest, sensitivity))
    coreset_out = os.path.join(cfg.output_dir, "refined_coreset.csv")
    with atomic_output(coreset_out) as tmp:
        coreset_to_csv(coreset, tmp,
                       header_comment=f"config_hash={cfg.config_hash()} "
                                      f"decision={trace.decision}")
    trace_out = os.path.join(cfg.output_dir, "refine_trace.csv")
    from .refine import trace_to_csv
    with atomic_output(trace_out) as tmp:
        trace_to_csv(trace, tmp, header_comment=f"config_hash={cfg.config_hash()}")
    phi = (trace.phi_refined if trace.decision == "kept_refined"
           else trace.phi_original)
    _log(cfg, f"refine: {trace.decision} after {len(trace.rounds)} rounds; "
              f"validation {refine_cfg.metric} {phi:.4f} -> {coreset_out}")
    return EXIT_OK


def _load_trial_cells(cfg: RunConfig) -> list[tuple[float, bool, float, float]]:
    """Per-cell (coreset_ratio, vanilla, mean_validation_f1, mean_test_f1)
    from the trials table, in its rank order."""
    path = os.path.join(cfg.output_dir, "trials.csv")
    if not os.path.exists(path):
        raise ArtifactMissingError(
            f"no trials table at {path}; run the tune command first")
    columns, table = read_table(path)
    cells: dict[str, list[dict]] = {}
    for values in table:
        row = dict(zip(columns, values))
        cells.setdefault(row["cell_index"], []).append(row)
    return [(float(rows[0]["coreset_ratio"]), rows[0]["vanilla"] == "1",
             float(rows[0]["mean_validation_f1"]),
             float(np.mean([float(r["test_f1"]) for r in rows])))
            for rows in cells.values()]


def cmd_report(cfg: RunConfig) -> int:
    bundle, manifest = _load_splits(cfg)
    cells = _load_trial_cells(cfg)
    best, sensitivity, train_config = _load_best(cfg)
    comparison = compare_to_baselines(
        bundle, best, train_config,
        _train_scores(cfg, bundle, manifest, sensitivity))
    comment = f"config_hash={cfg.config_hash()}"
    comp_out = os.path.join(cfg.output_dir, "comparison.csv")
    with atomic_output(comp_out) as tmp:
        write_table(tmp, ("method", "split", "balanced_accuracy", "f1", "roc_auc"),
                    [(r.method, r.split, r.balanced_accuracy, r.f1, r.roc_auc)
                     for r in comparison], comment)
    curve_out = os.path.join(cfg.output_dir, "curves.csv")
    with atomic_output(curve_out) as tmp:
        write_table(tmp, ("coreset_ratio", "method", "split", "f1"),
                    curve_rows(cells), comment)
    _log(cfg, f"report: wrote {comp_out} and {curve_out}")
    return EXIT_OK


COMMANDS = {
    "split": cmd_split,
    "score": cmd_score,
    "build": cmd_build,
    "tune": cmd_tune,
    "refine": cmd_refine,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_run_config(args.config, overrides=args.override,
                              seed=args.seed, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        detail = (str(exc) if isinstance(exc, ArtifactMissingError)
                  else f"{type(exc).__name__}: {exc}")
        print(f"error: {detail}", file=sys.stderr)
        # stderr keeps one line; the traceback goes to the run log.
        try:
            _append_run_log(cfg, f"{args.command}: exit {EXIT_RUNTIME}\n"
                                 f"{traceback.format_exc().rstrip()}")
        except OSError:
            pass
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
