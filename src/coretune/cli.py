"""Command-line pipeline: split | score | build | tune | refine | report.

Every command is driven by one JSON run config (--config) and is idempotent
for fixed inputs and seeds; outputs embed the config hash. The commands
after split read the split store and the train scores through ``_inputs``,
which alone reuses or refreshes ``scores.npz``, and write their tables
through ``_write``. Every output but the split files is written atomically;
a partly written split fails its manifest at the next load, and a failed
split leaves no store. Exit codes: 0 success, 1 usage/config error,
2 runtime failure, 3 partial grid (some cells failed).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import shutil
import sys
import traceback
from dataclasses import replace
from functools import partial

import numpy as np

from .data import (SplitBundle, SplitError, load_split_bundle, parse_csv,
                   parse_libsvm, save_split_bundle, stratified_split,
                   write_table)
from .refine import RefineConfig
from .runconfig import (ConfigError, RunConfig, atomic_output, config_hash,
                        load_run_config)
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
            ("tune", "grid-search the sampler parameters; write ratio-F1 curves"),
            ("refine", "refine the best tuned coreset via active sampling"),
            ("report", "compare the tuned best with the baselines")]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--workers", type=int, default=None,
                         help="worker processes for tune")
        cmd.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="override a config field (dotted path, JSON value)")
    return parser


def _path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _missing(artifact: str, command: str) -> ArtifactMissingError:
    return ArtifactMissingError(f"no {artifact}; run the {command} command first")


def _append_run_log(cfg: RunConfig, message: str) -> None:
    # Timestamps live only here, never in artifacts.
    os.makedirs(cfg.output_dir, exist_ok=True)
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(_path(cfg, "run.log"), "a") as fh:
        fh.write(f"{stamp} {message}\n")


def _log(cfg: RunConfig, message: str) -> None:
    _append_run_log(cfg, message)
    print(message, file=sys.stderr)


def _write(cfg: RunConfig, name: str, writer, *args, note: str = "") -> str:
    """Write ``<output_dir>/<name>`` atomically by ``writer(*args, path,
    header_comment=...)``, stamped ``config_hash=<hash><note>``; returns
    its path."""
    path = _path(cfg, name)
    with atomic_output(path) as tmp:
        writer(*args, tmp, header_comment=f"config_hash={cfg.config_hash()}{note}")
    return path


def _load_dataset(cfg: RunConfig):
    if not os.path.exists(cfg.dataset_path):
        raise ConfigError(f"dataset file not found: {cfg.dataset_path}")
    if cfg.dataset_format == "libsvm":
        return parse_libsvm(cfg.dataset_path, dimension_hint=cfg.dimension_hint)
    return parse_csv(cfg.dataset_path, cfg.label_column, cfg.has_header)


def _split_key(cfg: RunConfig) -> str:
    """The digest of the config sections that determine the split store."""
    return config_hash({name: cfg.raw[name] for name in ("dataset", "split")})


# The outputs that derive from best_config.json: a tune whose cells all fail
# deletes them, and split deletes them with the rest of its old outputs.
_TUNED_OUTPUTS = ("trials.csv", "best_config.json", "curves.csv",
                  "refined_coreset.csv", "refine_trace.csv", "comparison.csv")


def _remove_outputs(cfg: RunConfig, names) -> None:
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(_path(cfg, name))


def _inputs(cfg: RunConfig, sensitivity: tuple[str, dict] | None = None
            ) -> tuple[SplitBundle, SensitivityScores]:
    """The split store and the train split's scores under ``sensitivity``,
    the (provider, params) recorded with the tuned best, or by default the
    configured ones.

    The store must carry the key of the config's dataset and split
    sections. The scores come from ``<output_dir>/scores.npz`` when its key (provider,
    params, train-split digest) matches; otherwise they are computed once
    and stored there, replacing any scores of another key.
    """
    splits = _path(cfg, "splits")
    try:
        bundle, manifest = load_split_bundle(splits)
    except FileNotFoundError:
        raise _missing(f"splits under {splits}", "split") from None
    if manifest.get("key") != _split_key(cfg):
        raise ArtifactMissingError(
            f"the splits under {splits} were made under another dataset or "
            "split config; rerun the split command")
    provider, params = sensitivity or (cfg.provider, cfg.provider_params)
    key = json.dumps([provider, params, manifest["splits"]["train"]["sha256"]],
                     sort_keys=True)
    path = _path(cfg, "scores.npz")
    if os.path.exists(path):
        with np.load(path, allow_pickle=False) as stored:
            if str(stored["key"]) == key:
                return bundle, SensitivityScores(
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
    return bundle, scores


def cmd_split(cfg: RunConfig) -> int:
    # A split that fails must leave no store for later commands to run on,
    # and no output of the old store may pass for one of the new.
    splits = _path(cfg, "splits")
    with contextlib.suppress(FileNotFoundError):
        shutil.rmtree(splits)
    _remove_outputs(cfg, ("scores.csv", "coreset.csv") + _TUNED_OUTPUTS)
    dataset = _load_dataset(cfg)
    # The learners and metrics are binary; fail here, not at tune.
    n_classes = len(dataset.classes)
    if n_classes != 2:
        raise SplitError(f"{cfg.dataset_path}: expected 2 label classes, "
                         f"found {n_classes}")
    bundle = stratified_split(dataset, cfg.split_fractions, cfg.split_seed)
    save_split_bundle(bundle, splits, cfg.split_seed, cfg.split_fractions,
                      extra={"config_hash": cfg.config_hash(),
                             "key": _split_key(cfg), "source": cfg.dataset_path})
    sizes = {name: split.n for name, split in zip(bundle.names, bundle)}
    _log(cfg, f"split: wrote {sizes} to {splits}")
    return EXIT_OK


def cmd_score(cfg: RunConfig) -> int:
    bundle, scores = _inputs(cfg)
    out = _write(cfg, "scores.csv", scores_to_csv, scores, bundle.train.point_ids)
    _log(cfg, f"score: provider={cfg.provider} n={bundle.train.n} converged="
              f"{scores.converged} ridge_fallback={scores.ridge_fallback} -> {out}")
    return EXIT_OK


def cmd_build(cfg: RunConfig) -> int:
    bundle, scores = _inputs(cfg)
    train = bundle.train
    config = replace(cfg.build, coreset_size=coreset_size_for(
        cfg.build_ratio, train.n, len(train.classes)))
    coreset = build_coreset(train, scores, config)
    out = _write(cfg, "coreset.csv", coreset_to_csv, coreset,
                 note=f" sampler={json.dumps(config.to_dict(), sort_keys=True)}")
    _log(cfg, f"build: m={config.coreset_size} unique={coreset.n_unique} -> {out}")
    return EXIT_OK


def cmd_tune(cfg: RunConfig) -> int:
    if cfg.grid is None:
        raise ConfigError(f"{cfg.path}: missing config field 'grid'")
    bundle, scores = _inputs(cfg)
    result = run_grid(bundle, cfg.grid, cfg.train, workers=cfg.workers,
                      scores=scores)
    for failure in result.failures:
        _log(cfg, f"tune: failed cell {failure.cell_index} repeat {failure.repeat} "
                  f"seed {failure.seed}: {failure.error}")
    if not result.trials:
        # An earlier tune's outputs, and the refine and report outputs that
        # derive from its best_config.json, must not pass for this one's.
        _remove_outputs(cfg, _TUNED_OUTPUTS)
    best = result.best  # raises, before any artifact is written, if all failed
    trials_out = _write(cfg, "trials.csv", trials_to_csv, result)
    best_record = {**best.to_dict(), "config_hash": cfg.config_hash(),
                   "provider_params": cfg.provider_params}
    with atomic_output(_path(cfg, "best_config.json")) as tmp:
        with open(tmp, "w") as fh:
            json.dump(best_record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    _write(cfg, "curves.csv", partial(
        write_table, columns=("coreset_ratio", "method", "split", "f1"),
        rows=curve_rows(result.summaries)))
    _log(cfg, f"tune: {len(result.trials)} trials, {len(result.failures)} failed "
              f"cells; best validation F1 {best.validation.f1:.4f} "
              f"-> {trials_out}")
    return EXIT_PARTIAL if result.failures else EXIT_OK


def _load_best(cfg: RunConfig) -> tuple[TrialResult, tuple[str, dict]]:
    """The tuned best trial, with its training settings, and its (provider,
    params)."""
    path = _path(cfg, "best_config.json")
    if not os.path.exists(path):
        raise _missing(f"best-config record at {path}", "tune")
    with open(path) as fh:
        record = json.load(fh)
    if "train" not in record:
        raise ArtifactMissingError(
            f"{path} records no training settings; rerun the tune command")
    return (TrialResult.from_dict(record),
            (record["provider"], record["provider_params"]))


def cmd_refine(cfg: RunConfig) -> int:
    best, sensitivity = _load_best(cfg)
    bundle, scores = _inputs(cfg, sensitivity)
    refine_cfg = cfg.refine or RefineConfig(batch_size=max(1, bundle.train.n // 20))
    coreset, trace = refine_best(bundle, best, refine_cfg, scores)
    coreset_out = _write(cfg, "refined_coreset.csv", coreset_to_csv, coreset,
                         note=f" decision={trace.decision}")
    from .refine import trace_to_csv
    _write(cfg, "refine_trace.csv", trace_to_csv, trace)
    phi = (trace.phi_refined if trace.decision == "kept_refined"
           else trace.phi_original)
    _log(cfg, f"refine: {trace.decision} after {len(trace.rounds)} rounds"
              f"{'; ' + trace.note if trace.note else ''}; "
              f"validation {refine_cfg.metric} {phi:.4f} -> {coreset_out}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    best, sensitivity = _load_best(cfg)
    bundle, scores = _inputs(cfg, sensitivity)
    comparison = compare_to_baselines(bundle, best, scores)
    comp_out = _write(cfg, "comparison.csv", partial(
        write_table,
        columns=("method", "split", "balanced_accuracy", "f1", "roc_auc"),
        rows=[(r.method, r.split, r.balanced_accuracy, r.f1, r.roc_auc)
              for r in comparison]))
    _log(cfg, f"report: wrote {comp_out}")
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
                              workers=args.workers)
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
        # stderr keeps one line; the traceback goes to the run log, if the
        # output directory can hold one.
        with contextlib.suppress(OSError):
            _append_run_log(cfg, f"{args.command}: exit {EXIT_RUNTIME}\n"
                                 f"{traceback.format_exc().rstrip()}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
