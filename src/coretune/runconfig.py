"""Structured run configuration: one JSON file drives the whole pipeline.

All randomness flows from the seeds recorded here, and every artifact embeds
the sha256 hash of the canonical config serialization, so any output can be
traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .learners import TrainConfig
from .refine import RefineConfig
from .sampler import SamplerConfig
from .sensitivity import available_providers
from .tuner import GridSpec, coreset_size_for


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""


DEFAULTS = {
    "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
    "sensitivity": {"provider": "leverage", "params": {}},
    "train": {"loss": "logistic", "regularization": 1.0, "tolerance": 1e-8,
              "max_iterations": 500, "fit_intercept": True},
    "workers": 1,
}


@dataclass
class RunConfig:
    raw: dict
    path: str = "<inline>"

    def __post_init__(self):
        merged = copy.deepcopy(DEFAULTS)
        for key, value in self.raw.items():
            if key in merged and isinstance(merged[key], dict) and isinstance(value, dict):
                merged[key].update(value)
            else:
                merged[key] = value
        self.raw = merged
        self._validate()

    def _require(self, path: str):
        node = self.raw
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"{self.path}: missing config field {path!r}")
            node = node[part]
        return node

    def _validate(self):
        for section in ("dataset", "split", "sensitivity", "train", "grid",
                        "refine", "build"):
            if section in self.raw and not isinstance(self.raw[section], dict):
                raise ConfigError(f"{self.path}: {section} must be an object")
        dataset = self._require("dataset")
        fmt = dataset.get("format")
        if fmt not in ("libsvm", "csv"):
            raise ConfigError(f"{self.path}: dataset.format must be 'libsvm' or "
                              f"'csv', got {fmt!r}")
        if "path" not in dataset:
            raise ConfigError(f"{self.path}: missing config field 'dataset.path'")
        if fmt == "csv" and "label_column" not in dataset:
            raise ConfigError(f"{self.path}: dataset.label_column is required "
                              "for csv datasets")
        fractions = self._require("split.fractions")
        try:
            valid = (len(self.split_fractions) == 3
                     and min(self.split_fractions) > 0
                     and abs(sum(self.split_fractions) - 1.0) <= 1e-9)
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ConfigError(f"{self.path}: split.fractions must be 3 positive "
                              f"reals summing to 1, got {fractions!r}")
        self._require("split.seed")
        try:
            self.split_seed, self.workers
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from None
        output_dir = self._require("output_dir")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError(f"{self.path}: output_dir must be a non-empty "
                              f"string, got {output_dir!r}")
        provider = self._require("sensitivity.provider")
        if provider not in available_providers():
            raise ConfigError(f"{self.path}: unknown sensitivity.provider "
                              f"{provider!r}; available: {available_providers()}")
        params = self.raw["sensitivity"].get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{self.path}: sensitivity.params must be an "
                              f"object, got {params!r}")
        # Parse every section now, so a malformed value fails at load (exit 1).
        self.train_config()
        self.build_config(n_train=1, n_classes=1)  # sizes do not affect its checks
        self.refine_config()
        if "grid" in self.raw:
            self._require("grid.coreset_ratios")
            self.grid_spec()

    # ---- typed views -----------------------------------------------------

    @property
    def dataset_path(self) -> str:
        return self.raw["dataset"]["path"]

    @property
    def output_dir(self) -> str:
        return self.raw["output_dir"]

    @property
    def workers(self) -> int:
        return _integer("workers", self.raw.get("workers", 1), minimum=1)

    @property
    def split_fractions(self) -> tuple[float, float, float]:
        return tuple(float(f) for f in self.raw["split"]["fractions"])

    @property
    def split_seed(self) -> int:
        return _integer("split.seed", self.raw["split"]["seed"], minimum=0)

    @property
    def provider(self) -> str:
        return self.raw["sensitivity"]["provider"]

    @property
    def provider_params(self) -> dict:
        return dict(self.raw["sensitivity"].get("params", {}))

    def train_config(self) -> TrainConfig:
        t = self.raw["train"]
        try:
            return TrainConfig(loss=t["loss"],
                               regularization=float(t["regularization"]),
                               tolerance=float(t["tolerance"]),
                               max_iterations=_integer("max_iterations",
                                                      t["max_iterations"]),
                               fit_intercept=bool(t["fit_intercept"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{self.path}: train: {exc}") from exc

    def grid_spec(self) -> GridSpec:
        if "grid" not in self.raw:
            raise ConfigError(f"{self.path}: missing config field 'grid'")
        g = self.raw["grid"]
        try:
            return GridSpec(
                coreset_ratios=tuple(float(r) for r in g["coreset_ratios"]),
                det_ratios=tuple(float(r) for r in g.get("det_ratios", [0.0])),
                weight_strategies=tuple(g.get("weight_strategies", ["inv"])),
                class_allocations=tuple(g.get("class_allocations",
                                              ["proportional"])),
                sensitivity_provider=self.provider,
                provider_params=self.provider_params,
                repeats=_integer("repeats", g.get("repeats", 1)),
                base_seed=_integer("base_seed", g.get("base_seed", 0),
                                   minimum=0),
                regularizations=(tuple(float(c) for c in g["regularizations"])
                                 if g.get("regularizations") else None),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{self.path}: grid: {exc}") from exc

    def refine_config(self) -> RefineConfig | None:
        if "refine" not in self.raw:
            return None
        r = self.raw["refine"]
        # Refinement always queries by smallest |decision score| ("margin").
        if r.get("query_strategy", "margin") != "margin":
            raise ConfigError(f"{self.path}: refine.query_strategy "
                              f"{r['query_strategy']!r} is not supported; use "
                              "'margin' or omit the field")
        try:
            return RefineConfig(
                batch_size=_integer("batch_size", r["batch_size"]),
                patience=_integer("patience", r.get("patience", 1)),
                metric=r.get("metric", "f1"),
                max_rounds=(_integer("max_rounds", r["max_rounds"])
                            if r.get("max_rounds") else None))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{self.path}: refine: {exc}") from exc

    def build_config(self, n_train: int, n_classes: int) -> SamplerConfig:
        """SamplerConfig for the one-off build command; the optional 'build'
        section overrides ratio/knob defaults."""
        b = self.raw.get("build", {})
        try:
            ratio = float(b.get("coreset_ratio", 0.1))
            if not (0 < ratio <= 1):
                raise ValueError("coreset_ratio must lie in (0, 1]")
            return SamplerConfig(
                coreset_size=coreset_size_for(ratio, n_train, n_classes),
                det_ratio=float(b.get("det_ratio", 0.0)),
                weight_strategy=b.get("weight_strategy", "inv"),
                class_allocation=b.get("class_allocation", "proportional"),
                seed=_integer("seed", b.get("seed", 0), minimum=0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{self.path}: build: {exc}") from exc

    def config_hash(self) -> str:
        return config_hash(self.raw)


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` if it is a JSON integer (not a bool) of at least
    ``minimum``; anything else is a ValueError naming the field, so a
    fraction or a bool cannot be truncated into a different run."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def load_run_config(path: str, overrides: list[str] | None = None,
                    seed: int | None = None,
                    workers: int | None = None) -> RunConfig:
    """Read a JSON run config, then apply --override/--seed/--workers flags.

    The config hash is computed over the effective (post-override) config.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    for override in overrides or []:
        key, _, value = override.partition("=")
        if not _:
            raise ConfigError(f"--override needs key=value, got {override!r}")
        _set_path(raw, key.strip(), _parse_override_value(value), path)
    if seed is not None:
        _set_path(raw, "split.seed", seed, path)
        if "grid" in raw:
            _set_path(raw, "grid.base_seed", seed, path)
        _set_path(raw, "build.seed", seed, path)
    if workers is not None:
        raw["workers"] = workers
    return RunConfig(raw, path=path)


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _set_path(raw: dict, dotted: str, value, where: str):
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{where}: cannot override through non-object "
                              f"field {part!r}")
    node[parts[-1]] = value


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@contextmanager
def atomic_output(path):
    """Write to a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp{os.getpid()}")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
