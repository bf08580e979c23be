"""Structured run configuration: one JSON file drives the whole pipeline.

All randomness flows from the seeds recorded here, and every artifact embeds
the sha256 hash of the canonical config serialization less ``workers``, so
any output can be traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

from .data import boolean_field, integer_field, real_number, split_fractions
from .learners import TrainConfig
from .refine import RefineConfig
from .sampler import SamplerConfig
from .sensitivity import available_providers, check_provider_params
from .tuner import GridSpec


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""


DEFAULTS = {
    "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
    "sensitivity": {"provider": "leverage", "params": {}},
    "train": asdict(TrainConfig()),
    "workers": 1,
}

# The fields each section may set: those parsed here, and for the others the
# fields of the dataclass built from it, less those the run config fills in
# itself (the grid's provider, the build's size) and plus build's ratio.
KNOWN_FIELDS = {
    "": {"dataset", "split", "sensitivity", "train", "grid", "refine", "build",
         "output_dir", "workers"},
    "dataset": {"path", "format", "label_column", "has_header", "dimension_hint"},
    "split": {"fractions", "seed"},
    "sensitivity": {"provider", "params"},
    "train": {f.name for f in fields(TrainConfig)},
    "grid": {f.name for f in fields(GridSpec)}
    - {"sensitivity_provider", "provider_params"},
    "refine": {f.name for f in fields(RefineConfig)},
    "build": {f.name for f in fields(SamplerConfig)} - {"coreset_size"}
    | {"coreset_ratio"},
}


@dataclass
class RunConfig:
    """A run config with every section parsed once, when it loads.

    ``raw`` is the effective config (defaults merged, overrides applied)
    that :meth:`config_hash` covers; the other fields are its typed values.
    ``build`` carries a placeholder ``coreset_size``, which the build
    command replaces with ``build_ratio`` of the train split. A malformed
    value or an unknown field is a ConfigError naming it.
    """

    raw: dict
    path: str = "<inline>"
    dataset_path: str = field(init=False)
    dataset_format: str = field(init=False)
    label_column: str | int | None = field(init=False)
    has_header: bool = field(init=False)
    dimension_hint: int | None = field(init=False)
    split_fractions: tuple[float, float, float] = field(init=False)
    split_seed: int = field(init=False)
    provider: str = field(init=False)
    provider_params: dict = field(init=False)
    workers: int = field(init=False)
    output_dir: str = field(init=False)
    train: TrainConfig = field(init=False)
    grid: GridSpec | None = field(init=False)
    refine: RefineConfig | None = field(init=False)
    build: SamplerConfig = field(init=False)
    build_ratio: float = field(init=False)

    def __post_init__(self):
        merged = copy.deepcopy(DEFAULTS)
        for key, value in self.raw.items():
            if key in merged and isinstance(merged[key], dict) and isinstance(value, dict):
                merged[key].update(value)
            else:
                merged[key] = value
        self.raw = merged
        try:
            self._parse()
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{self.path}: {exc}") from None

    def _require(self, path: str):
        node = self.raw
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ValueError(f"missing config field {path!r}")
            node = node[part]
        return node

    def _parse(self):
        raw = self.raw
        for section in ("dataset", "split", "sensitivity", "train", "grid",
                        "refine", "build"):
            if section in raw and not isinstance(raw[section], dict):
                raise ValueError(f"{section} must be an object")
        for section, known in KNOWN_FIELDS.items():
            node = raw.get(section, {}) if section else raw
            for key in sorted(node.keys() - known):
                path = f"{section}.{key}" if section else key
                raise ValueError(f"unknown config field {path!r}")

        dataset = self._require("dataset")
        self.dataset_format = dataset.get("format")
        if self.dataset_format not in ("libsvm", "csv"):
            raise ValueError("dataset.format must be 'libsvm' or 'csv', got "
                             f"{self.dataset_format!r}")
        self.dataset_path = self._require("dataset.path")
        if not isinstance(self.dataset_path, str):
            raise ValueError("dataset.path must be a string, got "
                             f"{self.dataset_path!r}")
        if self.dataset_format == "csv" and "label_column" not in dataset:
            raise ValueError("dataset.label_column is required for csv datasets")
        self.label_column = label = dataset.get("label_column")
        if "label_column" in dataset and not (
                isinstance(label, str) or (type(label) is int and label >= 0)):
            raise ValueError("dataset.label_column must be a header name or a "
                             f"column index >= 0, got {label!r}")
        self.has_header = boolean_field("dataset.has_header",
                                        dataset.get("has_header", True))
        hint = dataset.get("dimension_hint")
        self.dimension_hint = (None if hint is None else integer_field(
            "dataset.dimension_hint", hint, minimum=1))

        self.split_fractions = split_fractions(
            "split.fractions", self._require("split.fractions"))
        self.split_seed = integer_field("split.seed",
                                        self._require("split.seed"), minimum=0)
        self.workers = integer_field("workers", raw["workers"], minimum=1)
        self.output_dir = self._require("output_dir")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValueError("output_dir must be a non-empty string, got "
                             f"{self.output_dir!r}")
        self.provider = self._require("sensitivity.provider")
        if self.provider not in available_providers():
            raise ValueError(f"unknown sensitivity.provider {self.provider!r}; "
                             f"available: {available_providers()}")
        params = raw["sensitivity"].get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"sensitivity.params must be an object, got {params!r}")
        self.provider_params = dict(params)
        with _section("sensitivity.params"):
            check_provider_params(self.provider, self.provider_params)

        with _section("train"):
            self.train = TrainConfig(**raw["train"])

        self.grid = None
        if "grid" in raw:
            with _section("grid"):
                self.grid = GridSpec(**raw["grid"],
                                     sensitivity_provider=self.provider,
                                     provider_params=self.provider_params)

        self.refine = None
        if "refine" in raw:
            with _section("refine"):
                self.refine = RefineConfig(**raw["refine"])

        build = dict(raw.get("build", {}))
        with _section("build.coreset_ratio"):
            self.build_ratio = real_number("value",
                                           build.pop("coreset_ratio", 0.1))
            if not (0 < self.build_ratio <= 1):
                raise ValueError(f"must lie in (0, 1], got {self.build_ratio}")
        with _section("build"):
            self.build = SamplerConfig(1, **build)

    def config_hash(self) -> str:
        # The worker count changes no output, so it is no part of the hash.
        return config_hash({k: v for k, v in self.raw.items() if k != "workers"})


@contextmanager
def _section(name: str):
    """Prefix the message of a malformed or missing value with the section
    it is in."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def load_run_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    """Read a JSON run config, then apply the --override flags; the config
    hash covers the effective (post-override) config less ``workers``."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: must hold a JSON object, not {raw!r:.40}")
    for override in overrides or []:
        key, _, value = override.partition("=")
        if not _:
            raise ConfigError(f"--override needs key=value, got {override!r}")
        _set_path(raw, key.strip(), _parse_override_value(value), path)
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
