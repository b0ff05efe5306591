"""Experiment configuration: a versioned JSON document with strict validation.

Each section's dataclass is the one declaration of its keys, types and defaults
(a missing or null key takes the default), and `_RULES`, keyed by field path,
holds the allowed values; `parse_config` writes out only the rules that tie
method, sweep kind and sweep values together. Unknown keys (silent typos would
invalidate sweeps), booleans in numeric fields and non-finite floats are
errors, and every error message carries the offending field path.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .datasets import DomainShiftConfig
from .errors import ConfigError
from .train import OPTIMIZERS

SCHEMA_VERSION = 1

SCENARIOS = ("digits_joint", "pretrain_finetune")
DATA_CHOICES = ("target_only", "target_source_mix", "target_plus_source")
REG_MODE_BY_METHOD = {"spectral": "none", "spectral_reg_subset": "subset",
                      "spectral_reg_node": "node"}
SPECTRAL_METHODS = tuple(REG_MODE_BY_METHOD)
METHODS = (*SPECTRAL_METHODS, "svd", "dalr")
SWEEP_KINDS = ("alpha", "keep_fraction", "rank")


@dataclass(frozen=True)
class DataSection:
    n_per_split: int = 1500
    shift: DomainShiftConfig = field(default_factory=DomainShiftConfig)


@dataclass(frozen=True)
class ModelSection:
    conv_channels: tuple = (8, 12, 16)
    dense_widths: tuple = (256, 256)
    dropout: float = 0.5


@dataclass(frozen=True)
class TrainSection:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    weight_decay: float = 5e-4
    batch_size: int = 50
    epochs: int = 10
    source_samples: int = 0  # 0 = all
    target_samples: int = 0
    pretrain_epochs: int = 10
    finetune_epochs: int = 4


@dataclass(frozen=True)
class StatsSection:
    data_choice: str = "target_only"
    target_samples: int = 1500
    source_samples: int = 1000


@dataclass(frozen=True)
class CompressSection:
    method: str = "spectral"
    sweep: tuple = ()  # required in a document
    sweep_kind: str = "alpha"  # "rank" for svd/dalr when the document omits it
    conv_value: float = -1.0  # separate alpha/keep fraction for conv captures; <0 follows sweep
    lam: float = field(default=1.0, metadata={"key": "lambda"})


@dataclass(frozen=True)
class FineTuneSection:
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    batch_size: int = 50
    epochs: int = 2


@dataclass(frozen=True)
class PathsSection:
    out_dir: str = "runs"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seeds: tuple
    data: DataSection
    model: ModelSection
    train: TrainSection
    stats: StatsSection
    compress: CompressSection
    fine_tune: FineTuneSection  # None when the document has no fine_tune section
    paths: PathsSection


def _one_of(options):
    return (lambda v: v in options), f"one of {options}"


def _at_least(low):
    return (lambda v: v >= low), f"at least {low}"


# allowed values by field path: (test, what the test asks for)
_RULES = {
    "config.schema_version": ((lambda v: v == SCHEMA_VERSION), f"{SCHEMA_VERSION}"),
    "config.scenario": _one_of(SCENARIOS),
    "config.seeds": ((lambda v: len(v) > 0 and all(type(s) is int and s >= 0 for s in v)
                      and len(set(v)) == len(v)),
                     "a nonempty list of distinct non-negative integers"),
    "data.n_per_split": _at_least(100),
    # a translation of 8 or more pixels moves the whole 8x8 glyph out
    **{f"data.shift.{name}": ((lambda v: -7 <= v <= 7), "in [-7, 7]")
       for name in ("dx", "dy")},
    "data.shift.noise_std_extra": _at_least(0),
    **{f"model.{name}": ((lambda v, n=n: len(v) == n
                          and all(type(x) is int and x > 0 for x in v)),
                         f"{n} positive integers")
       for name, n in (("conv_channels", 3), ("dense_widths", 2))},
    "model.dropout": ((lambda v: 0 <= v < 1), "in [0, 1)"),
    "train.optimizer": _one_of(tuple(OPTIMIZERS)),
    "train.batch_size": _at_least(1),
    **{f"train.{name}": _at_least(0)
       for name in ("learning_rate", "weight_decay", "epochs", "source_samples",
                    "target_samples", "pretrain_epochs", "finetune_epochs")},
    "stats.data_choice": _one_of(DATA_CHOICES),
    "stats.target_samples": _at_least(2),
    "stats.source_samples": _at_least(0),
    "compress.method": _one_of(METHODS),
    "compress.sweep_kind": _one_of(SWEEP_KINDS),
    "compress.conv_value": ((lambda v: v < 0 or 0 < v <= 1), "in (0, 1] or negative"),
    "compress.lambda": _at_least(0),
    "fine_tune.optimizer": _one_of(tuple(OPTIMIZERS)),
    # a null fine_tune is the one way to switch fine-tuning off
    **{f"fine_tune.{name}": _at_least(1) for name in ("batch_size", "epochs")},
    **{f"fine_tune.{name}": _at_least(0) for name in ("learning_rate", "weight_decay")},
}


def _check_keys(doc, path, allowed):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _value(kind, v, path):
    """v as a value of the field type kind, checked against its rule."""
    if dataclasses.is_dataclass(kind):
        return _parse(kind, v, path)
    if kind is float and type(v) is int:
        v = float(v)
    elif kind is int and type(v) is float and v.is_integer():
        v = int(v)
    elif kind is tuple and type(v) is list:
        v = tuple(v)
    if isinstance(v, bool) or not isinstance(v, kind):
        name = "list" if kind is tuple else kind.__name__
        raise ConfigError(f"{path}: expected {name}, got {type(v).__name__}")
    if kind is float and not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite, got {v!r}")
    test, wanted = _RULES.get(path, (None, None))
    if test is not None and not test(v):
        raise ConfigError(f"{path}: must be {wanted}, got {v!r}")
    return v


def _parse(cls, doc, path):
    """The dataclass cls read from the JSON object doc at path (None: all defaults)."""
    fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    doc = {} if doc is None else doc
    _check_keys(doc, path, fields)
    return cls(**{f.name: _value(f.type, doc[key], f"{path}.{key}")
                  for key, f in fields.items() if doc.get(key) is not None})


def parse_config(doc):
    """Validate a config dict and return an ExperimentConfig."""
    fields = dataclasses.fields(ExperimentConfig)
    _check_keys(doc, "config", ("schema_version", *(f.name for f in fields)))
    values = {}
    for name, kind in (("schema_version", int), *((f.name, f.type) for f in fields)):
        if dataclasses.is_dataclass(kind):
            values[name] = _parse(kind, doc.get(name), name)
        elif doc.get(name) is None:
            raise ConfigError(f"config.{name}: required")
        else:
            values[name] = _value(kind, doc[name], f"config.{name}")
    del values["schema_version"]
    if doc.get("fine_tune") is None:
        values["fine_tune"] = None
    compress = values["compress"]
    spectral = compress.method in SPECTRAL_METHODS
    kind = (doc.get("compress") or {}).get("sweep_kind") or ("alpha" if spectral else "rank")
    if not compress.sweep:
        raise ConfigError("compress.sweep: must be a nonempty list")
    if (kind == "rank") == spectral:
        raise ConfigError(f"compress.sweep_kind: {compress.method} cannot sweep {kind}; "
                          "svd/dalr sweep ranks, the spectral methods alpha or keep_fraction")
    if spectral and not all(type(v) in (int, float) and 0 < v <= 1 for v in compress.sweep):
        raise ConfigError("compress.sweep: alpha/keep_fraction values must be in (0, 1]")
    if not spectral and not all(type(v) is int and v >= 1 for v in compress.sweep):
        raise ConfigError("compress.sweep: rank values must be positive integers")
    if not spectral and compress.conv_value > 0:
        raise ConfigError(f"compress.conv_value: {compress.method} factors only the dense "
                          "layers and would ignore it")
    values["compress"] = dataclasses.replace(compress, sweep_kind=kind)
    n = values["data"].n_per_split
    for section in ("stats", "train"):  # a train count of 0 takes the whole split
        for name in ("target_samples", "source_samples"):
            count = getattr(values[section], name)
            if count > n:
                raise ConfigError(f"{section}.{name}: must be at most data.n_per_split "
                                  f"({n}), got {count}")
    return ExperimentConfig(**values)


def read_config(path):
    """The raw config document at path, not yet validated. An unreadable
    file, bytes that are not UTF-8 or JSON (ValueError), and JSON nested
    deeper than the decoder recurses (RecursionError) raise ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config: {exc}") from exc
