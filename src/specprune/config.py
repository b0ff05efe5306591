"""Experiment configuration: a versioned JSON document with strict validation.

Unknown keys are errors (silent typos would invalidate sweeps), and every
error message carries the offending field path.
"""

import json
from dataclasses import dataclass, field

from .datasets import DomainShiftConfig
from .errors import ConfigError

SCHEMA_VERSION = 1

SCENARIOS = ("digits_joint", "pretrain_finetune")
DATA_CHOICES = ("target_only", "target_source_mix", "target_plus_source")
METHODS = ("spectral", "spectral_reg_subset", "spectral_reg_node", "svd", "dalr")
SWEEP_KINDS = ("alpha", "keep_fraction", "rank")
SPECTRAL_METHODS = ("spectral", "spectral_reg_subset", "spectral_reg_node")


def _check_keys(d, path, allowed):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for k in d:
        if k not in allowed:
            raise ConfigError(f"{path}.{k}: unknown key")


def _get(d, path, key, kind, default=None, required=False):
    if key not in d or d[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if kind is float and isinstance(v, int):
        v = float(v)
    if kind is int and isinstance(v, float) and v.is_integer():
        v = int(v)
    if not isinstance(v, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(v).__name__}")
    return v


def _choice(d, path, key, options, default):
    v = _get(d, path, key, str, default)
    if v not in options:
        raise ConfigError(f"{path}.{key}: must be one of {options}, got {v!r}")
    return v


def _at_least(section, path, names, low):
    for name in names:
        if getattr(section, name) < low:
            raise ConfigError(f"{path}.{name}: must be at least {low}, "
                              f"got {getattr(section, name)}")


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
    target_samples: int = 2000
    source_samples: int = 1000
    row_budget: int = 4096
    covariance: str = "centered"


@dataclass(frozen=True)
class CompressSection:
    method: str = "spectral"
    sweep: tuple = ()
    sweep_kind: str = "alpha"
    conv_value: float = -1.0  # separate alpha/keep fraction for conv captures; <0 follows sweep
    lam: float = 1.0
    ridge: float = -1.0
    classifier_rank_rate: float = 0.5


@dataclass(frozen=True)
class FineTuneSection:
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    batch_size: int = 50
    epochs: int = 2


@dataclass(frozen=True)
class AnalysisSection:
    keep_fraction: float = 0.4


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
    fine_tune: FineTuneSection  # or None
    analysis: AnalysisSection
    paths: PathsSection


def _parse_shift(d, path):
    if d is None:
        return DomainShiftConfig()
    _check_keys(d, path, ("gain", "offset", "dx", "dy", "noise_std_extra"))
    shift = DomainShiftConfig(
        gain=_get(d, path, "gain", float, 0.55),
        offset=_get(d, path, "offset", float, 0.35),
        dx=_get(d, path, "dx", int, 1),
        dy=_get(d, path, "dy", int, 0),
        noise_std_extra=_get(d, path, "noise_std_extra", float, 0.05),
    )
    # a translation of 8 or more pixels moves the whole 8x8 glyph out
    for name in ("dx", "dy"):
        if not -7 <= getattr(shift, name) <= 7:
            raise ConfigError(f"{path}.{name}: must be in [-7, 7], "
                              f"got {getattr(shift, name)}")
    _at_least(shift, path, ("noise_std_extra",), 0)
    return shift


def _parse_section(d, path, cls, fields):
    if d is None:
        return cls()
    _check_keys(d, path, tuple(fields))
    kwargs = {}
    for name, (key, kind, default) in fields.items():
        kwargs[name] = _get(d, path, key, kind, default)
    return cls(**kwargs)


def parse_config(doc):
    """Validate a config dict and return an ExperimentConfig."""
    _check_keys(doc, "config", ("schema_version", "scenario", "seeds", "data", "model",
                                "train", "stats", "compress", "fine_tune", "analysis",
                                "paths"))
    version = _get(doc, "config", "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: expected {SCHEMA_VERSION}, got {version}")
    scenario = _choice(doc, "config", "scenario", SCENARIOS, None)
    if scenario is None:
        raise ConfigError("config.scenario: required")
    seeds = _get(doc, "config", "seeds", list, required=True)
    if not seeds or not all(isinstance(s, int) and s >= 0 for s in seeds):
        raise ConfigError("config.seeds: must be a nonempty list of non-negative integers")

    data_doc = doc.get("data") or {}
    _check_keys(data_doc, "data", ("n_per_split", "shift"))
    data = DataSection(
        n_per_split=_get(data_doc, "data", "n_per_split", int, 1500),
        shift=_parse_shift(data_doc.get("shift"), "data.shift"),
    )
    if data.n_per_split < 100:
        raise ConfigError("data.n_per_split: must be at least 100")

    model_doc = doc.get("model") or {}
    _check_keys(model_doc, "model", ("conv_channels", "dense_widths", "dropout"))
    defaults = ModelSection()
    model = ModelSection(
        conv_channels=tuple(_get(model_doc, "model", "conv_channels", list,
                                 list(defaults.conv_channels))),
        dense_widths=tuple(_get(model_doc, "model", "dense_widths", list,
                                list(defaults.dense_widths))),
        dropout=_get(model_doc, "model", "dropout", float, defaults.dropout),
    )
    if len(model.conv_channels) != 3 or len(model.dense_widths) != 2:
        raise ConfigError("model: expected 3 conv channel counts and 2 dense widths")
    for key in ("conv_channels", "dense_widths"):
        if not all(type(v) is int and v > 0 for v in getattr(model, key)):
            raise ConfigError(f"model.{key}: must be positive integers")
    if not 0.0 <= model.dropout < 1.0:
        raise ConfigError("model.dropout: must be in [0, 1)")

    train = _parse_section(doc.get("train"), "train", TrainSection, {
        "optimizer": ("optimizer", str, "adam"),
        "learning_rate": ("learning_rate", float, 1e-3),
        "weight_decay": ("weight_decay", float, 5e-4),
        "batch_size": ("batch_size", int, 50),
        "epochs": ("epochs", int, 10),
        "source_samples": ("source_samples", int, 0),
        "target_samples": ("target_samples", int, 0),
        "pretrain_epochs": ("pretrain_epochs", int, 10),
        "finetune_epochs": ("finetune_epochs", int, 4),
    })
    if train.optimizer not in ("sgd", "adam"):
        raise ConfigError(f"train.optimizer: must be sgd or adam, got {train.optimizer!r}")
    _at_least(train, "train", ("batch_size",), 1)
    _at_least(train, "train", ("learning_rate", "epochs", "source_samples",
                               "target_samples", "pretrain_epochs", "finetune_epochs"), 0)

    stats_doc = doc.get("stats") or {}
    _check_keys(stats_doc, "stats", ("data_choice", "target_samples", "source_samples",
                                     "row_budget", "covariance"))
    stats = StatsSection(
        data_choice=_choice(stats_doc, "stats", "data_choice", DATA_CHOICES,
                            "target_only"),
        target_samples=_get(stats_doc, "stats", "target_samples", int, 2000),
        source_samples=_get(stats_doc, "stats", "source_samples", int, 1000),
        row_budget=_get(stats_doc, "stats", "row_budget", int, 4096),
        covariance=_choice(stats_doc, "stats", "covariance",
                           ("centered", "uncentered"), "centered"),
    )
    _at_least(stats, "stats", ("target_samples",), 2)
    _at_least(stats, "stats", ("source_samples", "row_budget"), 0)

    compress_doc = doc.get("compress") or {}
    _check_keys(compress_doc, "compress",
                ("method", "sweep", "sweep_kind", "conv_value", "lambda", "ridge",
                 "classifier_rank_rate"))
    method = _choice(compress_doc, "compress", "method", METHODS, "spectral")
    sweep = _get(compress_doc, "compress", "sweep", list, required=True)
    if not sweep:
        raise ConfigError("compress.sweep: must be nonempty")
    default_kind = "alpha" if method in SPECTRAL_METHODS else "rank"
    kind = _choice(compress_doc, "compress", "sweep_kind", SWEEP_KINDS, default_kind)
    if method in SPECTRAL_METHODS:
        if kind == "rank":
            raise ConfigError("compress.sweep_kind: rank sweeps need an svd/dalr method")
        if not all(isinstance(v, (int, float)) and 0 < v <= 1 for v in sweep):
            raise ConfigError("compress.sweep: alpha/keep_fraction values must be in (0, 1]")
    else:
        if kind != "rank":
            raise ConfigError(f"compress.sweep_kind: {method} sweeps ranks")
        if not all(isinstance(v, int) and v >= 1 for v in sweep):
            raise ConfigError("compress.sweep: rank values must be positive integers")
    compress = CompressSection(
        method=method,
        sweep=tuple(sweep),
        sweep_kind=kind,
        conv_value=_get(compress_doc, "compress", "conv_value", float, -1.0),
        lam=_get(compress_doc, "compress", "lambda", float, 1.0),
        ridge=_get(compress_doc, "compress", "ridge", float, -1.0),
        classifier_rank_rate=_get(compress_doc, "compress", "classifier_rank_rate",
                                  float, 0.5),
    )
    if compress.lam < 0:
        raise ConfigError("compress.lambda: must be non-negative")
    if compress.conv_value > 1:
        raise ConfigError("compress.conv_value: must be in (0, 1] or negative")

    fine_tune = None
    if doc.get("fine_tune") is not None:
        fine_tune = _parse_section(doc["fine_tune"], "fine_tune", FineTuneSection, {
            "optimizer": ("optimizer", str, "adam"),
            "learning_rate": ("learning_rate", float, 1e-4),
            "weight_decay": ("weight_decay", float, 5e-4),
            "batch_size": ("batch_size", int, 50),
            "epochs": ("epochs", int, 2),
        })
        _at_least(fine_tune, "fine_tune", ("batch_size",), 1)
        _at_least(fine_tune, "fine_tune", ("learning_rate", "epochs"), 0)

    analysis_doc = doc.get("analysis") or {}
    _check_keys(analysis_doc, "analysis", ("keep_fraction",))
    analysis = AnalysisSection(
        keep_fraction=_get(analysis_doc, "analysis", "keep_fraction", float, 0.4))
    if not 0 < analysis.keep_fraction < 1:
        raise ConfigError("analysis.keep_fraction: must be in (0, 1)")

    paths_doc = doc.get("paths") or {}
    _check_keys(paths_doc, "paths", ("out_dir",))
    paths = PathsSection(
        out_dir=_get(paths_doc, "paths", "out_dir", str, "runs"),
    )

    return ExperimentConfig(scenario=scenario, seeds=tuple(seeds), data=data,
                            model=model, train=train, stats=stats, compress=compress,
                            fine_tune=fine_tune, analysis=analysis, paths=paths)


def read_config(path):
    """The raw config document at path, not yet validated."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
