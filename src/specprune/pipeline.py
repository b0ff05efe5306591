"""Config-driven experiment pipeline: data generation, training (with a disk
model cache), statistics, compression sweeps, optional fine-tuning,
evaluation, and CSV/JSON reporting.

Runs are deterministic per (config, seed). Evaluation is always on the target
test split (plus the source test split for reference).
"""

import csv
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import lowrank as lr
from . import net as nm
from . import spectral as sp
from . import stats as st
from . import train as tr
from .config import REG_MODE_BY_METHOD, SPECTRAL_METHODS
from .datasets import make_two_domain
from .errors import DegenerateSigma, FormatError, PipelineStageError, SpecPruneError

ANALYSIS_COLUMNS = ("seed", "layer_pos", "capture", "specificity", "count",
                    "rate_on_source", "rate_on_target")
CLASSIFIER_RANK_RATE = 0.5  # svd/dalr classifier rank, as a share of its break-even rank
SPECIFICITY_KEEP_FRACTION = 0.4  # nodes kept per domain in node_specificity_analysis


# ---------------------------------------------------------------------------
# model factory and training scenarios
# ---------------------------------------------------------------------------

def build_digits_model(model_cfg, seed):
    """Conv(x3) + dense(x2) + classifier stack on 8x8 glyphs, BatchNorm and
    ReLU after every hidden layer, dropout after the conv features."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    c1, c2, c3 = model_cfg.conv_channels
    d1, d2 = model_cfg.dense_widths

    def conv(oc, ic, stride):
        w = rng.normal(size=(oc, ic, 3, 3)) * np.sqrt(2.0 / (ic * 9))
        return nm.Conv2D(w, np.zeros(oc), stride=stride, padding=1)

    def dense(out, inp):
        return nm.Dense(rng.normal(size=(out, inp)) * np.sqrt(2.0 / inp), np.zeros(out))

    def bn(c):
        return nm.BatchNorm(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))

    layers = (
        conv(c1, 1, 1), bn(c1), nm.ReLU(),
        conv(c2, c1, 2), bn(c2), nm.ReLU(),
        conv(c3, c2, 2), bn(c3), nm.ReLU(),
        nm.Flatten(), nm.Dropout(model_cfg.dropout),
        dense(d1, c3 * 4), bn(d1), nm.ReLU(),
        dense(d2, d1), bn(d2), nm.ReLU(),
        dense(10, d2),
    )
    return nm.Network(layers, (1, 8, 8), capture_points=(2, 5, 8, 13, 16))


def _subset(ds, n):
    return ds if n <= 0 else ds.subset(n)


def train_model(cfg, seed, source, target):
    """Train per the configured scenario; deterministic in the seed."""
    netw = build_digits_model(cfg.model, seed)
    ts = cfg.train
    base = dict(optimizer=ts.optimizer, learning_rate=ts.learning_rate,
                weight_decay=ts.weight_decay, batch_size=ts.batch_size, seed=seed)
    if cfg.scenario == "digits_joint":
        data = [_subset(source.train, ts.source_samples),
                _subset(target.train, ts.target_samples)]
        return tr.train(netw, data, tr.TrainConfig(epochs=ts.epochs, **base))
    # pretrain on source, then fine-tune the layers from Flatten up on the
    # target split, pushed once through the frozen conv stack below them
    netw = tr.train(netw, [_subset(source.train, ts.source_samples)],
                    tr.TrainConfig(epochs=ts.pretrain_epochs, **base))
    k = next(i for i, l in enumerate(netw.layers) if isinstance(l, nm.Flatten))
    data = _subset(target.train, ts.target_samples)
    feats = sp._push(netw, data.features, 0, k)
    head = tr.train(nm.Network(netw.layers[k:], feats.shape[1:]),
                    [dataclasses.replace(data, features=feats)],
                    tr.TrainConfig(epochs=ts.finetune_epochs, **base))
    return nm.with_layers(netw, netw.layers[:k] + head.layers)


def _model_cache_key(cfg, seed):
    return st.content_key("model-v3", cfg.scenario, repr(cfg.data), repr(cfg.model),
                          repr(cfg.train), int(seed))


def get_or_train_model(cfg, seed, source, target):
    """Disk-cached trained model. The returned network is always the reloaded
    (float32-quantized) artifact so cache hits and misses are identical. An
    entry that does not load (say, a weights.bin missing or cut short) is
    trained again and overwritten."""
    cache_dir = os.path.join(cfg.paths.out_dir, "models", _model_cache_key(cfg, seed)[:16])
    try:
        return nm.load_model(cache_dir)
    except FormatError:  # no entry yet, or a damaged one
        pass
    nm.save_model(train_model(cfg, seed, source, target), cache_dir)
    return nm.load_model(cache_dir)


# ---------------------------------------------------------------------------
# statistics inputs per data-choice setting
# ---------------------------------------------------------------------------

def stats_features(cfg, source, target):
    """Selection-statistics samples under the configured data-choice mixture."""
    n, m = cfg.stats.target_samples, cfg.stats.source_samples
    if cfg.stats.data_choice == "target_only":
        return target.train.features[:n]
    if cfg.stats.data_choice == "target_source_mix":
        n = m = n // 2
    return np.concatenate([target.train.features[:n], source.train.features[:m]])


def reg_features(cfg, source, target):
    """Equal-count per-domain samples for the moment-matching statistics."""
    n = cfg.stats.target_samples
    return source.train.features[:n], target.train.features[:n]


# ---------------------------------------------------------------------------
# compression dispatch
# ---------------------------------------------------------------------------

def _point_configs(cfg, netw, sweep_value):
    """One spectral sweep point as one GreedyConfig per capture of netw: a
    keep_fraction v caps it at max(1, round(v * width)) nodes, an alpha is
    its alpha, and a conv capture takes conv_value instead when that is set."""
    gcfg = sp.GreedyConfig(lam=cfg.compress.lam,
                           reg_mode=REG_MODE_BY_METHOD[cfg.compress.method])
    conv_value = cfg.compress.conv_value
    configs = {}
    for cp, width in nm.layer_widths(netw).items():
        conv = isinstance(nm._feeding_layer(netw, cp)[1], nm.Conv2D)
        value = conv_value if conv and conv_value > 0 else float(sweep_value)
        configs[cp] = (dataclasses.replace(gcfg, max_cardinality=max(1, round(value * width)))
                       if cfg.compress.sweep_kind == "keep_fraction"
                       else dataclasses.replace(gcfg, alpha=value))
    return configs


def compress_model(cfg, netw, sweep_value, sigma_feats, src_feats, tgt_feats, seed,
                   memo=None):
    """One sweep point: returns (compressed network, per-layer achieved ratios).
    memo: the spectral.SweepMemo of the sweep (see compress_sweep), whose next
    point this is; the factorization methods ignore it."""
    method = cfg.compress.method
    if method not in SPECTRAL_METHODS:
        return _lowrank_compress(netw, method, int(sweep_value), sigma_feats), ()
    compressed, plans = sp.compress_network(
        netw, sigma_feats, _point_configs(cfg, netw, sweep_value), source_features=src_feats,
        target_features=tgt_feats, seed=seed, memo=memo)
    return compressed, tuple(plans[cp].achieved_ratio for cp in sorted(plans))


def _lowrank_compress(netw, method, k, sigma_feats):
    """Factor the hidden dense layers at rank k (the classifier at
    CLASSIFIER_RANK_RATE), input to output; dalr pushes its samples on
    through the compressed prefix from the last layer it factored."""
    dense_idx = [i for i, l in enumerate(netw.layers) if isinstance(l, nm.Dense)]
    current, offset = netw, 0
    x, pushed = sigma_feats, 0  # x is the input of layer `pushed` of current
    for idx in dense_idx:
        i = idx + offset
        layer = current.layers[i]
        m, n = layer.weight.shape
        kk = min(k, m, n) if idx != dense_idx[-1] \
            else max(1, math.floor(CLASSIFIER_RANK_RATE * m * n / (m + n)))
        if not lr.dalr_feasible(kk, m, n):
            continue  # factorization would not shrink the layer
        if method == "dalr":
            x, pushed = sp._push(current, x, pushed, i), i
        inputs = x.T if method == "dalr" else np.eye(n)  # svd: DALR on identity inputs
        factors = lr.factor_dense(layer.weight, layer.bias, inputs, kk)
        current = lr.replace_dense(current, i, factors)
        offset += 1
    return current


def finetune_model(cfg, netw, target, seed):
    """Optional post-compression fine-tuning on the target train split.

    Dropout markers are disabled for node-pruned models (their input
    dimension changed); factorization baselines keep them."""
    ft = cfg.fine_tune
    if ft is None or ft.epochs == 0:
        return netw
    if cfg.compress.method in SPECTRAL_METHODS:
        layers = [dataclasses.replace(l, rate=0.0) if isinstance(l, nm.Dropout) else l
                  for l in netw.layers]
        netw = nm.with_layers(netw, layers)
    tc = tr.TrainConfig(optimizer=ft.optimizer, learning_rate=ft.learning_rate,
                        weight_decay=ft.weight_decay, batch_size=ft.batch_size,
                        epochs=ft.epochs, seed=seed)
    return tr.train(netw, [target.train], tc)


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    seed: int
    method: str
    sweep_value: float
    lam: float
    data_choice: str
    params_before: int
    params_after: int
    flops_before: int
    flops_after: int
    compression_rate: float
    ratio_achieved: tuple  # per pruned layer; empty for factorization methods
    acc_source: float
    acc_target: float
    seconds: float


CSV_COLUMNS = tuple("lambda" if f.name == "lam" else f.name
                    for f in dataclasses.fields(RunRecord))


@dataclass(frozen=True)
class CompressionReport:
    rows: tuple

    def sorted(self):
        return CompressionReport(tuple(sorted(
            self.rows, key=lambda r: (r.seed, r.method, r.sweep_value))))


def _record_to_json(r):
    d = dataclasses.asdict(r)
    d["lambda"] = d.pop("lam")
    d["ratio_achieved"] = list(r.ratio_achieved)
    return d


def _record_to_flat(r):
    d = _record_to_json(r)
    d["ratio_achieved"] = float(np.mean(r.ratio_achieved)) if r.ratio_achieved else ""
    return d


def _write_table(rows, columns, path, fmt):
    """Write dict rows to path: as CSV with the given columns (None as an
    empty field), or as JSON {"rows": rows}. Any other fmt is a ValueError."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        if fmt == "json":
            json.dump({"rows": rows}, fh, indent=1)
        else:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)


def emit_report(report, path, fmt="csv"):
    """Write the report. CSV flattens ratio_achieved to its mean; JSON keeps
    the per-layer tuple and round-trips to an identical in-memory report."""
    flat = _record_to_flat if fmt == "csv" else _record_to_json
    _write_table([flat(r) for r in report.rows], CSV_COLUMNS, path, fmt)


def load_report(path):
    """Read a report that emit_report wrote as JSON.

    Raises FormatError, naming the file, for an unreadable file or JSON, a
    document without a "rows" list, or a row that is not a RunRecord."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:  # its message names the file
        raise FormatError(f"unreadable report: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise FormatError(f"{path}: unreadable report: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise FormatError(f'{path}: not a report: no "rows" list')
    rows = []
    for i, d in enumerate(doc["rows"]):
        try:
            d = dict(d)
            d["lam"] = d.pop("lambda")
            d["ratio_achieved"] = tuple(d["ratio_achieved"])
            rows.append(RunRecord(**d))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: row {i} is malformed: "
                              f"{type(exc).__name__}: {exc}") from exc
    return CompressionReport(tuple(rows))


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SpecPruneError as exc:
        raise PipelineStageError(name, exc) from exc


def load_domains(cfg, seed):
    """The seed's (source, target) domains."""
    return _stage("gen-data", make_two_domain, seed, cfg.data.n_per_split, cfg.data.shift)


def load_inputs(cfg, seed):
    """The seed's (source, target) domains and its trained model, from the
    model cache when it holds one."""
    source, target = load_domains(cfg, seed)
    model = _stage("train", get_or_train_model, cfg, seed, source, target)
    return source, target, model


def compress_sweep(cfg, seed, source, target, model):
    """Yield (value, compressed network, per-layer ratios, compress seconds)
    for each sweep value in order. A spectral sweep's points share one
    SweepMemo, so each point does only the capture work no earlier point
    did; the memo is freed once the generator is exhausted."""
    sigma_feats = stats_features(cfg, source, target)
    src_feats, tgt_feats = reg_features(cfg, source, target)
    memo = sp.SweepMemo([_point_configs(cfg, model, v) for v in cfg.compress.sweep]) \
        if cfg.compress.method in SPECTRAL_METHODS else None
    for value in cfg.compress.sweep:
        t0 = time.perf_counter()
        compressed, ratios = _stage("compress", compress_model, cfg, model, value,
                                    sigma_feats, src_feats, tgt_feats, seed, memo=memo)
        yield value, compressed, ratios, time.perf_counter() - t0


def run(cfg, log=None):
    """Full sweep: train -> collect stats -> compress -> (fine-tune) -> evaluate,
    one record per (seed, sweep point). Deterministic per seed.

    The points of one seed come from compress_sweep; a row's `seconds` is
    the compress time of its own point. Once every point of the seed is
    compressed (and fine-tuned), and so the sweep's memo is freed, one
    `train.evaluate` call per test split evaluates them in sweep order, each
    point resuming from the leading layers it shares with the point before
    it. Fine-tuned points share no layers and are evaluated from the input."""
    say = log or (lambda *_: None)
    records = []
    for seed in cfg.seeds:
        source, target, model = load_inputs(cfg, seed)
        params_before = nm.count_params(model)
        flops_before = nm.count_flops(model)
        points = []
        for value, compressed, ratios, seconds in compress_sweep(cfg, seed, source,
                                                                 target, model):
            compressed = _stage("finetune", finetune_model, cfg, compressed, target, seed)
            points.append((value, compressed, ratios, seconds))
        networks = [compressed for _, compressed, _, _ in points]
        accs_source = _stage("eval", tr.evaluate, networks, source.test)
        accs_target = _stage("eval", tr.evaluate, networks, target.test)
        for (value, compressed, ratios, seconds), acc_source, acc_target in zip(
                points, accs_source, accs_target):
            params_after = nm.count_params(compressed)
            records.append(RunRecord(
                seed=seed, method=cfg.compress.method, sweep_value=float(value),
                lam=cfg.compress.lam, data_choice=cfg.stats.data_choice,
                params_before=params_before, params_after=params_after,
                flops_before=flops_before, flops_after=nm.count_flops(compressed),
                compression_rate=1.0 - params_after / params_before,
                ratio_achieved=ratios, acc_source=acc_source,
                acc_target=acc_target, seconds=seconds))
            say(f"seed={seed} {cfg.compress.method}@{value}: "
                f"cr={records[-1].compression_rate:.3f} "
                f"acc_t={acc_target:.3f} ({seconds:.1f}s)")
    return CompressionReport(tuple(records)).sorted()


# ---------------------------------------------------------------------------
# node-specificity analysis
# ---------------------------------------------------------------------------

def node_specificity_analysis(cfg, log=None):
    """Prune a layer under source-only vs target-only statistics and compare
    the activation rates of the selection-specific node classes on both
    domains; repeated at the first and last capture points. The moments are
    sampled by the compressor's own sampler, spectral._rows_to_acc. Each
    domain's statistics samples and test split are pushed once, to the first
    capture and from there on to the last. A selection that fails is
    reported under the stage tag "analyze", with its capture and domain."""
    say = log or (lambda *_: None)
    rows = []
    for seed in cfg.seeds:
        source, target, model = load_inputs(cfg, seed)
        widths = nm.layer_widths(model)
        n = cfg.stats.target_samples
        first, last = min(model.capture_points), max(model.capture_points)

        def push(x):
            a = sp._push(model, x, 0, first + 1)
            return {"first": a, "last": sp._push(model, a, first + 1, last + 1)}

        domains = {"source": source, "target": target}
        train_acts = {d: push(ds.train.features[:n]) for d, ds in domains.items()}
        rates = {d: {pos: st.activation_rates(a) for pos, a in push(ds.test.features).items()}
                 for d, ds in domains.items()}
        for pos, cp in (("first", first), ("last", last)):
            keep = max(1, round(SPECIFICITY_KEEP_FRACTION * widths[cp]))
            gcfg = sp.GreedyConfig(max_cardinality=keep)
            j_source, j_target = (
                _stage("analyze", _domain_selection, cp, train_acts[domain][pos], seed,
                       domain, gcfg)
                for domain in ("source", "target"))
            classes = {
                "source": sorted(j_source - j_target),
                "target": sorted(j_target - j_source),
                "none": sorted(set(range(widths[cp])) - (j_source | j_target)),
            }
            for name, nodes in classes.items():
                row = {"seed": seed, "layer_pos": pos, "capture": cp,
                       "specificity": name, "count": len(nodes),
                       "rate_on_source": None, "rate_on_target": None}
                if nodes:
                    row["rate_on_source"] = float(rates["source"][pos][nodes].mean())
                    row["rate_on_target"] = float(rates["target"][pos][nodes].mean())
                rows.append(row)
            say(f"seed={seed} {pos} layer: "
                + ", ".join(f"{k}:{len(v)}" for k, v in classes.items()))
    return rows


def _domain_selection(cp, acts, seed, domain, gcfg):
    """The set of nodes find_subset keeps at capture cp under one domain's
    statistics of its pushed activations acts."""
    acc = sp._rows_to_acc(cp, acts, np.random.default_rng(seed))
    sigma = st.finalize(acc, domain).sigma
    try:
        return set(sp.find_subset(sigma, gcfg).selected)
    except DegenerateSigma as exc:
        raise DegenerateSigma(f"capture point {cp} ({domain} statistics): {exc}") from exc


def emit_analysis(rows, path, fmt="csv"):
    """Write node_specificity_analysis rows as CSV or JSON."""
    _write_table(rows, ANALYSIS_COLUMNS, path, fmt)
