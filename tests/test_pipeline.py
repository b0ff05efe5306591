import argparse
import dataclasses
import hashlib
import json
import os
import re

import numpy as np
import pytest
from blas_threads import (_openblas_thread_controls, one_blas_thread,
                          outputs_at_one_and_two_threads)

from specprune import cli
from specprune import net as nm
from specprune import pipeline as pl
from specprune import spectral as sp
from specprune import stats as st
from specprune import train as tr
from specprune.config import parse_config, read_config
from specprune.datasets import make_two_domain
from specprune.errors import ConfigError, DegenerateData, Diverged, FormatError


def tiny_doc(out_dir, **compress):
    doc = {
        "schema_version": 1,
        "scenario": "digits_joint",
        "seeds": [0],
        "data": {"n_per_split": 150},
        "model": {"conv_channels": [4, 4, 8], "dense_widths": [24, 24]},
        "train": {"epochs": 2, "batch_size": 32},
        "stats": {"target_samples": 150, "source_samples": 75},
        "compress": {"method": "spectral", "sweep": [0.9], **compress},
        "paths": {"out_dir": str(out_dir)},
    }
    return doc


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = parse_config(tiny_doc(out))
    source, target = make_two_domain(0, cfg.data.n_per_split, cfg.data.shift)
    model = pl.get_or_train_model(cfg, 0, source, target)
    return out, cfg, source, target, model


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_unknown_key_reports_path(tmp_path):
    doc = tiny_doc(tmp_path)
    doc["compress"]["sweeep"] = [0.9]
    with pytest.raises(ConfigError, match="compress.sweeep"):
        parse_config(doc)
    doc2 = tiny_doc(tmp_path)
    doc2["stats"] = {"data_choise": "target_only"}
    with pytest.raises(ConfigError, match="stats.data_choise"):
        parse_config(doc2)
    # removed options: the greedy ridge, the classifier rank rate of the
    # factorization baselines, the node-specificity keep fraction and the
    # statistics row budget
    for section, key, value, path in (("compress", "ridge", -1.0, "compress.ridge"),
                                      ("compress", "classifier_rank_rate", 0.5,
                                       "compress.classifier_rank_rate"),
                                      ("stats", "row_budget", 4096, "stats.row_budget"),
                                      (None, "analysis", {"keep_fraction": 0.4},
                                       "config.analysis")):
        doc3 = tiny_doc(tmp_path)
        (doc3[section] if section else doc3)[key] = value
        with pytest.raises(ConfigError, match=f"{path}: unknown key"):
            parse_config(doc3)


def test_config_method_sweep_compatibility(tmp_path):
    doc = tiny_doc(tmp_path, method="svd", sweep=[0.5])
    with pytest.raises(ConfigError, match="compress.sweep"):
        parse_config(doc)
    doc = tiny_doc(tmp_path, method="spectral", sweep=[2])
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = tiny_doc(tmp_path, method="dalr", sweep=[4, 8])
    cfg = parse_config(doc)
    assert cfg.compress.sweep_kind == "rank"


def test_config_requires_seeds_and_version(tmp_path):
    doc = tiny_doc(tmp_path)
    doc["seeds"] = []
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(doc)
    doc = tiny_doc(tmp_path)
    doc["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(doc)


@pytest.mark.parametrize("content", (b"\xff\xfe{\"seeds\": [0]}", b"[" * 100_000),
                         ids=("not_utf8", "deeply_nested"))
def test_cli_reports_an_undecodable_config(tmp_path, capsys, content):
    # a decode failure is a ConfigError, which the CLI prints in one line
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "Traceback" not in err


def test_model_cache_key_is_pinned(tmp_path):
    # the key hashes the reprs of the data, model and train sections, so a
    # change to them would silently retrain every cached model
    example = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "example.json")
    cfg = parse_config(read_config(example))
    assert pl._model_cache_key(cfg, 0) == \
        "a1fdf22c4c2ea72ab6b0144ca4a745382d46579dc9e712480771d9899a09d866"
    c09 = parse_config({  # the regularization-trend acceptance document
        "schema_version": 1, "scenario": "pretrain_finetune", "seeds": list(range(10)),
        "data": {"n_per_split": 1500,
                 "shift": {"gain": 0.8, "offset": 0.15, "dx": 1, "noise_std_extra": 0.02}},
        "train": {"epochs": 8, "pretrain_epochs": 10, "finetune_epochs": 6},
        "stats": {"target_samples": 1500, "source_samples": 750},
        "compress": {"method": "spectral", "sweep": [0.25, 0.18, 0.12],
                     "sweep_kind": "keep_fraction", "conv_value": 0.6, "lambda": 1.0},
        "paths": {"out_dir": str(tmp_path)},
    })
    assert pl._model_cache_key(c09, 0) == \
        "d59e17d1fdad7e7c85da449eb3c99b30cbfa0be7cd6241cecd39767f17aa38ee"


def test_model_cache_tag_pins_training_arithmetic(tmp_path):
    # the cache key does not hash the code, so a warm model cache would
    # serve models that changed training arithmetic no longer produces
    cfg = parse_config(tiny_doc(tmp_path))
    assert pl._model_cache_key(cfg, 0) == st.content_key(
        "model-v3", cfg.scenario, repr(cfg.data), repr(cfg.model), repr(cfg.train), 0)
    source, target = make_two_domain(0, cfg.data.n_per_split, cfg.data.shift)
    nm.save_model(pl.train_model(cfg, 0, source, target), tmp_path / "m")
    digest = hashlib.sha256((tmp_path / "m" / "weights.bin").read_bytes()).hexdigest()
    assert digest == "3d9f4cd9d44ff14785fbfc1557eef639d8ea3254811fa45f2c39e3cf82945e35", (
        "the trained weights changed: bump the \"model-v3\" tag in "
        "pipeline._model_cache_key together with this digest")


def weights_digest(netw, path):
    nm.save_model(netw, path)
    return hashlib.sha256((path / "weights.bin").read_bytes()).hexdigest()


def test_pretrain_finetune_training_is_pinned(tmp_path):
    # fine-tuning freezes the conv stack, so the lowest trainable layer is a
    # dense layer under frozen convs and BatchNorms
    doc = tiny_doc(tmp_path)
    doc["scenario"] = "pretrain_finetune"
    doc["train"] = {"pretrain_epochs": 2, "finetune_epochs": 2, "batch_size": 32}
    cfg = parse_config(doc)
    source, target = make_two_domain(0, cfg.data.n_per_split, cfg.data.shift)
    assert weights_digest(pl.train_model(cfg, 0, source, target), tmp_path / "m") == \
        "af25d7657c7d930bb5f1c3472e3d855c5e2ae1262f43e4e97545a079d693f8bf"


def test_finetune_trains_a_head_on_pushed_target_features(tmp_path, monkeypatch):
    # the conv stack is pushed once: the fine-tune trains a network of the
    # layers from Flatten up on the target split's conv features, and the
    # model keeps the pretrained layer objects below Flatten
    doc = tiny_doc(tmp_path)
    doc["scenario"] = "pretrain_finetune"
    doc["train"] = {"pretrain_epochs": 1, "finetune_epochs": 1, "batch_size": 32}
    cfg = parse_config(doc)
    source, target = make_two_domain(0, cfg.data.n_per_split, cfg.data.shift)
    calls = []
    train = tr.train

    def spy(network, data, cfg):
        out = train(network, data, cfg)
        calls.append((network, list(data), out))
        return out
    monkeypatch.setattr(tr, "train", spy)
    model = pl.train_model(cfg, 0, source, target)
    (_, [pre_data], pretrained), (head, [data], tuned) = calls
    assert pre_data is source.train
    k = next(i for i, layer in enumerate(model.layers) if isinstance(layer, nm.Flatten))
    assert all(a is b for a, b in zip(model.layers[:k], pretrained.layers[:k]))
    assert all(a is b for a, b in zip(head.layers, pretrained.layers[k:]))
    assert all(a is b for a, b in zip(model.layers[k:], tuned.layers))
    assert len(head.layers) == len(model.layers) - k
    assert model.capture_points == pretrained.capture_points
    assert np.array_equal(data.features, sp._push(pretrained, target.train.features, 0, k))
    assert np.array_equal(data.labels, target.train.labels)


def test_finetune_model_is_pinned(tiny_setup, tmp_path):
    # fine-tuning after compression trains every layer of the pruned model
    out, _, source, target, model = tiny_setup
    cfg = parse_config({**tiny_doc(out), "fine_tune": {"epochs": 1}})
    (_, compressed, _, _), = pl.compress_sweep(cfg, 0, source, target, model)
    tuned = pl.finetune_model(cfg, compressed, target, 0)
    assert weights_digest(tuned, tmp_path / "m") == \
        "8a10ba3f0c48a4c3709441e43496dd1b9eb537348a31b048a54bba08cd821507"


_TRAIN_SCRIPT = """
import hashlib, os, sys
from specprune import net as nm
from specprune import pipeline as pl
from specprune.config import parse_config
from specprune.datasets import make_two_domain
for scenario, train in (("digits_joint", {"epochs": 1, "batch_size": 100}),
                        ("pretrain_finetune", {"pretrain_epochs": 1, "finetune_epochs": 1,
                                               "batch_size": 100})):
    out = os.path.join(sys.argv[1], scenario)
    cfg = parse_config({"schema_version": 1, "scenario": scenario, "seeds": [0],
                        "data": {"n_per_split": 100}, "train": train,
                        "stats": {"target_samples": 100, "source_samples": 50},
                        "compress": {"method": "spectral", "sweep": [0.5]},
                        "paths": {"out_dir": out}})
    source, target = make_two_domain(0, cfg.data.n_per_split, cfg.data.shift)
    nm.save_model(pl.train_model(cfg, 0, source, target), out)
    with open(os.path.join(out, "weights.bin"), "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())
"""


def test_training_independent_of_blas_threads(tmp_path):
    # The default architecture at batch 100: its conv GEMMs are large enough
    # for OpenBLAS to split them across threads (a weight gradient taken
    # through a transposed view of the im2col matrix differs at 2 threads).
    # Jointly trained, and fine-tuned over the frozen conv stack, which runs
    # the inference forward. The 1-thread weights are pinned too, so the
    # benchmark's layer shapes pin the training arithmetic, not only the
    # tiny models.
    digests = outputs_at_one_and_two_threads(_TRAIN_SCRIPT,
                                             lambda threads: [str(tmp_path / threads)])
    assert digests[0].split() == [
        "b2c43af25c9adaaec484a5facedbb7fdafc57f7888798a07739ffe9389433712",
        "6cb07fd0dd29eeb280a31d40e2443105baaa205b976fc97ff11605975f14a28f"]
    assert digests[0] == digests[1]


def test_one_blas_thread_sets_and_restores_the_thread_count():
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    with one_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


def test_interrupted_save_leaves_no_cache_entry(tmp_path, monkeypatch):
    cfg = parse_config(tiny_doc(tmp_path))
    source, target = make_two_domain(0, cfg.data.n_per_split, cfg.data.shift)
    trained = []
    train_model = pl.train_model
    monkeypatch.setattr(pl, "train_model",
                        lambda *args: trained.append(args) or train_model(*args))

    class Interrupted(Exception):
        pass

    def dump(*args, **kwargs):
        raise Interrupted

    with monkeypatch.context() as m:
        m.setattr(nm.json, "dump", dump)
        with pytest.raises(Interrupted):
            pl.get_or_train_model(cfg, 0, source, target)
    model = pl.get_or_train_model(cfg, 0, source, target)
    assert len(trained) == 2
    hit = pl.get_or_train_model(cfg, 0, source, target)
    assert len(trained) == 2
    x = target.test.features[:16]
    assert np.array_equal(nm.forward(hit, x)[0], nm.forward(model, x)[0])


def test_damaged_cache_entry_is_retrained(tmp_path, monkeypatch):
    cfg = parse_config(tiny_doc(tmp_path / "damaged"))
    source, target = make_two_domain(0, cfg.data.n_per_split, cfg.data.shift)
    pl.get_or_train_model(cfg, 0, source, target)
    entry = os.path.join(cfg.paths.out_dir, "models", pl._model_cache_key(cfg, 0)[:16])
    weights = os.path.join(entry, "weights.bin")
    with open(weights, "r+b") as fh:
        fh.truncate(os.path.getsize(weights) // 2)
    trained = []
    train_model = pl.train_model
    monkeypatch.setattr(pl, "train_model",
                        lambda *args: trained.append(args) or train_model(*args))
    model = pl.get_or_train_model(cfg, 0, source, target)
    assert len(trained) == 1
    fresh = pl.get_or_train_model(parse_config(tiny_doc(tmp_path / "fresh")), 0,
                                  source, target)
    assert len(trained) == 2
    assert len(model.layers) == len(fresh.layers)
    for a, b in zip(model.layers, fresh.layers):
        assert nm.tensor_fields(a) == nm.tensor_fields(b)
        for name in nm.tensor_fields(a):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    nm.load_model(entry)  # the entry was overwritten whole


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_doc(tmp_path)))
    cfg = parse_config(read_config(path))
    assert cfg.scenario == "digits_joint"
    assert cfg.compress.sweep == (0.9,)


# ---------------------------------------------------------------------------
# run()
# ---------------------------------------------------------------------------

def _strip_seconds(report):
    return [dataclasses.replace(r, seconds=0.0) for r in report.rows]


def test_run_lambda_zero_matches_unregularized(tiny_setup):
    out, cfg, *_ = tiny_setup
    base = pl.run(dataclasses.replace(cfg, compress=dataclasses.replace(
        cfg.compress, method="spectral")))
    for method in ("spectral_reg_node", "spectral_reg_subset"):
        reg = pl.run(dataclasses.replace(cfg, compress=dataclasses.replace(
            cfg.compress, method=method, lam=0.0)))
        for a, b in zip(_strip_seconds(base), _strip_seconds(reg)):
            assert dataclasses.replace(a, method="x", lam=0.0) \
                == dataclasses.replace(b, method="x", lam=0.0)


def test_run_alpha_one_keeps_everything(tiny_setup):
    # needs a full-rank model (no dead nodes): seed 2 verified to have all
    # capture spectra bounded away from zero
    out, cfg, *_ = tiny_setup
    cfg = dataclasses.replace(cfg, seeds=(2,), compress=dataclasses.replace(
        cfg.compress, sweep=(1.0,)))
    source, target = make_two_domain(2, cfg.data.n_per_split, cfg.data.shift)
    model = pl.get_or_train_model(cfg, 2, source, target)
    report = pl.run(cfg)
    row = report.rows[0]
    assert row.compression_rate == pytest.approx(0.0, abs=1e-12)
    assert row.params_after == row.params_before
    base_acc = tr.evaluate([model], target.test)[0]
    assert row.acc_target == pytest.approx(base_acc, abs=1e-6)


def test_run_rates_and_determinism(tiny_setup):
    out, cfg, *_ = tiny_setup
    cfg2 = dataclasses.replace(cfg, compress=dataclasses.replace(
        cfg.compress, sweep=(0.6, 0.9)))
    r1 = pl.run(cfg2)
    r2 = pl.run(cfg2)
    assert len(r1.rows) == 2
    for a, b in zip(_strip_seconds(r1), _strip_seconds(r2)):
        assert a == b
    for row in r1.rows:
        assert row.compression_rate == 1.0 - row.params_after / row.params_before
        assert 0.0 <= row.compression_rate < 1.0
        assert 0.0 <= row.acc_target <= 1.0


def test_run_lowrank_methods(tiny_setup):
    out, cfg, *_ = tiny_setup
    for method in ("svd", "dalr"):
        cfg2 = dataclasses.replace(cfg, compress=dataclasses.replace(
            cfg.compress, method=method, sweep=(4,), sweep_kind="rank"))
        report = pl.run(cfg2)
        row = report.rows[0]
        assert row.params_after < row.params_before
        assert row.ratio_achieved == ()


def test_dalr_on_non_finite_activations_is_a_typed_error(tiny_setup):
    # the hidden dense weights scaled by 1e200 overflow the second one's
    # output to inf, which the factorization refuses as a SpecPruneError
    _, cfg, source, target, model = tiny_setup
    layers = list(model.layers)
    for i in (11, 14):
        layers[i] = dataclasses.replace(layers[i], weight=layers[i].weight * 1e200)
    cfg = dataclasses.replace(cfg, compress=dataclasses.replace(
        cfg.compress, method="dalr", sweep=(8,), sweep_kind="rank"))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DegenerateData, match="non-finite"):
        pl.compress_model(cfg, nm.with_layers(model, layers), 8,
                          pl.stats_features(cfg, source, target), None, None, 0)


@pytest.mark.parametrize("method, digest, digest64", [
    ("dalr", "cf4f8ac0a12616411472aa11fd310db07afae6a9ff5bd07cc2e83b45a984620e",
     "961436867e5dfbed056670de560487bfaaefd7e031997a76a2fd9b4f13222782"),
    ("svd", "d03bbe23586c3f9cbea75cc50cbdd9473c4a0616fc7707af44e66da50423cd5d",
     "43bea5a129937cfea6be46f232184f8490cd08ae0f2a37e7ae13f091f1d66235"),
], ids=("dalr", "svd"))
def test_lowrank_sweep_models_are_pinned(tiny_setup, tmp_path, method, digest, digest64):
    # The save_model bytes of every point of a rank sweep, and its tensors
    # in memory as float64: save_model writes float32, so a change of a few
    # ulps shows only in the second digest (the tiny model's sweep gave the
    # same float64 bits at 1 and 2 BLAS threads). Inference layers act row by
    # row on the same blocks, so pushing from the input and pushing on from
    # the last factored layer give these bytes alike. Rank 16 factors only
    # the classifier; 600 samples span three push blocks.
    _, cfg, _, _, model = tiny_setup
    cfg = dataclasses.replace(
        cfg, stats=dataclasses.replace(cfg.stats, target_samples=600),
        compress=dataclasses.replace(cfg.compress, method=method, sweep=(16, 8, 4, 2),
                                     sweep_kind="rank"))
    source, target = make_two_domain(0, 600, cfg.data.shift)
    h, h64 = hashlib.sha256(), hashlib.sha256()
    for value, compressed, _, _ in pl.compress_sweep(cfg, 0, source, target, model):
        h.update(_model_bytes(compressed, tmp_path / str(value)))
        for layer in compressed.layers:
            for name in nm.tensor_fields(layer):
                h64.update(np.ascontiguousarray(getattr(layer, name), dtype=np.float64)
                           .tobytes())
    assert h.hexdigest() == digest
    assert h64.hexdigest() == digest64


def test_fine_tune_runs_and_disables_dropout(tiny_setup):
    out, cfg, source, target, model = tiny_setup
    from specprune.config import FineTuneSection
    cfg2 = dataclasses.replace(cfg, fine_tune=FineTuneSection(epochs=1))
    feats = pl.stats_features(cfg2, source, target)
    src_f, tgt_f = pl.reg_features(cfg2, source, target)
    compressed, _ = pl.compress_model(cfg2, model, 0.9, feats, src_f, tgt_f, 0)
    tuned = pl.finetune_model(cfg2, compressed, target, 0)
    drops = [l for l in tuned.layers if isinstance(l, nm.Dropout)]
    assert drops and all(d.rate == 0.0 for d in drops)


# ---------------------------------------------------------------------------
# sweep memo: every point must equal a sweep of that point alone
# ---------------------------------------------------------------------------

def _model_bytes(network, path):
    nm.save_model(network, path)
    return (path / "model.json").read_bytes() + (path / "weights.bin").read_bytes()


def _assert_same_plans(a, b):
    assert a.keys() == b.keys()
    for cp in a:
        assert a[cp].selected == b[cp].selected
        assert a[cp].ratio_trace == b[cp].ratio_trace
        assert a[cp].achieved_ratio == b[cp].achieved_ratio
        assert a[cp].plateau_flag == b[cp].plateau_flag
        assert np.array_equal(a[cp].recovery, b[cp].recovery)


class _Counter:
    """Counts calls of spectral._rows_to_acc (one per stream and capture
    whose moments are computed) and of spectral.find_subset, and samples
    pushed by spectral._push."""

    def __init__(self, monkeypatch):
        self.moments = 0
        self.selects = 0
        self.pushed = 0
        rows_to_acc, find_subset, push = sp._rows_to_acc, sp.find_subset, sp._push

        def counted_rows_to_acc(*args):
            self.moments += 1
            return rows_to_acc(*args)

        def counted_find_subset(*args, **kwargs):
            self.selects += 1
            return find_subset(*args, **kwargs)

        def counted_push(network, x, start, stop):
            self.pushed += len(x) if start < stop else 0
            return push(network, x, start, stop)

        monkeypatch.setattr(sp, "_rows_to_acc", counted_rows_to_acc)
        monkeypatch.setattr(sp, "find_subset", counted_find_subset)
        monkeypatch.setattr(sp, "_push", counted_push)

    def work(self):
        return self.moments, self.selects, self.pushed


def _sweep(cfg, monkeypatch, path, memo=True):
    """pl.run's rows (seconds zeroed) and, per point, the plans, the saved
    model bytes and the (moments, find_subset calls, pushed samples) counts;
    without memo, each point is compressed as a sweep of its own."""
    points = []
    compress_network = sp.compress_network
    with monkeypatch.context() as patch:
        counter = _Counter(patch)

        def recording(*args, **kwargs):
            if not memo:
                kwargs["memo"] = None
            before = counter.work()
            network, plans = compress_network(*args, **kwargs)
            points.append((plans, _model_bytes(network, path / str(len(points))),
                           tuple(b - a for a, b in zip(before, counter.work()))))
            return network, plans

        patch.setattr(sp, "compress_network", recording)
        report = pl.run(cfg)
    return _strip_seconds(report), points


# The tiny model has 5 captures (3 conv, 2 dense) and 150 statistics samples;
# work is (moments, find_subset calls, pushed samples) per point.
@pytest.mark.parametrize("compress, budget, work", [
    # keep sweep, conv pinned: all points share the 3 conv captures and the
    # first dense capture, where each cuts its plan short from one greedy
    # order and slices the node's activations, so later points select and
    # push only at the last capture
    ({"sweep": (0.5, 0.3, 0.2), "sweep_kind": "keep_fraction", "conv_value": 0.75},
     sp.ROW_BUDGET, [(5, 5, 5 * 150), (1, 1, 150), (1, 1, 150)]),
    # the same with a row budget below the rows of one batch at every capture,
    # so every capture, shared or not, subsamples from its own generator; the
    # third point repeats the first, so it does no work of its own
    ({"sweep": (0.5, 0.3, 0.5), "sweep_kind": "keep_fraction", "conv_value": 0.75},
     40, [(5, 5, 5 * 150), (1, 1, 150), (0, 0, 0)]),
    # an unordered keep sweep: the first point's call selects at the first
    # dense capture under the largest cap, 0.5, of all four points, and the
    # last point repeats the second
    ({"sweep": (0.3, 0.5, 0.2, 0.5), "sweep_kind": "keep_fraction", "conv_value": 0.75},
     sp.ROW_BUDGET, [(5, 5, 5 * 150), (1, 1, 150), (1, 1, 150), (0, 0, 0)]),
    # regularized alpha sweep that returns to its first point; the 3 named
    # streams are 2 distinct ones (selection and target are the same rows),
    # pushed, sampled and accumulated once each at every capture, the
    # subsampled first conv capture too; the points share only the first
    # capture's node, where the second point cuts its plan short, and the
    # third point repeats the first
    ({"method": "spectral_reg_subset", "sweep": (0.99, 0.9, 0.99)}, sp.ROW_BUDGET,
     [(5 * 2, 5, 10 * 150), (4 * 2, 4, 8 * 150), (0, 0, 0)]),
], ids=["keep_conv_pinned", "keep_row_budget", "keep_unordered",
        "reg_subset_alpha_return"])
def test_sweep_memo_points_match_fresh_calls(tiny_setup, monkeypatch, tmp_path,
                                             compress, budget, work):
    out, cfg, *_ = tiny_setup
    cfg = dataclasses.replace(cfg, compress=dataclasses.replace(cfg.compress, **compress))
    monkeypatch.setattr(sp, "ROW_BUDGET", budget)
    rows, points = _sweep(cfg, monkeypatch, tmp_path / "memo")
    fresh_rows, fresh_points = _sweep(cfg, monkeypatch, tmp_path / "fresh", memo=False)
    assert rows == fresh_rows
    for (plans, model, _), (fresh_plans, fresh_model, _) in zip(points, fresh_points):
        _assert_same_plans(plans, fresh_plans)
        assert model == fresh_model
    assert [n for *_, n in points] == work
    assert [n for *_, n in fresh_points] == [work[0]] * len(work)


def test_sweep_memo_diverging_at_each_depth(tiny_setup, monkeypatch, tmp_path):
    # each point lowers alpha at one capture, deepest first, then the sweep
    # returns to its first point; the lowered capture cuts its plan short
    # from the node's greedy order and slices the node's activations, and
    # only the captures after it push and take new moments, once for each
    # of the 2 distinct streams
    out, cfg, source, target, model = tiny_setup
    feats = pl.stats_features(cfg, source, target)
    src, tgt = pl.reg_features(cfg, source, target)
    gcfg = sp.GreedyConfig(alpha=0.95, reg_mode="subset")
    caps = sorted(model.capture_points)
    base = {cp: 0.95 for cp in caps}
    sweep = [base] + [{**base, cp: 0.8} for cp in reversed(caps)] + [base]
    points = [{cp: dataclasses.replace(gcfg, alpha=a) for cp, a in alphas.items()}
              for alphas in sweep]
    counter = _Counter(monkeypatch)
    monkeypatch.setattr(sp, "ROW_BUDGET", 100)
    memo = sp.SweepMemo(points)
    work = []
    for k, configs in enumerate(points):
        kwargs = dict(source_features=src, target_features=tgt, seed=3)
        fresh, fresh_plans = sp.compress_network(model, feats, configs, **kwargs)
        before = counter.work()
        network, plans = sp.compress_network(model, feats, configs, memo=memo, **kwargs)
        work.append(tuple(b - a for a, b in zip(before, counter.work())))
        _assert_same_plans(plans, fresh_plans)
        assert _model_bytes(network, tmp_path / f"m{k}") \
            == _model_bytes(fresh, tmp_path / f"f{k}")
    n = 2 * len(feats)
    # the last point repeats the first, so it does no work of its own
    assert work == [(10, 5, 5 * n), (0, 0, 0), (2, 1, n), (4, 2, 2 * n),
                    (6, 3, 3 * n), (8, 4, 4 * n), (0, 0, 0)]


def test_equal_streams_are_pushed_once(tiny_setup, monkeypatch):
    # target_only: the selection stream and the target stream are the same
    # rows, so they are pushed as one array; a copy is a third stream
    out, cfg, source, target, model = tiny_setup
    feats = pl.stats_features(cfg, source, target)
    src, tgt = pl.reg_features(cfg, source, target)
    gcfg = sp.GreedyConfig(alpha=0.95, reg_mode="subset")
    counter = _Counter(monkeypatch)
    _, shared_plans = sp.compress_network(model, feats, gcfg, source_features=src,
                                          target_features=tgt)
    assert counter.pushed == 2 * len(feats) * len(model.capture_points)
    _, copied_plans = sp.compress_network(model, feats, gcfg, source_features=src,
                                          target_features=tgt.copy())
    assert counter.pushed == 5 * len(feats) * len(model.capture_points)
    _assert_same_plans(shared_plans, copied_plans)


def test_sweep_memo_rejects_another_network_or_seed(tiny_setup):
    out, cfg, source, target, model = tiny_setup
    feats = pl.stats_features(cfg, source, target)
    gcfg = sp.GreedyConfig(alpha=0.9)
    memo = sp.SweepMemo([dict.fromkeys(model.capture_points, gcfg)] * 2)
    sp.compress_network(model, feats, gcfg, seed=0, memo=memo)
    twin = nm.with_layers(model, model.layers)
    with pytest.raises(ValueError, match="SweepMemo"):
        sp.compress_network(twin, feats, gcfg, seed=0, memo=memo)
    with pytest.raises(ValueError, match="SweepMemo"):
        sp.compress_network(model, feats, gcfg, seed=1, memo=memo)
    with pytest.raises(ValueError, match="SweepMemo"):
        sp.compress_network(model, feats[::-1], gcfg, seed=0, memo=memo)
    _, plans = sp.compress_network(model, feats, gcfg, seed=0, memo=memo)
    _assert_same_plans(plans, sp.compress_network(model, feats, gcfg, seed=0)[1])


def test_sweep_memo_rejects_calls_out_of_order(tiny_setup):
    # each call must pass the configs of the memo's next point, and a call
    # past the last point is refused
    out, cfg, source, target, model = tiny_setup
    feats = pl.stats_features(cfg, source, target)
    points = [dict.fromkeys(model.capture_points, sp.GreedyConfig(alpha=a))
              for a in (0.9, 0.8)]
    memo = sp.SweepMemo(points)
    for configs in (points[1], sp.GreedyConfig(alpha=0.7)):
        with pytest.raises(ValueError, match="next point"):
            sp.compress_network(model, feats, configs, memo=memo)
    for configs in points:
        _, plans = sp.compress_network(model, feats, configs, memo=memo)
        _assert_same_plans(plans, sp.compress_network(model, feats, configs)[1])
    with pytest.raises(ValueError, match="next point"):
        sp.compress_network(model, feats, points[1], memo=memo)


@pytest.mark.parametrize("field, value", [("lam", 0.5), ("reg_mode", "node")])
def test_sweep_memo_points_differ_only_in_alpha_and_cap(field, value):
    # the points of one node share one greedy order, which alpha and the cap
    # only cut short; any other difference at a capture is refused
    base = sp.GreedyConfig(alpha=0.9, reg_mode="subset")
    first = {2: base, 5: base}
    sp.SweepMemo([first, {2: dataclasses.replace(base, alpha=0.5), 5: base},
                  {2: base, 5: dataclasses.replace(base, max_cardinality=3)}])
    with pytest.raises(ValueError, match="may differ only in alpha and max_cardinality"):
        sp.SweepMemo([first, {2: base, 5: dataclasses.replace(base, **{field: value})}])
    with pytest.raises(ValueError, match="a sweep needs points"):
        sp.SweepMemo([])


# ---------------------------------------------------------------------------
# sweep-aware evaluation: every row must equal a fresh evaluation of its point
# ---------------------------------------------------------------------------

def _final_networks(monkeypatch):
    """Records the network each sweep point evaluates (after fine-tuning)."""
    finals = []
    finetune = pl.finetune_model

    def recording(*args):
        finals.append(finetune(*args))
        return finals[-1]

    monkeypatch.setattr(pl, "finetune_model", recording)
    return finals


@pytest.mark.parametrize("compress, data, fine_tune", [
    ({"sweep": (0.5, 0.3, 0.2), "sweep_kind": "keep_fraction", "conv_value": 0.75},
     {}, 0),
    ({"method": "spectral_reg_subset", "sweep": (0.99, 0.9, 0.99)}, {}, 0),
    ({"method": "svd", "sweep": (8, 4, 8), "sweep_kind": "rank"}, {}, 0),
    ({"sweep": (0.5, 0.3), "sweep_kind": "keep_fraction", "conv_value": 0.75}, {}, 1),
    # 700 test samples: one full 512-row batch and a partial one
    ({"sweep": (0.5, 0.3, 0.2), "sweep_kind": "keep_fraction", "conv_value": 0.75},
     {"n_per_split": 700}, 0),
], ids=["keep_conv_pinned", "reg_subset_alpha_return", "svd_rank", "fine_tuned",
        "partial_batch"])
def test_sweep_rows_match_fresh_evaluation(tiny_setup, monkeypatch, compress, data,
                                           fine_tune):
    from specprune.config import FineTuneSection
    out, cfg, *_ = tiny_setup
    cfg = dataclasses.replace(
        cfg, compress=dataclasses.replace(cfg.compress, **compress),
        data=dataclasses.replace(cfg.data, **data),
        fine_tune=FineTuneSection(epochs=fine_tune) if fine_tune else None)
    finals = _final_networks(monkeypatch)
    report = pl.run(cfg)
    source, target = make_two_domain(0, cfg.data.n_per_split, cfg.data.shift)
    fresh = [(float(v), tr.evaluate([n], source.test)[0], tr.evaluate([n], target.test)[0])
             for v, n in zip(cfg.compress.sweep, finals)]
    assert sorted((r.sweep_value, r.acc_source, r.acc_target) for r in report.rows) \
        == sorted(fresh)
    if fine_tune:
        assert nm.shared_depth(finals[0], finals[1]) == 0


def test_conv_pinned_sweep_evaluates_the_conv_stack_once(tiny_setup, monkeypatch):
    # every point keeps the same conv stack, so each split's evaluate call
    # runs each conv once per batch, not once per point
    out, cfg, source, target, model = tiny_setup
    sweep = (0.5, 0.3, 0.2, 0.1)
    cfg = dataclasses.replace(cfg, compress=dataclasses.replace(
        cfg.compress, sweep=sweep, sweep_kind="keep_fraction", conv_value=0.75))
    calls = {"conv": 0}
    per_call = []
    conv_forward, evaluate = nm.Conv2D.forward, tr.evaluate

    def counted_forward(self, *args, **kwargs):
        calls["conv"] += 1
        return conv_forward(self, *args, **kwargs)

    def counted_evaluate(*args, **kwargs):
        before = calls["conv"]
        accs = evaluate(*args, **kwargs)
        per_call.append(calls["conv"] - before)
        return accs

    monkeypatch.setattr(nm.Conv2D, "forward", counted_forward)
    monkeypatch.setattr(tr, "evaluate", counted_evaluate)
    pl.run(cfg)
    convs = sum(isinstance(l, nm.Conv2D) for l in model.layers)
    batches = -(-len(target.test) // 512)
    assert per_call == [convs * batches] * 2


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def test_emit_refuses_an_unknown_format(tmp_path):
    for emit, rows in ((pl.emit_report, pl.CompressionReport(())), (pl.emit_analysis, [])):
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            emit(rows, tmp_path / "out" / "r.xml", "xml")
    assert not (tmp_path / "out").exists()


def test_emit_analysis_csv_leaves_missing_rates_empty(tmp_path):
    row = {"seed": 0, "layer_pos": "first", "capture": 2, "specificity": "source",
           "count": 0, "rate_on_source": None, "rate_on_target": None}
    pl.emit_analysis([row, dict(row, count=2, rate_on_source=0.5, rate_on_target=0.25)],
                     tmp_path / "n.csv", "csv")
    assert (tmp_path / "n.csv").read_text().splitlines() == [
        ",".join(pl.ANALYSIS_COLUMNS), "0,first,2,source,0,,", "0,first,2,source,2,0.5,0.25"]


def test_emit_report_empty_csv(tmp_path):
    pl.emit_report(pl.CompressionReport(()), tmp_path / "r.csv", "csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines == [",".join(pl.CSV_COLUMNS)]
    assert pl.CSV_COLUMNS == (
        "seed", "method", "sweep_value", "lambda", "data_choice", "params_before",
        "params_after", "flops_before", "flops_after", "compression_rate",
        "ratio_achieved", "acc_source", "acc_target", "seconds")


def test_report_json_round_trip(tmp_path):
    rows = (
        pl.RunRecord(seed=1, method="spectral", sweep_value=0.9, lam=1.0,
                     data_choice="target_only", params_before=100, params_after=50,
                     flops_before=200, flops_after=90, compression_rate=0.5,
                     ratio_achieved=(0.91, 0.88), acc_source=0.7, acc_target=0.65,
                     seconds=1.25),
        pl.RunRecord(seed=2, method="dalr", sweep_value=4, lam=1.0,
                     data_choice="target_only", params_before=100, params_after=40,
                     flops_before=200, flops_after=80, compression_rate=0.6,
                     ratio_achieved=(), acc_source=0.6, acc_target=0.55,
                     seconds=0.5),
    )
    report = pl.CompressionReport(rows)
    pl.emit_report(report, tmp_path / "r.json", "json")
    assert pl.load_report(tmp_path / "r.json") == report
    # the CSV flattens ratio_achieved to its mean, empty without layers
    pl.emit_report(report, tmp_path / "r.csv", "csv")
    assert (tmp_path / "r.csv").read_text().splitlines()[1:] == [
        "1,spectral,0.9,1.0,target_only,100,50,200,90,0.5,0.895,0.7,0.65,1.25",
        "2,dalr,4,1.0,target_only,100,40,200,80,0.6,,0.6,0.55,0.5"]


def test_load_report_names_the_file_of_a_corrupt_report(tmp_path):
    row = {"seed": 1, "method": "svd", "sweep_value": 4, "lambda": 1.0,
           "data_choice": "target_only", "params_before": 100, "params_after": 40,
           "flops_before": 200, "flops_after": 80, "compression_rate": 0.6,
           "ratio_achieved": [], "acc_source": 0.6, "acc_target": 0.55, "seconds": 0.5}
    cases = [
        ('{"rows": [', "unreadable report"),  # truncated JSON
        (b"\xff\xfe", "unreadable report"),  # not UTF-8
        ("[]", 'no "rows" list'),
        ('{"records": []}', 'no "rows" list'),
        ('{"rows": {}}', 'no "rows" list'),
        (json.dumps({"rows": [row, 5]}), "row 1 is malformed: TypeError"),
        (json.dumps({"rows": [{k: v for k, v in row.items() if k != "lambda"}]}),
         "row 0 is malformed: KeyError"),
        (json.dumps({"rows": [dict(row, ratio_achieved=None)]}), "row 0 is malformed"),
        (json.dumps({"rows": [dict(row, extra=1)]}), "row 0 is malformed"),
    ]
    for k, (text, match) in enumerate(cases):
        path = tmp_path / f"r{k}.json"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        with pytest.raises(FormatError, match=match) as err:
            pl.load_report(path)
        assert str(path) in str(err.value)
    with pytest.raises(FormatError, match=r"unreadable report: .*missing\.json"):
        pl.load_report(tmp_path / "missing.json")
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"rows": [row]}))
    assert pl.load_report(path).rows[0].method == "svd"


def test_csv_schema_and_row_count(tmp_path, tiny_setup):
    out, cfg, *_ = tiny_setup
    cfg2 = dataclasses.replace(cfg, seeds=(0, 1, 2), compress=dataclasses.replace(
        cfg.compress, sweep=(0.7, 0.9)))
    report = pl.run(cfg2)
    pl.emit_report(report, tmp_path / "r.csv", "csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == list(pl.CSV_COLUMNS)
    assert len(lines) == 1 + 3 * 2  # header + seeds x sweep


# ---------------------------------------------------------------------------
# node specificity analysis
# ---------------------------------------------------------------------------

def test_specificity_identical_domains(tmp_path):
    doc = tiny_doc(tmp_path)
    doc["data"]["shift"] = {"gain": 1.0, "offset": 0.0, "dx": 0, "dy": 0,
                            "noise_std_extra": 0.0}
    cfg = parse_config(doc)
    rows = pl.node_specificity_analysis(cfg)
    assert {r["layer_pos"] for r in rows} == {"first", "last"}
    for r in rows:
        if r["specificity"] in ("source", "target") and r["count"]:
            # identical domains: any residual specificity shows equal rates
            assert abs(r["rate_on_source"] - r["rate_on_target"]) < 0.1


def test_node_specificity_rows_are_pinned(tmp_path, monkeypatch):
    # The rates do not depend on how a split is cut into blocks, nor on
    # whether it is pushed per node class or once; 600 samples span several
    # push blocks. The model cache holds fixed, untrained model files, so
    # the pin is of the analysis and not of training; with 16 channels at
    # the first capture, its source and target classes are not all empty.
    doc = tiny_doc(tmp_path)
    doc["seeds"] = [0, 1, 2]
    doc["data"]["n_per_split"] = 600
    doc["stats"]["target_samples"] = 600
    doc["model"]["conv_channels"] = [16, 8, 8]
    cfg = parse_config(doc)
    for seed in cfg.seeds:
        nm.save_model(pl.build_digits_model(cfg.model, seed),
                      os.path.join(cfg.paths.out_dir, "models",
                                   pl._model_cache_key(cfg, seed)[:16]))
    monkeypatch.setattr(pl, "train_model", lambda *args: pytest.fail("model cache miss"))
    rows = pl.node_specificity_analysis(cfg)
    assert len(rows) == 18
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "38b1d5cf34e3680ea27672e2f631e6b0727db0658a128d2156cfd80d4c3b44bb"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_train_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = tiny_doc(tmp_path / "out")
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()
    assert cli.main(["compress", "--config", str(cfg_path), "--alpha", "0.8"]) == 0
    assert cli.main(["analyze-nodes", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "node_specificity.csv").exists()

    # eval and finetune print the target accuracy of the saved model
    _, target = make_two_domain(0, 150, parse_config(doc).data.shift)
    compressed = tmp_path / "out" / "compressed" / "seed0_spectral_0.8"
    doc["fine_tune"] = {"epochs": 1}
    cfg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    for command, saved in (("eval", compressed), ("finetune", f"{compressed}_ft")):
        assert cli.main([command, "--config", str(cfg_path), "--model", str(compressed)]) == 0
        printed = re.search(r"acc_target=(\S+)", capsys.readouterr().out).group(1)
        assert printed == f"{tr.evaluate([nm.load_model(saved)], target.test)[0]:.4f}"


def test_cli_compress_saves_every_sweep_value(tiny_setup, tmp_path):
    out, cfg, source, target, model = tiny_setup
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_doc(out, sweep=[0.9, 0.7])))  # the trained model
    assert cli.main(["compress", "--config", str(cfg_path)]) == 0
    saved = sorted(os.listdir(out / "compressed"))
    assert saved == ["seed0_spectral_0.7", "seed0_spectral_0.9"]
    feats = pl.stats_features(cfg, source, target)
    for value in (0.9, 0.7):  # each as compressed alone, without the shared memo
        fresh, _ = pl.compress_model(cfg, model, value, feats, None, None, 0)
        nm.save_model(fresh, tmp_path / "fresh")
        assert (tmp_path / "fresh" / "weights.bin").read_bytes() == \
            (out / "compressed" / f"seed0_spectral_{value}" / "weights.bin").read_bytes()


def test_cli_alpha_sets_every_capture(tmp_path, monkeypatch):
    # a keep-fraction sweep with its own conv value: --alpha replaces both
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_doc(tmp_path / "out", sweep=[0.35],
                                            sweep_kind="keep_fraction", conv_value=0.75)))
    seen = []
    compress_network = sp.compress_network

    def spy(netw, feats, configs, **kwargs):
        seen.append(configs)
        return compress_network(netw, feats, configs, **kwargs)

    monkeypatch.setattr(sp, "compress_network", spy)
    assert cli.main(["compress", "--config", str(cfg_path), "--alpha", "0.9"]) == 0
    (configs,) = seen
    assert sorted(configs) == [2, 5, 8, 13, 16]
    assert all(c.alpha == 0.9 and c.max_cardinality == 0 for c in configs.values())


@pytest.mark.parametrize("command, owner, attr, stage", [
    ("train", pl, "train_model", "train"),
    ("compress", sp, "find_subset", "compress"),
    ("eval", tr, "evaluate", "eval"),
    ("finetune", tr, "train", "finetune"),
], ids=["train", "compress", "eval", "finetune"])
def test_cli_errors_name_their_stage(tmp_path, monkeypatch, capsys, command, owner, attr,
                                     stage):
    cfg_path = tmp_path / "cfg.json"
    doc = dict(tiny_doc(tmp_path / "out"), fine_tune={"epochs": 1})
    cfg_path.write_text(json.dumps(doc))
    model = tmp_path / "m"
    nm.save_model(pl.build_digits_model(parse_config(doc).model, 0), model)

    def diverge(*args, **kwargs):
        raise Diverged("loss became nan")

    monkeypatch.setattr(owner, attr, diverge)
    args = [command, "--config", str(cfg_path)]
    if command in ("eval", "finetune"):
        args += ["--model", str(model)]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{stage}] loss became nan") and "Traceback" not in err


def _dead_capture_config(tmp_path, monkeypatch):
    """A tiny config whose model has a dead first capture: a BatchNorm with
    scale 0 and shift -1 leaves the ReLU at 0 on every sample, so the
    capture's statistics have trace 0 on every stream."""
    cfg_path = tmp_path / "cfg.json"
    doc = tiny_doc(tmp_path / "out")
    cfg_path.write_text(json.dumps(doc))
    model = pl.build_digits_model(parse_config(doc).model, 0)
    layers = list(model.layers)
    bn = layers[1]
    layers[1] = dataclasses.replace(bn, scale=np.zeros_like(bn.scale),
                                    shift=-np.ones_like(bn.shift))
    monkeypatch.setattr(pl, "get_or_train_model",
                        lambda *args: nm.with_layers(model, layers))
    return str(cfg_path)


def test_cli_dead_capture_is_one_error_line(tmp_path, monkeypatch, capsys):
    cfg_path = _dead_capture_config(tmp_path, monkeypatch)
    assert cli.main(["compress", "--config", cfg_path]) == 1
    assert capsys.readouterr().err == \
        "error: [compress] capture point 2 (selection statistics): trace is 0.0\n"


def test_cli_analyze_nodes_dead_capture_is_one_error_line(tmp_path, monkeypatch, capsys):
    cfg_path = _dead_capture_config(tmp_path, monkeypatch)
    assert cli.main(["analyze-nodes", "--config", cfg_path]) == 1
    assert capsys.readouterr().err == \
        "error: [analyze] capture point 2 (source statistics): trace is 0.0\n"


def test_cli_model_commands_fail_before_work(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = dict(tiny_doc(tmp_path / "out"), seeds=[0, 1], fine_tune={"epochs": 1})
    cfg_path.write_text(json.dumps(doc))
    model = tmp_path / "m"
    nm.save_model(pl.build_digits_model(parse_config(doc).model, 0), model)

    # every seed would overwrite the one fine-tuned model
    assert cli.main(["finetune", "--config", str(cfg_path), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err and "Traceback" not in err
    assert not (tmp_path / "m_ft").exists()

    # without a fine_tune section the saved model would be an untouched copy
    cfg_path.write_text(json.dumps(tiny_doc(tmp_path / "out")))
    assert cli.main(["finetune", "--config", str(cfg_path), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fine_tune:") and err.count("\n") == 1
    assert not (tmp_path / "m_ft").exists()

    # an input shape whose dry run no address space holds
    manifest = json.loads((model / "model.json").read_text())
    huge = dict(manifest, input_shape=[1, 10 ** 7, 10 ** 7])
    (model / "model.json").write_text(json.dumps(huge))
    assert cli.main(["eval", "--config", str(cfg_path), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inconsistent model") and "Traceback" not in err
    (model / "model.json").write_text(json.dumps(manifest))

    (model / "weights.bin").unlink()
    assert cli.main(["eval", "--config", str(cfg_path), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "weights.bin" in err and "Traceback" not in err


def test_cli_write_failures_are_one_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_doc(tmp_path / "out")))
    (tmp_path / "file").write_text("")
    below_file = str(tmp_path / "file" / "out")
    for command in ("train", "run"):  # the model cache cannot be written
        assert cli.main([command, "--config", str(cfg_path), "--out", below_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and below_file in err and "Traceback" not in err
        assert err.count("\n") == 1

    assert cli.main(["train", "--config", str(cfg_path)]) == 0  # the model is cached
    (tmp_path / "out" / "compressed").write_text("")
    for command, name in (("compress", "compressed"), ("run", "report.csv"),
                          ("analyze-nodes", "node_specificity.csv")):
        if name.endswith(".csv"):
            (tmp_path / "out" / name).mkdir()
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path / "out" / name) in err
        assert err.count("\n") == 1


def test_readme_cli_block_names_every_subcommand():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```")[1]
    documented = [line.split()[1] for line in block.splitlines()
                  if line.startswith("specprune ")]
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(commands)
    with pytest.raises(SystemExit) as exc:  # not a subcommand: argparse's usage error
        cli.main(["gen-data", "--config", "cfg.json"])
    assert exc.value.code == 2


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    doc = tiny_doc(tmp_path)
    doc["compress"]["method"] = "magic"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "compress.method" in capsys.readouterr().err

    # a dropout rate of 1 would divide by a zero keep probability; above 1
    # it would silently zero the features
    for rate in (1.0, 1.5):
        doc = tiny_doc(tmp_path / "out")
        doc["model"]["dropout"] = rate
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "model.dropout" in err and "Traceback" not in err

    # out-of-range values that would crash with a bare NumPy or Python error,
    # or silently misbehave (a glyph shifted out of view, a negative count
    # slicing from the end), are rejected before anything is written
    for keys, value in ((("seeds",), [-1]), (("seeds",), [0, 0]),
                        (("train", "batch_size"), 0),
                        (("train", "epochs"), -1),
                        (("train", "learning_rate"), -1.0),
                        (("train", "pretrain_epochs"), -1),
                        (("train", "finetune_epochs"), -1),
                        (("train", "source_samples"), -1),
                        (("train", "target_samples"), -1),
                        (("fine_tune", "batch_size"), 0), (("fine_tune", "epochs"), -1),
                        # a null fine_tune is the one way to switch it off
                        (("fine_tune", "epochs"), 0),
                        (("fine_tune", "learning_rate"), -1.0),
                        (("model", "conv_channels"), [0, 4, 8]),
                        (("model", "dense_widths"), [-3, 24]),
                        (("model", "dense_widths"), [24, 2.5]),
                        (("stats", "target_samples"), 1),
                        (("stats", "source_samples"), -1),
                        # more samples than a split holds would be cut to the split
                        (("stats", "target_samples"), 151),
                        (("stats", "source_samples"), 151),
                        (("train", "target_samples"), 99999),
                        (("train", "source_samples"), 151),
                        (("data", "shift", "dx"), 9), (("data", "shift", "dx"), 8),
                        (("data", "shift", "dy"), -8),
                        (("data", "shift", "noise_std_extra"), -0.1),
                        (("fine_tune", "optimizer"), "rmsprop"),
                        (("compress", "conv_value"), 0),
                        (("compress", "lambda"), float("nan")),
                        (("data", "shift", "gain"), float("inf")),
                        (("train", "epochs"), True), (("stats", "source_samples"), False),
                        (("seeds",), [True]), (("compress", "sweep"), [True]),
                        (("train", "weight_decay"), -1.0),
                        (("fine_tune", "weight_decay"), -1.0)):
        doc = tiny_doc(tmp_path / "out")
        section = doc
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = value
        cfg_path.write_text(json.dumps(doc))
        for command in ("train", "run"):
            assert cli.main([command, "--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert ".".join(keys) + ":" in err and "Traceback" not in err

    # the default statistics counts fit the default split, and not a smaller one
    doc = tiny_doc(tmp_path / "out")
    del doc["stats"]
    assert parse_config({**doc, "data": None}).stats.target_samples == 1500
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "stats.target_samples: must be at most data.n_per_split (150), got 1500" \
        in capsys.readouterr().err

    # svd/dalr factor only the dense layers, so a conv value would be ignored
    for method in ("svd", "dalr"):
        doc = tiny_doc(tmp_path / "out", method=method, sweep=[8], conv_value=0.5)
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "compress.conv_value:" in err and "Traceback" not in err

    # overrides go through the same validator, before any model is trained
    cfg_path.write_text(json.dumps(tiny_doc(tmp_path / "out", sweep=[0.35, 0.12],
                                            sweep_kind="keep_fraction")))
    for override, field in ((["--alpha", "1.5"], "compress.sweep:"),
                            (["--method", "svd"], "compress.sweep_kind:")):
        assert cli.main(["compress", "--config", str(cfg_path), *override]) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
