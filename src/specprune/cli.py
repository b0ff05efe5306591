"""Command-line interface.

Every subcommand takes --config plus targeted overrides and exits 0 on
success, nonzero with a stage-tagged diagnostic on failure.
"""

import argparse
import os
import sys

from . import net as nm
from . import pipeline as pl
from . import train as tr
from .config import parse_config, read_config
from .errors import ConfigError, SpecPruneError


def _override(doc, section, **values):
    sub = doc.get(section)
    if sub is None or isinstance(sub, dict):  # else parse_config rejects it
        doc[section] = {**(sub or {}), **values}


def _apply_overrides(doc, args):
    """Fold --seed/--method/--alpha/--out into the raw config document, so
    parse_config validates them with the same field-path errors as the file."""
    if not isinstance(doc, dict):
        return doc
    if args.seed is not None:
        doc["seeds"] = [args.seed]
    if args.method is not None:
        _override(doc, "compress", method=args.method)
    if args.alpha is not None:  # at every capture, conv ones included
        _override(doc, "compress", sweep=[args.alpha], sweep_kind="alpha", conv_value=-1.0)
    if args.out is not None:
        _override(doc, "paths", out_dir=args.out)
    return doc


def _accuracies(model, source, target):
    acc_s, acc_t = (pl._stage("eval", tr.evaluate, [model], d.test)[0] for d in (source, target))
    return f"acc_source={acc_s:.4f} acc_target={acc_t:.4f}"


def cmd_train(cfg, args):
    for seed in cfg.seeds:
        source, target, model = pl.load_inputs(cfg, seed)
        print(f"seed {seed}: params={nm.count_params(model)} "
              f"{_accuracies(model, source, target)}")
    return 0


def cmd_compress(cfg, args):
    """Compress and save the model at every sweep value, as pipeline.run
    compresses them."""
    for seed in cfg.seeds:
        source, target, model = pl.load_inputs(cfg, seed)
        before = nm.count_params(model)
        for value, compressed, _, _ in pl.compress_sweep(cfg, seed, source, target, model):
            out = os.path.join(cfg.paths.out_dir, "compressed",
                               f"seed{seed}_{cfg.compress.method}_{value}")
            nm.save_model(compressed, out)
            after = nm.count_params(compressed)
            print(f"seed {seed} at {value}: {before} -> {after} params "
                  f"(rate {1 - after / before:.4f}); saved to {out}")
    return 0


def cmd_finetune(cfg, args):
    out = args.model.rstrip("/") + "_ft"
    if len(cfg.seeds) > 1:  # each seed would overwrite the one model in `out`
        raise ConfigError(f"seeds: finetune writes one model to {out}; "
                          f"pick one of {list(cfg.seeds)} with --seed")
    seed = cfg.seeds[0]
    model = nm.load_model(args.model)
    source, target = pl.load_domains(cfg, seed)
    tuned = pl._stage("finetune", pl.finetune_model, cfg, model, target, seed)
    nm.save_model(tuned, out)
    print(f"seed {seed}: fine-tuned model saved to {out} "
          f"{_accuracies(tuned, source, target)}")
    return 0


def cmd_eval(cfg, args):
    model = nm.load_model(args.model)
    for seed in cfg.seeds:
        print(f"seed {seed}: {_accuracies(model, *pl.load_domains(cfg, seed))}")
    return 0


def cmd_run(cfg, args):
    report = pl.run(cfg, log=print)
    base = os.path.join(cfg.paths.out_dir, "report")
    pl.emit_report(report, base + ".csv", "csv")
    pl.emit_report(report, base + ".json", "json")
    print(f"{len(report.rows)} rows -> {base}.csv / {base}.json")
    return 0


def cmd_analyze_nodes(cfg, args):
    rows = pl.node_specificity_analysis(cfg, log=print)
    base = os.path.join(cfg.paths.out_dir, "node_specificity")
    pl.emit_analysis(rows, base + ".csv", "csv")
    pl.emit_analysis(rows, base + ".json", "json")
    print(f"{len(rows)} rows -> {base}.csv / {base}.json")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specprune",
        description="Structured pruning by greedy spectral subset selection, "
                    "with low-rank baselines and a seeded experiment pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_model=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, help="restrict to one seed")
        p.add_argument("--method", help="override compress.method")
        p.add_argument("--alpha", type=float,
                       help="override the sweep with one alpha at every capture")
        p.add_argument("--out", help="override paths.out_dir")
        if needs_model:
            p.add_argument("--model", required=True, help="model directory")
        p.set_defaults(fn=fn)
        return p

    add("train", cmd_train)
    add("compress", cmd_compress)
    add("finetune", cmd_finetune, needs_model=True)
    add("eval", cmd_eval, needs_model=True)
    add("run", cmd_run)
    add("analyze-nodes", cmd_analyze_nodes)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(_apply_overrides(read_config(args.config), args))
        return args.fn(cfg, args)
    except (SpecPruneError, OSError) as exc:  # OSError: an output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
