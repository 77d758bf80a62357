"""Command-line interface: preprocess, train, eval, param-count, grad-check."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import (SPLIT_FILES, TripleStore, build_filter_index, load_dataset, load_triples,
                   save_cache)
from .errors import ConfigError, MeimError
from .evaluation import TIE_POLICIES, evaluate
from .model import CORE_MODES, SAMPLING_MODES, ModelConfig, ModelParams, count_params
from .objective import build_targets, total_loss
from .tensor import finite_diff_check
from .trainer import PRESETS, config_from_preset, load_checkpoint, train

_ERRORS = (MeimError, OSError)
GRAD_TOLERANCE = 1e-4  # the gradient audit's bound on the worst relative error


def _add_model_flags(sub):
    sub.add_argument("--preset", choices=sorted(PRESETS), help="named hyperparameter preset")
    sub.add_argument("--k", type=int, help="number of partitions")
    sub.add_argument("--ce", type=int, help="entity partition size")
    sub.add_argument("--cr", type=int, help="relation partition size")
    sub.add_argument("--core-mode", dest="core_mode", choices=CORE_MODES)
    sub.add_argument("--sampling", choices=SAMPLING_MODES)
    sub.add_argument("--input-dropout", dest="input_dropout", type=float)
    sub.add_argument("--hidden-dropout", dest="hidden_dropout", type=float)
    sub.add_argument("--lambda-ortho", dest="lambda_ortho", type=float)
    sub.add_argument("--lambda-unitnorm", dest="lambda_unitnorm", type=float)
    sub.add_argument("--p-norm", dest="p_norm", type=int)
    sub.add_argument("--no-batchnorm", dest="batchnorm", action="store_const", const=False)
    sub.add_argument("--bn-per-partition", dest="bn_per_partition", action="store_const",
                     const=True, help="pool batch-norm statistics over partitions")
    sub.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meim",
                                     description="knowledge graph embedding toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    pre = commands.add_parser("preprocess", help="build a binary id-triple cache")
    pre.add_argument("--data-dir", required=True)
    pre.add_argument("--out", required=True)
    pre.set_defaults(func=cmd_preprocess)

    tr = commands.add_parser("train", help="train a model")
    tr.add_argument("--data-dir", dest="data_dir", required=True,
                    help="dataset directory or binary cache file")
    _add_model_flags(tr)
    tr.add_argument("--lr", dest="base_lr", type=float)
    tr.add_argument("--lr-decay", dest="lr_decay", type=float)
    tr.add_argument("--batch-size", dest="batch_size", type=int)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--checkpoint", dest="checkpoint_path")
    tr.add_argument("--eval-every", dest="eval_every", type=int)
    tr.add_argument("--eval-split", dest="eval_split", choices=list(SPLIT_FILES))
    tr.add_argument("--tie-policy", dest="tie_policy", choices=list(TIE_POLICIES))
    tr.add_argument("--log", dest="log_path", help="JSON-lines metrics log path")
    tr.add_argument("--resume", help="the --checkpoint path of the run to resume: reads "
                    "PATH.last, or PATH if that is absent")
    tr.set_defaults(func=cmd_train)

    ev = commands.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data-dir", dest="data_dir", required=True)
    ev.add_argument("--split", default="test", choices=list(SPLIT_FILES))
    ev.add_argument("--tie-policy", dest="tie_policy", default="average",
                    choices=list(TIE_POLICIES))
    ev.add_argument("--report", help="also write the JSON report to this path")
    ev.set_defaults(func=cmd_eval)

    pc = commands.add_parser("param-count", help="closed-form trainable parameter count")
    pc.add_argument("--data-dir", dest="data_dir", help="dataset directory or binary cache file")
    pc.add_argument("--num-entities", type=int)
    pc.add_argument("--num-relations", type=int)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--ce", type=int, required=True)
    pc.add_argument("--cr", type=int, required=True)
    pc.add_argument("--core-mode", dest="core_mode", default="independent", choices=CORE_MODES)
    pc.set_defaults(func=cmd_param_count)

    gc = commands.add_parser("grad-check", help="finite-difference audit on a tiny model")
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_grad_check)
    return parser


def cmd_preprocess(args) -> int:
    store = load_triples(args.data_dir)
    save_cache(store, args.out)
    print(f"cached {store.num_entities} entities, {store.num_relations} relations, "
          f"{sum(len(s) for s in store.splits.values())} triples -> {args.out}")
    return 0


def cmd_train(args) -> int:
    store = load_dataset(args.data_dir)
    overrides = {k: v for k, v in vars(args).items() if k not in ("func", "command", "preset", "resume")}
    config = config_from_preset(args.preset, store, overrides)

    def progress(event):
        print(json.dumps(event))

    result = train(config, store=store, resume_from=args.resume, progress=progress)
    print(f"best validation MRR {result.best_val_mrr:.4f} "
          f"(epoch {result.best_epoch})")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    _, params, _ = ckpt.restore()
    store = load_dataset(args.data_dir)
    index = build_filter_index(store)
    report = evaluate(params, store, args.split, index, args.tie_policy)
    print(report.format_table(store.relation_names))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.report}")
    return 0


def cmd_param_count(args) -> int:
    if args.data_dir and (args.num_entities is not None or args.num_relations is not None):
        raise ConfigError("param-count takes --data-dir or --num-entities/--num-relations, "
                          "not both")
    if args.data_dir:
        store = load_dataset(args.data_dir)
        num_entities, num_relations = store.num_entities, store.num_relations
    elif args.num_entities is not None and args.num_relations is not None:
        num_entities, num_relations = args.num_entities, args.num_relations
    else:
        raise ConfigError("param-count needs --data-dir or --num-entities/--num-relations")
    config = ModelConfig(num_entities, num_relations, k=args.k, ce=args.ce, cr=args.cr,
                         core_mode=args.core_mode)
    print(count_params(config))
    return 0


def cmd_grad_check(args) -> int:
    config = ModelConfig(7, 3, k=2, ce=3, cr=3, lambda_ortho=0.1, lambda_unitnorm=5e-4,
                         seed=args.seed)  # checks the seed before numpy sees it
    rng = np.random.default_rng(args.seed)
    params = ModelParams(config, rng=rng)
    triples = np.stack([rng.integers(7, size=6), rng.integers(7, size=6),
                        rng.integers(3, size=6)], axis=1)
    store = TripleStore.from_ids(7, 3, {"train": triples, "valid": [], "test": []})
    index = build_filter_index(store, ("train",))
    worst = 0.0
    for sampling in ("1vsall", "kvsall"):
        targets = build_targets(triples, index, sampling)

        def f(_):
            loss, _parts = total_loss(params, triples, targets, training=True, rng=None)
            return loss

        err = finite_diff_check(f, [t for _, t in params.leaves()])
        print(f"{sampling}: max relative gradient error {err:.3e}")
        worst = max(worst, err)
    if worst < GRAD_TOLERANCE:
        print(f"gradient audit passed (worst {worst:.3e} < {GRAD_TOLERANCE:g})")
        return 0
    print(f"gradient audit FAILED (worst {worst:.3e} >= {GRAD_TOLERANCE:g})")
    return 1


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
