"""Command-line entry point.

Subcommands: encode, phoneset {build,stats,unseen}, synth, train, extend,
finetune, eval, export-embeddings, bench {zero-shot,few-shot,multilingual},
selftest.  Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .benchmark import BenchmarkConfig, HEAD_KINDS, median_per, run_seeds, write_report
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import SynthLanguageSpec, generate_language, load_corpus, make_emission_map, save_corpus
from .encoder import EncoderConfig
from .errors import IoFailure, PhonoamError, io_failure, replace_on_success
from .evaluate import evaluate, export_embeddings
from .features import SpecialToken, encode_inventory, encode_phone, load_feature_table
from .inventory import language_degree, load_inventory, merge_inventories, unseen_phones
from .model import build_model, extend_model
from .training import TrainConfig, finetune, train_multilingual


def _write_manifest(out_path, subcommand: str, args: argparse.Namespace, **recorded) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": {k: v for k, v in vars(args).items() if k != "func" and not callable(v)},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "numpy": np.__version__,
        **recorded,
    }
    _write_json(str(out_path) + ".manifest.json", manifest, default=str)


def _check_out(path) -> None:
    """IoFailure unless a file can be created at `path`: its directory exists
    and it is not a directory itself.  Run before any work, so that a mistyped
    --out costs no training."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise IoFailure(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise IoFailure(f"cannot write {path}: it is a directory")


def _write_json(path, doc, **options) -> None:
    with io_failure(), replace_on_success(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, **options)


def cmd_encode(args) -> int:
    table = load_feature_table(args.features)
    vec = encode_phone(table, args.phone)
    print("".join(str(int(b)) for b in vec))
    return 0


def cmd_phoneset_build(args) -> int:
    invs = [load_inventory(p) for p in args.inventories]
    phone_set = merge_inventories(invs)
    doc = {
        "units": list(phone_set.units),
        "membership": {p: sorted(s) for p, s in phone_set.membership.items()},
    }
    _write_json(args.out, doc, ensure_ascii=False)
    _write_manifest(args.out, "phoneset build", args)
    return 0


def cmd_phoneset_stats(args) -> int:
    invs = [load_inventory(p) for p in args.inventories]
    hist = language_degree(merge_inventories(invs))
    for degree in sorted(hist, reverse=True):
        print(f"degree {degree}: {hist[degree]} phones")
    return 0


def cmd_phoneset_unseen(args) -> int:
    invs = [load_inventory(p) for p in args.inventories]
    phone_set = merge_inventories(invs)
    target = load_inventory(args.target)
    seen, unseen = unseen_phones(phone_set, target)
    print(f"seen ({len(seen)}): {' '.join(seen)}")
    print(f"unseen ({len(unseen)}): {' '.join(unseen)}")
    return 0


def cmd_synth(args) -> int:
    table = load_feature_table(args.features)
    inv = load_inventory(args.inventory)
    W = make_emission_map(args.dim, seed=args.seed)
    spec = SynthLanguageSpec(
        language_id=inv.language_id,
        inventory=inv.phones,
        noise_std=args.noise_std,
        offset_std=args.offset_std,
        utterance_count=args.utterances,
        seed=args.seed,
    )
    save_corpus(generate_language(spec, table, W), args.out)
    _write_manifest(args.out, "synth", args)
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        loss=args.loss.replace("-", "_"),
        lr=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        seed=args.seed,
        lm_order=args.lm_order,
    )


def cmd_train(args) -> int:
    table = load_feature_table(args.features)
    invs = [load_inventory(p) for p in args.inventories]
    phone_set = merge_inventories(invs)
    P = encode_inventory(table, list(phone_set.phones), list(SpecialToken))
    utts = [u for path in args.corpus for u in load_corpus(path)]
    corpora: dict[str, list] = {}
    for u in utts:
        corpora.setdefault(u.language_id, []).append(u)

    enc = EncoderConfig(
        input_dim=utts[0].frames.shape[1],
        context=args.context,
        hidden=tuple(args.hidden),
        output_dim=args.width,
    )
    model = build_model(phone_set.units, P, enc, head=args.head, seed=args.seed,
                        head_hidden=args.head_hidden)
    report = train_multilingual(corpora, model, _train_config(args))
    save_checkpoint(model, args.out, epoch=len(report.train_loss))
    _write_manifest(args.out, "train", args, params_checksum=report.final_checksum)
    for e, (tr, dv, lr) in enumerate(zip(report.train_loss, report.dev_loss[1:], report.lr[1:])):
        print(f"epoch {e}: train {tr:.4f} dev {dv:.4f} lr {lr:g}")
    return 0


def cmd_extend(args) -> int:
    model, meta = load_checkpoint(args.checkpoint)
    table = load_feature_table(args.features)
    target = load_inventory(args.target)
    seen = set(model.units)
    new = tuple(p for p in target.phones if p not in seen)
    new_P = encode_inventory(table, list(new), specials=[])
    mode = args.mode
    if mode == "auto":
        mode = "random" if model.head == "flat" else "phonology"
    extended = extend_model(model, new, new_P, mode=mode, seed=args.seed)
    save_checkpoint(extended, args.out, epoch=meta.get("epoch", 0))
    _write_manifest(args.out, "extend", args)
    print(f"added {len(new)} units: {' '.join(new)}")
    return 0


def cmd_finetune(args) -> int:
    model, meta = load_checkpoint(args.checkpoint)
    utts = [u for path in args.corpus for u in load_corpus(path)]
    report = finetune(model, utts, _train_config(args))
    save_checkpoint(model, args.out, epoch=meta.get("epoch", 0) + len(report.train_loss))
    _write_manifest(args.out, "finetune", args, params_checksum=report.final_checksum)
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    utts = [u for path in args.corpus for u in load_corpus(path)]
    unseen = set(args.unseen or [])
    res = evaluate(model, utts, unseen=unseen)
    print(f"PER {res.per:.4f}  (S {res.substitutions} I {res.insertions} D {res.deletions} / N {res.ref_len})")
    if unseen:
        print(f"seen PER {res.seen_per:.4f}  unseen PER {res.unseen_per:.4f}")
    return 0


def cmd_export_embeddings(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    export_embeddings(model, args.out)
    _write_manifest(args.out, "export-embeddings", args)
    return 0


def cmd_bench(args) -> int:
    config = BenchmarkConfig()
    conditions = {
        "zero-shot": ("zero_shot",),
        "few-shot": ("zero_shot", "few_shot"),
        "multilingual": ("multilingual",),
    }[args.mode]
    heads = HEAD_KINDS if args.head == "all" else (args.head,)
    seeds = range(args.seed, args.seed + args.seeds)
    records = run_seeds(config, seeds, heads=heads, conditions=conditions)
    write_report(records, args.out)
    _write_manifest(args.out, f"bench {args.mode}", args)
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    if args.summary:
        print(f"\nmedian over {args.seeds} seed(s)")
        print(f"{'head':<12}{'condition':<14}{'PER':>8}{'seen':>8}{'unseen':>8}")
        for head in heads:
            for cond in conditions:
                pers = [median_per(records, head, cond, key=k) for k in ("per", "seen_per", "unseen_per")]
                print(f"{head:<12}{cond:<14}" + "".join(f"{p:>8.3f}" for p in pers))
    return 0


def cmd_selftest(args) -> int:
    """Run the gradient checks and exact-oracle spot checks."""
    from .selftest import run_selftest

    return 0 if run_selftest(seed=args.seed) else 2


def _int_at_least(lo: int):
    """argparse type for an integer >= lo; a smaller one is a usage error (exit 1)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message for non-integers
    return parse


SEED = _int_at_least(0)  # NumPy seeds are non-negative
COUNT = _int_at_least(1)


DETERMINISTIC_HELP = "accepted for compatibility: every run is deterministic for a given --seed"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phonoam")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="print the 51-bit vector of a phone")
    p.add_argument("--features", required=True)
    p.add_argument("--phone", required=True)
    p.set_defaults(func=cmd_encode)

    ps = sub.add_parser("phoneset", help="universal phone set operations")
    pssub = ps.add_subparsers(dest="subcommand", required=True)
    b = pssub.add_parser("build")
    b.add_argument("--inventories", nargs="+", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_phoneset_build)
    st = pssub.add_parser("stats")
    st.add_argument("--inventories", nargs="+", required=True)
    st.set_defaults(func=cmd_phoneset_stats)
    un = pssub.add_parser("unseen")
    un.add_argument("--inventories", nargs="+", required=True)
    un.add_argument("--target", required=True)
    un.set_defaults(func=cmd_phoneset_unseen)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--features", required=True)
    p.add_argument("--inventory", required=True)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--utterances", type=int, default=40)
    p.add_argument("--noise-std", type=float, default=0.3)
    p.add_argument("--offset-std", type=float, default=0.1)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    def add_train_flags(p):
        p.add_argument("--loss", choices=["ctc", "ctc-crf"], default="ctc")
        p.add_argument("--lm-order", type=int, choices=[1, 2], default=1)
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--batch-size", type=int, default=8)
        p.add_argument("--epochs", type=int, default=15)
        p.add_argument("--seed", type=SEED, default=0)
        p.add_argument("--deterministic", action="store_true", help=DETERMINISTIC_HELP)

    p = sub.add_parser("train", help="multilingual training")
    p.add_argument("--features", required=True)
    p.add_argument("--inventories", nargs="+", required=True)
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--head", choices=sorted(HEAD_KINDS), default="nonlinear")
    p.add_argument("--head-hidden", type=int, default=512)
    p.add_argument("--context", type=int, default=2)
    p.add_argument("--hidden", type=int, nargs="+", default=[64])
    p.add_argument("--width", type=int, default=64)
    add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extend", help="extend a model to new units")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=["auto", "phonology", "random", "mean_of_seen"], default="auto")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("finetune", help="few-shot finetuning")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", nargs="+", required=True)
    add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="phone error rate on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--unseen", nargs="*", default=[])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings", help="write unit embeddings as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("bench", help="run the synthetic benchmark")
    p.add_argument("mode", choices=["zero-shot", "few-shot", "multilingual"])
    p.add_argument("--head", choices=[*sorted(HEAD_KINDS), "all"], default="all")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--seeds", type=COUNT, default=1)
    p.add_argument("--deterministic", action="store_true", help=DETERMINISTIC_HELP)
    p.add_argument("--summary", action="store_true",
                   help="after the records, print median PER, seen and unseen PER per head and condition")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="gradient checks and exact oracles")
    p.add_argument("--seed", type=SEED, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap per our contract
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.func(args)
    except PhonoamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
