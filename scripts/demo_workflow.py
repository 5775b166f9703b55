#!/usr/bin/env python3
"""End-to-end walkthrough on the bundled phone table.

Synthesizes two training languages plus a target language with one unseen
phone, trains a phonology-driven model, extends it zero-shot to the unseen
phone, finetunes on a few target utterances and reports PER at each stage.

Example:
    python3 scripts/demo_workflow.py --head nonlinear --seed 0
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phonoam.corpus import SynthLanguageSpec, generate_language, make_emission_map  # noqa: E402
from phonoam.encoder import EncoderConfig  # noqa: E402
from phonoam.evaluate import evaluate  # noqa: E402
from phonoam.features import SpecialToken, builtin_table, encode_inventory  # noqa: E402
from phonoam.inventory import LanguageInventory, merge_inventories, unseen_phones  # noqa: E402
from phonoam.model import build_model, extend_model  # noqa: E402
from phonoam.training import TrainConfig, finetune, train_multilingual  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--head", default="nonlinear", choices=["flat", "linear", "nonlinear"])
    ap.add_argument("--loss", default="ctc", choices=["ctc", "ctc_crf"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=30)
    args = ap.parse_args()

    table = builtin_table()
    phones = tuple(table.phones())
    # two training languages sharing a core; kʲ is reserved for the target
    invs = [
        LanguageInventory("L1", phones[:5]),
        LanguageInventory("L2", phones[:4] + (phones[5],)),
    ]
    target = LanguageInventory("target", (phones[0], phones[1], phones[6]))
    phone_set = merge_inventories(invs)
    seen, unseen = unseen_phones(phone_set, target)
    print(f"training units: {phone_set.units}")
    print(f"target unseen phones: {unseen}")

    dim = 8
    W = make_emission_map(dim, seed=args.seed)
    corpora = {}
    for i, inv in enumerate(invs):
        spec = SynthLanguageSpec(
            language_id=inv.language_id, inventory=inv.phones,
            noise_std=0.15, utterance_count=40, seed=args.seed + 101 * (i + 1),
        )
        corpora[inv.language_id] = generate_language(spec, table, W)
    target_spec = SynthLanguageSpec(
        language_id="target", inventory=target.phones,
        noise_std=0.15, utterance_count=60, seed=args.seed + 999,
    )
    target_utts = generate_language(target_spec, table, W)
    few_shot, test = target_utts[:5], target_utts[20:]

    P = encode_inventory(table, list(phone_set.phones), list(SpecialToken))
    enc = EncoderConfig(input_dim=dim, context=1, hidden=(32,), output_dim=32)
    model = build_model(phone_set.units, P, enc, head=args.head, seed=args.seed,
                        head_hidden=64)
    config = TrainConfig(loss=args.loss, max_epochs=args.epochs, seed=args.seed)
    report = train_multilingual(corpora, model, config)
    print(f"\ntrained {len(report.train_loss)} epochs, "
          f"dev loss {report.dev_loss[0]:.3f} -> {report.dev_loss[-1]:.3f}")

    new_P = encode_inventory(table, unseen, specials=[])
    extended = extend_model(model, tuple(unseen), new_P, seed=args.seed)
    res = evaluate(extended, test, unseen=set(unseen))
    print(f"zero-shot: PER {res.per:.3f} (seen {res.seen_per:.3f}, "
          f"unseen {res.unseen_per:.3f})")

    finetune(extended, few_shot, config)
    res = evaluate(extended, test, unseen=set(unseen))
    print(f"few-shot ({len(few_shot)} utts): PER {res.per:.3f} "
          f"(seen {res.seen_per:.3f}, unseen {res.unseen_per:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
