"""Default synthetic benchmark: multilingual training plus a held-out
language with unseen phones, mirroring a 4-training-language setup with an
18-phone shared core and a held-out inventory about one third unseen.

The world's shape is fixed by module constants, not by `BenchmarkConfig`:
N_TRAIN_LANGUAGES training languages, each the SHARED_CORE phones plus
UNIQUE_PER_LANGUAGE of its own; a held-out language of HELDOUT_SEEN phones
seen in training and HELDOUT_UNSEEN unseen ones; LENGTH_RANGE phones per
utterance.

All randomness is derived from a single benchmark seed, so a full run is a
pure function of (config, seed) and report files are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .corpus import SynthLanguageSpec, Utterance, generate_language, make_emission_map
from .encoder import EncoderConfig
from .errors import io_failure, replace_on_success
from .features import CANONICAL_FEATURES, FeatureTable, SpecialToken, encode_inventory
from .heads import HEAD_KINDS
from .inventory import LanguageInventory, merge_inventories, unseen_phones
from .model import build_model, extend_model
from .evaluate import EvalResult, evaluate
from .training import TrainConfig, finetune, train_multilingual


N_TRAIN_LANGUAGES = 4
SHARED_CORE = 18
UNIQUE_PER_LANGUAGE = 12
HELDOUT_SEEN = 20
HELDOUT_UNSEEN = 10
LENGTH_RANGE = (3, 6)


@dataclass(frozen=True)
class BenchmarkConfig:
    input_dim: int = 16
    duration_range: tuple[int, int] = (2, 4)
    noise_std: float = 0.15
    offset_std: float = 0.1
    train_utterances: int = 40
    heldout_pool: int = 160
    heldout_test: int = 40
    fewshot_fraction: float = 0.05
    encoder_context: int = 1
    encoder_hidden: tuple[int, ...] = (32,)
    encoder_width: int = 32
    head_hidden: int = 64
    loss: str = "ctc"
    lm_order: int = 1
    max_epochs: int = 40
    finetune_epochs: int = 30
    batch_size: int = 8


def make_feature_table(n_phones: int, rng: np.random.Generator) -> FeatureTable:
    """Synthetic phones with random ternary feature rows, all distinct."""
    rows: dict[str, tuple[str, ...]] = {}
    seen: set[tuple[str, ...]] = set()
    i = 0
    while len(rows) < n_phones:
        marks = tuple(rng.choice(["+", "-", "0"], p=[0.4, 0.4, 0.2], size=len(CANONICAL_FEATURES)))
        if marks in seen:
            continue
        seen.add(marks)
        rows[f"ph{i:03d}"] = marks
        i += 1
    return FeatureTable(rows=rows)


@dataclass
class BenchmarkWorld:
    table: FeatureTable
    train_inventories: list[LanguageInventory]
    heldout_inventory: LanguageInventory
    train_corpora: dict[str, list[Utterance]]
    heldout_pool: list[Utterance]
    heldout_test: list[Utterance]
    emission_map: np.ndarray


def build_world(config: BenchmarkConfig, seed: int) -> BenchmarkWorld:
    rng = np.random.default_rng([seed, 0xB5EED])
    table = make_feature_table(SHARED_CORE + N_TRAIN_LANGUAGES * UNIQUE_PER_LANGUAGE + HELDOUT_UNSEEN, rng)
    phones = table.phones()
    core = phones[:SHARED_CORE]
    pos = SHARED_CORE
    train_inventories = []
    uniques_all: list[str] = []
    for i in range(N_TRAIN_LANGUAGES):
        uniq = phones[pos : pos + UNIQUE_PER_LANGUAGE]
        pos += UNIQUE_PER_LANGUAGE
        uniques_all.extend(uniq)
        train_inventories.append(
            LanguageInventory(language_id=f"L{i + 1}", phones=tuple(core + uniq))
        )
    unseen = phones[pos:]

    # held-out language: part of the core, some borrowed uniques, plus the
    # genuinely unseen phones
    n_from_core = min(HELDOUT_SEEN, SHARED_CORE)
    borrowed = HELDOUT_SEEN - n_from_core
    heldout_phones = core[:n_from_core] + uniques_all[:borrowed] + unseen
    heldout_inventory = LanguageInventory(language_id="target", phones=tuple(heldout_phones))

    W = make_emission_map(config.input_dim, seed=int(rng.integers(2**31)))
    train_corpora = {}
    for i, inv in enumerate(train_inventories):
        spec = SynthLanguageSpec(
            language_id=inv.language_id,
            inventory=inv.phones,
            duration_range=config.duration_range,
            noise_std=config.noise_std,
            offset_std=config.offset_std,
            length_range=LENGTH_RANGE,
            utterance_count=config.train_utterances,
            seed=int(rng.integers(2**31)),
        )
        train_corpora[inv.language_id] = generate_language(spec, table, W)

    heldout_spec = SynthLanguageSpec(
        language_id="target",
        inventory=heldout_inventory.phones,
        duration_range=config.duration_range,
        noise_std=config.noise_std,
        offset_std=config.offset_std,
        length_range=LENGTH_RANGE,
        utterance_count=config.heldout_pool + config.heldout_test,
        seed=int(rng.integers(2**31)),
    )
    heldout_all = generate_language(heldout_spec, table, W)
    return BenchmarkWorld(
        table=table,
        train_inventories=train_inventories,
        heldout_inventory=heldout_inventory,
        train_corpora=train_corpora,
        heldout_pool=heldout_all[: config.heldout_pool],
        heldout_test=heldout_all[config.heldout_pool :],
        emission_map=W,
    )


def _record(head: str, language: str, condition: str, seed: int, result: EvalResult) -> dict:
    return {
        "method": head,
        "language": language,
        "condition": condition,
        "seed": seed,
        "per": round(result.per, 6),
        "seen_per": round(result.seen_per, 6),
        "unseen_per": round(result.unseen_per, 6),
    }


def run_benchmark(
    config: BenchmarkConfig,
    seed: int,
    heads=HEAD_KINDS,
    conditions=("zero_shot", "few_shot"),
) -> list[dict]:
    """Train/extend/evaluate all requested heads for one seed."""
    world = build_world(config, seed)
    phone_set = merge_inventories(world.train_inventories)
    P = encode_inventory(world.table, list(phone_set.phones), list(SpecialToken))
    seen, unseen = unseen_phones(phone_set, world.heldout_inventory)
    new_P = encode_inventory(world.table, unseen, specials=[])

    enc_config = EncoderConfig(
        input_dim=config.input_dim,
        context=config.encoder_context,
        hidden=config.encoder_hidden,
        output_dim=config.encoder_width,
    )
    train_config = TrainConfig(
        loss=config.loss,
        lm_order=config.lm_order,
        batch_size=config.batch_size,
        max_epochs=config.max_epochs,
        seed=seed,
    )

    records = []
    for head in heads:
        model = build_model(
            phone_set.units,
            P,
            enc_config,
            head=head,
            seed=seed,
            head_hidden=config.head_hidden,
        )
        train_multilingual(world.train_corpora, model, train_config)

        if "multilingual" in conditions:
            for inv in world.train_inventories:
                res = evaluate(model, world.train_corpora[inv.language_id])
                records.append(_record(head, inv.language_id, "multilingual", seed, res))

        extended = extend_model(model, tuple(unseen), new_P, seed=seed)

        if "zero_shot" in conditions or "few_shot" in conditions:
            res = evaluate(extended, world.heldout_test, unseen=set(unseen))
            records.append(_record(head, "target", "zero_shot", seed, res))

        if "few_shot" in conditions:
            n_ft = max(1, int(round(config.fewshot_fraction * len(world.heldout_pool))))
            ft_set = world.heldout_pool[:n_ft]
            ft_config = replace(train_config, max_epochs=config.finetune_epochs)
            finetune(extended, ft_set, ft_config)
            res = evaluate(extended, world.heldout_test, unseen=set(unseen))
            records.append(_record(head, "target", "few_shot", seed, res))
    return records


def run_seeds(config: BenchmarkConfig, seeds, heads=HEAD_KINDS, conditions=("zero_shot", "few_shot")) -> list[dict]:
    records = []
    for seed in seeds:
        records.extend(run_benchmark(config, seed, heads=heads, conditions=conditions))
    return records


def write_report(records: list[dict], path) -> None:
    """One JSON record per line, keys sorted: byte-stable for a given input."""
    with io_failure(), replace_on_success(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def median_per(records: list[dict], head: str, condition: str, key: str = "per") -> float:
    vals = [r[key] for r in records if r["method"] == head and r["condition"] == condition]
    return float(np.median(vals))
