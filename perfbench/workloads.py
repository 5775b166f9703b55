"""The benchmark's workloads, built only from phonoam's public functions.

Each workload has a set-up (timed apart from the measured section), a unit of
measured work that a run repeats, and output checks that run after the
measured section.  Every call into the package goes through a module
attribute (``training.train_multilingual(...)``), so the traced run's
wrappers at those names see it.  See README.md for why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from phonoam import benchmark, checkpoint, corpus, crf, ctc, features, heads, inventory, lm, selftest, training
from phonoam import evaluate as evaluate_mod
from phonoam import model as model_mod
from phonoam.benchmark import BenchmarkConfig
from phonoam.encoder import EncoderConfig

CRF_BIGRAM_CONFIG = replace(
    BenchmarkConfig(), loss="ctc_crf", lm_order=2, max_epochs=1, finetune_epochs=1
)

# long_eval evaluates one checkpoint, trained on the world of this seed, on a
# long-utterance corpus drawn from --seed.  A model trained per seed would make
# the decoded lengths, and so the O(L^2) alignment work, vary by about 20%
# from seed to seed.
LONG_MODEL_SEED = 0
LONG_TRAIN_CONFIG = training.TrainConfig(lr=1e-2, max_epochs=10, seed=LONG_MODEL_SEED)
LONG_UTTERANCES = 200
LONG_LENGTH_RANGE = (20, 40)  # phones per utterance, about 90 frames


@dataclass
class UnitResult:
    """What one measured unit produced, plus the timings taken around it."""

    records: list[dict] = field(default_factory=list)
    reports: list = field(default_factory=list)  # TrainReport per training call
    train_s: float = 0.0
    step_utts: int = 0  # utterance passes whose gradients reach the optimizer
    step_frames: int = 0
    offered: int = 0  # utterances given to training or evaluation
    evals: list[tuple[int, float]] = field(default_factory=list)  # (frames, s)
    final_dev_loss: float | None = None  # of the unit's last multilingual training

    def train(self, call: Callable, train_set: list) -> None:
        t0 = perf_counter()
        report = call()
        self.train_s += perf_counter() - t0
        epochs = len(report.train_loss)
        self.reports.append(report)
        self.step_utts += epochs * len(train_set)
        self.step_frames += epochs * _frames(train_set)
        self.offered += len(train_set)

    def evaluate(self, model, utts: list, unseen: set):
        t0 = perf_counter()
        result = evaluate_mod.evaluate(model, utts, unseen=unseen)
        self.evals.append((_frames(utts), perf_counter() - t0))
        self.offered += len(utts)
        return result

    @property
    def skipped(self) -> int:
        return sum(r.skipped for r in self.reports)


def _frames(utts) -> int:
    return sum(u.frames.shape[0] for u in utts)


def _train_split(corpora: dict, seed: int, dev_fraction: float = 0.2) -> list:
    """The training side of train_multilingual's dev split."""
    merged = [u for utts in corpora.values() for u in utts]
    order = np.random.default_rng(seed).permutation(len(merged))
    n_dev = max(1, int(len(merged) * dev_fraction))
    return [merged[i] for i in order[n_dev:]]


@dataclass
class PreparedWorld:
    config: BenchmarkConfig
    seed: int
    world: benchmark.BenchmarkWorld
    phone_set: inventory.UniversalPhoneSet
    P: np.ndarray
    unseen: list[str]
    new_P: np.ndarray

    def encoder_config(self) -> EncoderConfig:
        cfg = self.config
        return EncoderConfig(
            input_dim=cfg.input_dim,
            context=cfg.encoder_context,
            hidden=cfg.encoder_hidden,
            output_dim=cfg.encoder_width,
        )


def prepare_world(config: BenchmarkConfig, seed: int) -> PreparedWorld:
    """World generation and phone encoding: the set-up part of run_benchmark."""
    world = benchmark.build_world(config, seed)
    phone_set = inventory.merge_inventories(world.train_inventories)
    P = features.encode_inventory(world.table, list(phone_set.phones), list(features.SpecialToken))
    _, unseen = inventory.unseen_phones(phone_set, world.heldout_inventory)
    new_P = features.encode_inventory(world.table, unseen, specials=[])
    return PreparedWorld(config, seed, world, phone_set, P, unseen, new_P)


def pipeline_unit(prep: PreparedWorld, head_kinds) -> UnitResult:
    """run_benchmark's zero-shot then few-shot sequence, one head at a time."""
    cfg, seed, world = prep.config, prep.seed, prep.world
    train_config = training.TrainConfig(
        loss=cfg.loss,
        lm_order=cfg.lm_order,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        seed=seed,
    )
    ft_config = replace(train_config, max_epochs=cfg.finetune_epochs)
    n_ft = max(1, int(round(cfg.fewshot_fraction * len(world.heldout_pool))))
    ft_set = world.heldout_pool[:n_ft]
    train_set = _train_split(world.train_corpora, seed)
    unseen = set(prep.unseen)

    out = UnitResult()
    for head in head_kinds:
        model = model_mod.build_model(
            prep.phone_set.units, prep.P, prep.encoder_config(),
            head=head, seed=seed, head_hidden=cfg.head_hidden,
        )
        out.train(lambda: training.train_multilingual(world.train_corpora, model, train_config), train_set)
        out.final_dev_loss = out.reports[-1].dev_loss[-1]
        mode = "phonology" if head != "flat" else "random"
        extended = model_mod.extend_model(model, tuple(prep.unseen), prep.new_P, mode=mode, seed=seed)
        res = out.evaluate(extended, world.heldout_test, unseen)
        out.records.append(benchmark._record(head, "target", "zero_shot", seed, res))
        out.train(lambda: training.finetune(extended, ft_set, ft_config), ft_set)
        res = out.evaluate(extended, world.heldout_test, unseen)
        out.records.append(benchmark._record(head, "target", "few_shot", seed, res))
    return out


@dataclass
class LongEvalState:
    prep: PreparedWorld
    model: model_mod.AcousticModel  # the extended model, as saved
    report: training.TrainReport
    utts: list
    checkpoint_path: Path
    corpus_path: Path


def long_eval_setup(seed: int, workdir: Path) -> LongEvalState:
    prep = prepare_world(BenchmarkConfig(), LONG_MODEL_SEED)
    cfg, world = prep.config, prep.world
    model = model_mod.build_model(
        prep.phone_set.units, prep.P, prep.encoder_config(),
        head="nonlinear", seed=LONG_MODEL_SEED, head_hidden=cfg.head_hidden,
    )
    report = training.train_multilingual(world.train_corpora, model, LONG_TRAIN_CONFIG)
    extended = model_mod.extend_model(model, tuple(prep.unseen), prep.new_P, mode="phonology")
    ckpt = workdir / "long_eval_model.npz"
    checkpoint.save_checkpoint(extended, ckpt)

    spec = corpus.SynthLanguageSpec(
        language_id=world.heldout_inventory.language_id,
        inventory=world.heldout_inventory.phones,
        duration_range=cfg.duration_range,
        noise_std=cfg.noise_std,
        offset_std=cfg.offset_std,
        length_range=LONG_LENGTH_RANGE,
        utterance_count=LONG_UTTERANCES,
        seed=seed,
    )
    utts = corpus.generate_language(spec, world.table, world.emission_map)
    corpus_path = workdir / "long_eval_corpus.jsonl"
    corpus.save_corpus(utts, corpus_path)
    return LongEvalState(prep, extended, report, utts, ckpt, corpus_path)


def _eval_record(res) -> dict:
    return {
        "substitutions": res.substitutions,
        "insertions": res.insertions,
        "deletions": res.deletions,
        "ref_len": res.ref_len,
        "seen_errors": res.seen_errors,
        "seen_len": res.seen_len,
        "unseen_errors": res.unseen_errors,
        "unseen_len": res.unseen_len,
        "per": res.per,
        "unseen_per": res.unseen_per,
    }


def long_eval_unit(state: LongEvalState) -> UnitResult:
    """What `phonoam eval --checkpoint ... --corpus ... --unseen ...` does."""
    out = UnitResult()
    model, _ = checkpoint.load_checkpoint(state.checkpoint_path)
    utts = corpus.load_corpus(state.corpus_path)
    res = out.evaluate(model, utts, set(state.prep.unseen))
    out.records.append(_eval_record(res))
    return out


# ---------------------------------------------------------------- checks
# Each check returns (name, passed).  They run after the measured section.


def _check_units(units: list[UnitResult], expected_keys) -> list[tuple[str, bool]]:
    first = units[0].records
    keys = [tuple(r.get(k) for k in ("method", "condition")) for r in first]
    values = [v for r in first for v in r.values() if isinstance(v, float)]
    losses = [x for u in units for r in u.reports for x in r.train_loss + r.dev_loss]
    return [
        ("record set complete", keys == list(expected_keys)),
        ("records finite", all(math.isfinite(v) for v in values)),
        ("losses finite", all(math.isfinite(x) for x in losses)),
        ("units repeat exactly", all(u.records == first for u in units)),
    ]


def _pipeline_keys(head_kinds):
    return [(h, c) for h in head_kinds for c in ("zero_shot", "few_shot")]


def _brute_force_ctc_checks(rng, n=3) -> list[tuple[str, bool]]:
    out = []
    for k in range(n):
        Z = rng.normal(0.0, 2.0, size=(4, 3))
        labels = [int(x) for x in rng.integers(1, 3, size=2)]
        err = abs(ctc.ctc_loss(Z, labels).nll + selftest.brute_force_ctc(Z, labels))
        out.append((f"ctc_loss vs brute force #{k}", err < 1e-9))
    return out


def _brute_force_crf_checks(rng, n=2) -> list[tuple[str, bool]]:
    out = []
    for k in range(n):
        Z = rng.normal(0.0, 2.0, size=(3, 3))
        corpus_labels = [[int(x) for x in rng.integers(1, 3, size=int(rng.integers(1, 3)))] for _ in range(5)]
        phone_lm = lm.train_phone_lm(corpus_labels, order=2, smoothing=1.0, vocab=range(1, 3))
        graph = crf.build_denominator_graph(3, phone_lm)
        logden, _ = crf.denominator_forward_backward(graph, heads.log_posteriors(Z))
        err = abs(logden - selftest.brute_force_crf_denominator(Z, phone_lm))
        out.append((f"crf denominator vs brute force #{k}", err < 1e-9))
    return out


def _crf_gradient_check(rng) -> tuple[str, bool]:
    """Finite differences of model_loss_and_grads (CTC-CRF, bigram LM) on a
    tiny nonlinear-head model, for one encoder and both head matrices."""
    units = ("<blk>", "a", "b", "c")
    P = rng.integers(0, 2, size=(len(units), features.VECTOR_BITS)).astype(float)
    enc = EncoderConfig(input_dim=3, context=1, hidden=(4,), output_dim=4)
    model = model_mod.build_model(units, P, enc, head="nonlinear", seed=int(rng.integers(2**31)), head_hidden=5)
    frames = rng.normal(size=(5, 3))
    labels = [1, 2, 3]
    phone_lm = lm.train_phone_lm([[1, 2], [2, 3, 1], [3]], order=2, vocab=range(1, len(units)))
    graph = crf.build_denominator_graph(len(units), phone_lm)
    _, grads = model_mod.model_loss_and_grads(model, frames, labels, "ctc_crf", phone_lm, graph)
    params = model_mod.model_params(model)
    worst = 0.0
    for name in ("enc.W0", "head.A1", "head.A2"):
        def nll(value, name=name):
            model_mod.set_model_params(model, {name: value})
            try:
                return model_mod.model_loss_and_grads(model, frames, labels, "ctc_crf", phone_lm, graph)[0]
            finally:
                model_mod.set_model_params(model, {name: params[name]})

        fd = selftest.finite_difference(nll, params[name])
        worst = max(worst, selftest.max_rel_err(fd, grads[name]))
    return ("model_loss_and_grads vs finite differences (ctc_crf, bigram)", worst < 1e-4)


def ctc_pipeline_checks(prep, units, rng):
    return _check_units(units, _pipeline_keys(benchmark.HEAD_KINDS)) + _brute_force_ctc_checks(rng)


def crf_bigram_checks(prep, units, rng):
    return (
        _check_units(units, _pipeline_keys(("nonlinear",)))
        + _brute_force_crf_checks(rng)
        + [_crf_gradient_check(rng)]
    )


def long_eval_checks(state: LongEvalState, units, rng):
    loaded = corpus.load_corpus(state.corpus_path)
    same_corpus = len(loaded) == len(state.utts) and all(
        a.phones == b.phones and a.language_id == b.language_id and np.array_equal(a.frames, b.frames)
        for a, b in zip(loaded, state.utts)
    )
    in_memory = _eval_record(evaluate_mod.evaluate(state.model, state.utts, unseen=set(state.prep.unseen)))
    rec = units[0].records[0]
    return [
        ("corpus round-trips through JSONL", same_corpus),
        ("checkpoint round-trip gives the same evaluation", rec == in_memory),
        ("every reference phone scored", rec["ref_len"] == sum(len(u.phones) for u in state.utts)
         and rec["seen_len"] + rec["unseen_len"] == rec["ref_len"]),
        ("set-up training losses finite", all(math.isfinite(x) for x in state.report.train_loss + state.report.dev_loss)),
        ("units repeat exactly", all(u.records == units[0].records for u in units)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], object]
    unit: Callable[[object], UnitResult]
    checks: Callable[[object, list[UnitResult], np.random.Generator], list[tuple[str, bool]]]
    setup_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ctc_pipeline",
            lambda seed, workdir: prepare_world(BenchmarkConfig(), seed),
            lambda prep: pipeline_unit(prep, benchmark.HEAD_KINDS),
            ctc_pipeline_checks,
            setup_repeats=20,
        ),
        Workload(
            "crf_bigram",
            lambda seed, workdir: prepare_world(CRF_BIGRAM_CONFIG, seed),
            lambda prep: pipeline_unit(prep, ("nonlinear",)),
            crf_bigram_checks,
            setup_repeats=20,
        ),
        Workload("long_eval", long_eval_setup, long_eval_unit, long_eval_checks, setup_repeats=3),
    )
}
