"""Acceptance suite: nine go/no-go checks, one test per criterion.

Each test prints a single summary line on success so a `pytest -s` run reads
as a checklist.  Criteria 6 and 7 share one multi-seed benchmark run via a
session-scoped fixture because the benchmark dominates the runtime budget;
the same records are also checked against a committed golden file.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from phonoam.benchmark import BenchmarkConfig, median_per, run_seeds, write_report
from phonoam.cli import main
from phonoam.crf import crf_loss, denominator_forward_backward, build_denominator_graph
from phonoam.ctc import ctc_loss
from phonoam.encoder import EncoderConfig
from phonoam.features import (
    SpecialToken,
    builtin_table,
    decode_vector,
    encode_inventory,
    encode_phone,
)
from phonoam.heads import log_posteriors
from phonoam.inventory import (
    LanguageInventory,
    language_degree,
    merge_inventories,
    unseen_phones,
)
from phonoam.lm import train_phone_lm
from phonoam.model import build_model, model_loss_and_grads, model_params
from phonoam.selftest import (
    _random_instance,
    brute_force_crf_denominator,
    brute_force_ctc,
    finite_difference,
    max_rel_err,
)

# The published ternary feature values of the seven catalogued phones,
# frozen here independently of the bundled data file.
PUBLISHED_MARKS = {
    "d": "- - + - - - - 0 + - - + + - - - - - - - 0 - 0 0",
    "ɛ": "+ + - + - - - 0 + - - 0 - 0 - - - - - - - - 0 0",
    "ð": "- - + + - - - 0 + - - + + + - - - - - - 0 - 0 0",
    "ə": "+ + - + - - - 0 + - - 0 - 0 - - - + - - - - 0 0",
    "i": "+ + - + - - - 0 + - - 0 - 0 - + - - - - + - 0 0",
    "ʥ": "- - + - + - - 0 + - - - + + - + - - - - 0 - 0 0",
    "kʲ": "- - + - - - - 0 - - - - - 0 - + - - - - 0 - 0 0",
}


def report(n, text):
    print(f"criterion {n}: PASS — {text}")


def test_criterion_1_encoding_fidelity():
    start = time.time()
    table = builtin_table()
    for phone, marks in PUBLISHED_MARKS.items():
        expected = tuple(marks.split())
        assert decode_vector(encode_phone(table, phone)) == expected, phone
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"all 7 catalogued phones encode/decode exactly ({elapsed:.2f}s)")


def test_criterion_2_ctc_exactness():
    start = time.time()
    rng = np.random.default_rng(2)
    for _ in range(100):
        Z, labels = _random_instance(rng, t_max=4, n_max=4, l_max=2)
        res = ctc_loss(Z, labels)
        assert abs(res.nll + brute_force_ctc(Z, labels)) < 1e-9
        fd = finite_difference(lambda z: ctc_loss(z, labels).nll, Z)
        assert max_rel_err(fd, res.dZ) < 1e-4
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"100 instances match brute force and finite differences ({elapsed:.1f}s)")


def test_criterion_3_crf_reduces_to_ctc():
    start = time.time()
    rng = np.random.default_rng(3)
    for _ in range(50):
        Z, labels = _random_instance(rng)
        a, b = ctc_loss(Z, labels), crf_loss(Z, labels, lm=None)
        assert abs(a.nll - b.nll) < 1e-8
        assert np.max(np.abs(a.dZ - b.dZ)) < 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(3, f"crf_loss(lm=None) equals ctc_loss on 50 instances ({elapsed:.1f}s)")


def test_criterion_4_crf_denominator_exactness():
    start = time.time()
    rng = np.random.default_rng(4)
    for _ in range(50):
        Z, labels = _random_instance(rng, t_max=3, n_max=3)
        N = Z.shape[1]
        corpus = [labels] + [[int(rng.integers(1, N))] for _ in range(4)]
        lm = train_phone_lm(corpus, order=2, smoothing=0.5, vocab=range(1, N))
        graph = build_denominator_graph(N, lm)
        logden, _ = denominator_forward_backward(graph, log_posteriors(Z))
        assert abs(logden - brute_force_crf_denominator(Z, lm)) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(4, f"bigram denominator matches LM-weighted path sums ({elapsed:.1f}s)")


def test_criterion_5_end_to_end_gradient_chain():
    start = time.time()
    table = builtin_table()
    ps = merge_inventories([LanguageInventory("L1", tuple(table.phones())[:3])])
    P = encode_inventory(table, list(ps.phones), list(SpecialToken))
    assert len(ps.units) == 6
    cfg = EncoderConfig(input_dim=4, context=1, hidden=(8,), output_dim=8)
    frames = np.random.default_rng(5).normal(size=(5, 4))
    labels = [3, 4]
    lm = train_phone_lm([labels, [5]], order=1, smoothing=1.0, vocab=range(1, 6))
    for head in ("flat", "linear", "nonlinear"):
        for loss in ("ctc", "ctc_crf"):
            model = build_model(ps.units, P, cfg, head=head, seed=5, head_hidden=6)
            use_lm = lm if loss == "ctc_crf" else None
            _, grads = model_loss_and_grads(model, frames, labels, loss, use_lm)
            for name, p in model_params(model).items():
                def f(arr, p=p):
                    saved = p.copy()
                    p[...] = arr
                    out, _ = model_loss_and_grads(model, frames, labels, loss, use_lm)
                    p[...] = saved
                    return out

                fd = finite_difference(f, p)
                assert max_rel_err(fd, grads[name]) < 1e-4, (head, loss, name)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, f"all heads x losses pass finite-difference checks ({elapsed:.1f}s)")


@pytest.fixture(scope="session")
def benchmark_records():
    config = BenchmarkConfig()
    return run_seeds(config, range(5), conditions=("zero_shot", "few_shot"))


# write_report of the benchmark_records fixture; regenerate it only for a
# change that is meant to move the benchmark's PERs
GOLDEN_RECORDS = Path(__file__).with_name("golden_benchmark_records.jsonl")


def test_benchmark_records_match_golden_file(benchmark_records, tmp_path):
    out = tmp_path / "records.jsonl"
    write_report(benchmark_records, out)
    assert out.read_bytes() == GOLDEN_RECORDS.read_bytes()


def test_criterion_6_zero_shot_ordering(benchmark_records):
    flat = median_per(benchmark_records, "flat", "zero_shot")
    nonlinear = median_per(benchmark_records, "nonlinear", "zero_shot")
    assert nonlinear < flat, (nonlinear, flat)
    flat_u = median_per(benchmark_records, "flat", "zero_shot", key="unseen_per")
    for head in ("linear", "nonlinear"):
        u = median_per(benchmark_records, head, "zero_shot", key="unseen_per")
        assert u < flat_u, (head, u, flat_u)
    report(6, f"zero-shot PER nonlinear {nonlinear:.3f} < flat {flat:.3f}; "
              f"unseen PER of both phonology heads < flat {flat_u:.3f}")


def test_criterion_7_few_shot_improvement(benchmark_records):
    gains = {}
    for head in ("flat", "linear", "nonlinear"):
        zero = median_per(benchmark_records, head, "zero_shot")
        few = median_per(benchmark_records, head, "few_shot")
        assert few < zero, (head, few, zero)
        gains[head] = (zero, few)
    report(7, "finetuning on 5% improves median PER for every head: "
              + ", ".join(f"{h} {z:.3f}->{f:.3f}" for h, (z, f) in gains.items()))


def test_criterion_8_benchmark_determinism(tmp_path):
    outputs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        code = main(["bench", "zero-shot", "--seed", "7", "--deterministic",
                     "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(8, "two identical bench invocations produce byte-identical reports")


def test_criterion_9_inventory_statistics():
    start = time.time()
    rng = np.random.default_rng(9)
    pool = [f"p{i}" for i in range(30)]
    for _ in range(100):
        n_lang = int(rng.integers(1, 6))
        invs = []
        for i in range(n_lang):
            size = int(rng.integers(1, len(pool) + 1))
            phones = tuple(rng.choice(pool, size=size, replace=False))
            invs.append(LanguageInventory(f"L{i}", phones))
        ps = merge_inventories(invs)

        # brute-force degree oracle
        distinct = {p for inv in invs for p in inv.phones}
        oracle = {}
        for p in distinct:
            d = sum(1 for inv in invs if p in inv.phones)
            oracle[d] = oracle.get(d, 0) + 1
        hist = language_degree(ps)
        assert hist == oracle
        assert sum(hist.values()) == len(distinct)

        target_phones = tuple(rng.choice(pool + ["q1", "q2", "q3"],
                                         size=int(rng.integers(1, 10)), replace=False))
        target = LanguageInventory("T", target_phones)
        seen, unseen = unseen_phones(ps, target)
        assert set(seen) == {p for p in target_phones if p in distinct}
        assert set(unseen) == {p for p in target_phones if p not in distinct}
        assert seen + unseen and len(seen) + len(unseen) == len(target_phones)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(9, f"degree and unseen partitions match oracles on 100 configs ({elapsed:.1f}s)")
