import csv

import numpy as np
import pytest

from phonoam.corpus import Utterance
from phonoam.ctc import greedy_decode
from phonoam.encoder import EncoderConfig
from phonoam.errors import InventoryMismatch, IoFailure
from phonoam.evaluate import EvalResult, align, evaluate, export_embeddings
from phonoam.features import SPECIAL_SYMBOLS, SpecialToken, VECTOR_BITS
from phonoam.model import AcousticModel, build_model, embeddings, model_forward

RNG = np.random.default_rng(41)


def reference_align(ref, hyp):
    """Cell-by-cell Levenshtein table and backtrace: the oracle `align` must match op for op."""
    ref, hyp = list(ref), list(hyp)
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=int)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = dist[i - 1, j] + 1
            ins = dist[i, j - 1] + 1
            dist[i, j] = min(sub, dele, ins)

    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            op = "match" if ref[i - 1] == hyp[j - 1] else "sub"
            ops.append((op, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            ops.append(("del", i - 1, None))
            i -= 1
        else:
            ops.append(("ins", None, j - 1))
            j -= 1
    ops.reverse()
    return ops


def edit_distance(ref, hyp) -> tuple[int, int, int]:
    """(substitutions, insertions, deletions) of align's op list."""
    ops = [op for op, _, _ in align(ref, hyp)]
    return ops.count("sub"), ops.count("ins"), ops.count("del")


class TestEditDistance:
    def test_identical(self):
        assert edit_distance("abc", "abc") == (0, 0, 0)

    def test_single_ops(self):
        assert edit_distance("abc", "axc") == (1, 0, 0)
        assert edit_distance("abc", "ac") == (0, 0, 1)
        assert edit_distance("abc", "abxc") == (0, 1, 0)

    def test_empty_hyp_all_deletions(self):
        assert edit_distance("abcd", "") == (0, 0, 4)

    def test_empty_ref_all_insertions(self):
        assert edit_distance("", "ab") == (0, 2, 0)

    def test_substitution_preferred_over_ins_plus_del(self):
        assert edit_distance("a", "b") == (1, 0, 0)

    def test_total_matches_classic_dp_oracle(self):
        def naive(a, b):
            n, m = len(a), len(b)
            d = [[0] * (m + 1) for _ in range(n + 1)]
            for i in range(n + 1):
                d[i][0] = i
            for j in range(m + 1):
                d[0][j] = j
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    d[i][j] = min(
                        d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                        d[i - 1][j] + 1,
                        d[i][j - 1] + 1,
                    )
            return d[n][m]

        for _ in range(80):
            a = [int(x) for x in RNG.integers(0, 3, size=RNG.integers(0, 7))]
            b = [int(x) for x in RNG.integers(0, 3, size=RNG.integers(0, 7))]
            s, i, d = edit_distance(a, b)
            assert s + i + d == naive(a, b)
            # length bookkeeping of the alignment
            ops = align(a, b)
            assert sum(1 for op, *_ in ops if op != "ins") == len(a)
            assert sum(1 for op, *_ in ops if op != "del") == len(b)


def _random_pair(rng, alphabet, max_len, as_str):
    """(ref, hyp) over `alphabet` symbols, each side 0..max_len long."""
    a, b = (
        [int(x) for x in rng.integers(0, alphabet, size=rng.integers(0, max_len + 1))] for _ in range(2)
    )
    return ([f"p{x}" for x in a], [f"p{x}" for x in b]) if as_str else (a, b)


class TestAlignMatchesReference:
    """The row-update table gives the reference's whole op list, ties included."""

    @pytest.mark.parametrize("as_str", [False, True], ids=["int", "str"])
    @pytest.mark.parametrize("alphabet", [1, 2, 3])
    def test_small_alphabets_force_ties(self, alphabet, as_str):
        rng = np.random.default_rng(100 * alphabet + as_str)
        for _ in range(150):
            ref, hyp = _random_pair(rng, alphabet, 12, as_str)
            assert align(ref, hyp) == reference_align(ref, hyp)

    @pytest.mark.parametrize("as_str", [False, True], ids=["int", "str"])
    def test_lengths_up_to_45(self, as_str):
        rng = np.random.default_rng(7 + as_str)
        for alphabet in (2, 3, 8, 40):
            for _ in range(6):
                ref, hyp = _random_pair(rng, alphabet, 45, as_str)
                assert align(ref, hyp) == reference_align(ref, hyp)
        full = [f"p{x}" for x in range(45)] if as_str else list(range(45))
        assert align(full, full[::-1]) == reference_align(full, full[::-1])

    @pytest.mark.parametrize("as_str", [False, True], ids=["int", "str"])
    def test_either_side_empty(self, as_str):
        rng = np.random.default_rng(3 + as_str)
        for _ in range(20):
            ref, _ = _random_pair(rng, 3, 10, as_str)
            assert align(ref, []) == reference_align(ref, [])
            assert align([], ref) == reference_align([], ref)
        assert align([], []) == reference_align([], []) == []

    def test_mixed_symbol_types_compare_by_equality(self):
        ref, hyp = ("a", 1, "b", (2, 3)), [1, "b", "a", (2, 3), "c"]
        assert align(ref, hyp) == reference_align(ref, hyp)


def _manual_model(phones, emit):
    """Model whose decode is fully controlled by the input frames.

    Each frame is a scaled one-hot over units; the encoder is a single
    identity layer and the head is a fixed identity matrix, so the argmax
    unit at frame t is exactly the hot index of frame t.
    """
    units = tuple(SPECIAL_SYMBOLS[t] for t in SpecialToken) + tuple(phones)
    n = len(units)
    cfg = EncoderConfig(input_dim=n, context=0, hidden=(), output_dim=n)
    E = np.eye(n) if emit else np.zeros((n, n))
    params = {"enc.W0": 10.0 * np.eye(n), "enc.b0": np.zeros(n), "head.E": E}
    return AcousticModel(
        encoder_config=cfg,
        head="flat",
        params=params,
        P=np.zeros((n, VECTOR_BITS)),
        units=units,
    )


def _frames_for(model, sequence):
    index = model.unit_index()
    rows = []
    for p in sequence:
        hot = np.zeros(model.n_units)
        hot[index[p]] = 5.0
        rows.append(hot)
        rows.append(np.eye(model.n_units)[0] * 5.0)  # blank spacer
    return np.array(rows)


class TestEvaluate:
    def test_perfect_model_scores_zero(self):
        model = _manual_model(["a", "b", "c"], emit=True)
        utts = [
            Utterance(frames=_frames_for(model, seq), phones=tuple(seq), language_id="L")
            for seq in (["a", "b"], ["c", "c", "a"], ["b"])
        ]
        res = evaluate(model, utts)
        assert res.per == 0.0
        assert res.substitutions == res.insertions == res.deletions == 0

    def test_silent_model_deletes_everything(self):
        model = _manual_model(["a", "b"], emit=False)
        utts = [Utterance(frames=np.zeros((4, model.n_units)), phones=("a", "b"), language_id="L")]
        res = evaluate(model, utts)
        assert res.per == 1.0
        assert res.deletions == 2 and res.insertions == 0 and res.substitutions == 0

    def test_unseen_split_partitions_errors_exactly(self):
        model = _manual_model(["a", "b", "c"], emit=True)
        # model hears "a c b" but the reference is "a b": one insertion
        utt = Utterance(
            frames=_frames_for(model, ["a", "c", "b"]), phones=("a", "b"), language_id="L"
        )
        res = evaluate(model, [utt], unseen={"b"})
        total = res.substitutions + res.insertions + res.deletions
        assert res.seen_errors + res.unseen_errors == total
        assert res.seen_len + res.unseen_len == res.ref_len
        # the insertion is attributed to the next reference phone, "b"
        assert res.unseen_errors == total == 1

    def test_trailing_insertions_attributed_to_last_class(self):
        model = _manual_model(["a", "b"], emit=True)
        utt = Utterance(
            frames=_frames_for(model, ["a", "b"]), phones=("a",), language_id="L"
        )
        res = evaluate(model, [utt], unseen=set())
        assert res.insertions == 1
        assert res.seen_errors == 1 and res.unseen_errors == 0

    def test_class_totals_on_random_noise(self):
        model = _manual_model(["a", "b", "c", "d"], emit=True)
        utts = []
        for _ in range(10):
            L = int(RNG.integers(1, 5))
            seq = tuple(RNG.choice(["a", "b", "c", "d"], size=L))
            utts.append(
                Utterance(
                    frames=RNG.normal(0, 3, size=(2 * L, model.n_units)),
                    phones=seq,
                    language_id="L",
                )
            )
        res = evaluate(model, utts, unseen={"c", "d"})
        assert res.seen_errors + res.unseen_errors == (
            res.substitutions + res.insertions + res.deletions
        )
        assert res.seen_len + res.unseen_len == res.ref_len

    def test_unknown_phone_rejected(self):
        model = _manual_model(["a"], emit=True)
        utt = Utterance(frames=np.zeros((2, model.n_units)), phones=("z",), language_id="L")
        with pytest.raises(InventoryMismatch):
            evaluate(model, [utt])


def reference_evaluate(model, utterances, unseen):
    """Insertions held pending until the next reference phone, then flushed onto
    its class, and trailing ones onto the last class: the oracle `evaluate`'s
    one-pass charging must match field for field."""
    inv = {i: u for u, i in model.unit_index().items()}
    result = EvalResult()
    for utt in utterances:
        Z, _ = model_forward(model, utt.frames)
        hyp_phones = [inv[i] for i in greedy_decode(Z)]

        ops = align(utt.phones, hyp_phones)
        result.ref_len += len(utt.phones)
        for p in utt.phones:
            if p in unseen:
                result.unseen_len += 1
            else:
                result.seen_len += 1

        last_class_unseen = False
        pending_ins = 0
        for op, ri, _ in ops:
            if op == "ins":
                result.insertions += 1
                pending_ins += 1
                continue
            phone = utt.phones[ri]
            is_unseen = phone in unseen
            if is_unseen:
                result.unseen_errors += pending_ins
            else:
                result.seen_errors += pending_ins
            pending_ins = 0
            last_class_unseen = is_unseen
            if op == "sub":
                result.substitutions += 1
                err = 1
            elif op == "del":
                result.deletions += 1
                err = 1
            else:
                err = 0
            if is_unseen:
                result.unseen_errors += err
            else:
                result.seen_errors += err
        if last_class_unseen:
            result.unseen_errors += pending_ins
        else:
            result.seen_errors += pending_ins
    return result


class TestChargingMatchesReference:
    PHONES = ("a", "b", "c", "d")

    def _utterance(self, model, ref, hyp):
        """An utterance whose reference is `ref` and whose greedy decode is `hyp`."""
        frames = _frames_for(model, hyp) if len(hyp) else 5.0 * np.eye(model.n_units)[:1]
        return Utterance(frames=frames, phones=tuple(ref), language_id="L")

    @pytest.mark.parametrize("ref, hyp", [
        ("", "ab"), ("", ""), ("a", ""), ("ab", "cdab"), ("ab", "abcd"), ("ab", "cabd"),
        ("abc", "dadbdcd"), ("abcd", "bd"),
    ], ids=["empty_ref", "both_empty", "empty_hyp", "leading", "trailing", "both_ends", "interleaved", "deletions"])
    @pytest.mark.parametrize(
        "unseen", [set(), {"a"}, {"b"}, {"a", "c"}, set(PHONES)], ids=["none", "a", "b", "a_c", "all"]
    )
    def test_edge_cases(self, ref, hyp, unseen):
        model = _manual_model(self.PHONES, emit=True)
        utts = [self._utterance(model, ref, hyp)]
        assert evaluate(model, utts, unseen) == reference_evaluate(model, utts, unseen)

    def test_random_decodes_and_unseen_sets(self):
        rng = np.random.default_rng(11)
        model = _manual_model(self.PHONES, emit=True)

        def phones(max_len):
            return [str(p) for p in rng.choice(self.PHONES, size=rng.integers(0, max_len + 1))]

        for _ in range(60):
            unseen = {p for p in self.PHONES if rng.random() < 0.5}
            utts = [self._utterance(model, phones(7), phones(7)) for _ in range(4)]
            # noise frames decode to anything, special tokens included
            frames = rng.normal(0, 3, size=(int(rng.integers(1, 12)), model.n_units))
            utts.append(Utterance(frames=frames, phones=tuple(phones(4)), language_id="L"))
            assert evaluate(model, utts, unseen) == reference_evaluate(model, utts, unseen)


def flat_model(rows, units):
    """A flat-head model of zero embeddings with this many rows and these units."""
    cfg = EncoderConfig(input_dim=2, context=0, hidden=(), output_dim=3)
    params = {"enc.W0": np.zeros((3, 2)), "enc.b0": np.zeros(3), "head.E": np.zeros((rows, 3))}
    return AcousticModel(cfg, "flat", params, np.zeros((rows, VECTOR_BITS)), units)


class TestExport:
    def test_roundtrip_values(self, tmp_path):
        P = RNG.integers(0, 2, size=(4, VECTOR_BITS)).astype(float)
        units = ("u0", "u1", "u2", "u3")
        model = build_model(units, P, EncoderConfig(input_dim=2, output_dim=3), head="linear", seed=1)
        path = tmp_path / "emb.csv"
        export_embeddings(model, path)
        E, _ = embeddings(model)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(r[0] for r in rows) == units
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.array_equal(got, E)  # repr() round-trips exactly

    def test_row_count_checked(self, tmp_path):
        model = flat_model(2, ("a",))
        with pytest.raises(InventoryMismatch):
            export_embeddings(model, tmp_path / "x.csv")

    def test_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            export_embeddings(flat_model(1, ("a",)), tmp_path / "nodir" / "x.csv")
