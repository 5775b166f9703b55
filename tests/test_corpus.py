import base64
import json

import numpy as np
import pytest

from phonoam.corpus import (
    SynthLanguageSpec,
    Utterance,
    generate_language,
    load_corpus,
    make_emission_map,
    phone_prototype,
    save_corpus,
)
from phonoam.errors import UnknownPhone
from phonoam.features import builtin_table, encode_phone

TABLE = builtin_table()
PHONES = tuple(TABLE.phones())


def spec(**kw):
    defaults = dict(
        language_id="L1",
        inventory=PHONES,
        duration_range=(1, 3),
        noise_std=0.2,
        offset_std=0.1,
        length_range=(2, 4),
        utterance_count=10,
        seed=5,
    )
    defaults.update(kw)
    return SynthLanguageSpec(**defaults)


def test_emission_map_seeded():
    assert np.array_equal(make_emission_map(8, 3), make_emission_map(8, 3))
    assert not np.array_equal(make_emission_map(8, 3), make_emission_map(8, 4))


def test_identical_vectors_identical_prototypes():
    W = make_emission_map(6, 0)
    for p in PHONES:
        a = phone_prototype(W, TABLE, p)
        b = W @ encode_phone(TABLE, p)
        assert np.array_equal(a, b)


def test_prototype_distance_tracks_hamming_distance():
    # random-projection geometry: farther feature vectors -> farther prototypes
    rng = np.random.default_rng(0)
    W = make_emission_map(24, 1)
    hamming, euclid = [], []
    for _ in range(100):
        a, b = rng.choice(len(PHONES), size=2, replace=False)
        va = encode_phone(TABLE, PHONES[a])
        vb = encode_phone(TABLE, PHONES[b])
        hamming.append(np.abs(va - vb).sum())
        euclid.append(np.linalg.norm(W @ (va - vb)))
    # Spearman rank correlation, computed directly
    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r

    rh, re = ranks(np.array(hamming)), ranks(np.array(euclid))
    rho = np.corrcoef(rh, re)[0, 1]
    assert rho > 0


def test_noiseless_frames_equal_prototypes():
    s = spec(noise_std=0.0, offset_std=0.0, duration_range=(1, 1))
    W = make_emission_map(5, 2)
    for utt in generate_language(s, TABLE, W):
        assert utt.frames.shape[0] == len(utt.phones)
        for t, p in enumerate(utt.phones):
            assert np.allclose(utt.frames[t], phone_prototype(W, TABLE, p))


def test_deterministic_given_seed():
    W = make_emission_map(5, 2)
    a = generate_language(spec(), TABLE, W)
    b = generate_language(spec(), TABLE, W)
    assert len(a) == len(b)
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.frames, ub.frames)
        assert ua.phones == ub.phones


def test_frame_count_within_duration_bounds():
    s = spec(duration_range=(2, 4))
    for utt in generate_language(s, TABLE, make_emission_map(5, 2)):
        L = len(utt.phones)
        assert 2 * L <= utt.frames.shape[0] <= 4 * L


def test_unknown_phone_rejected():
    s = spec(inventory=("d", "zz"))
    with pytest.raises(UnknownPhone, match="^phone 'zz' is not in the feature table$"):
        generate_language(s, TABLE, make_emission_map(5, 2))


def test_corpus_file_roundtrip(tmp_path):
    utts = generate_language(spec(), TABLE, make_emission_map(5, 2))
    path = tmp_path / "corpus.jsonl"
    save_corpus(utts, path)
    loaded = load_corpus(path)
    assert len(loaded) == len(utts)
    for a, b in zip(utts, loaded):
        assert a.phones == b.phones
        assert a.language_id == b.language_id
        assert np.array_equal(a.frames, b.frames)


def save_corpus_per_value(utterances, path):
    """The former writer, converting every frame value with float() one at a time."""
    symbols = sorted({p for u in utterances for p in u.phones})
    index = {p: i for i, p in enumerate(symbols)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"symbols": symbols}, ensure_ascii=False) + "\n")
        for u in utterances:
            rec = {
                "language": u.language_id,
                "labels": [index[p] for p in u.phones],
                "frames": [[float(v) for v in row] for row in u.frames],
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


EDGE = np.array([
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308],  # signed zeros, subnormals, smallest normal
    [1e308, -1e308, 1.7976931348623157e308, 3.0, -2.0],  # near the float range, integer-valued
    [1e16, 12345678901234567.0, 0.1, 1 / 3, 1e-7],
])


def edge_corpus():
    utts = generate_language(spec(), TABLE, make_emission_map(5, 2))
    utts.append(Utterance(frames=EDGE, phones=("d",), language_id="ɛdge"))
    # another layout and byte order of the same values are written as the same row-major float64
    utts.append(Utterance(frames=np.asfortranarray(EDGE), phones=("d",), language_id="fortran"))
    utts.append(Utterance(frames=EDGE.astype(">f8"), phones=("d",), language_id="big-endian"))
    return utts


def test_edge_frames_round_trip_bit_for_bit(tmp_path):
    utts = edge_corpus()
    save_corpus(utts, tmp_path / "corpus.jsonl")
    loaded = load_corpus(tmp_path / "corpus.jsonl")
    assert [u.language_id for u in loaded] == [u.language_id for u in utts]
    for a, b in zip(utts, loaded):
        assert b.frames.dtype == np.float64 and b.frames.flags.writeable
        assert b.frames.shape == a.frames.shape
        assert b.frames.tobytes() == np.asarray(a.frames, np.float64).tobytes()


def test_frames_are_written_packed(tmp_path):
    utts = edge_corpus()
    save_corpus(utts, tmp_path / "corpus.jsonl")
    records = [json.loads(ln) for ln in (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[1:]]
    for u, rec in zip(utts, records):
        assert rec["dim"] == u.frames.shape[1]
        assert rec["frames"] == base64.b64encode(np.ascontiguousarray(u.frames, "<f8").tobytes()).decode("ascii")


def test_a_per_value_writers_file_loads_to_the_same_bytes(tmp_path):
    utts = edge_corpus()
    save_corpus_per_value(utts, tmp_path / "old.jsonl")
    loaded = load_corpus(tmp_path / "old.jsonl")
    assert [u.phones for u in loaded] == [u.phones for u in utts]
    for a, b in zip(utts, loaded):
        assert b.frames.tobytes() == np.asarray(a.frames, np.float64).tobytes()
