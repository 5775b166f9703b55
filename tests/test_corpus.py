import numpy as np
import pytest

from phonoam.corpus import (
    SynthLanguageSpec,
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
