"""Synthetic multilingual corpora whose acoustics are caused by phonology.

A single emission map W (shared across all languages) sends each phone's
51-bit phonological-vector to a D-dimensional acoustic prototype.  Frames are
prototype + per-language offset + white noise.  Because the prototype is a
deterministic function of the phonological-vector, an unseen phone's acoustics
are predictable from its phonology, which is exactly the structure a
phonology-driven embedding head can exploit and a flat head cannot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSynthSpec, IoFailure, UnknownPhone, io_failure, replace_on_success
from .features import VECTOR_BITS, FeatureTable, encode_phone


@dataclass(frozen=True)
class SynthLanguageSpec:
    language_id: str
    inventory: tuple[str, ...]
    duration_range: tuple[int, int] = (2, 4)  # frames per phone
    noise_std: float = 0.3
    offset_std: float = 0.1
    length_range: tuple[int, int] = (3, 6)  # phones per utterance
    utterance_count: int = 40
    seed: int = 0

    def __post_init__(self):
        if not self.inventory:
            raise InvalidSynthSpec(f"inventory of {self.language_id!r} holds no phones")
        if self.utterance_count < 1:
            raise InvalidSynthSpec(f"utterance_count must be >= 1, got {self.utterance_count}")
        for name in ("noise_std", "offset_std"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidSynthSpec(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class Utterance:
    frames: np.ndarray  # T x D
    phones: tuple[str, ...]
    language_id: str


def make_emission_map(D: int, seed: int) -> np.ndarray:
    """Shared D x 51 Gaussian map from phonological-vectors to prototypes."""
    if D < 1:
        raise InvalidSynthSpec(f"the acoustic dimension D must be >= 1, got {D}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(VECTOR_BITS), size=(D, VECTOR_BITS))


def phone_prototype(W: np.ndarray, table: FeatureTable, phone: str) -> np.ndarray:
    return W @ encode_phone(table, phone)


def generate_language(
    spec: SynthLanguageSpec, table: FeatureTable, W: np.ndarray
) -> list[Utterance]:
    """Seeded utterances for one language; deterministic given the spec."""
    for p in spec.inventory:
        if p not in table:
            raise UnknownPhone(f"phone {p!r} is not in the feature table")
    rng = np.random.default_rng(spec.seed)
    D = W.shape[0]
    offset = rng.normal(0.0, spec.offset_std, size=D) if spec.offset_std > 0 else np.zeros(D)
    prototypes = {p: phone_prototype(W, table, p) for p in spec.inventory}

    d_lo, d_hi = spec.duration_range
    l_lo, l_hi = spec.length_range
    utterances = []
    for _ in range(spec.utterance_count):
        length = int(rng.integers(l_lo, l_hi + 1))
        phones = tuple(spec.inventory[i] for i in rng.integers(0, len(spec.inventory), length))
        chunks = []
        for p in phones:
            dur = int(rng.integers(d_lo, d_hi + 1))
            if spec.noise_std > 0:
                noise = rng.normal(0.0, spec.noise_std, size=(dur, D))
            else:
                noise = np.zeros((dur, D))
            chunks.append(prototypes[p] + offset + noise)
        utterances.append(
            Utterance(
                frames=np.concatenate(chunks, axis=0),
                phones=phones,
                language_id=spec.language_id,
            )
        )
    return utterances


def save_corpus(utterances: list[Utterance], path) -> None:
    """Write a corpus as JSON lines: a symbol-table header, then one record
    per utterance with label indices and row-major float64 frames."""
    symbols = sorted({p for u in utterances for p in u.phones})
    index = {p: i for i, p in enumerate(symbols)}
    with io_failure(), replace_on_success(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"symbols": symbols}, ensure_ascii=False) + "\n")
        for u in utterances:
            rec = {
                "language": u.language_id,
                "labels": [index[p] for p in u.phones],
                "frames": u.frames.tolist(),
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _json_object(line: str, where: str) -> dict:
    try:
        rec = json.loads(line)
    except ValueError as exc:
        raise IoFailure(f"{where}: not JSON ({exc})") from exc
    if not isinstance(rec, dict):
        raise IoFailure(f"{where}: not a JSON object")
    return rec


def _utterance(rec: dict, symbols: list[str], where: str) -> Utterance:
    language, labels = rec.get("language"), rec.get("labels")
    if not isinstance(language, str):
        raise IoFailure(f"{where}: 'language' must be a string")
    # JSON integers load as int exactly, so bools and floats are refused
    if not (isinstance(labels, list) and all(type(i) is int and 0 <= i < len(symbols) for i in labels)):
        raise IoFailure(f"{where}: 'labels' must be a list of symbol indices in [0, {len(symbols)})")
    try:
        frames = np.array(rec.get("frames"), dtype=np.float64)
    except (ValueError, TypeError, OverflowError):  # OverflowError: an integer beyond float range
        frames = None
    if frames is None or frames.ndim != 2 or frames.size == 0 or not np.isfinite(frames).all():
        raise IoFailure(f"{where}: 'frames' must be a non-empty list of equal-length rows of finite numbers")
    return Utterance(frames=frames, phones=tuple(symbols[i] for i in labels), language_id=language)


def load_corpus(path) -> list[Utterance]:
    """Read a file written by save_corpus; IoFailure names the first bad line."""
    with io_failure(), open(path, encoding="utf-8") as fh:
        symbols = _json_object(fh.readline(), f"{path} line 1").get("symbols")
        if not (isinstance(symbols, list) and all(isinstance(s, str) for s in symbols)):
            raise IoFailure(f"{path} line 1: header needs 'symbols', a list of strings")
        utterances, dim = [], None
        for lineno, line in enumerate(fh, start=2):
            where = f"{path} line {lineno}"
            utt = _utterance(_json_object(line, where), symbols, where)
            dim = dim or utt.frames.shape[1]
            if utt.frames.shape[1] != dim:
                raise IoFailure(f"{where}: frames have {utt.frames.shape[1]} columns, line 2 has {dim}")
            utterances.append(utt)
    if not utterances:
        raise IoFailure(f"{path} line 2: no utterance after the header")
    return utterances
