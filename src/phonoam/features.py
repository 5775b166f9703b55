"""Phonological feature tables and the 51-bit phonological-vector encoding.

Each phone is described by 24 ternary distinctive features.  Every feature is
encoded as a 2-bit pair [is_plus, is_minus] ('+' -> 10, '-' -> 01, '0' -> 00),
giving 48 feature bits, followed by 3 one-hot bits for the special tokens
<blk>, <spn> and <nsn>.  The result is a 51-bit binary vector per unit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources

import numpy as np

from .errors import (
    DuplicatePhone,
    MalformedRow,
    UnknownMark,
    UnknownPhone,
    WrongFeatureCount,
    io_failure,
)

FEATURE_COUNT = 24
FEATURE_BITS = 2 * FEATURE_COUNT
SPECIAL_BITS = 3
VECTOR_BITS = FEATURE_BITS + SPECIAL_BITS  # 51

# Canonical feature order; the header of every feature file must match it.
CANONICAL_FEATURES = (
    "syllabic",
    "sonorant",
    "consonantal",
    "continuant",
    "delayed release",
    "lateral",
    "nasal",
    "strident",
    "voice",
    "spread glottis",
    "constricted glottis",
    "anterior",
    "coronal",
    "distributed labial",
    "labial",
    "high",
    "low",
    "back",
    "round",
    "velaric",
    "tense",
    "long",
    "hitone",
    "hireg",
)

MARKS = ("+", "-", "0")


class SpecialToken(IntEnum):
    """The three non-phone units, ordered BLANK < SPN < NSN."""

    BLANK = 0
    SPN = 1
    NSN = 2


SPECIAL_SYMBOLS = {
    SpecialToken.BLANK: "<blk>",
    SpecialToken.SPN: "<spn>",
    SpecialToken.NSN: "<nsn>",
}


@dataclass(frozen=True)
class FeatureTable:
    """Immutable phone -> 24 ternary feature marks mapping, in CANONICAL_FEATURES order."""

    rows: dict[str, tuple[str, ...]]

    def __contains__(self, phone: str) -> bool:
        return phone in self.rows

    def phones(self) -> list[str]:
        return list(self.rows)


def parse_feature_table(text: str) -> FeatureTable:
    """Parse a tab-separated feature document into a FeatureTable.

    First non-comment line is the header ``phone<TAB>feat1<TAB>...``; each
    following line is a phone symbol plus 24 cells in {+, -, 0}.  Lines
    starting with ``#`` are ignored.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise MalformedRow("empty feature document")

    header = lines[0].split("\t")
    if header[0] != "phone":
        raise MalformedRow(f"header must start with 'phone', got {header[0]!r}")
    names = tuple(header[1:])
    if len(names) != FEATURE_COUNT:
        raise WrongFeatureCount(
            f"expected {FEATURE_COUNT} feature columns, got {len(names)}"
        )
    if names != CANONICAL_FEATURES:
        raise MalformedRow("feature header does not match the canonical order")

    rows: dict[str, tuple[str, ...]] = {}
    for ln in lines[1:]:
        cells = ln.split("\t")
        phone, marks = cells[0], tuple(cells[1:])
        if len(marks) != FEATURE_COUNT:
            raise MalformedRow(
                f"row {phone!r} has {len(marks)} cells, expected {FEATURE_COUNT}"
            )
        for m in marks:
            if m not in MARKS:
                raise UnknownMark(f"row {phone!r}: mark {m!r} not in {MARKS}")
        if phone in rows:
            raise DuplicatePhone(f"phone {phone!r} appears twice in the feature table")
        rows[phone] = marks

    # Phones with identical rows are allowed but produce identical vectors
    # downstream; flag them once at parse time.
    seen: dict[tuple[str, ...], str] = {}
    for phone, marks in rows.items():
        if marks in seen:
            warnings.warn(
                f"phones {seen[marks]!r} and {phone!r} have identical feature rows",
                stacklevel=2,
            )
        else:
            seen[marks] = phone

    return FeatureTable(rows=rows)


def load_feature_table(path) -> FeatureTable:
    with io_failure(f"cannot read feature table {path}: "), open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_feature_table(text)


def builtin_table() -> FeatureTable:
    """The feature table bundled with the package (a small core of phones)."""
    text = resources.files("phonoam.data").joinpath("core_phones.tsv").read_text("utf-8")
    return parse_feature_table(text)


def encode_phone(table: FeatureTable, phone: str) -> np.ndarray:
    """51-bit phonological-vector of a regular phone (special bits all zero)."""
    if phone not in table.rows:
        raise UnknownPhone(f"phone {phone!r} is not in the feature table")
    vec = np.zeros(VECTOR_BITS, dtype=np.float64)
    for k, mark in enumerate(table.rows[phone]):
        if mark == "+":
            vec[2 * k] = 1.0
        elif mark == "-":
            vec[2 * k + 1] = 1.0
    return vec


def encode_special(token: SpecialToken) -> np.ndarray:
    """51-bit vector of a special token: zero feature bits, one-hot tail."""
    vec = np.zeros(VECTOR_BITS, dtype=np.float64)
    vec[FEATURE_BITS + int(token)] = 1.0
    return vec


def decode_vector(vec: np.ndarray) -> tuple[str, ...]:
    """Recover the 24 ternary marks from the feature bits of a vector."""
    if vec.shape != (VECTOR_BITS,):
        raise UnknownMark(f"expected a {VECTOR_BITS}-bit vector, got shape {vec.shape}")
    marks = []
    for k in range(FEATURE_COUNT):
        plus, minus = vec[2 * k], vec[2 * k + 1]
        if plus and minus:
            raise UnknownMark(f"feature {k}: pair 11 is not a valid encoding")
        marks.append("+" if plus else "-" if minus else "0")
    return tuple(marks)


def encode_inventory(
    table: FeatureTable,
    phones: list[str],
    specials: list[SpecialToken] = list(SpecialToken),
) -> np.ndarray:
    """Stack phonological-vectors: specials first, then phones in given order."""
    rows = [encode_special(t) for t in specials]
    rows += [encode_phone(table, p) for p in phones]
    return np.stack(rows, axis=0) if rows else np.zeros((0, VECTOR_BITS))
