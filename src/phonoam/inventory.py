"""Per-language phone inventories and the merged universal phone set."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DuplicateLanguageId, DuplicatePhone, IoFailure
from .features import SPECIAL_SYMBOLS, SpecialToken

SPECIAL_UNITS = tuple(SPECIAL_SYMBOLS[t] for t in SpecialToken)


@dataclass(frozen=True)
class LanguageInventory:
    language_id: str
    phones: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.phones)) != len(self.phones):
            raise DuplicatePhone(f"duplicate phones in inventory {self.language_id!r}")


@dataclass(frozen=True)
class UniversalPhoneSet:
    """Merged unit list: [<blk>, <spn>, <nsn>] then codepoint-sorted phones."""

    units: tuple[str, ...]
    membership: dict[str, frozenset[str]]

    @property
    def phones(self) -> tuple[str, ...]:
        return self.units[len(SPECIAL_UNITS):]


def merge_inventories(inventories: list[LanguageInventory]) -> UniversalPhoneSet:
    if not inventories:
        raise DuplicateLanguageId("at least one inventory required")
    ids = [inv.language_id for inv in inventories]
    if len(set(ids)) != len(ids):
        raise DuplicateLanguageId(f"duplicate language ids in {ids}")

    membership: dict[str, set[str]] = {}
    for inv in inventories:
        for p in inv.phones:
            membership.setdefault(p, set()).add(inv.language_id)

    units = SPECIAL_UNITS + tuple(sorted(membership))
    return UniversalPhoneSet(
        units=units,
        membership={p: frozenset(s) for p, s in membership.items()},
    )


def language_degree(phone_set: UniversalPhoneSet) -> dict[int, int]:
    """Histogram: number of member languages -> count of phones (specials excluded)."""
    hist: dict[int, int] = {}
    for p in phone_set.phones:
        d = len(phone_set.membership[p])
        hist[d] = hist.get(d, 0) + 1
    return hist


def unseen_phones(
    phone_set: UniversalPhoneSet, target: LanguageInventory
) -> tuple[list[str], list[str]]:
    """Partition the target phones by membership in the universal set."""
    known = set(phone_set.units)
    seen = [p for p in target.phones if p in known]
    unseen = [p for p in target.phones if p not in known]
    return seen, unseen


def load_inventory(path) -> LanguageInventory:
    """Read an inventory file: JSON with fields `language` and `phones`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise IoFailure(f"cannot read inventory {path}: {exc}") from exc
    if not isinstance(doc, dict) or "language" not in doc or "phones" not in doc:
        raise IoFailure(f"inventory {path} must be a JSON object with `language` and `phones`")
    language, phones = doc["language"], doc["phones"]
    if not isinstance(language, str):
        raise IoFailure(f"inventory {path}: `language` must be a string")
    if not isinstance(phones, list) or not all(isinstance(p, str) for p in phones):
        raise IoFailure(f"inventory {path}: `phones` must be a list of strings")
    return LanguageInventory(language_id=language, phones=tuple(phones))


def save_inventory(inv: LanguageInventory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"language": inv.language_id, "phones": list(inv.phones)}, fh,
                  ensure_ascii=False, indent=2)
