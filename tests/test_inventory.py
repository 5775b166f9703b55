import pytest
from hypothesis import given, strategies as st

from phonoam.errors import DuplicateLanguageId, DuplicatePhone
from phonoam.inventory import (
    LanguageInventory,
    language_degree,
    merge_inventories,
    unseen_phones,
)

PHONES = st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=8)


def invs(phone_sets):
    return [
        LanguageInventory(language_id=f"L{i}", phones=tuple(sorted(s)))
        for i, s in enumerate(phone_sets)
    ]


def test_merge_basic():
    ps = merge_inventories(invs([{"a", "b"}, {"b", "c"}]))
    assert ps.units == ("<blk>", "<spn>", "<nsn>", "a", "b", "c")
    assert ps.membership["b"] == {"L0", "L1"}


def test_merge_single():
    ps = merge_inventories(invs([{"a"}]))
    assert ps.units == ("<blk>", "<spn>", "<nsn>", "a")


def test_duplicate_language_id():
    a = LanguageInventory("L1", ("a",))
    b = LanguageInventory("L1", ("b",))
    with pytest.raises(DuplicateLanguageId):
        merge_inventories([a, b])


def test_duplicate_phone_within_language():
    with pytest.raises(DuplicatePhone):
        LanguageInventory("L1", ("a", "a"))


def test_language_degree_basic():
    ps = merge_inventories(invs([{"a", "b"}, {"b", "c"}]))
    assert language_degree(ps) == {1: 2, 2: 1}


def test_language_degree_full_overlap():
    phones = set("abcdefghijklmnopqr")  # 18 phones shared by all 4
    ps = merge_inventories(invs([phones] * 4))
    assert language_degree(ps) == {4: 18}


def test_unseen_partition():
    ps = merge_inventories(invs([{"a", "b"}]))
    seen, unseen = unseen_phones(ps, LanguageInventory("T", ("a", "c")))
    assert seen == ["a"] and unseen == ["c"]


def test_unseen_empty_when_contained():
    ps = merge_inventories(invs([{"a", "b", "c"}]))
    _, unseen = unseen_phones(ps, LanguageInventory("T", ("b", "a")))
    assert unseen == []


@given(st.lists(PHONES, min_size=1, max_size=5), st.randoms())
def test_merge_order_insensitive(phone_sets, rnd):
    base = invs(phone_sets)
    shuffled = list(base)
    rnd.shuffle(shuffled)
    assert merge_inventories(base) == merge_inventories(shuffled)


@given(st.lists(PHONES, min_size=1, max_size=5))
def test_degree_histogram_totals(phone_sets):
    ps = merge_inventories(invs(phone_sets))
    hist = language_degree(ps)
    assert sum(hist.values()) == len(ps.units) - 3
    # brute-force per-phone membership count
    for p in ps.phones:
        expected = sum(1 for s in phone_sets if p in s)
        assert len(ps.membership[p]) == expected


@given(st.lists(PHONES, min_size=1, max_size=4), PHONES)
def test_unseen_partition_property(phone_sets, target_set):
    ps = merge_inventories(invs(phone_sets))
    target = LanguageInventory("T", tuple(sorted(target_set)))
    seen, unseen = unseen_phones(ps, target)
    assert len(seen) + len(unseen) == len(target.phones)
    assert seen + unseen != [] or not target.phones
    for p in target.phones:
        assert (p in seen) == any(p in s for s in phone_sets)
    # both lists preserve target order
    assert seen == [p for p in target.phones if p in seen]
    assert unseen == [p for p in target.phones if p in unseen]


@given(st.lists(PHONES, min_size=1, max_size=4))
def test_members_never_unseen(phone_sets):
    base = invs(phone_sets)
    ps = merge_inventories(base)
    for inv in base:
        _, unseen = unseen_phones(ps, inv)
        assert unseen == []
