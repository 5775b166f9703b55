import numpy as np
import pytest
from hypothesis import given, strategies as st

from phonoam.errors import (
    DuplicatePhone,
    MalformedRow,
    UnknownMark,
    UnknownPhone,
    WrongFeatureCount,
)
from phonoam.features import (
    CANONICAL_FEATURES,
    FeatureTable,
    SpecialToken,
    builtin_table,
    decode_vector,
    encode_inventory,
    encode_phone,
    encode_special,
    parse_feature_table,
)

D_MARKS = tuple("- - + - - - - 0 + - - + + - - - - - - - 0 - 0 0".split())
I_MARKS = tuple("+ + - + - - - 0 + - - 0 - 0 - + - - - - + - 0 0".split())

# expected bit pairs from the published feature values of d and i
D_BITS = "01 01 10 01 01 01 01 00 10 01 01 10 10 01 01 01 01 01 01 01 00 01 00 00"
I_BITS = "10 10 01 10 01 01 01 00 10 01 01 00 01 00 01 10 01 01 01 01 10 01 00 00"


def header_line():
    return "phone\t" + "\t".join(CANONICAL_FEATURES)


def make_doc(rows):
    lines = [header_line()]
    for phone, marks in rows:
        lines.append(phone + "\t" + "\t".join(marks))
    return "\n".join(lines)


class TestParse:
    def test_parses_published_d_row(self):
        table = parse_feature_table(make_doc([("d", D_MARKS)]))
        assert table.rows["d"] == D_MARKS
        assert table.feature_names == CANONICAL_FEATURES

    def test_header_with_23_columns_rejected(self):
        doc = "phone\t" + "\t".join(CANONICAL_FEATURES[:-1]) + "\nd\t" + "\t".join(D_MARKS[:-1])
        with pytest.raises(WrongFeatureCount):
            parse_feature_table(doc)

    def test_duplicate_phone_rejected(self):
        with pytest.raises(DuplicatePhone):
            parse_feature_table(make_doc([("i", I_MARKS), ("i", I_MARKS)]))

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(MalformedRow):
            parse_feature_table(make_doc([("d", D_MARKS[:-1])]))

    def test_bad_mark_rejected(self):
        marks = ("x",) + D_MARKS[1:]
        with pytest.raises(UnknownMark):
            parse_feature_table(make_doc([("d", marks)]))

    def test_noncanonical_header_rejected(self):
        names = ("bogus",) + CANONICAL_FEATURES[1:]
        doc = "phone\t" + "\t".join(names) + "\nd\t" + "\t".join(D_MARKS)
        with pytest.raises(MalformedRow):
            parse_feature_table(doc)

    def test_comment_lines_ignored(self):
        doc = "# a comment\n" + make_doc([("d", D_MARKS)])
        assert "d" in parse_feature_table(doc)

    def test_identical_rows_warn(self):
        with pytest.warns(UserWarning, match="identical feature rows"):
            parse_feature_table(make_doc([("a", D_MARKS), ("b", D_MARKS)]))


class TestEncode:
    def test_d_bit_pairs(self):
        vec = encode_phone(builtin_table(), "d")
        assert "".join(str(int(b)) for b in vec) == D_BITS.replace(" ", "") + "000"

    def test_i_bit_pairs(self):
        vec = encode_phone(builtin_table(), "i")
        assert "".join(str(int(b)) for b in vec) == I_BITS.replace(" ", "") + "000"

    def test_unknown_phone(self):
        with pytest.raises(UnknownPhone):
            encode_phone(builtin_table(), "q")

    def test_specials_one_hot(self):
        for token, tail in [
            (SpecialToken.BLANK, (1, 0, 0)),
            (SpecialToken.SPN, (0, 1, 0)),
            (SpecialToken.NSN, (0, 0, 1)),
        ]:
            vec = encode_special(token)
            assert vec[:48].sum() == 0
            assert tuple(vec[48:]) == tail

    def test_roundtrip_all_builtin_phones(self):
        table = builtin_table()
        for phone in table.phones():
            assert decode_vector(encode_phone(table, phone)) == table.rows[phone]

    def test_popcount_matches_nonzero_marks(self):
        table = builtin_table()
        for phone, marks in table.rows.items():
            vec = encode_phone(table, phone)
            expected = sum(1 for m in marks if m in "+-")
            assert vec.sum() == expected
            assert vec[48:].sum() == 0

    @given(st.lists(st.sampled_from("+-0"), min_size=24, max_size=24))
    def test_no_pair_is_11_and_roundtrip(self, marks):
        table = FeatureTable(feature_names=CANONICAL_FEATURES, rows={"x": tuple(marks)})
        vec = encode_phone(table, "x")
        pairs = vec[:48].reshape(24, 2)
        assert not np.any((pairs[:, 0] == 1) & (pairs[:, 1] == 1))
        assert decode_vector(vec) == tuple(marks)


class TestInventoryMatrix:
    def test_blank_first_then_phone(self):
        table = builtin_table()
        P = encode_inventory(table, ["d"], [SpecialToken.BLANK])
        assert P.shape == (2, 51)
        assert np.array_equal(P[0], encode_special(SpecialToken.BLANK))
        assert np.array_equal(P[1], encode_phone(table, "d"))

    def test_specials_only(self):
        P = encode_inventory(builtin_table(), [], [SpecialToken.BLANK])
        assert P.shape == (1, 51)

    def test_empty_is_zero_rows(self):
        P = encode_inventory(builtin_table(), [], specials=[])
        assert P.shape == (0, 51)

    def test_three_phones_all_specials(self):
        P = encode_inventory(builtin_table(), ["d", "i", "ə"], list(SpecialToken))
        assert P.shape == (6, 51)

    def test_unknown_phone_raises(self):
        with pytest.raises(UnknownPhone):
            encode_inventory(builtin_table(), ["zz"], [SpecialToken.BLANK])
