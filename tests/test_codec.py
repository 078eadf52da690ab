"""Binary codec: round trips, determinism, and corruption handling."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.refs import StateRef
from repro.errors import StorageError
from repro.storage.codec import Encoded, decode, encode, join_list
from tests.reference_codec import reference_encode
from tests.reference_codec_v2 import reference_encode_v2


class TestScalars:
    def test_none_round_trip(self):
        assert decode(encode(None)) is None

    def test_booleans_preserved_as_bool(self):
        assert decode(encode(True)) is True
        assert decode(encode(False)) is False

    def test_bool_not_confused_with_int(self):
        # bool is a subclass of int; the codec must keep the types apart.
        assert decode(encode(1)) == 1
        assert not isinstance(decode(encode(1)), bool)
        assert isinstance(decode(encode(True)), bool)

    @pytest.mark.parametrize(
        "value", [0, 1, -1, 127, 128, -128, 2**31, -(2**31), 2**80, -(2**80)]
    )
    def test_int_round_trip(self, value):
        assert decode(encode(value)) == value

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -2.25, 1e300, 5e-324])
    def test_float_round_trip(self, value):
        assert decode(encode(value)) == value

    def test_float_nan(self):
        assert math.isnan(decode(encode(float("nan"))))

    def test_float_infinities(self):
        assert decode(encode(float("inf"))) == float("inf")
        assert decode(encode(float("-inf"))) == float("-inf")

    def test_str_round_trip(self):
        assert decode(encode("hello")) == "hello"
        assert decode(encode("")) == ""
        assert decode(encode("accounts[Ω]∆")) == "accounts[Ω]∆"

    def test_bytes_round_trip(self):
        assert decode(encode(b"\x00\xff\x80")) == b"\x00\xff\x80"


class TestContainers:
    def test_tuple_stays_tuple(self):
        assert decode(encode((1, "a", 2.0))) == (1, "a", 2.0)
        assert isinstance(decode(encode((1,))), tuple)

    def test_list_stays_list(self):
        assert decode(encode([1, 2, 3])) == [1, 2, 3]
        assert isinstance(decode(encode([1])), list)

    def test_nested_structures(self):
        value = {"a": [1, (2, None)], "b": {"c": (True, "x")}}
        assert decode(encode(value)) == value

    def test_empty_containers(self):
        assert decode(encode(())) == ()
        assert decode(encode([])) == []
        assert decode(encode({})) == {}

    def test_dict_encoding_is_insertion_order_independent(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert encode(a) == encode(b)

    def test_dict_int_keys(self):
        value = {3: 1.0, 1: 2.0, 2: 3.0}
        assert decode(encode(value)) == value


class TestErrors:
    def test_unsupported_type_raises(self):
        with pytest.raises(StorageError):
            encode(object())

    def test_truncated_record_raises(self):
        blob = encode((1, "payload", 2.5))
        with pytest.raises(StorageError):
            decode(blob[:-1])

    def test_trailing_bytes_raise(self):
        blob = encode(42)
        with pytest.raises(StorageError):
            decode(blob + b"\x00")

    def test_empty_input_raises(self):
        with pytest.raises(StorageError):
            decode(b"")

    def test_unknown_tag_raises(self):
        with pytest.raises(StorageError):
            decode(b"\x7f")


# A recursive strategy over everything the codec supports.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=5),
    ),
    max_leaves=25,
)


@given(_values)
@settings(max_examples=200, deadline=None)
def test_property_round_trip(value):
    assert decode(encode(value)) == value


@given(_values)
@settings(max_examples=100, deadline=None)
def test_property_encoding_deterministic(value):
    assert encode(value) == encode(value)


# ----------------------------------------------------------------------
# Format identity: the live encoder against the frozen oracle of the
# format it writes (tests/reference_codec_v2.py), the live decoder
# against the oracle of the format older builds wrote
# (tests/reference_codec.py), with the state-table tag's edges.
# ----------------------------------------------------------------------

#: Keys on both sides of every varint-width boundary of the zig-zag
#: encoding (1/2, 2/3 and 3/4 bytes), of every key-column width of a
#: state table (1/2 and 2/4 bytes) and of the widest key it takes.
_BOUNDARY_KEYS = [
    0, 1, -1, 63, 64, -64, -65, 255, 256, 8191, 8192, -8192, -8193,
    65535, 65536, 1048575, 1048576, -1048576, -1048577,
    2**32 - 1, 2**32, 2**40, -(2**40),
]
_table_keys = st.one_of(
    st.sampled_from(_BOUNDARY_KEYS),
    st.integers(-(2**22), 2**22),
    st.integers(0, 300),
    st.integers(65000, 66000),
    st.integers(2**32 - 500, 2**32 + 500),
)
#: Keys a state table takes: its strategies draw tables that do reach the tag.
_column_keys = st.one_of(
    st.sampled_from([key for key in _BOUNDARY_KEYS if 0 <= key < 2**32]),
    st.integers(0, 2**32 - 1),
)
_table_values = st.one_of(
    st.sampled_from(
        [float("nan"), -0.0, 0.0, float("inf"), float("-inf"), 5e-324]
    ),
    st.floats(allow_nan=True),
)
_numeric_tables = st.one_of(
    st.dictionaries(_table_keys, _table_values, max_size=8),
    st.dictionaries(_table_keys, _table_values, min_size=9, max_size=60),
    st.dictionaries(_column_keys, _table_values, min_size=1, max_size=60),
)
#: Shapes one step off ``{int: float}``: they must take the general path.
_near_tables = st.one_of(
    # a True among the floats / among the keys
    st.tuples(_numeric_tables, _table_keys).map(
        lambda tk: {**tk[0], tk[1]: True}
    ),
    _numeric_tables.map(lambda t: {**t, True: 1.0}),
    st.dictionaries(_table_keys, st.integers(), max_size=12),
    st.dictionaries(st.text(max_size=4), _table_values, max_size=12),
    st.dictionaries(
        _table_keys, st.one_of(_table_values, st.integers()), max_size=12
    ),
)
_state_refs = st.builds(
    StateRef, st.text(max_size=6), st.one_of(st.integers(), st.text(max_size=4))
)
_format_values = st.recursive(
    st.one_of(_scalars, st.floats(allow_nan=True), _state_refs,
              _numeric_tables, _near_tables),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(
            st.one_of(st.integers(), st.booleans(), st.text(max_size=3)),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


class TestFormatIdentity:
    @given(_format_values)
    @settings(max_examples=300, deadline=None)
    def test_property_encode_matches_the_reference_encoder(self, value):
        assert encode(value) == reference_encode_v2(value)

    @given(_format_values)
    @settings(max_examples=300, deadline=None)
    def test_property_bytes_of_the_previous_format_still_decode(self, value):
        """Every checkpoint, log segment and watermark an older build
        wrote (no table tag: a table is a ``TAG_DICT`` of tagged pairs)
        still loads.  (Compared as re-encoded bytes: ``nan != nan``.)"""
        assert encode(decode(reference_encode(value))) == encode(value)

    @given(_format_values)
    @settings(max_examples=300, deadline=None)
    def test_property_encoding_is_canonical(self, value):
        """``encode(decode(b)) == b``: what lets verified payload bytes
        stand in for re-encoding the value they decode to."""
        blob = encode(value)
        assert encode(decode(blob)) == blob

    def test_every_boundary_key_in_one_table(self):
        table = {key: float(index) for index, key in enumerate(_BOUNDARY_KEYS)}
        blob = encode({"t": table})
        assert blob == reference_encode_v2({"t": table})
        assert decode(blob) == {"t": table}
        assert decode(reference_encode({"t": table})) == {"t": table}

    @pytest.mark.parametrize(
        "largest, width",
        [(0, 1), (255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4)],
    )
    def test_key_column_is_as_wide_as_the_largest_key_needs(self, largest, width):
        table = {largest: 1.5, 0: -0.0}
        count = len(table)
        blob = encode(table)
        assert blob == reference_encode_v2(table)
        assert blob[:3] == bytes((0x0A, count, width))
        assert len(blob) == 3 + count * (width + 8)
        assert decode(blob) == table

    def test_table_larger_than_one_join_chunk(self):
        """Named for the previous encoder's 2 048-entry joins; it stays
        as the many-record table, read back from both formats."""
        table = {key: key * 0.5 for key in range(6000)}
        blob = encode(table)
        assert blob == reference_encode_v2(table)
        assert decode(blob) == table
        assert decode(reference_encode(table)) == table

    def test_float_subclass_takes_the_general_path(self):
        class Celsius(float):
            pass

        table = {1: Celsius(2.5), 2: 3.5}
        assert encode(table) == reference_encode(table)

    @pytest.mark.parametrize(
        "value",
        [{}, {1: True}, {True: 1.0}, {1: 1}, {1: 1.0, 2: 3}, {"1": 1.0},
         {1: 1.0, "2": 2.0}, {1: None}, {1: (1.0,)},
         {-1: 1.0, 5: 2.0}, {5: 2.0, 2**32: 1.0}],
        ids=repr,
    )
    def test_a_shape_one_step_off_a_table_keeps_the_general_tag(self, value):
        blob = encode(value)
        assert blob == reference_encode(value)
        assert blob[0] == 0x09
        assert decode(blob) == value
        assert [type(k) for k in decode(blob)] == [type(k) for k in value]


#: Table blobs no encoder writes; the CRC of a frame can still hold
#: over them.  ``tests/test_storage.py`` feeds the same ones to the stores.
BAD_TABLES = {
    "width 3": b"\x0a\x02\x03" + bytes(22),
    "width 8": b"\x0a\x01\x08" + bytes(16),
    "zero count": b"\x0a\x00\x01",
    "count larger than the bytes": b"\x0a\x03\x01\x01\x02" + bytes(16),
    "count of 2**70": b"\x0a" + b"\x80" * 10 + b"\x01\x04" + bytes(64),
    "repeated key": b"\x0a\x02\x01\x07\x07" + bytes(16),
}


class TestTableDecoderContract:
    """PR 17's rule for the table tag: bytes that are not a table raise
    ``StorageError`` — before anything sized by the count is built."""

    TABLE = {key * 7: key / 3 for key in range(300)}

    @pytest.mark.parametrize("name", sorted(BAD_TABLES))
    def test_malformed_table_raises(self, name):
        with pytest.raises(StorageError):
            decode(BAD_TABLES[name])
        with pytest.raises(StorageError):
            decode(b"\x08\x01" + BAD_TABLES[name])  # as a list's one item

    @pytest.mark.parametrize("nested", [False, True])
    def test_every_prefix_of_a_table_raises(self, nested):
        blob = encode({"t": self.TABLE, "u": {1: 2.0}} if nested else self.TABLE)
        assert decode(blob)
        for cut in range(len(blob)):
            with pytest.raises(StorageError):
                decode(blob[:cut])

    def test_an_oversized_count_allocates_nothing(self):
        blob = BAD_TABLES["count of 2**70"]
        tracemalloc.start()
        try:
            with pytest.raises(StorageError, match="records"):
                decode(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestEncoded:
    def test_nested_encoded_is_spliced_verbatim(self):
        state = {"t": {1: 1.0, 2: 2.0}}
        record = {"next_epoch": 3, "state": state}
        spliced = {"next_epoch": 3, "state": Encoded(encode(state))}
        assert encode(spliced) == encode(record)
        assert encode((1, Encoded(encode("x")), [Encoded(encode(None))])) == (
            encode((1, "x", [None]))
        )

    def test_len_is_the_encoded_size(self):
        blob = encode((1, "abc"))
        assert len(Encoded(blob)) == len(blob)

    def test_encode_still_returns_bytes(self):
        assert type(encode({1: 1.0})) is bytes


@given(st.lists(_values, max_size=8))
@settings(max_examples=50, deadline=None)
def test_join_list_is_the_encoded_list_of_its_items(items):
    assert join_list([encode(item) for item in items]) == encode(items)
