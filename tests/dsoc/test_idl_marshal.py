"""Unit and property tests for the DSOC IDL and wire format."""

import pytest
from hypothesis import given, strategies as st

from repro.dsoc.idl import IdlError, Interface, Method, Param
from repro.dsoc.marshal import (
    MarshalError,
    WIRE_HEADER_BYTES,
    dumps,
    loads,
    wire_flits,
)


class TestParam:
    def test_unknown_type_rejected(self):
        with pytest.raises(IdlError, match="unknown type"):
            Param("x", "quaternion")

    def test_u32_bounds(self):
        p = Param("x", "u32")
        p.check(0)
        p.check(2**32 - 1)
        with pytest.raises(IdlError):
            p.check(2**32)
        with pytest.raises(IdlError):
            p.check(-1)

    def test_list_type(self):
        p = Param("xs", "list<u8>")
        p.check([1, 2, 255])
        with pytest.raises(IdlError):
            p.check([256])
        with pytest.raises(IdlError):
            p.check("not a list")

    def test_bytes_type(self):
        p = Param("blob", "bytes")
        p.check(b"\x00\x01")
        with pytest.raises(IdlError):
            p.check("string")


class TestMethod:
    def test_duplicate_params_rejected(self):
        with pytest.raises(IdlError, match="duplicate"):
            Method("m", (Param("x", "u32"), Param("x", "u32")))

    def test_arg_count_checked(self):
        m = Method("m", (Param("x", "u32"),))
        with pytest.raises(IdlError, match="takes 1"):
            m.check_args((1, 2))

    def test_oneway_cannot_return(self):
        with pytest.raises(IdlError, match="oneway"):
            Method("m", (), returns="u32", oneway=True)


class TestInterface:
    def test_duplicate_methods_rejected(self):
        with pytest.raises(IdlError, match="duplicate"):
            Interface("I", (Method("m"), Method("m")))

    def test_unknown_method_lists_available(self):
        iface = Interface("I", (Method("ping"),))
        with pytest.raises(IdlError, match="ping"):
            iface.method("pong")

    def test_empty_name_rejected(self):
        with pytest.raises(IdlError):
            Interface("")


class TestMarshalBasics:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**40,
            -(2**40),
            0.0,
            3.14159,
            -2.5e300,
            b"",
            b"\x00\xff" * 10,
            "",
            "hello",
            "ünïcødé ✓",
            [],
            [1, "two", None, [3.0]],
            {},
            {"k": 1, "nested": {"a": [True]}},
        ],
    )
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_tuple_becomes_list(self):
        assert loads(dumps((1, 2))) == [1, 2]

    def test_unsupported_type_rejected(self):
        with pytest.raises(MarshalError):
            dumps(object())

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(MarshalError):
            dumps({1: "x"})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MarshalError, match="trailing"):
            loads(dumps(1) + b"\x00")

    def test_truncated_data_rejected(self):
        blob = dumps("hello world")
        with pytest.raises(MarshalError):
            loads(blob[:-3])

    def test_unknown_tag_rejected(self):
        with pytest.raises(MarshalError, match="tag"):
            loads(b"\xee")

    def test_compactness_small_int_two_bytes(self):
        assert len(dumps(5)) == 2

    def test_wire_flits_includes_header(self):
        assert wire_flits(b"", flit_bytes=8) == WIRE_HEADER_BYTES // 8
        assert wire_flits(b"x" * 9, flit_bytes=8) == 3  # 17 bytes -> 3 flits

    def test_wire_flits_validation(self):
        with pytest.raises(MarshalError):
            wire_flits(b"", flit_bytes=0)


# Recursive strategy over exactly the wire-format domain.
_json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=True)
    | st.binary(max_size=64)
    | st.text(max_size=64),
    lambda children: st.lists(children, max_size=8)
    | st.dictionaries(st.text(max_size=16), children, max_size=8),
    max_leaves=30,
)


@given(value=_json_like)
def test_property_roundtrip(value):
    """dumps/loads is the identity over the full supported domain
    (tuples aside, which the strategy does not generate)."""
    assert loads(dumps(value)) == value


@given(value=_json_like)
def test_property_flit_count_positive_and_monotone_in_size(value):
    blob = dumps(value)
    assert wire_flits(blob) >= 1
    assert wire_flits(blob + b"xxxxxxxxx") >= wire_flits(blob)
