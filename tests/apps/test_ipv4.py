"""Unit tests for IPv4 packet processing."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.apps.ipv4 import (
    Ipv4Header,
    build_header,
    checksum16,
    parse_header,
    verify_checksum,
)


class TestChecksum:
    def test_rfc1071_example(self):
        """The classic RFC 1071 worked example."""
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        # Sum = 0x00 01 + 0xF2 03 + 0xF4 F5 + 0xF6 F7 = 0x2DDF0 -> 0xDDF2
        assert checksum16(data) == (~0xDDF2) & 0xFFFF

    def test_odd_length_padded(self):
        assert checksum16(b"\x01") == checksum16(b"\x01\x00")

    def test_zero_data(self):
        assert checksum16(b"\x00" * 20) == 0xFFFF

    def test_built_header_validates(self):
        header = build_header(src=0x0A000001, dst=0xC0A80101)
        assert verify_checksum(header)

    def test_corrupted_header_fails(self):
        header = bytearray(build_header(src=1, dst=2))
        header[8] ^= 0xFF  # flip TTL bits
        assert not verify_checksum(bytes(header))


class TestParseBuild:
    def test_roundtrip_fields(self):
        header = build_header(
            src=0x0A000001, dst=0xC0A80101, ttl=17, protocol=6,
            total_length=1500, identification=0xBEEF, dscp=0x2E,
        )
        parsed = parse_header(header)
        assert parsed.version == 4
        assert parsed.ihl == 5
        assert parsed.src == 0x0A000001
        assert parsed.dst == 0xC0A80101
        assert parsed.ttl == 17
        assert parsed.protocol == 6
        assert parsed.total_length == 1500
        assert parsed.identification == 0xBEEF
        assert parsed.dscp == 0x2E

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="20"):
            parse_header(b"\x45\x00")

    def test_validity_checks(self):
        good = parse_header(build_header(src=1, dst=2))
        assert good.is_valid()
        bad_version = Ipv4Header(6, 5, 0, 40, 0, 0, 0, 64, 17, 0, 1, 2)
        assert not bad_version.is_valid()
        dead = Ipv4Header(4, 5, 0, 40, 0, 0, 0, 0, 17, 0, 1, 2)
        assert not dead.is_valid()


@given(
    src=st.integers(min_value=0, max_value=2**32 - 1),
    dst=st.integers(min_value=0, max_value=2**32 - 1),
    ttl=st.integers(min_value=1, max_value=255),
    protocol=st.integers(min_value=0, max_value=255),
    ident=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_property_build_parse_roundtrip(src, dst, ttl, protocol, ident):
    header = build_header(src=src, dst=dst, ttl=ttl, protocol=protocol,
                          identification=ident)
    assert verify_checksum(header)
    parsed = parse_header(header)
    assert (parsed.src, parsed.dst, parsed.ttl, parsed.protocol,
            parsed.identification) == (src, dst, ttl, protocol, ident)


@given(
    data=st.binary(min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0)
)
def test_property_checksum_detects_single_word_corruption(data):
    """Appending the checksum makes the total sum verify; flipping any
    16-bit word breaks it."""
    checksum = checksum16(data)
    message = data + struct.pack(">H", checksum)
    assert checksum16(message) == 0
    corrupted = bytearray(message)
    corrupted[0] ^= 0x55
    if bytes(corrupted) != message:
        assert checksum16(bytes(corrupted)) != 0
