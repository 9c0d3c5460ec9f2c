"""Tests for the packet model."""

import pytest

from repro.net.addressing import EndpointAddress, MulticastGroup, is_multicast
from repro.net.packet import MAX_FRAME_BYTES, MIN_FRAME_BYTES, Packet


def _packet(wire=100, payload=54):
    return Packet(
        src=EndpointAddress("a"),
        dst=EndpointAddress("b"),
        wire_bytes=wire,
        payload_bytes=payload,
    )


def test_runt_frames_padded_to_minimum():
    packet = _packet(wire=20, payload=10)
    assert packet.wire_bytes == MIN_FRAME_BYTES


def test_oversize_frame_rejected():
    with pytest.raises(ValueError):
        _packet(wire=MAX_FRAME_BYTES + 1, payload=10)


def test_payload_must_fit_in_frame():
    with pytest.raises(ValueError):
        _packet(wire=100, payload=200)
    with pytest.raises(ValueError):
        _packet(wire=100, payload=-1)


def test_header_accounting():
    packet = _packet(wire=100, payload=54)
    assert packet.header_bytes == 46
    assert packet.header_fraction == pytest.approx(0.46)


def test_header_fraction_in_paper_band_for_typical_pitch_frame():
    # A typical mid-day PITCH frame: 54 B overhead + ~40 B of messages.
    packet = _packet(wire=92, payload=38)
    assert 0.25 <= packet.header_fraction <= 0.60


def test_packet_ids_unique():
    assert _packet().packet_id != _packet().packet_id


def test_packet_carries_no_per_hop_state():
    """The trace context is the one per-hop record: the packet itself has
    no trail, and an untraced packet clones to an untraced packet."""
    assert Packet.__slots__ == (
        "src", "dst", "wire_bytes", "payload_bytes", "message", "seqno",
        "created_at", "packet_id", "trace",
    )
    packet = _packet()
    assert not hasattr(packet, "__dict__")
    copy = packet.clone()
    assert copy.packet_id != packet.packet_id
    assert packet.trace is None and copy.trace is None


def test_multicast_destination_flag():
    group = MulticastGroup("feed", 3)
    packet = Packet(
        src=EndpointAddress("a"), dst=group, wire_bytes=100, payload_bytes=50
    )
    assert is_multicast(packet.dst)
    assert not is_multicast(packet.src)


def test_addresses_are_value_types():
    assert EndpointAddress("h", "eth0") == EndpointAddress("h", "eth0")
    assert MulticastGroup("f", 1) == MulticastGroup("f", 1)
    assert MulticastGroup("f", 1) != MulticastGroup("f", 2)
    assert str(MulticastGroup("f", 1)) == "mcast:f/1"
    assert str(EndpointAddress("h", "md")) == "h:md"


def test_negative_partition_rejected():
    with pytest.raises(ValueError):
        MulticastGroup("f", -1)


def test_clone_of_padded_runt_keeps_minimum_frame():
    copy = _packet(wire=20, payload=10).clone()
    assert copy.wire_bytes == MIN_FRAME_BYTES
    assert copy.payload_bytes == 10
