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


def test_stamp_and_trail_queries():
    packet = _packet()
    packet.stamp("nic.tx.a", 10)
    packet.stamp("switch.s1", 20)
    packet.stamp("switch.s2", 30)
    packet.stamp("nic.rx.b", 40)
    assert packet.first_stamp("switch") == 20
    assert packet.last_stamp("switch") == 30
    assert packet.first_stamp("nic") == 10
    assert packet.first_stamp("tap") is None
    assert packet.last_stamp("tap") is None


def test_clone_copies_trail_with_fresh_identity():
    packet = _packet()
    packet.stamp("x", 1)
    copy = packet.clone()
    assert copy.packet_id != packet.packet_id
    assert copy.trail == packet.trail
    copy.stamp("y", 2)
    assert len(packet.trail) == 1  # trails are independent after cloning


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


def test_fanout_tree_trails_match_copy_on_clone_reference():
    """12 hops with two 8-way fan-outs: clones share history yet every
    leaf reads the trail a copy-the-list-on-clone packet would have."""
    root = _packet()
    frontier = [(root, [])]  # (packet, the trail a copied list would hold)
    for hop in range(12):
        if hop in (4, 8):
            frontier = [
                (packet.clone(), list(reference))
                for packet, reference in frontier
                for _ in range(8)
            ]
        for branch, (packet, reference) in enumerate(frontier):
            where = f"switch.h{hop}.b{branch}"
            packet.stamp(where, 100 * hop + branch)
            reference.append((where, 100 * hop + branch))
    assert len(frontier) == 64
    for packet, reference in frontier:
        assert packet.trail == reference
        assert len(packet.trail) == 12
        assert packet.first_stamp("switch.h0") == 0
        assert packet.last_stamp("switch.h11") == reference[-1][1]
    assert len({packet.packet_id for packet, _ in frontier}) == 64
    assert len(root.trail) == 4  # the original stopped at the first fan-out
