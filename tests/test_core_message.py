"""Unit tests for the message model."""

import pytest

from repro.core import Message, reset_message_ids


def test_unique_ids():
    a, b = Message(0, 1), Message(0, 2)
    assert a.uid != b.uid


def test_reset_message_ids():
    reset_message_ids()
    assert Message(0, 1).uid == 0
    assert Message(0, 2).uid == 1


def test_latency_requires_delivery():
    m = Message(0, 1)
    assert not m.delivered
    with pytest.raises(ValueError):
        _ = m.latency
    m.injected_cycle = 3
    m.delivered_cycle = 10
    assert m.delivered
    assert m.latency == 7


def test_latency_requires_injection_stamp():
    m = Message(0, 1)
    m.delivered_cycle = 5
    with pytest.raises(ValueError):
        _ = m.latency


def test_identity_equality():
    a = Message(0, 1)
    b = Message(0, 1)
    assert a != b  # eq=False: identity semantics for queue membership
    assert a == a
