"""Tests for typed network messages."""

from tests.oracles.objmodel.messages import (
    CacheReply,
    CacheRequest,
    MemSortMessage,
    MessageKind,
    OperandReply,
    OperandRequest,
    RenameBroadcast,
    WakeupSignal,
)


class TestMessageKinds:
    def test_each_type_carries_its_kind(self):
        cases = [
            (OperandRequest(src=0, dst=1, sent_cycle=0),
             MessageKind.OPERAND_REQUEST),
            (OperandReply(src=0, dst=1, sent_cycle=0),
             MessageKind.OPERAND_REPLY),
            (WakeupSignal(src=0, dst=1, sent_cycle=0), MessageKind.WAKEUP),
            (RenameBroadcast(src=0, dst=1, sent_cycle=0),
             MessageKind.RENAME_BROADCAST),
            (MemSortMessage(src=0, dst=1, sent_cycle=0),
             MessageKind.MEM_SORT),
            (CacheRequest(src=0, dst=1, sent_cycle=0),
             MessageKind.CACHE_REQUEST),
            (CacheReply(src=0, dst=1, sent_cycle=0),
             MessageKind.CACHE_REPLY),
        ]
        for message, kind in cases:
            assert message.kind is kind

    def test_messages_are_immutable(self):
        msg = OperandRequest(src=0, dst=1, sent_cycle=0, global_reg=3)
        try:
            msg.global_reg = 4  # type: ignore[misc]
        except AttributeError:
            return
        raise AssertionError("message mutated")

    def test_payload_fields(self):
        sort = MemSortMessage(src=2, dst=0, sent_cycle=5, address=0x1000,
                              is_store=True, inst_seq=42)
        assert sort.address == 0x1000
        assert sort.is_store
        assert sort.inst_seq == 42
