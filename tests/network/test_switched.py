"""Tests for the switched-network timing model."""

import pytest

from repro.network.topology import Mesh2D
from tests.oracles.objmodel.messages import OperandRequest
from tests.oracles.objmodel.switched import SwitchedNetwork


def _net(**kwargs):
    return SwitchedNetwork(Mesh2D(width=8, height=1), **kwargs)


class TestLatencyModel:
    def test_paper_nearest_neighbor_latency(self):
        """Section 3.4: two cycles between nearest-neighbour Slices."""
        assert _net().latency(0, 1) == 2

    def test_paper_per_hop_latency(self):
        """Section 3.4: one additional cycle per extra hop."""
        net = _net()
        assert net.latency(0, 2) == 3
        assert net.latency(0, 7) == 8

    def test_local_delivery_is_free(self):
        assert _net().latency(3, 3) == 0

    def test_send_uncontended(self):
        net = _net()
        msg = OperandRequest(src=0, dst=3, sent_cycle=10, global_reg=5,
                             consumer_seq=1)
        assert net.send(msg) == 10 + net.latency(0, 3)

    def test_stats_accumulate(self):
        net = _net()
        for i in range(3):
            net.send(OperandRequest(src=0, dst=1, sent_cycle=i,
                                    global_reg=0, consumer_seq=0))
        assert net.stats.messages == 3
        assert net.stats.mean_hops == 1.0
        assert net.stats.mean_latency == 2.0


class TestContention:
    def test_two_messages_share_a_link(self):
        net = _net(model_contention=True)
        m1 = OperandRequest(src=0, dst=2, sent_cycle=0, global_reg=0,
                            consumer_seq=0)
        m2 = OperandRequest(src=0, dst=2, sent_cycle=0, global_reg=1,
                            consumer_seq=1)
        t1 = net.send(m1)
        t2 = net.send(m2)
        assert t2 > t1  # second message queues behind the first

    def test_second_channel_removes_contention(self):
        single = _net(model_contention=True, channels=1)
        double = _net(model_contention=True, channels=2)
        msgs = [
            OperandRequest(src=0, dst=3, sent_cycle=0, global_reg=i,
                           consumer_seq=i)
            for i in range(2)
        ]
        t_single = [single.send(m) for m in msgs]
        t_double = [double.send(m) for m in msgs]
        assert t_double[1] <= t_single[1]

    def test_contention_never_beats_unloaded(self):
        net = _net(model_contention=True)
        for i in range(5):
            msg = OperandRequest(src=0, dst=4, sent_cycle=0, global_reg=i,
                                 consumer_seq=i)
            assert net.send(msg) >= net.latency(0, 4)

    def test_reset_clears_link_state(self):
        net = _net(model_contention=True)
        msg = OperandRequest(src=0, dst=2, sent_cycle=0, global_reg=0,
                             consumer_seq=0)
        first = net.send(msg)
        net.reset_stats()
        assert net.send(msg) == first


class TestValidation:
    def test_rejects_negative_delays(self):
        with pytest.raises(ValueError):
            _net(insertion_delay=-1)

    def test_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            _net(channels=0)

    def test_rejects_negative_send_cycle(self):
        with pytest.raises(ValueError):
            OperandRequest(src=0, dst=1, sent_cycle=-1, global_reg=0,
                           consumer_seq=0)
