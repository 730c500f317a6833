"""Property-based tests for the mesh and switched networks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import Mesh2D
from tests.oracles.objmodel.messages import OperandRequest
from tests.oracles.objmodel.switched import SwitchedNetwork

dims = st.integers(min_value=1, max_value=10)


@st.composite
def mesh_and_nodes(draw):
    width = draw(dims)
    height = draw(dims)
    mesh = Mesh2D(width=width, height=height)
    a = draw(st.integers(min_value=0, max_value=mesh.num_nodes - 1))
    b = draw(st.integers(min_value=0, max_value=mesh.num_nodes - 1))
    return mesh, a, b


class TestMeshMetricProperties:
    @given(data=mesh_and_nodes())
    @settings(max_examples=100, deadline=None)
    def test_distance_is_a_metric(self, data):
        mesh, a, b = data
        assert mesh.distance(a, b) >= 0
        assert (mesh.distance(a, b) == 0) == (a == b)
        assert mesh.distance(a, b) == mesh.distance(b, a)

    @given(data=mesh_and_nodes())
    @settings(max_examples=100, deadline=None)
    def test_route_realises_distance(self, data):
        mesh, a, b = data
        route = mesh.route(a, b)
        assert len(route) == mesh.distance(a, b)
        # The route is connected: each link starts where the last ended.
        cur = a
        for src, dst in route:
            assert src == cur
            assert mesh.distance(src, dst) == 1
            cur = dst
        if route:
            assert cur == b

    @given(data=mesh_and_nodes(), third=st.integers(min_value=0))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, data, third):
        mesh, a, b = data
        c = third % mesh.num_nodes
        assert (mesh.distance(a, b)
                <= mesh.distance(a, c) + mesh.distance(c, b))


class TestNetworkTimingProperties:
    @given(data=mesh_and_nodes(),
           start=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_arrival_never_precedes_send(self, data, start):
        mesh, a, b = data
        net = SwitchedNetwork(mesh)
        msg = OperandRequest(src=a, dst=b, sent_cycle=start)
        assert net.send(msg) >= start

    @given(data=mesh_and_nodes())
    @settings(max_examples=100, deadline=None)
    def test_latency_monotone_in_distance(self, data):
        mesh, a, b = data
        net = SwitchedNetwork(mesh)
        if mesh.distance(a, b) > 0:
            assert net.latency(a, b) == 1 + mesh.distance(a, b)

    @given(data=mesh_and_nodes(),
           n_messages=st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_contention_ordering_preserved(self, data, n_messages):
        """Messages injected in order on one path arrive in order."""
        mesh, a, b = data
        net = SwitchedNetwork(mesh, model_contention=True)
        arrivals = [
            net.send(OperandRequest(src=a, dst=b, sent_cycle=i))
            for i in range(n_messages)
        ]
        assert arrivals == sorted(arrivals)
