"""Property-based tests for resource-allocation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ResourceError
from repro.platform import Node, ResourceSpec, generic
from repro.sim import Environment, Resource


class TestNodeInvariants:
    @given(st.integers(1, 64),
           st.lists(st.integers(1, 16), min_size=1, max_size=30))
    def test_no_slot_oversubscription(self, n_cores, requests):
        """Held plus free cores always equals capacity; free stays >= 0."""
        node = Node(0, n_cores)
        held = []
        for req in requests:
            try:
                held.append(node.allocate(req))
            except ResourceError:
                assert req > node.free_cores
            assert node.free_cores >= 0
            assert sum(pl.cores for pl in held) + node.free_cores == n_cores

    @given(st.integers(1, 32),
           st.lists(st.tuples(st.integers(1, 8), st.booleans()),
                    min_size=1, max_size=40))
    def test_alloc_release_conserves_capacity(self, n_cores, ops):
        node = Node(0, n_cores)
        held = []
        for cores, release in ops:
            if release and held:
                node.release(held.pop())
            else:
                try:
                    held.append(node.allocate(cores))
                except ResourceError:
                    pass
        for pl in held:
            node.release(pl)
        assert node.is_idle


class TestAllocationInvariants:
    @given(st.integers(1, 8), st.integers(1, 8),
           st.lists(st.integers(1, 40), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_try_place_all_or_nothing(self, n_nodes, cpn, requests):
        alloc = generic(n_nodes, cores_per_node=cpn).allocate_nodes(n_nodes)
        total = alloc.total_cores
        placed = []
        for cores in requests:
            pls = alloc.try_place(ResourceSpec(cores=cores))
            if pls is None:
                # Nothing may have been claimed by a failed placement.
                continue
            assert sum(p.cores for p in pls) == cores
            placed.append(pls)
        used = sum(p.cores for pls in placed for p in pls)
        assert used + alloc.free_cores == total
        for pls in placed:
            alloc.release(pls)
        assert alloc.free_cores == total

    @given(st.integers(2, 12), st.integers(1, 12))
    def test_partition_covers_exactly(self, n_nodes, k):
        if k > n_nodes:
            return
        alloc = generic(n_nodes).allocate_nodes(n_nodes)
        parts = alloc.partition(k)
        indices = sorted(n.index for p in parts for n in p.nodes)
        assert indices == sorted(n.index for n in alloc.nodes)
        sizes = [p.n_nodes for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestSemaphoreInvariants:
    @given(st.integers(1, 8), st.integers(1, 40))
    @settings(max_examples=40)
    def test_concurrency_never_exceeds_capacity(self, capacity, n_procs):
        env = Environment()
        res = Resource(env, capacity=capacity)
        peak = [0]

        def worker(env):
            with res.request() as req:
                yield req
                peak[0] = max(peak[0], res.count)
                yield env.timeout(1.0)

        for _ in range(n_procs):
            env.process(worker(env))
        env.run()
        assert peak[0] <= capacity
        assert res.count == 0
