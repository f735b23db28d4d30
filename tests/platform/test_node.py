"""Unit tests for count-level node capacity and node health."""

import pytest

from repro.exceptions import ResourceError
from repro.platform import Node, NodeHealth, generic


class TestConstruction:
    def test_defaults(self):
        node = Node(0, n_cores=8, n_gpus=2)
        assert node.free_cores == 8
        assert node.free_gpus == 2
        assert node.is_idle

    def test_invalid_cores(self):
        with pytest.raises(ResourceError):
            Node(0, n_cores=0)

    def test_invalid_gpus(self):
        with pytest.raises(ResourceError):
            Node(0, n_cores=1, n_gpus=-1)

    def test_auto_name(self):
        assert Node(3, 4).name == "node00003"


class TestAllocate:
    def test_allocate_reduces_free(self):
        node = Node(0, 8, 2)
        pl = node.allocate(3, 1)
        assert node.free_cores == 5
        assert node.free_gpus == 1
        assert pl.cores == 3
        assert pl.gpus == 1

    def test_slots_are_disjoint(self):
        node = Node(0, 8)
        p1 = node.allocate(4)
        p2 = node.allocate(4)
        assert p1 != p2
        assert p1.cores + p2.cores == node.n_cores
        assert node.free_cores == 0
        with pytest.raises(ResourceError):
            node.allocate(1)

    def test_over_allocate_raises(self):
        node = Node(0, 4)
        node.allocate(3)
        with pytest.raises(ResourceError):
            node.allocate(2)

    def test_negative_raises(self):
        with pytest.raises(ResourceError):
            Node(0, 4).allocate(-1)

    def test_allocate_up_to_free_capacity(self):
        node = Node(0, 4, 1)
        node.release(node.allocate(4, 1))
        with pytest.raises(ResourceError):
            node.allocate(5)
        with pytest.raises(ResourceError):
            node.allocate(0, 2)
        node.allocate(2)
        with pytest.raises(ResourceError):
            node.allocate(3, 0)
        node.allocate(2, 1)
        assert node.free_cores == 0 and node.free_gpus == 0


class TestRelease:
    def test_release_restores_capacity(self):
        node = Node(0, 8, 2)
        pl = node.allocate(5, 2)
        node.release(pl)
        assert node.is_idle

    def test_double_free_raises(self):
        node = Node(0, 8)
        pl = node.allocate(2)
        node.release(pl)
        with pytest.raises(ResourceError):
            node.release(pl)

    def test_double_free_of_equal_shaped_placement_raises(self):
        # A per-node held count would accept the second release of p1
        # while p2 is still held; identity tracking must not.
        node = Node(0, 8, 2)
        p1 = node.allocate(2, 1)
        p2 = node.allocate(2, 1)
        node.release(p1)
        with pytest.raises(ResourceError):
            node.release(p1)
        node.release(p2)
        assert node.is_idle
        with pytest.raises(ResourceError):
            node.release(p1)
        assert node.free_cores == 8 and node.free_gpus == 2

    def test_wrong_node_release_raises(self):
        a, b = Node(0, 8), Node(1, 8)
        pl = a.allocate(2)
        with pytest.raises(ResourceError):
            b.release(pl)

    def test_released_slots_reusable(self):
        node = Node(0, 2)
        p1 = node.allocate(2)
        node.release(p1)
        p2 = node.allocate(2)
        assert p2.cores == 2
        assert node.free_cores == 0


class TestHealth:
    @pytest.mark.parametrize("unhealthy", ["drain", "fail"])
    def test_release_on_unhealthy_node_is_not_freed(self, unhealthy):
        node = Node(0, 8, 2)
        pl = node.allocate(3, 1)
        assert getattr(node, unhealthy)()
        assert node.free_cores == 0 and node.free_gpus == 0
        node.release(pl)
        assert node.free_cores == 0 and node.free_gpus == 0
        assert not node.is_idle
        with pytest.raises(ResourceError):
            node.allocate(1)
        with pytest.raises(ResourceError):
            node.release(pl)

    def test_health_transitions_report_change(self):
        node = Node(0, 4)
        assert node.drain() and node.health is NodeHealth.DRAINING
        assert not node.drain()
        assert node.fail() and node.health is NodeHealth.DOWN
        assert not node.fail()
        assert node.recover() and node.is_up
        assert not node.recover()

    @pytest.mark.parametrize("unhealthy", ["drain", "fail"])
    def test_recover_restores_full_capacity(self, unhealthy):
        node = Node(0, 8, 2)
        held = node.allocate(3, 1)
        released = node.allocate(2, 1)
        getattr(node, unhealthy)()
        node.release(released)
        node.recover()
        assert node.free_cores == 5 and node.free_gpus == 1
        node.release(held)
        assert node.is_idle
        node.allocate(8, 2)

    def test_watching_allocation_stays_exact(self):
        alloc = generic(2, cores_per_node=8, gpus_per_node=2) \
            .allocate_nodes(2)
        node = alloc.nodes[0]
        pl = node.allocate(3, 1)
        assert (alloc.free_cores, alloc.free_gpus) == (13, 3)

        node.drain()
        assert (alloc.free_cores, alloc.free_gpus) == (8, 2)
        assert alloc.usable_cores == 16 and alloc.n_down_nodes == 0

        node.fail()
        assert (alloc.free_cores, alloc.free_gpus) == (8, 2)
        assert alloc.usable_cores == 8 and alloc.usable_gpus == 2
        assert alloc.n_down_nodes == 1

        node.release(pl)
        assert (alloc.free_cores, alloc.free_gpus) == (8, 2)

        node.recover()
        assert (alloc.free_cores, alloc.free_gpus) == (16, 4)
        assert alloc.usable_cores == 16 and alloc.usable_gpus == 4
        assert alloc.n_down_nodes == 0
