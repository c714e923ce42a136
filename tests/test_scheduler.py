"""The three-level priority ready queue."""

import pytest

from repro.runtime.scheduler import (
    PRIORITY_CALL,
    PRIORITY_NORMAL,
    PRIORITY_RECURSIVE_CALL,
    ReadyQueue,
    Task,
)


def make_task(priority: int, seq: int) -> Task:
    return Task(activation=None, node_id=0, priority=priority, seq=seq)


class TestPriorityOrder:
    def test_normal_before_call_before_recursive(self):
        q = ReadyQueue()
        q.push(make_task(PRIORITY_RECURSIVE_CALL, 1))
        q.push(make_task(PRIORITY_NORMAL, 2))
        q.push(make_task(PRIORITY_CALL, 3))
        order = [q.pop().priority for _ in range(3)]
        assert order == [PRIORITY_NORMAL, PRIORITY_CALL, PRIORITY_RECURSIVE_CALL]

    def test_fifo_within_class(self):
        q = ReadyQueue()
        for seq in (1, 2, 3):
            q.push(make_task(PRIORITY_NORMAL, seq))
        assert [q.pop().seq for _ in range(3)] == [1, 2, 3]

    def test_late_normal_preempts_queued_calls(self):
        q = ReadyQueue()
        q.push(make_task(PRIORITY_CALL, 1))
        q.push(make_task(PRIORITY_NORMAL, 2))
        assert q.pop().seq == 2

    def test_ablation_mode_is_single_fifo(self):
        q = ReadyQueue(use_priorities=False)
        q.push(make_task(PRIORITY_RECURSIVE_CALL, 1))
        q.push(make_task(PRIORITY_NORMAL, 2))
        assert q.pop().seq == 1


class TestQueueMechanics:
    def test_len_and_bool(self):
        q = ReadyQueue()
        assert not q
        q.push(make_task(0, 1))
        assert len(q) == 1 and q

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            ReadyQueue().pop()

    def test_push_all(self):
        q = ReadyQueue()
        q.push_all([make_task(0, i) for i in range(5)])
        assert len(q) == 5

    def test_seeded_pop_is_reproducible(self):
        def drain(seed):
            q = ReadyQueue(seed=seed)
            q.push_all([make_task(0, i) for i in range(20)])
            return [q.pop().seq for _ in range(20)]

        assert drain(7) == drain(7)
        assert drain(7) != drain(8)  # astronomically unlikely to collide

    def test_seeded_pop_respects_priorities(self):
        q = ReadyQueue(seed=3)
        q.push(make_task(PRIORITY_RECURSIVE_CALL, 1))
        q.push(make_task(PRIORITY_NORMAL, 2))
        q.push(make_task(PRIORITY_NORMAL, 3))
        first_two = {q.pop().seq, q.pop().seq}
        assert first_two == {2, 3}

    def test_seeded_queue_preserved_after_pop(self):
        q = ReadyQueue(seed=1)
        q.push_all([make_task(0, i) for i in range(10)])
        seen = [q.pop().seq for _ in range(10)]
        assert sorted(seen) == list(range(10))  # nothing lost or duplicated


class TestMaxReadyWatermark:
    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            ReadyQueue(max_ready=0)
        with pytest.raises(ValueError):
            ReadyQueue(max_ready=-3)

    def test_push_never_refused(self):
        q = ReadyQueue(max_ready=2)
        for i in range(10):
            q.push(make_task(PRIORITY_NORMAL, i))
        assert len(q) == 10  # watermark signals; it does not drop work

    def test_saturated_flag_and_count(self):
        q = ReadyQueue(max_ready=3)
        q.push(make_task(PRIORITY_NORMAL, 1))
        q.push(make_task(PRIORITY_NORMAL, 2))
        assert not q.saturated
        q.push(make_task(PRIORITY_NORMAL, 3))
        assert q.saturated
        q.push(make_task(PRIORITY_NORMAL, 4))
        assert q.saturations == 1  # one upward crossing, not one per push

    def test_rearms_below_watermark(self):
        q = ReadyQueue(max_ready=2)
        q.push_all([make_task(PRIORITY_NORMAL, i) for i in range(3)])
        assert q.saturated
        q.pop()
        assert q.saturated  # still at the watermark (2 >= 2)
        q.pop()
        assert not q.saturated
        q.push(make_task(PRIORITY_NORMAL, 9))
        q.push(make_task(PRIORITY_NORMAL, 10))
        assert q.saturations == 2  # second crossing counts again

    def test_pop_batch_rearms(self):
        q = ReadyQueue(max_ready=2)
        q.push_all([make_task(PRIORITY_NORMAL, i) for i in range(4)])
        assert q.saturated
        batch = q.pop_batch(4, key=lambda task: "same-node")
        assert len(batch) == 4
        assert not q.saturated

    def test_emits_event_once_per_crossing(self):
        from repro.obs import EventBus, QueueSaturated

        bus = EventBus()
        events = []
        bus.subscribe(events.append, events=(QueueSaturated,))
        q = ReadyQueue(bus=bus, max_ready=2)
        q.push_all([make_task(PRIORITY_NORMAL, i) for i in range(5)])
        assert len(events) == 1
        assert events[0].depth >= 2
        assert events[0].max_ready == 2
        while q:
            q.pop()
        q.push_all([make_task(PRIORITY_NORMAL, i) for i in range(3)])
        assert len(events) == 2

    def test_unwatched_queue_has_no_saturation_state(self):
        q = ReadyQueue()
        q.push_all([make_task(PRIORITY_NORMAL, i) for i in range(100)])
        assert not q.saturated
        assert q.saturations == 0


class _Act:
    """Stand-in activation: a peer is told by its template's identity."""

    def __init__(self, template):
        self.template = template


def _firing(template, node_id, priority=PRIORITY_NORMAL, seq=0):
    return Task(_Act(template), node_id, priority, seq)


def _key(task):
    return (id(task.activation.template), task.node_id)


class TestHasPeer:
    """``has_peer(head)`` answers, without moving anything, whether
    ``take_peers`` keyed on ``(template, node)`` would find someone."""

    def test_same_node_of_same_template_is_a_peer(self):
        q = ReadyQueue()
        f, g = object(), object()
        q.push_all([_firing(g, 3), _firing(f, 4), _firing(f, 3, seq=7)])
        head = _firing(f, 3)
        assert q.has_peer(head)
        assert len(q) == 3
        assert [t.seq for t in q.take_peers(head, _key(head), 8, _key)] == [7]

    def test_other_node_or_other_template_is_not(self):
        q = ReadyQueue()
        f, g = object(), object()
        q.push_all([_firing(f, 4), _firing(g, 3)])
        assert not q.has_peer(_firing(f, 3))

    def test_empty_class(self):
        assert not ReadyQueue().has_peer(_firing(object(), 0))

    def test_peer_in_another_priority_class_is_not_a_peer(self):
        q = ReadyQueue()
        f = object()
        q.push(_firing(f, 3, PRIORITY_RECURSIVE_CALL))
        head = _firing(f, 3, PRIORITY_CALL)
        assert not q.has_peer(head)
        assert q.take_peers(head, _key(head), 8, _key) == []

    def test_fifo_mode_has_one_class(self):
        q = ReadyQueue(use_priorities=False)
        f = object()
        q.push(_firing(f, 3, PRIORITY_RECURSIVE_CALL))
        head = _firing(f, 3, PRIORITY_CALL)
        assert q.has_peer(head)
        assert len(q.take_peers(head, _key(head), 8, _key)) == 1

    @pytest.mark.parametrize("use_priorities", [True, False])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_agrees_with_take_peers_on_every_head(self, use_priorities, seed):
        templates = [object(), object()]
        tasks = [
            _firing(templates[i % 2], i % 3, priority=i % 3, seq=i)
            for i in range(12)
        ]
        for head in tasks:
            q = ReadyQueue(use_priorities, seed)
            q.push_all([t for t in tasks if t is not head])
            expected = bool(q.take_peers(head, _key(head), 8, _key))
            q = ReadyQueue(use_priorities, seed)
            q.push_all([t for t in tasks if t is not head])
            assert q.has_peer(head) == expected
