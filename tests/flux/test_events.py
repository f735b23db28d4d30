"""Unit tests for the Flux job event stream."""

from repro.flux import EV_FINISH, EV_START, EV_SUBMIT, EventStream
from repro.sim import Environment


class TestEventStream:
    def test_publish_reaches_subscriber(self, env):
        stream = EventStream(env)
        queue = stream.subscribe()
        stream.publish("job1", EV_SUBMIT)
        env.run()
        ev = queue.try_get()
        assert ev.job_id == "job1"
        assert ev.name == EV_SUBMIT

    def test_delivery_delay(self, env):
        stream = EventStream(env, delivery_delay=0.5)
        queue = stream.subscribe()
        received = []

        def watcher(env, queue):
            ev = yield queue.get()
            received.append((env.now, ev.name))

        env.process(watcher(env, queue))
        stream.publish("j", EV_START)
        env.run()
        assert received == [(0.5, EV_START)]

    def test_fan_out_to_all_subscribers(self, env):
        stream = EventStream(env)
        queues = [stream.subscribe() for _ in range(3)]
        stream.publish("j", EV_FINISH, status=0)
        env.run()
        for q in queues:
            ev = q.try_get()
            assert ev.name == EV_FINISH
            assert ev.meta["status"] == 0

    def test_order_preserved(self, env):
        stream = EventStream(env)
        queue = stream.subscribe()
        for name in (EV_SUBMIT, EV_START, EV_FINISH):
            stream.publish("j", name)
        env.run()
        names = [queue.try_get().name for _ in range(3)]
        assert names == [EV_SUBMIT, EV_START, EV_FINISH]

    def test_history_records_everything(self, env):
        stream = EventStream(env)
        history = []
        stream.subscribe_callback(history.append)
        stream.publish("a", EV_SUBMIT)
        stream.publish("b", EV_SUBMIT)
        env.run()
        assert [e.job_id for e in history] == ["a", "b"]

    def test_no_subscribers_is_fine(self, env):
        stream = EventStream(env)
        event = stream.publish("j", EV_SUBMIT)
        assert event.job_id == "j"
        # nobody listens, so no delivery is scheduled
        assert env.peek() == float("inf")

    def test_event_timestamps_are_publish_time(self, env):
        stream = EventStream(env, delivery_delay=1.0)
        queue = stream.subscribe()

        def scenario(env):
            yield env.timeout(5.0)
            stream.publish("j", EV_START)

        env.process(scenario(env))
        env.run()
        ev = queue.try_get()
        assert ev.time == 5.0
