"""Critical-path extraction: exact chains on fixtures and real runs.

The fixture tests pin the walk's full rule set — gating requires
ending at-or-after the parent, latest end wins, ties fall to the
longest continuing chain, then latest start, then name — and the
exclusive-time attribution.  The real-run tests check the chain a
span tree rebuilt from a run's profile produces is well-formed and
deterministic.
"""

import pytest

from repro.analytics import critical_path, format_critical_path
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.observability import Span, spans_from_events

CFG = ExperimentConfig(exp_id="flux_1", launcher="flux", workload="null",
                       n_nodes=2, duration=5.0, waves=1)


def _tree():
    """Hand-built tree with a known chain.

    ::

        session [0, 10]
          pilot.a [0, 10]
            backend.early [1, 4]      ends early: never gates
            backend.b [1, 10]         on path (longest chain)
              task.1 [2, 10]
                exec [9, 10]
            backend.c [5, 10]         same end, later start, no chain
          pilot.stale [0, 7]
    """
    root = Span("session", "session", 0.0, 10.0)
    pa = root.child("pilot.a", "pilot", 0.0, 10.0)
    pa.child("backend.early", "backend", 1.0, 4.0)
    bb = pa.child("backend.b", "backend", 1.0, 10.0)
    t1 = bb.child("task.1", "task", 2.0, 10.0)
    t1.child("exec", "phase", 9.0, 10.0)
    pa.child("backend.c", "backend", 5.0, 10.0)
    root.child("pilot.stale", "pilot", 0.0, 7.0)
    return root


class TestFixtureChain:
    def test_exact_chain(self):
        steps = critical_path(_tree())
        assert [(s.name, s.cat) for s in steps] == [
            ("session", "session"),
            ("pilot.a", "pilot"),
            ("backend.b", "backend"),
            ("task.1", "task"),
            ("exec", "phase"),
        ]
        assert [s.depth for s in steps] == [0, 1, 2, 3, 4]

    def test_exclusive_attribution(self):
        steps = critical_path(_tree())
        exclusive = {s.name: s.exclusive for s in steps}
        assert exclusive["session"] == pytest.approx(0.0)   # 10 - 10
        assert exclusive["pilot.a"] == pytest.approx(1.0)   # 10 - 9
        assert exclusive["backend.b"] == pytest.approx(1.0)  # 9 - 8
        assert exclusive["task.1"] == pytest.approx(7.0)    # 8 - 1
        assert exclusive["exec"] == pytest.approx(1.0)      # leaf

    def test_longest_chain_beats_later_start(self):
        # backend.c ends at the same time and starts later; backend.b
        # wins because its chain continues to the leaves.
        names = [s.name for s in critical_path(_tree())]
        assert "backend.b" in names and "backend.c" not in names

    def test_name_breaks_full_ties(self):
        root = Span("root", "session", 0.0, 5.0)
        root.child("task.x", "task", 1.0, 5.0)
        root.child("task.y", "task", 1.0, 5.0)
        steps = critical_path(root)
        assert steps[1].name == "task.y"

    def test_open_spans_never_gate(self):
        root = Span("root", "session", 0.0, 5.0)
        root.child("open", "task", 0.0, None)
        closed = root.child("closed", "task", 0.0, 5.0)
        assert critical_path(root)[1].name == closed.name

    def test_earlier_ending_child_stops_the_walk(self):
        root = Span("root", "session", 0.0, 10.0)
        root.child("short", "task", 0.0, 6.0)
        steps = critical_path(root)
        assert len(steps) == 1
        assert steps[0].exclusive == pytest.approx(10.0)

    def test_overhanging_grafted_child_clamps_exclusive(self):
        root = Span("root", "session", 0.0, 10.0)
        root.child("overhang", "task", 0.0, 11.0)
        steps = critical_path(root)
        assert steps[0].exclusive == 0.0   # clamped, not negative
        assert steps[1].name == "overhang"

    def test_open_root_yields_nothing(self):
        assert critical_path(Span("open", "session", 0.0, None)) == []

    def test_format_renders_each_level(self):
        text = format_critical_path(critical_path(_tree()))
        for name in ("session", "pilot.a", "backend.b", "task.1", "exec"):
            assert name in text
        assert "excl[s]" in text


class TestRealRun:
    @pytest.fixture(scope="class")
    def root(self):
        result = run_experiment(CFG, keep_session=True)
        root = spans_from_events(iter(result.session.profiler))
        result.session.close()
        return root

    def test_chain_is_well_formed(self, root):
        steps = critical_path(root)
        assert steps[0].cat == "session"
        assert steps[-1].cat in ("task", "phase", "backend")
        for parent, child in zip(steps, steps[1:]):
            assert child.end >= parent.end
            assert child.depth == parent.depth + 1
        for step in steps:
            assert 0.0 <= step.exclusive <= step.duration + 1e-9

    def test_chain_reaches_a_task(self, root):
        cats = [s.cat for s in critical_path(root)]
        assert "task" in cats

    def test_chain_is_deterministic(self, root):
        result = run_experiment(CFG, keep_session=True)
        other = spans_from_events(iter(result.session.profiler))
        result.session.close()
        assert critical_path(root) == critical_path(other)
