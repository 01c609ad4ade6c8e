"""Unit tests for the cycle-loop kernel: running, stopping, the
elaboration delta, notification events, processes and the one-clock
shape."""

import pytest

import repro.kernel
from repro.kernel import Clock, Module, Process, Simulator
from repro.kernel.simulator import SimulationError

from tests.kernel import reference_kernel


@pytest.fixture
def sim():
    return Simulator("test")


def _on_rise(sim, clock, func, name="p", **options):
    return Process(sim, func, name, dont_initialize=True,
                   **options).sensitive(clock.posedge_event)


class TestRun:
    def test_run_with_duration_stops_at_deadline(self, sim):
        clock = Clock(sim, "clk", period=10)
        fired = []
        _on_rise(sim, clock, lambda: fired.append(sim.now))
        assert sim.run(35) == 35
        assert fired == [10, 20, 30]
        assert sim.now == 35

    def test_run_without_a_clock_returns_immediately(self, sim):
        assert sim.run() == 0
        assert sim.run(100) == 0
        assert sim.now == 0

    def test_stop_request(self, sim):
        clock = Clock(sim, "clk", period=10)
        fired = []

        def periodic():
            fired.append(sim.now)
            if len(fired) == 3:
                sim.stop()

        _on_rise(sim, clock, periodic)
        assert sim.run() == 30
        assert len(fired) == 3
        sim.run(25)  # a later run starts afresh
        assert fired == [10, 20, 30, 40, 50]

    def test_run_resumes_from_current_time(self, sim):
        Clock(sim, "clk", period=10)
        sim.run(25)
        assert sim.now == 25
        sim.run(25)
        assert sim.now == 50

    def test_initialize_runs_processes_once(self, sim):
        runs = []
        Process(sim, lambda: runs.append(1), "p")
        sim.run()
        assert runs == [1]
        assert sim.delta_count == 1

    def test_dont_initialize_skips_first_run(self, sim):
        runs = []
        Process(sim, lambda: runs.append(1), "p", dont_initialize=True)
        sim.run()
        assert runs == []
        assert sim.delta_count == 0


    def test_run_zero_runs_only_the_elaboration_delta(self, sim):
        clock = Clock(sim, "clk", period=10)
        runs = []
        Process(sim, lambda: runs.append(sim.now), "init")
        _on_rise(sim, clock, lambda: runs.append(("edge", sim.now)))
        assert sim.run(0) == 0
        assert runs == [0]
        assert sim.delta_count == 1
        assert clock.cycles == 0
        assert sim.run(10) == 10
        assert runs == [0, ("edge", 10)]

    def test_power_off_hooks_run_once(self, sim):
        Clock(sim, "clk", period=10)
        calls = []
        sim.add_power_off_hook(lambda reason: calls.append(
            (reason, sim.now)))
        sim.run(25)
        sim.power_off("field removed")
        sim.power_off("again")
        assert calls == [("field removed", 25)]
        assert sim.powered_off
        assert sim.power_off_reason == "field removed"
        assert sim.run(100) == 0
        assert sim.now == 25

    def test_power_off_before_the_first_run_skips_elaboration(self, sim):
        Clock(sim, "clk", period=10)
        runs = []
        Process(sim, lambda: runs.append(1), "init")
        sim.power_off()
        assert sim.run() == 0
        assert runs == []
        assert sim.delta_count == 0

class TestNotificationEvents:
    def test_notify_delta_journals_after_the_edge_delta(self, sim):
        clock = Clock(sim, "clk", period=10)
        done = sim.event("done")

        def finish():
            if clock.cycles == 2:
                done.notify_delta()
                done.notify_delta()  # once per delta

        _on_rise(sim, clock, finish)
        sim.run(30)
        notified = [entry for entry in sim.journal_entries()
                    if entry.event == "done"]
        assert [(entry.time, entry.kind) for entry in notified] == [
            (20, "delta")]
        # journaled in the delta of the edge's processes
        assert notified[0].delta == 2 * 3 + 1

    def test_notification_before_a_run_is_journaled_at_its_start(self, sim):
        Clock(sim, "clk", period=10)
        sim.event("early").notify_delta()
        sim.run(0)
        assert sim._journal[0] == (0, 1, "delta", "early")

    def test_processes_are_sensitive_to_clock_edges_only(self, sim):
        process = Process(sim, lambda: None, "p")
        with pytest.raises(SimulationError, match="only clock edges"):
            process.sensitive(sim.event("done"))

    def test_only_the_clock_notifies_an_edge(self, sim):
        clock = Clock(sim, "clk", period=10)
        _on_rise(sim, clock, lambda: None)
        with pytest.raises(SimulationError, match="clock edge"):
            clock.posedge_event.notify_delta()


    def test_notify_delta_does_not_advance_time(self):
        """A notification adds a journal entry at the notifying edge,
        and neither a delta nor simulated time."""
        states = []
        for notify in (False, True):
            sim = Simulator("notify")
            clock = Clock(sim, "clk", period=10)
            done = sim.event("done")
            _on_rise(sim, clock, done.notify_delta if notify
                     else lambda: None)
            consumed = sim.run(45)
            notified = [entry.time for entry in sim.journal_entries()
                        if entry.event == "done"]
            states.append((consumed, sim.now, sim.delta_count,
                           clock.cycles, notified))
        assert states[0][:4] == states[1][:4]
        assert states[0][4] == []
        assert states[1][4] == [10, 20, 30, 40]

    @pytest.mark.parametrize("where", ["before_run", "elaboration",
                                       "rising", "falling", "two_events"])
    def test_notifications_match_the_oracle(self, where):
        """Wherever a notification event is posted, it is journaled at
        the same time and delta as on the oracle."""
        states = []
        for kernel in (repro.kernel, reference_kernel):
            sim = kernel.Simulator("notify")
            clock = kernel.Clock(sim, "clk", period=10)
            first, second = sim.event("first"), sim.event("second")

            def post(first=first, second=second, clock=clock):
                if clock.cycles in (0, 2):
                    first.notify_delta()
                    if where == "two_events":
                        second.notify_delta()
                        first.notify_delta()

            if where == "before_run":
                first.notify_delta()
            elif where == "elaboration":
                Process(sim, post, "post")
            else:
                edge = "negedge" if where == "falling" else "posedge"
                Process(sim, post, "post", dont_initialize=True).sensitive(
                    getattr(clock, f"{edge}_event"))
            sim.run(32)
            states.append((tuple(sim._journal), sim.delta_count, sim.now))
        assert states[0] == states[1]
        assert any(entry[3] == "first" for entry in states[0][0])


class TestOneClock:
    def test_second_clock_rejected(self, sim):
        Clock(sim, "clk", period=10)
        with pytest.raises(SimulationError, match="one clock"):
            Clock(sim, "clk2", period=20)

    def test_clock_after_start_rejected(self, sim):
        sim.run()
        with pytest.raises(SimulationError, match="after simulator"):
            Clock(sim, "clk", period=10)

    @pytest.mark.parametrize("where", ["between_runs", "inside_an_edge"])
    def test_registration_recompiles_the_plans(self, where):
        """A process or edge event registered later runs from the next
        edge, as on the oracle."""
        states = []
        for kernel in (repro.kernel, reference_kernel):
            sim = kernel.Simulator("late")
            clock = kernel.Clock(sim, "clk", period=10)
            log = []

            def late(log=log, sim=sim):
                log.append(("late", sim.now))

            def register(sim=sim, clock=clock, late=late):
                Process(sim, late, "late", dont_initialize=True).sensitive(
                    clock.negedge_event)

            def early(log=log, sim=sim, clock=clock, register=register):
                log.append(("early", sim.now))
                if where == "inside_an_edge" and clock.cycles == 2:
                    register()

            Process(sim, early, "early", dont_initialize=True).sensitive(
                clock.posedge_event)
            sim.run(25)
            if where == "between_runs":
                register()
            sim.run(40)
            states.append((log, sim.delta_count, tuple(sim._journal)))
        assert states[0] == states[1]
        first = next(when for kind, when in states[0][0] if kind == "late")
        assert first == {"between_runs": 35, "inside_an_edge": 25}[where]


class TestModule:
    def test_module_method_registration(self, sim):
        clock = Clock(sim, "clk", period=10)

        class Counter(Module):
            def __init__(self, simulator):
                super().__init__(simulator, "counter")
                self.count = 0
                self.method(self.on_tick, sensitive=[clock.posedge_event],
                            dont_initialize=True)

            def on_tick(self):
                self.count += 1
                if self.count == 5:
                    self.simulator.stop()

        counter = Counter(sim)
        sim.run()
        assert counter.count == 5
        assert len(counter.processes) == 1
        assert counter.processes[0].run_count == 5

    def test_process_names_are_qualified(self, sim):
        class M(Module):
            def __init__(self, simulator):
                super().__init__(simulator, "m")
                self.method(self.go, dont_initialize=True)

            def go(self):
                pass

        module = M(sim)
        assert module.processes[0].name == "m.go"


class TestSchedulerInvariants:
    def test_deltas_per_edge(self, sim):
        """The driver's toggle is one delta, the edge's processes a
        second one, and an edge without processes has only the first."""
        clock = Clock(sim, "clk", period=10)
        _on_rise(sim, clock, lambda: None)
        sim.run(100)
        # elaboration, 10 falling edges, 10 rising edges with a process
        assert sim.delta_count == 1 + 10 + 10 * 2

    def test_time_never_decreases(self, sim):
        clock = Clock(sim, "clk", period=14)
        times = []
        _on_rise(sim, clock, lambda: times.append(sim.now))
        sim.run(1_000)
        assert times == sorted(times) and len(times) == 71

    def test_simulation_error_type(self):
        assert issubclass(SimulationError, RuntimeError)


class TestDeterminism:
    """The kernel must be fully deterministic: the same construction
    sequence yields the same event trace, run after run."""

    @staticmethod
    def _run_once():
        sim = Simulator("det")
        clock = Clock(sim, "clk", period=10)
        log = []
        _on_rise(sim, clock, lambda: log.append(("p", sim.now)))
        Process(sim, lambda: log.append(("c", sim.now)), "c",
                dont_initialize=True).sensitive(clock.negedge_event)
        sim.run(500)
        return log, tuple(sim._journal)

    def test_two_runs_identical(self):
        assert self._run_once() == self._run_once()

    def test_edge_processes_run_in_registration_order(self, sim):
        clock = Clock(sim, "clk", period=10)
        order = []
        for index in range(4):
            _on_rise(sim, clock, lambda i=index: order.append(i),
                     name=f"p{index}")
        sim.run(10)
        assert order == [0, 1, 2, 3]
