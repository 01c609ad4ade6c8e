"""Kernel supervision: deadlock detection, the event journal and
progress watchdogs."""

import pytest

import repro.kernel
from repro.kernel import (BlockedWaiter, Clock, DeadlockError,
                          JournalEntry, ProgressWatchdog, Process,
                          Simulator, StallError)

from tests.kernel import reference_kernel


@pytest.fixture
def sim():
    return Simulator("supervision")


def _blocked(name, on="bus grant", detail=""):
    return lambda: [BlockedWaiter(name, on, detail)]


class TestDeadlockDetection:
    def test_waiter_without_a_clock_deadlocks(self, sim):
        sim.add_waiter_hook(_blocked("master 'victim'", "event 'trap'"))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        error = excinfo.value
        assert error.kind == "deadlock"
        assert any("victim" in str(waiter) for waiter in error.blocked)
        assert "event 'trap'" in str(error)

    def test_every_blocked_waiter_listed(self, sim):
        sim.add_waiter_hook(_blocked("master 'alpha'", "event 'ping'"))
        sim.add_waiter_hook(_blocked("master 'beta'", "event 'pong'"))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "alpha" in message and "beta" in message
        assert "event 'ping'" in message and "event 'pong'" in message

    def test_finished_waiters_do_not_deadlock(self, sim):
        sim.add_waiter_hook(lambda: [])
        sim.run()  # completes cleanly: nobody is waiting

    def test_clocked_run_does_not_deadlock_check(self, sim):
        sim.add_waiter_hook(_blocked("master 'victim'"))
        # time can still advance: no spurious DeadlockError, matching
        # the prior contract of bounded runs
        clock = Clock(sim, "clk", period=10)
        sim.run(100)
        assert clock.cycles > 0

    def test_waiter_hook_reported(self, sim):
        sim.add_waiter_hook(_blocked("master 'm'", "bus grant",
                                     "3/7 transactions"))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "master 'm': waiting on bus grant" in message
        assert "3/7 transactions" in message

    def test_journal_records_recent_events(self, sim):
        clock = Clock(sim, "clk", period=10)
        tick = sim.event("tick")
        Process(sim, tick.notify_delta, "ticker",
                dont_initialize=True).sensitive(clock.posedge_event)
        sim.run(35)
        error = sim.diagnose("stuck")
        journal = error.journal
        assert journal, "journal must not be empty"
        assert all(isinstance(entry, JournalEntry) for entry in journal)
        assert any(entry.event == "tick" for entry in journal)
        assert "tick" in str(error)

    def test_journal_capacity_bounds_entries(self):
        sim = Simulator("tiny", journal_capacity=4)
        Clock(sim, "clk", period=10)
        sim.run(1_000)
        assert len(sim.diagnose("stuck").journal) == 4

    def test_diagnose_builds_structured_error(self, sim):
        error = sim.diagnose("custom message")
        assert isinstance(error, DeadlockError)
        assert error.now == sim.now
        assert "custom message" in str(error)


    def test_deadlock_text_matches_the_oracle(self):
        """An elaborated run with blocked waiters and no clock raises
        the same diagnostic, from the same state, as on the oracle."""
        texts = []
        for kernel in (repro.kernel, reference_kernel):
            simulator = kernel.Simulator("stuck")
            simulator.event("ready").notify_delta()
            Process(simulator, lambda: None, "init")
            simulator.add_waiter_hook(_blocked("master 'm'", "event 'go'",
                                               "0/2 transactions"))
            with pytest.raises(DeadlockError) as excinfo:
                simulator.run()
            error = excinfo.value
            texts.append((str(error), error.now, error.delta_count,
                          error.blocked, error.journal))
        assert texts[0] == texts[1]
        assert texts[0][2] == 1  # the elaboration delta ran

class TestProgressWatchdog:
    def test_stall_time_budget_trips(self, sim):
        clock = Clock(sim, "clk", period=10)
        watchdog = ProgressWatchdog(progress=lambda: 0, stall_time=50)
        sim.attach_watchdog(watchdog)
        with pytest.raises(StallError) as excinfo:
            sim.run(10_000)
        error = excinfo.value
        assert error.kind == "stall"
        assert isinstance(error, TimeoutError)  # legacy guards work
        assert isinstance(error, DeadlockError)
        assert sim.now < 10_000  # tripped early, not at the deadline
        assert clock.cycles > 0

    def test_progress_resets_budget(self, sim):
        clock = Clock(sim, "clk", period=10)
        beat = {"n": 0}

        def heart():
            if clock.cycles % 2 == 0:
                beat["n"] += 1

        Process(sim, heart, "heart", dont_initialize=True).sensitive(
            clock.posedge_event)
        watchdog = ProgressWatchdog(progress=lambda: beat["n"],
                                    stall_time=100)
        sim.attach_watchdog(watchdog)
        sim.run(900)  # progress every 20 units: never trips

    def test_detach_disarms(self, sim):
        Clock(sim, "clk", period=10)
        watchdog = ProgressWatchdog(progress=lambda: 0, stall_time=50)
        sim.attach_watchdog(watchdog)
        sim.detach_watchdog(watchdog)
        sim.run(1_000)  # no trip

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ProgressWatchdog(stall_time=0)
        with pytest.raises(ValueError):
            ProgressWatchdog(wall_seconds=-1.0)

    def test_no_stall_after_clean_power_off(self, sim):
        # a card leaving the field stops making progress by design;
        # expiring budgets must not be reported as a stall afterwards
        import time

        clock = Clock(sim, "clk", period=10)
        watchdog = ProgressWatchdog(progress=lambda: 0, stall_time=50,
                                    wall_seconds=0.01)
        sim.attach_watchdog(watchdog)

        def killer():
            if clock.cycles == 3:
                sim.power_off("field removed")

        Process(sim, killer, "killer", dont_initialize=True).sensitive(
            clock.posedge_event)
        sim.run(40)
        assert sim.now == 30
        assert sim.powered_off
        time.sleep(0.02)  # the wall budget is now long expired
        watchdog.check(sim)  # must not raise
        assert sim.run(10_000) == 0  # powered-off runs are free


    @pytest.mark.parametrize("attach_at", [0, 505])
    def test_stall_text_matches_the_oracle(self, attach_at):
        """The budget runs from attach time; the trip raises the same
        text at the same edge as on the oracle."""
        trips = []
        for kernel in (repro.kernel, reference_kernel):
            simulator = kernel.Simulator("stall")
            clock = kernel.Clock(simulator, "clk", period=10)
            simulator.run(attach_at)
            simulator.attach_watchdog(ProgressWatchdog(
                progress=lambda: 0, stall_time=50, name="idle"))
            with pytest.raises(StallError) as excinfo:
                simulator.run(10_000)
            trips.append((str(excinfo.value), simulator.now,
                          simulator.delta_count, clock.cycles))
        assert trips[0] == trips[1]
        message, now = trips[0][:2]
        assert now == attach_at + 55
        assert ("watchdog 'idle': no progress for 55 time units "
                "(budget 50)") in message

class TestDiagnosticFormatting:
    def test_blocked_waiter_str(self):
        waiter = BlockedWaiter("thread 't'", "event 'e'", "resumed once")
        assert str(waiter) == ("thread 't': waiting on event 'e' "
                               "(resumed once)")

    def test_journal_entry_str(self):
        entry = JournalEntry(120, 7, "timed", "clk.posedge")
        text = str(entry)
        assert "t=120" in text and "clk.posedge" in text

    def test_blocked_waiter_str_without_detail(self):
        waiter = BlockedWaiter("master 'm'", "bus grant")
        assert str(waiter) == "master 'm': waiting on bus grant"
