"""Unit tests for the failure monitor's backup bookkeeping."""

from repro.protocol.failure_monitor import FailureMonitor


def test_starts_empty():
    monitor = FailureMonitor()
    assert len(monitor) == 0
    assert monitor.next_backup() is None


def test_update_replaces_list():
    monitor = FailureMonitor()
    monitor.update_backups(["a", "b"])
    monitor.update_backups(["c"])
    assert monitor.backups == ["c"]


def test_next_backup_pops_best_first():
    monitor = FailureMonitor()
    monitor.update_backups(["second-best", "third-best"])
    assert monitor.next_backup() == "second-best"
    assert monitor.next_backup() == "third-best"
    assert monitor.next_backup() is None


def test_remove_drops_dead_node():
    monitor = FailureMonitor()
    monitor.update_backups(["a", "b", "c"])
    monitor.remove("b")
    assert monitor.backups == ["a", "c"]


def test_remove_missing_is_noop():
    monitor = FailureMonitor()
    monitor.update_backups(["a"])
    monitor.remove("zzz")
    assert monitor.backups == ["a"]


def test_update_copies_input():
    monitor = FailureMonitor()
    source = ["a", "b"]
    monitor.update_backups(source)
    source.append("c")
    assert monitor.backups == ["a", "b"]


def test_counters():
    monitor = FailureMonitor()
    monitor.note_covered()
    monitor.note_covered()
    monitor.note_uncovered()
    assert monitor.failovers_attempted == 3
    assert monitor.failovers_covered == 2
    assert monitor.failovers_uncovered == 1
