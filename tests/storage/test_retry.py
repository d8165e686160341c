"""Tests for bounded retries with deterministic backoff."""

import pytest

from repro.storage import (
    IntegrityViolation,
    RetryingBackend,
    RetryPolicy,
    SQLiteBackend,
    StorageError,
    call_with_retries,
)
from repro.storage.backend import TransientError

from tests.storage.faults import FaultInjectingBackend, FaultPlan


class TestRetryPolicy:
    def test_delays_are_deterministic_per_seed(self):
        a = RetryPolicy(max_attempts=5, seed=7).delays()
        b = RetryPolicy(max_attempts=5, seed=7).delays()
        c = RetryPolicy(max_attempts=5, seed=8).delays()
        assert a == b
        assert a != c

    def test_delays_grow_then_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.4, jitter=0.0
        )
        assert policy.delays() == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_stays_in_fraction(self):
        policy = RetryPolicy(max_attempts=20, base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.25, seed=3)
        for delay in policy.delays():
            assert 0.75 <= delay <= 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class TestCallWithRetries:
    def test_transient_errors_are_absorbed(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("connection reset")
            return "ok"

        slept = []
        result = call_with_retries(
            flaky, policy=RetryPolicy(jitter=0.0), sleep=slept.append
        )
        assert result == "ok"
        assert len(calls) == 3
        assert slept == [0.05, 0.1]

    def test_attempts_bound_the_operation(self):
        def always_failing():
            raise TransientError("still down")

        with pytest.raises(TransientError):
            call_with_retries(
                always_failing,
                policy=RetryPolicy(max_attempts=3, jitter=0.0),
                sleep=lambda _: None,
            )

    def test_integrity_violations_are_never_retried(self):
        calls = []

        def duplicate():
            calls.append(1)
            raise IntegrityViolation("dup")

        with pytest.raises(IntegrityViolation):
            call_with_retries(duplicate, policy=RetryPolicy(), sleep=lambda _: None)
        assert len(calls) == 1

    def test_plain_storage_errors_are_never_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise StorageError("no such table")

        with pytest.raises(StorageError):
            call_with_retries(broken, policy=RetryPolicy(), sleep=lambda _: None)
        assert len(calls) == 1

    def test_timeout_is_a_retry_budget(self):
        now = [0.0]

        def clock():
            return now[0]

        def sleep(seconds):
            now[0] += seconds

        def always_failing():
            raise TransientError("down")

        calls = []

        def counting():
            calls.append(1)
            always_failing()

        with pytest.raises(TransientError):
            call_with_retries(
                counting,
                policy=RetryPolicy(
                    max_attempts=10, base_delay=1.0, multiplier=1.0,
                    max_delay=1.0, jitter=0.0, timeout=2.5,
                ),
                sleep=sleep,
                clock=clock,
            )
        # Delays of 1s each: after two sleeps the third would overrun 2.5s.
        assert len(calls) == 3


@pytest.fixture()
def schema_sql():
    return 'CREATE TABLE "t" ("a" TEXT, PRIMARY KEY ("a"))'


class TestRetryingBackend:
    def _flaky(self, plan):
        inner = SQLiteBackend()
        inner.execute('CREATE TABLE "t" ("a" TEXT, PRIMARY KEY ("a"))')
        faulty = FaultInjectingBackend(inner, plan)
        return RetryingBackend(
            faulty, RetryPolicy(jitter=0.0), sleep=lambda _: None
        )

    def test_absorbs_transient_faults(self):
        backend = self._flaky(FaultPlan.failing(0))
        backend.execute('INSERT INTO "t" VALUES (?)', ("1",))
        assert backend.query('SELECT "a" FROM "t"') == [("1",)]
        assert backend.retries == 1

    def test_counts_no_retries_on_clean_runs(self):
        backend = self._flaky(FaultPlan())
        backend.execute('INSERT INTO "t" VALUES (?)', ("1",))
        assert backend.retries == 0

    def test_executemany_survives_generator_parameters(self):
        backend = self._flaky(FaultPlan.failing(0))
        backend.executemany(
            'INSERT INTO "t" VALUES (?)', ((str(n),) for n in range(3))
        )
        assert backend.query('SELECT COUNT(*) FROM "t"') == [(3,)]
        assert backend.retries == 1

    def test_gives_up_after_max_attempts(self):
        plan = FaultPlan.failing(0, 1, 2, 3, 4, 5)
        backend = self._flaky(plan)
        backend.policy = RetryPolicy(max_attempts=3, jitter=0.0)
        with pytest.raises(TransientError):
            backend.execute('INSERT INTO "t" VALUES (?)', ("1",))
        assert backend.retries == 2

    def test_integrity_violations_pass_straight_through(self):
        backend = self._flaky(FaultPlan())
        backend.execute('INSERT INTO "t" VALUES (?)', ("1",))
        with pytest.raises(IntegrityViolation):
            backend.execute('INSERT INTO "t" VALUES (?)', ("1",))
        assert backend.retries == 0

    def test_advertises_inner_capabilities(self):
        inner = SQLiteBackend()
        wrapped = RetryingBackend(inner)
        assert wrapped.placeholder == inner.placeholder
        assert wrapped.supports_copy == inner.supports_copy
        assert wrapped.ordinal_column == inner.ordinal_column

    def test_transaction_verbs_are_not_retried(self):
        # A faulted BEGIN/COMMIT must pass through untouched: the fault
        # injector never counts control statements, so a plan that fails
        # ordinal 0 hits the first *data* statement even with a
        # transaction around it.
        inner = SQLiteBackend()
        inner.execute('CREATE TABLE "t" ("a" TEXT)')
        faulty = FaultInjectingBackend(inner, FaultPlan.failing(0))
        backend = RetryingBackend(faulty, RetryPolicy(jitter=0.0), sleep=lambda _: None)
        with backend.transaction():
            backend.execute('INSERT INTO "t" VALUES (?)', ("1",))
        assert [e.sql for e in faulty.history] == ['INSERT INTO "t" VALUES (?)'] * 2


class TestRetryMetrics:
    """PR-10: attempt/backoff counters, explicit registry and concurrency."""

    def test_attempts_and_sleep_histogram(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        calls = []

        def flaky():
            calls.append(None)
            if len(calls) < 3:
                raise TransientError("reset")
            return "ok"

        policy = RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0)
        result = call_with_retries(
            flaky, policy=policy, sleep=lambda _: None, metrics=registry
        )
        assert result == "ok"
        snap = registry.snapshot()
        assert snap.counter("retry.attempts") == 3
        assert snap.counter("retry.retries") == 2
        assert snap.counter("retry.exhausted") == 0
        hist = snap.histogram("retry.sleep_seconds")
        assert hist is not None and hist.count == 2
        assert hist.total == pytest.approx(0.01 + 0.02)

    def test_exhaustion_counter(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()

        def always_fails():
            raise TransientError("down")

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with pytest.raises(TransientError):
            call_with_retries(
                always_fails, policy=policy, sleep=lambda _: None,
                metrics=registry,
            )
        snap = registry.snapshot()
        assert snap.counter("retry.attempts") == 3
        assert snap.counter("retry.retries") == 2
        assert snap.counter("retry.exhausted") == 1

    def test_concurrent_retrying_backends_share_one_registry(self):
        # Many threads hammering flaky backends must land every attempt
        # in the shared registry without losing increments (the registry
        # lock is the only synchronization).
        import threading

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        threads = 8
        per_thread = 5
        errors = []

        def worker():
            backend = RetryingBackend(
                FaultInjectingBackend(SQLiteBackend(), FaultPlan.failing(0)),
                policy,
                sleep=lambda _: None,
                metrics=registry,
            )
            try:
                backend.execute("CREATE TABLE t (a)")
                for _ in range(per_thread - 1):
                    backend.execute("SELECT 1")
            except StorageError as error:
                errors.append(error)
            finally:
                backend.close()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert not errors
        snap = registry.snapshot()
        # failing(0) faults each backend's first data statement exactly
        # once: per thread that is 5 statements + 1 retry = 6 attempts,
        # and the shared registry must not lose a single increment.
        assert snap.counter("retry.attempts") == threads * (per_thread + 1)
        assert snap.counter("retry.retries") == threads
        assert snap.counter("retry.exhausted") == 0

    def test_retrying_backend_still_counts_instance_retries(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        backend = RetryingBackend(
            FaultInjectingBackend(SQLiteBackend(), FaultPlan.failing(0)),
            RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            sleep=lambda _: None,
            metrics=registry,
        )
        backend.execute("CREATE TABLE t (a)")
        assert backend.retries == 1
        assert registry.snapshot().counter("retry.retries") == 1
        backend.close()
