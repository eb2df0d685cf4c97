"""Tests for retry policies, deadlines and the retry loop."""

import random

import pytest

from repro.resilience.retry import (
    Deadline,
    DeadlineExceeded,
    RetriesExhausted,
    RetryPolicy,
    call_with_retry,
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        delays = [policy.delay(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]  # capped at max_delay

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0)

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=1.0, max_delay=1.0, jitter=0.5
        )
        first = [policy.delay(1, random.Random(7)) for _ in range(20)]
        assert first == [policy.delay(1, random.Random(7)) for _ in range(20)]
        for value in first:
            assert 0.1 <= value <= 0.15  # base * (1 + jitter * U[0,1))

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        assert policy.delay(1) == 0.1


class TestDeadline:
    def test_never(self):
        deadline = Deadline.never()
        assert deadline.remaining() == float("inf")
        assert not deadline.expired
        deadline.check()  # no raise

    def test_after_counts_down(self):
        deadline = Deadline.after(60.0)
        assert 0.0 < deadline.remaining() <= 60.0
        assert not deadline.expired

    def test_expired_deadline_raises_on_check(self):
        deadline = Deadline.after(-1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="fetch"):
            deadline.check("fetch")


class TestCallWithRetry:
    def _policy(self, attempts=3):
        return RetryPolicy(
            max_attempts=attempts, base_delay=0.01, max_delay=0.05,
            jitter=0.0,
        )

    def test_success_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        sleeps: list[float] = []
        result = call_with_retry(
            flaky, policy=self._policy(), retry_on=(OSError,),
            sleep=sleeps.append,
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert sleeps == [0.01, 0.02]  # backoff before attempts 2 and 3

    def test_retries_exhausted_carries_last_error(self):
        boom = OSError("persistent")

        def always_fails():
            raise boom

        with pytest.raises(RetriesExhausted) as excinfo:
            call_with_retry(
                always_fails, policy=self._policy(attempts=2),
                retry_on=(OSError,), label="unit", sleep=lambda s: None,
            )
        assert excinfo.value.attempts == 2
        assert excinfo.value.last is boom
        assert "unit" in str(excinfo.value)

    def test_non_matching_exception_propagates_immediately(self):
        calls = {"n": 0}

        def wrong_kind():
            calls["n"] += 1
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            call_with_retry(
                wrong_kind, policy=self._policy(), retry_on=(OSError,),
                sleep=lambda s: None,
            )
        assert calls["n"] == 1

    def test_deadline_checked_before_attempt(self):
        def never_called():
            raise AssertionError("should not run")

        with pytest.raises(DeadlineExceeded):
            call_with_retry(
                never_called, policy=self._policy(),
                retry_on=(OSError,), deadline=Deadline.after(-1.0),
            )

    def test_backoff_that_does_not_fit_budget_raises(self):
        def always_fails():
            raise OSError("transient")

        # Backoff of ~10s can never fit a 50ms budget: the loop must
        # raise DeadlineExceeded instead of sleeping through it.
        policy = RetryPolicy(
            max_attempts=5, base_delay=10.0, max_delay=10.0, jitter=0.0
        )
        with pytest.raises(DeadlineExceeded, match="does not fit"):
            call_with_retry(
                always_fails, policy=policy, retry_on=(OSError,),
                deadline=Deadline.after(0.05), sleep=lambda s: None,
            )

    def test_single_attempt_policy_never_sleeps(self):
        sleeps: list[float] = []
        with pytest.raises(RetriesExhausted):
            call_with_retry(
                lambda: (_ for _ in ()).throw(OSError("x")),
                policy=RetryPolicy(max_attempts=1),
                retry_on=(OSError,), sleep=sleeps.append,
            )
        assert sleeps == []

    def test_retries_counted_in_obs_registry(self):
        from repro.obs.metrics import get_registry

        counter = get_registry().counter(
            "repro_resilience_retries_total", component="retry-unit-test"
        )
        before = counter.value
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("once")
            return None

        call_with_retry(
            flaky, policy=self._policy(), retry_on=(OSError,),
            label="retry-unit-test", sleep=lambda s: None,
        )
        assert counter.value == before + 1
