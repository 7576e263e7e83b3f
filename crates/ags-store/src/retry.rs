//! Deterministic retry policy for store operations.
//!
//! Every layer that talks to a possibly-flaky [`MapStore`](crate::MapStore)
//! funnels through [`RetryPolicy`]: the epoch log's write path
//! (`put_with_retry`) and the remote TCP client ([`crate::RemoteStore`])
//! both use it. The policy retries only errors classified transient by
//! [`StoreError::is_transient`] — permanent errors (corrupt or missing
//! records) surface on the first attempt.
//!
//! Backoff is deterministic exponential: attempt `n` (0-based retry count)
//! waits `backoff << n`, capped at 64× the base so a long outage never
//! turns into unbounded sleeps. A zero base backoff disables sleeping
//! entirely, which the fault-injection suites use to stay fast.

use crate::error::StoreError;
use std::time::Duration;

/// How many times to try a store operation, how long each attempt may
/// take, and how long to wait between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Zero behaves like one.
    pub attempts: u32,
    /// Per-attempt deadline. Local stores ignore it; [`crate::RemoteStore`]
    /// applies it as the socket connect/read/write timeout, so a stalled
    /// peer fails the attempt as [`StoreError::Timeout`] instead of
    /// hanging the checkpoint commit.
    pub timeout: Duration,
    /// Base backoff slept after the first failed attempt; doubles per
    /// retry up to [`RetryPolicy::BACKOFF_CAP_FACTOR`]× the base.
    pub backoff: Duration,
}

/// What happened inside a [`RetryPolicy::run_tracked`] call, for stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryTelemetry {
    /// Attempts beyond the first (whether or not the call succeeded).
    pub retries: u64,
    /// Non-zero backoff sleeps actually taken.
    pub backoff_waits: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            timeout: Duration::from_millis(1000),
            backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff stops doubling at `base << 6` (64× the base).
    pub const BACKOFF_CAP_FACTOR: u32 = 64;

    /// A policy with explicit attempts, per-attempt timeout and base backoff.
    pub fn new(attempts: u32, timeout: Duration, backoff: Duration) -> Self {
        Self { attempts, timeout, backoff }
    }

    /// The deterministic wait before retry number `retry` (0-based): the
    /// base backoff doubled per retry, capped at 64× the base.
    pub fn backoff_for(&self, retry: u64) -> Duration {
        let factor = 1u32 << (retry.min(6) as u32);
        self.backoff.saturating_mul(factor.min(Self::BACKOFF_CAP_FACTOR))
    }

    /// Runs `op` under this policy, retrying transient failures.
    pub fn run<T>(&self, op: impl FnMut(u32) -> Result<T, StoreError>) -> Result<T, StoreError> {
        self.run_tracked(op).0
    }

    /// Runs `op` under this policy and reports retry/backoff telemetry.
    ///
    /// `op` receives the 0-based attempt number. Transient errors
    /// ([`StoreError::is_transient`]) are retried after the deterministic
    /// backoff; permanent errors and exhausted attempts return the last
    /// error. Telemetry is returned even on failure so callers can count
    /// wasted work.
    pub fn run_tracked<T>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, StoreError>,
    ) -> (Result<T, StoreError>, RetryTelemetry) {
        let attempts = self.attempts.max(1);
        let mut telemetry = RetryTelemetry::default();
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(value) => return (Ok(value), telemetry),
                Err(err) => {
                    let last = attempt + 1 >= attempts;
                    if last || !err.is_transient() {
                        return (Err(err), telemetry);
                    }
                    telemetry.retries += 1;
                    let wait = self.backoff_for(u64::from(attempt));
                    if !wait.is_zero() {
                        telemetry.backoff_waits += 1;
                        std::thread::sleep(wait);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(attempts: u32) -> RetryPolicy {
        RetryPolicy::new(attempts, RetryPolicy::default().timeout, Duration::ZERO)
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let mut calls = 0;
        let (result, telemetry) = fast(5).run_tracked(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err(StoreError::Timeout("slow".into()))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result.unwrap(), 2);
        assert_eq!(calls, 3);
        assert_eq!(telemetry.retries, 2);
        assert_eq!(telemetry.backoff_waits, 0, "zero base backoff never sleeps");
    }

    #[test]
    fn permanent_errors_fail_on_first_attempt() {
        let mut calls = 0;
        let result = fast(5).run(|_| {
            calls += 1;
            Err::<(), _>(StoreError::Corrupt("bad".into()))
        });
        assert!(matches!(result, Err(StoreError::Corrupt(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhausted_attempts_return_last_error() {
        let (result, telemetry) = fast(3).run_tracked(|attempt| {
            Err::<(), _>(StoreError::Disconnected(format!("attempt {attempt}")))
        });
        assert_eq!(result.unwrap_err(), StoreError::Disconnected("attempt 2".into()));
        assert_eq!(telemetry.retries, 2);
    }

    #[test]
    fn backoff_doubles_and_caps_deterministically() {
        let policy = RetryPolicy::new(8, Duration::from_secs(1), Duration::from_millis(2));
        let waits: Vec<u64> = (0..9).map(|n| policy.backoff_for(n).as_millis() as u64).collect();
        assert_eq!(waits, vec![2, 4, 8, 16, 32, 64, 128, 128, 128]);
    }

    #[test]
    fn backoff_waits_are_counted() {
        let policy = RetryPolicy::new(3, Duration::from_secs(1), Duration::from_micros(1));
        let (result, telemetry) =
            policy.run_tracked(|_| Err::<(), _>(StoreError::Io("disk".into())));
        assert!(result.is_err());
        assert_eq!(telemetry.backoff_waits, 2);
    }

    #[test]
    fn zero_attempts_still_runs_once() {
        let mut calls = 0;
        let result = fast(0).run(|_| {
            calls += 1;
            Ok::<_, StoreError>(7)
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(calls, 1);
    }
}
