//! The one retry and health policy (DESIGN.md §12, "Retry and health
//! policy"), shared by the device pool's lanes, the submit client's
//! reconnects and the dispatch farm's endpoints: a consecutive-failure
//! [`Streak`] that trips a quarantine, and a capped doubling [`Backoff`]
//! with optional seeded equal jitter.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

/// Consecutive failures. The failure that reaches the threshold trips
/// the streak, which then restarts; a success clears it.
pub(crate) struct Streak {
    failures: u32,
    threshold: u32,
}

impl Streak {
    pub(crate) fn new(threshold: u32) -> Streak {
        Streak { failures: 0, threshold }
    }

    /// Records one failure; `true` when it trips the streak.
    pub(crate) fn fail(&mut self) -> bool {
        self.failures += 1;
        let tripped = self.failures >= self.threshold;
        if tripped {
            self.failures = 0;
        }
        tripped
    }

    pub(crate) fn clear(&mut self) {
        self.failures = 0;
    }
}

/// Naps of `min(base · 2^round, cap)`. With a seed armed each nap is
/// equal-jittered: half of it fixed, the other half drawn uniformly from
/// the seeded stream, so clients that lost the same server at once do
/// not retry in lockstep, and the same seed replays the same naps.
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    jitter: Option<StdRng>,
}

impl Backoff {
    pub(crate) fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap, jitter: None }
    }

    /// Arms equal jitter drawn from a stream seeded with `seed`.
    pub(crate) fn jittered(mut self, seed: u64) -> Backoff {
        self.jitter = Some(StdRng::seed_from_u64(seed));
        self
    }

    /// The nap for retry round `round`; in `[nap/2, nap]` when jittered.
    pub(crate) fn nap(&mut self, round: u32) -> Duration {
        let nap = self.base.saturating_mul(1 << round.min(31)).min(self.cap);
        let Some(rng) = self.jitter.as_mut() else { return nap };
        let half = nap / 2;
        half + Duration::from_nanos(rng.gen_range(0..=half.as_nanos() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streak_trips_at_the_threshold_and_restarts() {
        let mut streak = Streak::new(3);
        assert_eq!([streak.fail(), streak.fail(), streak.fail()], [false, false, true]);
        assert_eq!([streak.fail(), streak.fail(), streak.fail()], [false, false, true]);
        streak.fail();
        streak.fail();
        streak.clear();
        assert!(!streak.fail() && !streak.fail(), "a success cleared the streak");
        assert!(Streak::new(0).fail(), "a zero threshold trips on every failure");
    }

    #[test]
    fn backoff_doubles_from_the_base_up_to_the_cap() {
        let mut backoff = Backoff::new(Duration::from_millis(100), Duration::from_millis(700));
        let naps: Vec<u64> = (0..6).map(|r| backoff.nap(r).as_millis() as u64).collect();
        assert_eq!(naps, [100, 200, 400, 700, 700, 700]);
        assert_eq!(backoff.nap(u32::MAX), Duration::from_millis(700), "no shift overflow");
    }
}
