//! Run results: coverage accounting and sensitive-API summaries.

use fd_aftm::Aftm;
use fd_droidsim::{ApiInvocation, Caller, FaultLog, TestScript};
use fd_smali::ClassName;
use fd_static::StaticInfo;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The deduplication key of one distinct Force-Close: where the app was
/// (activity + fragment stack) and why it died.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CrashSignature {
    /// The foreground activity at crash time (empty if the app died
    /// before any screen existed).
    pub activity: ClassName,
    /// The fragments attached at crash time, in container order.
    pub fragments: Vec<ClassName>,
    /// The exception message / synthetic kill reason.
    pub reason: String,
}

/// One distinct crash observed during a run, with triage results.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashReport {
    /// The dedup key.
    pub signature: CrashSignature,
    /// How many times this signature fired.
    pub occurrences: usize,
    /// Whether the supervisor ever recovered from it (relaunch + replay
    /// of the shortest known path back to the crash site).
    pub recovered: bool,
}

/// Per-class counts of device errors the driver observed (and no longer
/// silently conflates with "the UI did not change").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceErrorStats {
    /// Transient failures (ANR, flaky `am start`) — retried.
    pub transient: usize,
    /// Events that targeted a widget no longer on screen.
    pub widget_gone: usize,
    /// Everything else (app crashed/not running, unsatisfiable request).
    pub fatal: usize,
    /// Infrastructure failures — the device agent died, timed out, or
    /// broke protocol. These say nothing about the app under test and are
    /// never counted toward its crashes.
    #[serde(default)]
    pub infrastructure: usize,
}

impl DeviceErrorStats {
    /// Total device errors across all classes.
    pub fn total(&self) -> usize {
        self.transient + self.widget_gone + self.fatal + self.infrastructure
    }
}

/// A visited/sum pair with a rate — one cell group of Table I.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coverage {
    /// Elements successfully tested.
    pub visited: usize,
    /// Elements found by static extraction.
    pub sum: usize,
}

impl Coverage {
    /// The coverage rate in percent (100 when the sum is zero, matching
    /// the table's treatment of empty categories).
    pub fn rate(&self) -> f64 {
        if self.sum == 0 {
            100.0
        } else {
            self.visited as f64 / self.sum as f64 * 100.0
        }
    }
}

/// The complete result of one FragDroid run on one app.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The static phase's output.
    pub static_info: StaticInfo,
    /// The final, evolved AFTM.
    pub aftm: Aftm,
    /// Activities whose interface was actually reached.
    pub visited_activities: BTreeSet<ClassName>,
    /// Fragments confirmed through the FragmentManager.
    pub visited_fragments: BTreeSet<ClassName>,
    /// Every sensitive-API invocation the monitor recorded, with caller
    /// attribution.
    pub api_invocations: Vec<ApiInvocation>,
    /// The executed test cases, in order (compiled UI-queue items).
    pub scripts: Vec<TestScript>,
    /// Coverage timeline: `(events injected, activities visited, fragments
    /// visited)` sampled whenever a new element is reached.
    pub timeline: Vec<(usize, usize, usize)>,
    /// Total UI events injected.
    pub events_injected: usize,
    /// Test cases (queue items) executed.
    pub test_cases_run: usize,
    /// Test cases ever generated (enqueued), including skipped ones.
    #[serde(default)]
    pub test_cases_generated: usize,
    /// Force-closes observed.
    pub crashes: usize,
    /// Whether the run stopped early because the configured
    /// [`crate::FragDroidConfig::app_deadline`] passed; the report holds
    /// the partial results accumulated up to that point.
    #[serde(default)]
    pub deadline_exceeded: bool,
    /// Distinct crashes, deduplicated by (activity, fragment stack,
    /// reason) signature, with occurrence counts and recovery outcomes.
    #[serde(default)]
    pub crash_reports: Vec<CrashReport>,
    /// Crashes the supervisor recovered from: the app was relaunched and
    /// the shortest known path back to the crash site replayed, so the
    /// test case resumed instead of being abandoned.
    #[serde(default)]
    pub recovered_crashes: usize,
    /// Event retries after transient device errors (each one also cost
    /// an event from the budget).
    #[serde(default)]
    pub retries: usize,
    /// Faults the device's plan injected during the run.
    #[serde(default)]
    pub faults_injected: usize,
    /// The device's replayable fault log (empty without a fault plan).
    #[serde(default)]
    pub fault_log: FaultLog,
    /// Device errors by class.
    #[serde(default)]
    pub device_errors: DeviceErrorStats,
    /// Set when the run was cut short by a device-infrastructure failure
    /// (agent death, protocol timeout): the rendered [`fd_droidsim::DeviceError`].
    /// An infra failure is an incident of the harness, not a finding
    /// about the app — it never counts toward [`RunReport::crashes`].
    #[serde(default)]
    pub infra_failure: Option<String>,
}

impl RunReport {
    /// Activity coverage (Table I, first group).
    pub fn activity_coverage(&self) -> Coverage {
        Coverage { visited: self.visited_activities.len(), sum: self.static_info.activities.len() }
    }

    /// Fragment coverage (Table I, second group).
    pub fn fragment_coverage(&self) -> Coverage {
        Coverage { visited: self.visited_fragments.len(), sum: self.static_info.fragments.len() }
    }

    /// Fragments-in-visited-activities coverage (Table I, third group):
    /// the sum counts effective fragments at least one of whose dependent
    /// activities was visited.
    pub fn fragments_in_visited_coverage(&self) -> Coverage {
        let in_visited: BTreeSet<&ClassName> = self
            .static_info
            .af_dependency
            .iter()
            .filter(|(activity, _)| self.visited_activities.contains(activity.as_str()))
            .flat_map(|(_, frags)| frags)
            .collect();
        Coverage {
            visited: self.visited_fragments.iter().filter(|f| in_visited.contains(f)).count(),
            sum: in_visited.len(),
        }
    }

    /// What the dynamic phase added beyond the static model — observed
    /// transitions and forcibly reached nodes.
    pub fn evolution_delta(&self) -> fd_aftm::AftmDelta {
        fd_aftm::diff(&self.static_info.aftm, &self.aftm)
    }

    /// Materializes every executed test case as one generated Robotium
    /// Java class (§VI-B's artifact).
    pub fn to_robotium_java(&self) -> String {
        let package = self
            .static_info
            .aftm
            .entry()
            .map(|c| c.package().to_string())
            .unwrap_or_else(|| "generated".to_string());
        crate::codegen::to_java_class(&package, &self.scripts)
    }

    /// Distinct sensitive APIs detected.
    pub fn distinct_apis(&self) -> BTreeSet<(&str, &str)> {
        self.api_invocations.iter().map(|i| (i.group.as_str(), i.name.as_str())).collect()
    }

    /// `(total, fragment_associated, fragment_only)` invocation-relation
    /// counts — the aggregates behind Table II's headline numbers. An API
    /// is *fragment-associated* in an app if any of its recorded callers
    /// is a fragment, and *fragment-only* if all of them are.
    pub fn api_relation_counts(&self) -> (usize, usize, usize) {
        let total = self.api_invocations.len();
        let fragment_associated =
            self.api_invocations.iter().filter(|i| i.caller.is_fragment()).count();
        // Fragment-only: APIs never called from an activity in this app.
        let activity_called: BTreeSet<(&str, &str)> = self
            .api_invocations
            .iter()
            .filter(|i| matches!(i.caller, Caller::Activity(_)))
            .map(|i| (i.group.as_str(), i.name.as_str()))
            .collect();
        let fragment_only = self
            .api_invocations
            .iter()
            .filter(|i| {
                i.caller.is_fragment()
                    && !activity_called.contains(&(i.group.as_str(), i.name.as_str()))
            })
            .count();
        (total, fragment_associated, fragment_only)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_rate_handles_zero_sum() {
        assert_eq!(Coverage { visited: 0, sum: 0 }.rate(), 100.0);
        let half = Coverage { visited: 1, sum: 2 };
        assert!((half.rate() - 50.0).abs() < f64::EPSILON);
    }
}
