//! The sensitive-API monitor — the reproduction's XPrivacy hook layer.
//!
//! The paper selects "some common sensitive operation functions defined by
//! XPrivacy" (46 of them appear in Table II) and records which Activity
//! and/or Fragment invokes each. [`ApiMonitor`] is the runtime hook: the
//! interpreter reports every `invoke-api` statement it executes together
//! with the UI element (activity or fragment) whose code is running.

use fd_smali::ClassName;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The 46 sensitive APIs of Table II as `(group, name)` pairs, in the
/// table's order. (The printed table shows `system/queryIntentActivities`
/// twice; following XPrivacy's function list the second entry is taken to
/// be `queryIntentServices`, which keeps the count at 46 distinct APIs.)
pub const SENSITIVE_APIS: &[(&str, &str)] = &[
    ("browser", "Downloads"),
    ("identification", "/proc"),
    ("identification", "getString"),
    ("identification", "SERIAL"),
    ("internet", "connect"),
    ("internet", "Connectivity.getActiveNetworkInfo"),
    ("internet", "Connectivity.getNetworkInfo"),
    ("internet", "inet"),
    ("internet", "InetAddress.getAllByName"),
    ("internet", "InetAddress.getByAddress"),
    ("internet", "InetAddress.getByName"),
    ("internet", "IpPrefix.getAddress"),
    ("internet", "LinkProperties.getLinkAddresses"),
    ("internet", "NetworkInfo.getDetailedState"),
    ("internet", "NetworkInfo.isConnected"),
    ("internet", "NetworkInfo.isConnectedOrConnecting"),
    ("internet", "NetworkInterface.getNetworkInterfaces"),
    ("internet", "WiFi.getConnectionInfo"),
    ("ipc", "Binder"),
    ("location", "getAllProviders"),
    ("location", "getProviders"),
    ("location", "isProviderEnabled"),
    ("location", "requestLocationUpdates"),
    ("media", "Camera.setPreviewTexture"),
    ("media", "Camera.startPreview"),
    ("messages", "MmsProvider"),
    ("network", "NetworkInterface.getInetAddresses"),
    ("network", "WiFi.getConfiguredNetworks"),
    ("network", "WiFi.getConnectionInfo"),
    ("phone", "Configuration.MCC"),
    ("phone", "Configuration.MNC"),
    ("phone", "getDeviceId"),
    ("phone", "getNetworkCountryIso"),
    ("phone", "getNetworkOperatorName"),
    ("shell", "loadLibrary"),
    ("storage", "getExternalStorageState"),
    ("storage", "open"),
    ("storage", "sdcard"),
    ("system", "getInstalledApplications"),
    ("system", "getRunningAppProcesses"),
    ("system", "queryIntentActivities"),
    ("system", "queryIntentServices"),
    ("view", "getUserAgentString"),
    ("view", "initUserAgentString"),
    ("view", "loadUrl"),
    ("view", "setUserAgentString"),
];

/// Returns whether `(group, name)` is in the monitored catalog.
pub fn is_sensitive(group: &str, name: &str) -> bool {
    catalog_index(group, name).is_some()
}

/// The position of `(group, name)` in [`SENSITIVE_APIS`].
fn catalog_index(group: &str, name: &str) -> Option<usize> {
    SENSITIVE_APIS.iter().position(|&(g, n)| g == group && n == name)
}

/// The UI element whose code performed a call.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Caller {
    /// Code of an activity (or a helper invoked from it).
    Activity(ClassName),
    /// Code of a fragment.
    Fragment {
        /// The fragment class.
        fragment: ClassName,
        /// Its host activity at call time.
        host: ClassName,
    },
}

impl Caller {
    /// Whether the caller is a fragment.
    pub fn is_fragment(&self) -> bool {
        matches!(self, Caller::Fragment { .. })
    }
}

/// One recorded sensitive-API invocation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ApiInvocation {
    /// XPrivacy group.
    pub group: String,
    /// Function name within the group.
    pub name: String,
    /// Who called it.
    pub caller: Caller,
}

/// The recording hook. Invocations outside the catalog are ignored. The
/// *relation* view ([`ApiMonitor::invocations`]) collapses duplicates
/// (same API, same caller) — Table II reports the relation, not a call
/// count — while the *sequence* view ([`ApiMonitor::sequence`]) keeps
/// every call in order, which lifecycle tests and traces rely on.
///
/// Calls are kept as `(catalog index, caller)` pairs, so recording a
/// pair already seen copies no string: only a new pair builds its
/// [`ApiInvocation`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ApiMonitor {
    seen: BTreeSet<ApiInvocation>,
    pairs: BTreeSet<(usize, Caller)>,
    calls: Vec<(usize, Caller)>,
}

impl ApiMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a call if it is in the catalog; returns `true` if this
    /// (API, caller) pair is new.
    pub fn record(&mut self, group: &str, name: &str, caller: Caller) -> bool {
        let Some(api) = catalog_index(group, name) else { return false };
        let call = (api, caller);
        let new = !self.pairs.contains(&call);
        if new {
            self.pairs.insert(call.clone());
            self.seen.insert(invocation(&call));
        }
        self.calls.push(call);
        new
    }

    /// Every recorded call, in execution order, with duplicates.
    pub fn sequence(&self) -> Vec<ApiInvocation> {
        self.calls.iter().map(invocation).collect()
    }

    /// All distinct recorded invocations, in order.
    pub fn invocations(&self) -> impl Iterator<Item = &ApiInvocation> {
        self.seen.iter()
    }

    /// Number of distinct (API, caller) pairs.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.seen.clear();
        self.pairs.clear();
        self.calls.clear();
    }

    /// The distinct APIs seen, regardless of caller.
    pub fn distinct_apis(&self) -> BTreeSet<(&str, &str)> {
        self.seen.iter().map(|i| (i.group.as_str(), i.name.as_str())).collect()
    }
}

/// The invocation a recorded `(catalog index, caller)` pair stands for.
fn invocation((api, caller): &(usize, Caller)) -> ApiInvocation {
    let (group, name) = SENSITIVE_APIS[*api];
    ApiInvocation { group: group.to_string(), name: name.to_string(), caller: caller.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_exactly_46_distinct_apis() {
        let set: BTreeSet<_> = SENSITIVE_APIS.iter().collect();
        assert_eq!(SENSITIVE_APIS.len(), 46);
        assert_eq!(set.len(), 46, "catalog contains duplicates");
    }

    #[test]
    fn catalog_covers_the_13_table_groups() {
        let groups: BTreeSet<&str> = SENSITIVE_APIS.iter().map(|&(g, _)| g).collect();
        let expected: BTreeSet<&str> = [
            "browser",
            "identification",
            "internet",
            "ipc",
            "location",
            "media",
            "messages",
            "network",
            "phone",
            "shell",
            "storage",
            "system",
            "view",
        ]
        .into_iter()
        .collect();
        assert_eq!(groups, expected);
    }

    #[test]
    fn record_filters_unknown_apis() {
        let mut m = ApiMonitor::new();
        assert!(!m.record("bogus", "thing", Caller::Activity("a.A".into())));
        assert!(m.is_empty());
    }

    #[test]
    fn record_dedups_same_api_same_caller() {
        let mut m = ApiMonitor::new();
        let caller = Caller::Activity("a.A".into());
        assert!(m.record("location", "getAllProviders", caller.clone()));
        assert!(!m.record("location", "getAllProviders", caller));
        assert_eq!(m.len(), 1);
        assert_eq!(m.sequence().len(), 2, "the sequence keeps the repeat");
    }

    #[test]
    fn same_api_different_caller_kinds_are_distinct() {
        let mut m = ApiMonitor::new();
        m.record("location", "getAllProviders", Caller::Activity("a.A".into()));
        m.record(
            "location",
            "getAllProviders",
            Caller::Fragment { fragment: "a.F".into(), host: "a.A".into() },
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m.distinct_apis().len(), 1);
    }
}
