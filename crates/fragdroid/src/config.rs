//! Exploration configuration, including the ablation switches the
//! benchmark suite toggles.

/// Configuration for a FragDroid run.
#[derive(Clone, Debug)]
pub struct FragDroidConfig {
    /// Total injected-event budget (clicks, text entries, launches …). The
    /// run stops when exhausted.
    pub event_budget: usize,
    /// Maximum queue items processed (test cases executed).
    pub max_test_cases: usize,
    /// Use the Java-reflection mechanism to force fragment switches
    /// (Cases 1/2). Disabling reproduces a traditional clicking-only tool
    /// at the fragment level.
    pub use_reflection: bool,
    /// Run the second loop phase that force-starts unvisited activities
    /// through empty intents (§VI-C).
    pub force_start_phase: bool,
    /// Fill input widgets from the input-dependency file. When disabled
    /// every field gets the random-string fallback (`"abc"`), like the
    /// naive tools §V-C criticizes.
    pub use_input_deps: bool,
    /// Stop exploring as soon as this sensitive API is observed — the
    /// "detecting arbitrary API calls" mode: the run's last executed
    /// script is then a witness that triggers the call.
    pub target_api: Option<(String, String)>,
    /// The §VIII extension: when a submit produces only an error dialog,
    /// retry it with candidate inputs harvested from the app's own UI
    /// strings. Off by default (the paper leaves it as future work).
    pub harvest_inputs: bool,
    /// Soft per-app wall-clock deadline. When set, the exploration loop
    /// stops at the next budget check after the deadline passes and the
    /// partial report is marked [`crate::report::RunReport::deadline_exceeded`].
    /// `None` (the default) means unlimited.
    pub app_deadline: Option<std::time::Duration>,
    /// Seed for the device's fault injector (only meaningful when
    /// [`FragDroidConfig::fault_rate`] is nonzero). The same seed + rate
    /// reproduces the same faults, bit for bit.
    pub fault_seed: u64,
    /// Per-event fault probability handed to the device's
    /// [`fd_droidsim::FaultPlan`]. `0.0` (the default) injects nothing
    /// and leaves the run byte-identical to an unfaulted one; a nonzero
    /// rate also arms the driver's recovery supervisor (bounded retries
    /// for transient errors, crash relaunch + path replay).
    pub fault_rate: f64,
    /// Maximum retries of one event after a transient device error
    /// (ANR, flaky `am start`). Each retry costs one event from the
    /// budget and an exponential backoff in simulated device time.
    pub retry_limit: usize,
    /// Which device backend runs the exploration: the in-process
    /// simulator (default), a subprocess-isolated device agent, or the
    /// command-stream-recording mock-adb backend.
    pub backend: fd_droidsim::DeviceBackend,
}

impl Default for FragDroidConfig {
    fn default() -> Self {
        FragDroidConfig {
            event_budget: 40_000,
            max_test_cases: 2_000,
            use_reflection: true,
            force_start_phase: true,
            use_input_deps: true,
            target_api: None,
            harvest_inputs: false,
            app_deadline: None,
            fault_seed: 0,
            fault_rate: 0.0,
            retry_limit: 3,
            backend: fd_droidsim::DeviceBackend::default(),
        }
    }
}

impl FragDroidConfig {
    /// An ablation with reflection disabled.
    pub fn without_reflection(mut self) -> Self {
        self.use_reflection = false;
        self
    }

    /// An ablation with the forced-start phase disabled.
    pub fn without_force_start(mut self) -> Self {
        self.force_start_phase = false;
        self
    }

    /// An ablation with the input-dependency file disabled.
    pub fn without_input_deps(mut self) -> Self {
        self.use_input_deps = false;
        self
    }

    /// Stops the run once `group/name` is observed (builder style).
    pub fn find_api(mut self, group: &str, name: &str) -> Self {
        self.target_api = Some((group.to_string(), name.to_string()));
        self
    }

    /// Enables the input-harvesting extension (builder style).
    pub fn with_input_harvesting(mut self) -> Self {
        self.harvest_inputs = true;
        self
    }

    /// Caps each app's run at `deadline` of wall-clock time (builder
    /// style). The run keeps whatever it found so far.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.app_deadline = Some(deadline);
        self
    }

    /// Arms seeded fault injection at `rate` (and with it the recovery
    /// supervisor). A rate of `0.0` is a no-op.
    pub fn with_faults(mut self, seed: u64, rate: f64) -> Self {
        self.fault_seed = seed;
        self.fault_rate = rate;
        self
    }

    /// Selects the device backend (builder style).
    pub fn with_backend(mut self, backend: fd_droidsim::DeviceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Whether the recovery supervisor is armed (faults can happen).
    pub fn faults_armed(&self) -> bool {
        self.fault_rate > 0.0
    }

    /// FNV digest of the whole configuration, the config half of every
    /// journal fingerprint. The derived `Debug` rendering covers every
    /// field, so any behavioral knob changing changes the digest.
    pub(crate) fn digest(&self) -> u64 {
        fd_apk::corpus::fnv1a(fd_apk::corpus::DIGEST_SEED, format!("{self:?}").as_bytes())
    }

    /// [`FragDroidConfig::digest`] of every knob but the device backend,
    /// which cannot change what a run finds: the digest a serve endpoint
    /// reports and a dispatch coordinator compares with its own.
    pub(crate) fn findings_digest(&self) -> u64 {
        FragDroidConfig { backend: Default::default(), ..self.clone() }.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_digest_ignores_only_the_backend() {
        let base = FragDroidConfig::default();
        let subprocess = base.clone().with_backend(fd_droidsim::DeviceBackend::Subprocess);
        assert_ne!(base.digest(), subprocess.digest(), "journals pin the backend");
        assert_eq!(base.findings_digest(), subprocess.findings_digest());
        let deadline = base.clone().with_deadline(std::time::Duration::ZERO);
        assert_ne!(base.findings_digest(), deadline.findings_digest());
    }

    #[test]
    fn ablation_builders_flip_exactly_one_flag() {
        let base = FragDroidConfig::default();
        let no_refl = base.clone().without_reflection();
        assert!(!no_refl.use_reflection && no_refl.force_start_phase && no_refl.use_input_deps);
        let no_force = base.clone().without_force_start();
        assert!(no_force.use_reflection && !no_force.force_start_phase);
        let no_inputs = base.without_input_deps();
        assert!(!no_inputs.use_input_deps && no_inputs.use_reflection);
    }
}
