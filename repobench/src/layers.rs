//! Bench-side instruments installed through the program's public hooks:
//! a [`CorpusSource`] decorator that stamps `CorpusReader::fetch` calls
//! and a [`DeviceApi`] decorator installed with `DevicePool::with_factory`
//! that times every device call. Nothing inside the program changes.

use fd_apk::corpus::CorpusReader;
use fd_apk::AndroidApp;
use fd_droidsim::{
    ApiInvocation, DeviceApi, DeviceConfig, DeviceError, EventOutcome, FaultLog, FaultRecord,
    ScreenObservation, UiSignature, VisibleWidget,
};
use fragdroid::suite::SuiteContainer;
use fragdroid::{CorpusSource, DevicePool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Calls into one layer and the wall time they took.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Time inside those calls, nanoseconds.
    pub busy_ns: u64,
}

impl Tally {
    /// Adds one call of `took`.
    pub fn add(&mut self, took: Duration) {
        self.calls += 1;
        self.busy_ns += took.as_nanos() as u64;
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
    }

    /// Busy time in microseconds.
    pub fn busy_us(&self) -> f64 {
        self.busy_ns as f64 / 1000.0
    }
}

/// A [`Tally`] that device and worker threads update concurrently.
/// Relaxed ordering: the counters publish nothing else, and readers
/// only look after the writing lane has finished its app.
#[derive(Debug, Default)]
pub struct SharedTally {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl SharedTally {
    fn add(&self, took: Duration) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The current totals.
    pub fn get(&self) -> Tally {
        Tally {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// The droidsim call families the benchmark reports.
#[derive(Debug, Default)]
pub struct DeviceTallies {
    /// `install_app` and `reset`: putting an app on the device.
    pub install: SharedTally,
    /// Every UI event and clock/permission mutation the driver injects.
    pub inject: SharedTally,
    /// Screen, widget, crash, monitor and fault-log reads.
    pub observe: SharedTally,
    /// The pool's lease health check, which runs outside the driver.
    pub ping: SharedTally,
}

/// A point-in-time copy of [`DeviceTallies`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceSnapshot {
    /// See [`DeviceTallies::install`].
    pub install: Tally,
    /// See [`DeviceTallies::inject`].
    pub inject: Tally,
    /// See [`DeviceTallies::observe`].
    pub observe: Tally,
    /// See [`DeviceTallies::ping`].
    pub ping: Tally,
}

impl DeviceTallies {
    /// Copies the counters.
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            install: self.install.get(),
            inject: self.inject.get(),
            observe: self.observe.get(),
            ping: self.ping.get(),
        }
    }
}

impl DeviceSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &DeviceSnapshot) -> DeviceSnapshot {
        let d =
            |a: Tally, b: Tally| Tally { calls: a.calls - b.calls, busy_ns: a.busy_ns - b.busy_ns };
        DeviceSnapshot {
            install: d(self.install, earlier.install),
            inject: d(self.inject, earlier.inject),
            observe: d(self.observe, earlier.observe),
            ping: d(self.ping, earlier.ping),
        }
    }

    /// Adds another snapshot's counters.
    pub fn merge(&mut self, other: &DeviceSnapshot) {
        self.install.merge(other.install);
        self.inject.merge(other.inject);
        self.observe.merge(other.observe);
        self.ping.merge(other.ping);
    }

    /// Time the driver spent inside device calls (everything but ping).
    pub fn driver_busy_ns(&self) -> u64 {
        self.install.busy_ns + self.inject.busy_ns + self.observe.busy_ns
    }
}

/// Times every [`DeviceApi`] call it forwards to the in-process device.
pub struct TimedDevice {
    inner: Box<dyn DeviceApi>,
    tallies: Arc<DeviceTallies>,
}

impl TimedDevice {
    fn timed<T>(
        &mut self,
        family: fn(&DeviceTallies) -> &SharedTally,
        call: impl FnOnce(&mut dyn DeviceApi) -> T,
    ) -> T {
        let started = Instant::now();
        let out = call(self.inner.as_mut());
        family(&self.tallies).add(started.elapsed());
        out
    }
}

fn install(t: &DeviceTallies) -> &SharedTally {
    &t.install
}
fn inject(t: &DeviceTallies) -> &SharedTally {
    &t.inject
}
fn observe(t: &DeviceTallies) -> &SharedTally {
    &t.observe
}
fn ping(t: &DeviceTallies) -> &SharedTally {
    &t.ping
}

impl DeviceApi for TimedDevice {
    fn install_app(&mut self, app: &AndroidApp, config: DeviceConfig) -> Result<(), DeviceError> {
        self.timed(install, |d| d.install_app(app, config))
    }
    fn launch(&mut self) -> Result<EventOutcome, DeviceError> {
        self.timed(inject, |d| d.launch())
    }
    fn am_start(&mut self, component: &str) -> Result<EventOutcome, DeviceError> {
        self.timed(inject, |d| d.am_start(component))
    }
    fn click(&mut self, id: &str) -> Result<EventOutcome, DeviceError> {
        self.timed(inject, |d| d.click(id))
    }
    fn enter_text(&mut self, id: &str, text: &str) -> Result<(), DeviceError> {
        self.timed(inject, |d| d.enter_text(id, text))
    }
    fn dismiss_overlay(&mut self) -> Result<EventOutcome, DeviceError> {
        self.timed(inject, |d| d.dismiss_overlay())
    }
    fn back(&mut self) -> Result<EventOutcome, DeviceError> {
        self.timed(inject, |d| d.back())
    }
    fn swipe_open_drawer(&mut self) -> Result<EventOutcome, DeviceError> {
        self.timed(inject, |d| d.swipe_open_drawer())
    }
    fn reflect_switch_fragment(&mut self, fragment: &str) -> Result<EventOutcome, DeviceError> {
        self.timed(inject, |d| d.reflect_switch_fragment(fragment))
    }
    fn observe(&mut self) -> Result<Option<ScreenObservation>, DeviceError> {
        self.timed(observe, |d| d.observe())
    }
    fn signature(&mut self) -> Result<Option<UiSignature>, DeviceError> {
        self.timed(observe, |d| d.signature())
    }
    fn visible_widgets(&mut self) -> Result<Vec<VisibleWidget>, DeviceError> {
        self.timed(observe, |d| d.visible_widgets())
    }
    fn stack_depth(&mut self) -> Result<usize, DeviceError> {
        self.timed(observe, |d| d.stack_depth())
    }
    fn is_crashed(&mut self) -> Result<bool, DeviceError> {
        self.timed(observe, |d| d.is_crashed())
    }
    fn crash_site(&mut self) -> Result<Option<UiSignature>, DeviceError> {
        self.timed(observe, |d| d.crash_site())
    }
    fn invocations(&mut self) -> Result<Vec<ApiInvocation>, DeviceError> {
        self.timed(observe, |d| d.invocations())
    }
    fn fault_records_since(&mut self, from: usize) -> Result<Vec<FaultRecord>, DeviceError> {
        self.timed(observe, |d| d.fault_records_since(from))
    }
    fn fault_log(&mut self) -> Result<FaultLog, DeviceError> {
        self.timed(observe, |d| d.fault_log())
    }
    fn faults_injected(&mut self) -> Result<usize, DeviceError> {
        self.timed(observe, |d| d.faults_injected())
    }
    fn clock(&mut self) -> Result<u64, DeviceError> {
        self.timed(observe, |d| d.clock())
    }
    fn advance_clock(&mut self, ticks: u64) -> Result<(), DeviceError> {
        self.timed(inject, |d| d.advance_clock(ticks))
    }
    fn reset(&mut self) -> Result<(), DeviceError> {
        self.timed(install, |d| d.reset())
    }
    fn grant(&mut self, permission: &str) -> Result<(), DeviceError> {
        self.timed(inject, |d| d.grant(permission))
    }
    fn revoke(&mut self, permission: &str) -> Result<(), DeviceError> {
        self.timed(inject, |d| d.revoke(permission))
    }
    fn ping(&mut self) -> Result<(), DeviceError> {
        self.timed(ping, |d| d.ping())
    }
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// A pool of in-process devices wrapped in [`TimedDevice`], one tally
/// set per lane (a lane is only ever used by one worker at a time).
pub fn timed_pool(lanes: usize) -> (DevicePool, Vec<Arc<DeviceTallies>>) {
    let tallies: Vec<Arc<DeviceTallies>> = (0..lanes).map(|_| Arc::default()).collect();
    let shared = tallies.clone();
    let pool = DevicePool::with_factory(
        lanes,
        Box::new(move |lane, _generation| {
            Box::new(TimedDevice {
                inner: fragdroid::build_backend(fd_droidsim::DeviceBackend::InProcess),
                tallies: shared[lane % shared.len()].clone(),
            })
        }),
    );
    (pool, tallies)
}

/// Wraps a corpus reader and stamps when each worker thread fetches an
/// entry, so per-app settle times can be read off each worker's fetch
/// sequence. Fetches from the thread that built the source (corpus
/// fingerprinting before the workers start) are not stamped.
pub struct StampedSource<'a> {
    inner: &'a CorpusReader,
    owner: ThreadId,
    stamps: Mutex<Vec<(ThreadId, Instant)>>,
}

impl<'a> StampedSource<'a> {
    /// A decorator around `inner`, owned by the calling thread.
    pub fn new(inner: &'a CorpusReader) -> Self {
        StampedSource { inner, owner: std::thread::current().id(), stamps: Mutex::new(Vec::new()) }
    }

    /// Per-app settle times in milliseconds: for each worker thread, the
    /// gap between consecutive fetches, and from its last fetch to
    /// `end`. Clears the stamps.
    pub fn settle_times_ms(&self, end: Instant) -> Vec<f64> {
        let stamps = std::mem::take(&mut *self.stamps.lock().expect("stamp lock poisoned"));
        let mut by_thread: HashMap<ThreadId, Vec<Instant>> = HashMap::new();
        for (thread, at) in stamps {
            by_thread.entry(thread).or_default().push(at);
        }
        let mut out = Vec::new();
        for mut starts in by_thread.into_values() {
            starts.sort();
            let ends = starts.iter().skip(1).copied().chain(std::iter::once(end));
            for (start, next) in starts.iter().zip(ends) {
                out.push(next.saturating_duration_since(*start).as_secs_f64() * 1e3);
            }
        }
        out
    }
}

impl CorpusSource for StampedSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        let thread = std::thread::current().id();
        if thread != self.owner {
            self.stamps.lock().expect("stamp lock poisoned").push((thread, Instant::now()));
        }
        CorpusSource::fetch(self.inner, index)
    }

    fn digest(&self) -> Result<u64, String> {
        CorpusSource::digest(self.inner)
    }
}
