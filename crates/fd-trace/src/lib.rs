//! `fd-trace` — low-overhead structured tracing & profiling for the
//! FragDroid pipeline.
//!
//! The model is deliberately small:
//!
//! * **Spans** ([`Span`], emitted as [`SpanRecord`]) bracket a phase of
//!   work with wall-clock *and* simulated-device timestamps at enter and
//!   exit. They nest freely; a span is recorded when its guard drops.
//! * **Typed events** ([`TraceEvent`]) mark instants: a dispatched UI
//!   event, an injected fault, a retry, a crash, a recovery, a newly
//!   discovered transition.
//! * **Counters** accumulate per tracer and flush as [`CounterRecord`]s
//!   at drain time.
//!
//! Each worker thread owns its own [`Tracer`] writing into a private,
//! bounded [`ring::RingBuffer`] — the hot path takes no locks and
//! allocates only for record payloads. Overflow evicts the *oldest*
//! record and bumps an explicit drop counter that survives into the
//! drained trace, so a truncated trace is always visibly truncated.
//!
//! A disabled tracer ([`Tracer::disabled`], or any tracer built from
//! [`TraceConfig::off`]) is a true no-op: every method returns before
//! touching a buffer, event payload closures are never invoked, and runs
//! produce byte-identical reports to untraced ones (property-tested in
//! `fragdroid`).
//!
//! Drained [`TrackTrace`]s merge into a [`Trace`], which serializes to
//! two sinks: JSON Lines ([`Trace::to_jsonl`]) for machine analysis and
//! `fd-cli trace`, and Chrome `trace_event` JSON
//! ([`chrome::to_chrome_json`]) for `chrome://tracing` / Perfetto.
//!
//! ```
//! use fd_trace::{Phase, Tracer, TraceClock, TraceConfig, TraceEvent, Trace};
//!
//! let tracer = Tracer::new(&TraceConfig::on(), TraceClock::start(), 0);
//! {
//!     let _span = tracer.span(Phase::Explore, "demo");
//!     tracer.event(|| TraceEvent::EventDispatched { op: "click".into() });
//!     tracer.count("events_dispatched", 1);
//! }
//! let mut trace = Trace::new("example");
//! trace.absorb(tracer.finish());
//! let parsed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
//! assert_eq!(parsed.records, trace.records);
//! ```

pub mod chrome;
pub mod model;
pub mod ring;
pub mod summary;

pub use model::{
    CounterRecord, DroppedRecord, EventRecord, MetaRecord, Phase, SpanRecord, Trace, TraceEvent,
    TraceRecord, TrackTrace, TRACE_VERSION,
};
pub use summary::{TimelineEntry, TraceSummary};

use ring::RingBuffer;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Default per-tracer ring capacity, in records. At roughly a hundred
/// bytes a record this bounds a worker's trace memory to a few MiB.
pub const DEFAULT_CAPACITY: usize = 32_768;

/// Whether and how to trace a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether tracing is on. Off means every tracer built from this
    /// config is a no-op.
    pub enabled: bool,
    /// Ring capacity per tracer (records). Overflow drops oldest.
    pub capacity: usize,
}

impl TraceConfig {
    /// Tracing off — the no-op config ([`Default`]).
    pub fn off() -> Self {
        TraceConfig { enabled: false, capacity: 0 }
    }

    /// Tracing on with [`DEFAULT_CAPACITY`].
    pub fn on() -> Self {
        TraceConfig { enabled: true, capacity: DEFAULT_CAPACITY }
    }

    /// Overrides the per-tracer ring capacity (builder style).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// The trace's wall-clock epoch. `Copy`, so the suite can hand the same
/// epoch to every worker and all tracks share one timeline.
#[derive(Clone, Copy, Debug)]
pub struct TraceClock {
    epoch: Instant,
}

impl TraceClock {
    /// An epoch anchored at "now".
    pub fn start() -> Self {
        TraceClock { epoch: Instant::now() }
    }

    /// Microseconds elapsed since the epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

struct TracerInner {
    clock: TraceClock,
    track: u64,
    buf: RefCell<RingBuffer>,
    counters: RefCell<BTreeMap<&'static str, u64>>,
    sim: Cell<u64>,
}

/// A per-worker trace collector. Cheap to pass by reference through the
/// pipeline; a disabled tracer no-ops everywhere. Not `Send`: every
/// worker builds its own from a shared [`TraceConfig`] + [`TraceClock`].
pub struct Tracer {
    inner: Option<Rc<TracerInner>>,
}

impl Tracer {
    /// A tracer for worker lane `track`. With `config.enabled == false`
    /// this is exactly [`Tracer::disabled`].
    pub fn new(config: &TraceConfig, clock: TraceClock, track: u64) -> Self {
        if !config.enabled {
            return Tracer::disabled();
        }
        Tracer {
            inner: Some(Rc::new(TracerInner {
                clock,
                track,
                buf: RefCell::new(RingBuffer::new(config.capacity)),
                counters: RefCell::new(BTreeMap::new()),
                sim: Cell::new(0),
            })),
        }
    }

    /// The no-op tracer: records nothing, never invokes event closures.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Updates the simulated-device clock attached to subsequent records.
    pub fn set_sim_clock(&self, ticks: u64) {
        if let Some(inner) = &self.inner {
            inner.sim.set(ticks);
        }
    }

    /// Opens a span; it is recorded (with both enter and exit
    /// timestamps) when the returned guard drops.
    pub fn span(&self, phase: Phase, name: &str) -> Span {
        let Some(inner) = &self.inner else { return Span { state: None } };
        Span {
            state: Some(SpanState {
                inner: Rc::clone(inner),
                phase,
                name: name.to_string(),
                wall_start_us: inner.clock.now_us(),
                sim_start: inner.sim.get(),
            }),
        }
    }

    /// Records a typed instant event. The payload closure runs only when
    /// tracing is enabled, so call sites pay nothing when it is off.
    pub fn event(&self, build: impl FnOnce() -> TraceEvent) {
        let Some(inner) = &self.inner else { return };
        let record = TraceRecord::Event(EventRecord {
            track: inner.track,
            wall_us: inner.clock.now_us(),
            sim: inner.sim.get(),
            event: build(),
        });
        inner.buf.borrow_mut().push(record);
    }

    /// Adds `delta` to the named counter (flushed at [`Tracer::finish`]).
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            *inner.counters.borrow_mut().entry(name).or_insert(0) += delta;
        }
    }

    /// Drains the tracer into its track's records. Counters flush as
    /// [`CounterRecord`]s; ring overflow surfaces as
    /// [`TrackTrace::dropped`]. Live [`Span`] guards (if any) are
    /// abandoned: their records are simply not in this drain.
    pub fn finish(self) -> TrackTrace {
        let Some(inner) = self.inner else { return TrackTrace::default() };
        let track = inner.track;
        let counters: Vec<(String, u64)> = inner
            .counters
            .borrow()
            .iter()
            .map(|(name, value)| (name.to_string(), *value))
            .collect();
        let mut buf = inner.buf.borrow_mut();
        for (name, value) in counters {
            buf.push(TraceRecord::Counter(CounterRecord { track, name, value }));
        }
        let ring = std::mem::replace(&mut *buf, RingBuffer::new(0));
        drop(buf);
        let (records, dropped) = ring.into_parts();
        TrackTrace { track, records, dropped }
    }
}

struct SpanState {
    inner: Rc<TracerInner>,
    phase: Phase,
    name: String,
    wall_start_us: u64,
    sim_start: u64,
}

/// RAII guard returned by [`Tracer::span`]; emits the [`SpanRecord`] on
/// drop. A guard from a disabled tracer does nothing.
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}

    /// Renames the open span — for spans opened before their subject's
    /// name is known (an app span opened before its container decodes).
    pub fn rename(&mut self, name: &str) {
        if let Some(state) = &mut self.state {
            state.name = name.to_string();
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        let wall_end_us = state.inner.clock.now_us();
        let record = TraceRecord::Span(SpanRecord {
            track: state.inner.track,
            phase: state.phase,
            name: state.name,
            wall_start_us: state.wall_start_us,
            wall_dur_us: wall_end_us.saturating_sub(state.wall_start_us),
            sim_start: state.sim_start,
            sim_end: state.inner.sim.get(),
        });
        state.inner.buf.borrow_mut().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_true_noop() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let _span = tracer.span(Phase::Explore, "nope");
        tracer.event(|| unreachable!("payload closure must not run when disabled"));
        tracer.count("x", 1);
        tracer.set_sim_clock(99);
        drop(_span);
        let track = tracer.finish();
        assert!(track.records.is_empty());
        assert_eq!(track.dropped, 0);
    }

    #[test]
    fn spans_carry_wall_and_sim_timestamps() {
        let tracer = Tracer::new(&TraceConfig::on(), TraceClock::start(), 3);
        tracer.set_sim_clock(10);
        {
            let mut span = tracer.span(Phase::Static, "pending");
            tracer.set_sim_clock(25);
            span.rename("extract");
        }
        let track = tracer.finish();
        assert_eq!(track.track, 3);
        let TraceRecord::Span(span) = &track.records[0] else { panic!("expected span") };
        assert_eq!(span.phase, Phase::Static);
        assert_eq!(span.name, "extract");
        assert_eq!(span.sim_start, 10);
        assert_eq!(span.sim_end, 25);
        assert!(span.wall_start_us <= span.wall_start_us + span.wall_dur_us);
    }

    #[test]
    fn counters_flush_at_finish() {
        let tracer = Tracer::new(&TraceConfig::on(), TraceClock::start(), 0);
        tracer.count("events", 2);
        tracer.count("events", 3);
        tracer.count("faults", 1);
        let track = tracer.finish();
        let counters: Vec<(&str, u64)> = track
            .records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Counter(c) => Some((c.name.as_str(), c.value)),
                _ => None,
            })
            .collect();
        assert_eq!(counters, vec![("events", 5), ("faults", 1)]);
    }
}
