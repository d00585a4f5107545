//! Integration tests: JSONL and Chrome sinks round-trip a real tracer's
//! output; overflow and summary semantics hold end to end.

use fd_trace::{
    chrome, Phase, Trace, TraceClock, TraceConfig, TraceEvent, TraceRecord, TraceSummary, Tracer,
};

/// A small but representative trace: two tracks with spans, events, and
/// counters, one of them overflowing.
fn sample_trace() -> Trace {
    let clock = TraceClock::start();
    let config = TraceConfig::on();

    let worker0 = Tracer::new(&config, clock, 0);
    {
        let _app = worker0.span(Phase::App, "com.example.alpha");
        {
            let _s = worker0.span(Phase::Static, "extract");
            let _p = worker0.span(Phase::StaticPass, "aftm-init");
        }
        let _e = worker0.span(Phase::Explore, "explore");
        worker0.set_sim_clock(40);
        worker0.event(|| TraceEvent::EventDispatched { op: "click".into() });
        worker0.event(|| TraceEvent::NewActivity { name: "com.example.alpha.Main".into() });
        worker0.event(|| TraceEvent::TransitionDiscovered {
            from: "com.example.alpha.Main".into(),
            to: "com.example.alpha.Detail".into(),
        });
        worker0.count("events_dispatched", 1);
    }

    let worker1 = Tracer::new(&config, clock, 1);
    {
        let _app = worker1.span(Phase::App, "com.example.beta");
        worker1.event(|| TraceEvent::FaultInjected { kind: "drop-event".into() });
        worker1.event(|| TraceEvent::Retry { attempt: 1 });
        worker1.event(|| TraceEvent::Crash {
            activity: "com.example.beta.Main".into(),
            reason: "NullPointerException".into(),
        });
        worker1.event(|| TraceEvent::Recovery { recovered: true });
    }

    let mut trace = Trace::new("fd-trace tests");
    trace.absorb(worker0.finish());
    trace.absorb(worker1.finish());
    trace
}

#[test]
fn jsonl_roundtrip_is_lossless() {
    let trace = sample_trace();
    let jsonl = trace.to_jsonl();
    assert!(jsonl.lines().count() > 5, "one record per line");
    let parsed = Trace::from_jsonl(&jsonl).expect("well-formed jsonl parses");
    assert_eq!(parsed.meta, trace.meta);
    assert_eq!(parsed.records, trace.records);
}

#[test]
fn malformed_jsonl_line_is_an_error_with_line_number() {
    let mut jsonl = sample_trace().to_jsonl();
    jsonl.push_str("{ not json\n");
    let err = Trace::from_jsonl(&jsonl).expect_err("bad line rejected");
    assert!(err.contains("trace line"), "error names the line: {err}");
}

#[test]
fn chrome_export_is_valid_trace_event_json() {
    let trace = sample_trace();
    let chrome_json = chrome::to_chrome_json(&trace);
    let value: serde_json::Value = serde_json::from_str(&chrome_json).expect("valid JSON");
    let num_u64 = |v: &serde_json::Value| match v {
        serde_json::Value::Number(n) => n.as_u64(),
        _ => None,
    };
    let root = value.as_object().expect("object root");
    let events = root.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert!(!events.is_empty());
    let mut complete = 0usize;
    let mut instants = 0usize;
    for event in events {
        let obj = event.as_object().expect("event object");
        let ph = obj.get("ph").and_then(|v| v.as_str()).expect("ph field");
        match ph {
            "X" => {
                complete += 1;
                assert!(obj.get("ts").and_then(&num_u64).is_some(), "X has ts");
                assert!(obj.get("dur").and_then(&num_u64).is_some(), "X has dur");
                assert!(obj.get("tid").and_then(&num_u64).is_some(), "X has tid");
                assert!(obj.get("cat").and_then(|v| v.as_str()).is_some(), "X has cat");
            }
            "i" => {
                instants += 1;
                assert!(obj.get("ts").and_then(&num_u64).is_some(), "i has ts");
            }
            "M" => {}
            other => panic!("unexpected phase {other}"),
        }
        assert!(obj.get("name").is_some());
    }
    assert_eq!(complete, 5, "every span becomes one complete event");
    assert_eq!(instants, 7, "every typed event becomes one instant");
}

#[test]
fn ring_overflow_surfaces_as_dropped_record() {
    let clock = TraceClock::start();
    let config = TraceConfig::on().with_capacity(8);
    let tracer = Tracer::new(&config, clock, 5);
    for i in 0..100u64 {
        tracer.event(|| TraceEvent::Retry { attempt: i });
    }
    let track = tracer.finish();
    // 100 events + 0 counters into capacity 8.
    assert_eq!(track.records.len(), 8);
    assert_eq!(track.dropped, 92);
    // Oldest-dropped: the survivors are the newest attempts.
    let first_kept = track
        .records
        .iter()
        .find_map(|r| match r {
            TraceRecord::Event(e) => match &e.event {
                TraceEvent::Retry { attempt } => Some(*attempt),
                _ => None,
            },
            _ => None,
        })
        .expect("an event survived");
    assert_eq!(first_kept, 92);

    let mut trace = Trace::new("overflow");
    trace.absorb(track);
    assert_eq!(trace.total_dropped(), 92);
    let parsed = Trace::from_jsonl(&trace.to_jsonl()).expect("parses");
    assert_eq!(parsed.total_dropped(), 92);
}

#[test]
fn summary_aggregates_phases_events_and_tops() {
    let trace = sample_trace();
    let summary = TraceSummary::compute(&trace);
    assert_eq!(summary.process, "fd-trace tests");
    assert_eq!(summary.spans, 5);
    assert_eq!(summary.events, 7);
    assert_eq!(summary.events_dispatched, 1);
    assert_eq!(summary.faults, 1);
    assert_eq!(summary.retries, 1);
    assert_eq!(summary.crashes, 1);
    assert_eq!(summary.recoveries, 1);
    assert_eq!(summary.slowest_apps.len(), 2);
    assert!(summary.phase_totals_us.contains_key("static"));
    assert!(summary.phase_totals_us.contains_key("app"));
    // Of these phases only static and explore are top-level.
    let top_level = summary.phase_totals_us["static"] + summary.phase_totals_us["explore"];
    assert_eq!(summary.top_level_phase_total_us(), top_level);
    // Hottest activities merge first-visits and transition destinations.
    assert!(summary
        .hottest_activities
        .iter()
        .any(|(name, hits)| name == "com.example.alpha.Detail" && *hits == 1));
    // The fault/retry/crash/recovery stream lands on the timeline in order.
    assert_eq!(summary.timeline.len(), 4);
    assert!(summary.timeline.windows(2).all(|w| w[0].wall_us <= w[1].wall_us));
    // Render never panics and mentions the headline numbers.
    let text = summary.render();
    assert!(text.contains("per-phase wall time"));
    assert!(text.contains("slowest apps"));

    // The summary itself round-trips through JSON (used by --json).
    let json = serde_json::to_string(&summary).expect("summary serializes");
    let back: TraceSummary = serde_json::from_str(&json).expect("summary parses");
    assert_eq!(back, summary);
}

/// `Phase::ALL` lists each phase once, in declaration order, with no gap.
#[test]
fn phase_all_lists_every_phase_in_declaration_order() {
    for (index, phase) in Phase::ALL.iter().enumerate() {
        assert_eq!(*phase as usize, index, "{phase}");
    }
}
