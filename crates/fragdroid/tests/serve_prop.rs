//! The serve service's load-bearing promises, property-tested:
//!
//! * under *any* seeded chaos schedule (torn frames, shredded writes,
//!   stalls, duplicated requests, mid-job disconnects) a submitted job
//!   still ends as the byte-identical report a clean transport gets —
//!   or a typed error — and the server neither hangs nor leaks
//!   connection slots;
//! * a job journal truncated at *any* byte offset (a crash torn-write)
//!   recovers: completed jobs are served byte-identically, chopped-off
//!   jobs re-run through idempotent resubmission to the same bytes, and
//!   no job is ever executed twice under its (id, digest) key.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fd_droidsim::proto::to_hex;
use fragdroid::{
    request_once, serve_listener, ChaosConfig, JobOutcome, ListenAddr, ServeListener, ServeOptions,
    ServeRequest, ServeResponse, ServeSummary, SubmitClient,
};

fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fd-serve-prop-{}-{name}-{n}", std::process::id()))
}

fn quickstart() -> (String, BTreeMap<String, String>) {
    let gen = fd_appgen::templates::quickstart();
    (to_hex(&fd_apk::pack(&gen.app)), gen.known_inputs)
}

/// Binds a fresh loopback server and runs it on a background thread.
fn spawn_server(options: ServeOptions) -> (ListenAddr, std::thread::JoinHandle<ServeSummary>) {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
            .expect("server runs to clean shutdown")
    });
    (addr, handle)
}

/// Asks the server to shut down (clean transport) and joins it.
fn shutdown(addr: &ListenAddr, handle: std::thread::JoinHandle<ServeSummary>) -> ServeSummary {
    let reply = request_once(addr, ServeRequest::Shutdown, Duration::from_secs(60));
    assert_eq!(reply, Ok(ServeResponse::Bye));
    handle.join().expect("server thread does not panic")
}

mod chaos_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// For any chaos seed: the chaotic submission lands the report
        /// byte-identical to a clean one, an idempotent resubmission
        /// does not re-run the job, and every connection slot the chaos
        /// opened is released by the time the server drains.
        #[test]
        fn any_schedule_settles_byte_identically(seed in 0u64..1_000_000) {
            let (hex, inputs) = quickstart();
            let (addr, handle) = spawn_server(ServeOptions::default());

            let mut clean = SubmitClient::new(addr.clone());
            let baseline = clean.submit(1, &hex, &inputs).expect("clean run settles");
            prop_assert!(matches!(baseline, JobOutcome::Report { .. }));

            let mut chaotic = SubmitClient::new(addr.clone())
                .with_chaos(ChaosConfig::from_seed(seed))
                .with_max_attempts(64)
                .with_deadline(Duration::from_secs(120));
            let outcome = chaotic.submit(2, &hex, &inputs).expect("chaos run settles");
            prop_assert_eq!(&outcome, &baseline, "chaos must not change the report bytes");

            // Idempotent resubmission of the settled job — clean
            // transport, same id and content — replays the stored
            // report instead of running the app again.
            let replay = clean.submit(2, &hex, &inputs).expect("resubmit settles");
            prop_assert_eq!(&replay, &baseline);

            let summary = shutdown(&addr, handle);
            let i = &summary.incidents;
            prop_assert_eq!(i.jobs_completed, 2, "dedup prevented any re-execution");
            prop_assert!(i.resubmits_deduped >= 1);
            prop_assert_eq!(
                i.connections_opened, i.connections_closed,
                "no leaked connection slots (opened {} closed {})",
                i.connections_opened, i.connections_closed
            );
            prop_assert_eq!(i.journal_errors, 0);
        }
    }
}

mod journal_truncation {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Life 1 completes three jobs against a journal; the journal is
        /// then truncated at an arbitrary byte offset past the header (a
        /// crash torn-write). Life 2 must recover: any job whose
        /// Completed record survived is served byte-identically from the
        /// journal, and every chopped-off job re-runs through idempotent
        /// resubmission to the same bytes.
        #[test]
        fn any_truncation_point_recovers(cut in 0.0f64..1.0) {
            let (hex, inputs) = quickstart();
            let journal = scratch("trunc.journal");
            let _ = std::fs::remove_file(&journal);

            // Life 1: three distinct jobs, all completed and durable.
            let options =
                ServeOptions { journal: Some(journal.clone()), ..ServeOptions::default() };
            let (addr, handle) = spawn_server(options.clone());
            let mut client = SubmitClient::new(addr.clone());
            let mut reports = Vec::new();
            for job in 1u64..=3 {
                reports.push(client.submit(job, &hex, &inputs).expect("life-1 job settles"));
            }
            let life1 = shutdown(&addr, handle);
            prop_assert_eq!(life1.incidents.jobs_completed, 3);

            // The crash: chop the journal at an arbitrary offset after
            // the header line (the fingerprint must stay readable — a
            // corrupt header is a refused journal, which the unit tests
            // cover separately).
            let bytes = std::fs::read(&journal).expect("journal readable");
            let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
            let cut_at = header_end
                + ((bytes.len() - header_end) as f64 * cut) as usize;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&journal)
                .expect("reopen journal")
                .set_len(cut_at as u64)
                .expect("truncate journal");

            // Life 2: recover, then drive every job back to its bytes.
            let (addr, handle) = spawn_server(options);
            let mut client = SubmitClient::new(addr.clone());
            for (job, expected) in (1u64..=3).zip(&reports) {
                let outcome = client.submit(job, &hex, &inputs).expect("life-2 job settles");
                prop_assert_eq!(
                    &outcome, expected,
                    "job {} must come back byte-identical after the crash", job
                );
            }
            let life2 = shutdown(&addr, handle);
            prop_assert_eq!(life2.incidents.journal_errors, 0);
            // Every job either survived the cut (recovered) or re-ran;
            // between them the three ids are fully accounted for.
            let i = &life2.incidents;
            prop_assert!(
                i.jobs_recovered + i.jobs_completed >= 3,
                "recovered {} + completed {} must cover the 3 jobs",
                i.jobs_recovered, i.jobs_completed
            );

            let _ = std::fs::remove_file(&journal);
        }
    }
}
