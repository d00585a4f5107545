//! FragDroid — automated UI interaction with Activity *and* Fragment
//! analysis (the paper's primary contribution).
//!
//! The tool runs in two phases, mirroring Fig. 4:
//!
//! 1. **Static Information Extraction** (`fd-static`): the initial AFTM,
//!    the Activity & Fragment dependency, the resource dependency and the
//!    input dependency are extracted from the decompiled app, and the
//!    manifest is rewritten so every activity can be force-started.
//! 2. **Evolutionary Test Case Generation** (this crate): a UI transition
//!    queue is initialized from the AFTM by breadth-first search; each
//!    item is compiled to a Robotium-style [`fd_droidsim::TestScript`] and
//!    executed; the [`driver`] observes the resulting fragment-level UI
//!    states, updates the AFTM with every newly seen transition, enqueues
//!    newly discovered states, injects reflection-based switches for
//!    dependent fragments (Case 1/2), sweeps every settled interface's
//!    clickable widgets (Case 3), and finally force-starts the activities
//!    normal interaction never reached. The loop ends when the queue is
//!    empty and the AFTM stops changing.
//!
//! # Example
//!
//! ```
//! use fragdroid::{FragDroid, FragDroidConfig};
//!
//! let gen = fd_appgen::templates::quickstart();
//! let report = FragDroid::new(FragDroidConfig::default())
//!     .run(&gen.app, &gen.known_inputs);
//! assert_eq!(report.activity_coverage().visited, 3);
//! ```

pub mod checkpoint;
pub mod codegen;
pub mod config;
pub mod dispatch;
pub mod driver;
mod durable_log;
mod health;
#[cfg(test)]
mod journal_fixtures;
pub mod pool;
pub mod queue;
pub mod report;
pub mod serve;
pub mod shard;
pub mod suite;

pub use checkpoint::{
    load_journal, run_corpus_suite_checkpointed, CheckpointOptions, CheckpointedSuite, Fingerprint,
    FlakeClass, FlakeRecord, FlakeSummary, JournalError, LoadedJournal,
};
pub use config::FragDroidConfig;
pub use dispatch::{
    decode_dispatch_line, demo_dispatch_journal, dispatch, parse_dispatch_journal, DispatchError,
    DispatchJournal, DispatchOptions, DispatchRun, DispatchSummary, WorkerStat,
    DISPATCH_JOURNAL_VERSION,
};
pub use driver::FragDroid;
pub use pool::{build_backend, DeviceFactory, DevicePool};
pub use queue::{QueueItem, UiQueue};
pub use report::{Coverage, CrashReport, CrashSignature, DeviceErrorStats, RunReport};
pub use serve::{
    request_once, serve, serve_listener, AnyStream, ChaosConfig, ChaosStream, ClientError,
    JobOutcome, ListenAddr, ServeError, ServeIncidents, ServeListener, ServeOptions, ServeRequest,
    ServeResponse, ServeSummary, SubmitClient,
};
pub use shard::{
    merge_shards, run_shard, shard_journal_path, shard_range, MergedRun, ShardError, ShardSlice,
    ShardStat,
};
pub use suite::{
    run_corpus_suite_pooled, run_corpus_suite_traced, AppMetrics, AppOutcome, CorpusSource, Suite,
    SuiteMetrics, SuiteRun,
};
