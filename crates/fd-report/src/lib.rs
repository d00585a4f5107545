//! Experiment orchestration and report rendering.
//!
//! One module per experiment of the paper's §VII:
//!
//! * [`study`] — the 217-app corpus study ("91% of apps use Fragments");
//! * [`table1`] — coverage of Activities and Fragments on the 15
//!   evaluation apps;
//! * [`table2`] — the sensitive-operations detection matrix with the
//!   paper's ● (activity) / ◗ (fragment) / ⊙ (both) marks;
//! * [`comparison`] — FragDroid vs Monkey vs activity-level MBT vs
//!   depth-first exploration (the §IX positioning, quantified);
//! * [`table`] — a small plain-text table renderer shared by all of them;
//! * [`shards`] — the per-shard breakdown of a merged multi-shard run;
//! * [`serve`] — the incident summary a socket `fragdroid serve` prints
//!   when it drains and exits;
//! * [`dispatch`] — Table 1 rendered straight from a merged farm run,
//!   plus the coordinator's per-worker appendix.

pub mod comparison;
pub mod dispatch;
pub mod serve;
pub mod shards;
pub mod study;
pub mod table;
pub mod table1;
pub mod table2;

pub use comparison::{compare_tools, ComparisonRow};
pub use dispatch::{render_dispatch_summary, table1_rows_from_run};
pub use serve::render_serve_incidents;
pub use shards::render_shard_merge;
pub use study::{corpus_study, StudyResult};
pub use table1::{
    render_rejections, render_table1, run_table1, run_table1_full, Table1Row, Table1Run,
    PAPER_TABLE1,
};
pub use table2::{build_table2, render_table2, Mark, Table2};
