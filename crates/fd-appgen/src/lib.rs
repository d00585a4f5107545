//! Synthetic Android app generation for the FragDroid reproduction.
//!
//! The paper evaluates on real Google-Play apps; those are not available
//! to a pure-Rust reproduction, so this crate manufactures apps with the
//! same *structural* properties:
//!
//! * [`builder`] — a declarative [`AppBuilder`]:
//!   activities with navigation drawers, tab strips, login/search gates,
//!   dialogs, action-bar popups, intent links, fragments with their own
//!   buttons and sensitive-API calls. The builder emits complete
//!   [`fd_apk::AndroidApp`]s (manifest + smali classes + layouts) that the
//!   `fd-droidsim` device executes and `fd-static` analyses.
//! * [`templates`] — canned apps reproducing the paper's motivating
//!   figures (the Fig. 1 tab switcher, the Fig. 2 hidden-drawer gallery)
//!   plus a small quickstart app.
//! * [`random`] — a seeded random generator used for scaling benchmarks
//!   and the corpus study.
//! * [`paper_apps`] — the 15 Table-I evaluation apps, with the paper's
//!   per-app Activity/Fragment counts and documented failure modes
//!   (material-design drawers, strict inputs, packers, direct-loaded
//!   fragments, fragment constructors with parameters).
//! * [`corpus`] — the 217-app / 27-category dataset behind the "91% of
//!   apps use Fragments" study.

pub mod builder;
pub mod corpus;
pub mod paper_apps;
pub mod random;
pub mod stream;
pub mod templates;

pub use builder::{ActivitySpec, AppBuilder, FragmentSpec, GatedLink, GeneratedApp};
