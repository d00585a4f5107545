//! A smali-like class intermediate representation (IR) for the FragDroid
//! reproduction.
//!
//! Real FragDroid decompiles an APK with Apktool and jd-core, then
//! pattern-matches on the decompiled statements (`new Intent(A0, A1)`,
//! `setClass(..)`, `F1.newInstance()`, `getFragmentManager()`, …) to build
//! its Activity & Fragment Transition Model. This crate provides the
//! equivalent decompiled form: class definitions whose method bodies are
//! sequences of exactly those statement shapes, together with
//!
//! * a full textual syntax (printer in [`printer`], parser in [`parser`])
//!   so that "decompiling" a packed APK produces genuine text that is then
//!   re-parsed, as in the paper's pipeline;
//! * class-hierarchy queries ([`ClassPool`]: super chains, subclass tests,
//!   used classes, inner classes) needed by the paper's Algorithm 2;
//! * a statement [`visit`] walker used by every static-analysis pass.
//!
//! Unlike real smali the IR is directly *executable*: the device simulator
//! in `fd-droidsim` interprets method bodies, so the artifact the static
//! phase analyses is the same artifact the dynamic phase runs — exactly the
//! property the paper relies on.
//!
//! # Example
//!
//! ```
//! use fd_smali::{ClassDef, ClassName, MethodDef, Stmt, ResRef, well_known};
//!
//! let main = ClassDef::new("com.example.MainActivity", well_known::ACTIVITY)
//!     .with_method(
//!         MethodDef::new("onCreate")
//!             .push(Stmt::SetContentView(ResRef::layout("main")))
//!             .push(Stmt::GetFragmentManager { support: false })
//!             .push(Stmt::BeginTransaction)
//!             .push(Stmt::TxnAdd {
//!                 container: ResRef::id("container"),
//!                 fragment: ClassName::new("com.example.HomeFragment"),
//!             })
//!             .push(Stmt::TxnCommit),
//!     );
//!
//! let text = fd_smali::printer::print_class(&main);
//! let back = fd_smali::parser::parse_class(&text).unwrap();
//! assert_eq!(main, back);
//! ```

pub mod class;
pub mod error;
pub mod lexer;
pub mod lint;
pub mod name;
pub mod parser;
pub mod pool;
pub mod printer;
pub mod res;
pub mod stmt;
pub mod visit;

pub use class::{ClassDef, FieldDef, MethodDef, Visibility};
pub use error::ParseError;
pub use name::{ClassName, MethodName};
pub use pool::ClassPool;
pub use res::{ResKind, ResName, ResRef};
pub use stmt::{Cond, IntentTarget, Stmt};

/// Fully-qualified names of Android framework classes the analyses treat
/// specially, mirroring the string constants in the paper's Algorithm 2.
pub mod well_known {
    /// `android.app.Activity` — base class of all activities.
    pub const ACTIVITY: &str = "android.app.Activity";
    /// `android.support.v4.app.FragmentActivity` — support-library activity.
    pub const SUPPORT_ACTIVITY: &str = "android.support.v4.app.FragmentActivity";
    /// `android.app.Fragment` — platform fragment base class.
    pub const FRAGMENT: &str = "android.app.Fragment";
    /// `android.support.v4.app.Fragment` — support-library fragment.
    pub const SUPPORT_FRAGMENT: &str = "android.support.v4.app.Fragment";
    /// `java.lang.Object` — the root of every inheritance chain.
    pub const OBJECT: &str = "java.lang.Object";

    /// Returns `true` if `name` denotes a framework class (one the target
    /// app does not define itself). The heuristic matches the paper's
    /// practice of stopping hierarchy walks at `android.*` / `java.*`.
    pub fn is_framework(name: &str) -> bool {
        name.starts_with("android.") || name.starts_with("java.") || name.starts_with("javax.")
    }
}
