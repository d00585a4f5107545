//! Executable statements — the decompiled shapes FragDroid's Algorithm 1
//! pattern-matches on, plus the UI behaviours the device simulator
//! interprets.
//!
//! Each variant corresponds to a Java idiom named in the paper:
//!
//! | Variant | Java form (paper) |
//! |---|---|
//! | [`Stmt::NewIntent`] with [`IntentTarget::Class`] | `new Intent(Context, A1.class)` |
//! | [`Stmt::NewIntent`] with [`IntentTarget::Action`] | `new Intent(String action)` |
//! | [`Stmt::SetClass`] / [`Stmt::SetAction`] | `intent.setClass(..)` / `intent.setAction(..)` |
//! | [`Stmt::StartActivity`] | `startActivity(intent)` / `getActivity().startActivity(intent)` |
//! | [`Stmt::NewInstance`] / [`Stmt::NewInstanceStatic`] / [`Stmt::InstanceOf`] | `new F1()` / `F1.newInstance()` / `instanceof F1` |
//! | [`Stmt::GetFragmentManager`] | `getFragmentManager()` / `getSupportFragmentManager()` |
//! | [`Stmt::TxnAdd`] / [`Stmt::TxnReplace`] / [`Stmt::TxnCommit`] | `FragmentTransaction.add/replace/commit` |
//! | [`Stmt::AttachDirect`] | fragment inflated without a `FragmentManager` (the *dubsmash* failure case) |

use crate::name::{ClassName, MethodName};
use crate::res::ResRef;
use serde::{Deserialize, Serialize};

/// The target of an `Intent` constructor or `setClass`/`setAction` call.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntentTarget {
    /// Explicit intent: `new Intent(ctx, Target.class)`.
    Class(ClassName),
    /// Implicit intent: `new Intent("com.example.ACTION")`; resolved via
    /// `AndroidManifest.xml` intent filters.
    Action(String),
}

/// A condition guarding an [`Stmt::If`] block.
///
/// Conditions model the input gates of the paper's §V-C: a login screen
/// that only advances on the correct credentials, a weather search that
/// needs an existing place name, an activity that requires Intent extras.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// The text field's current content equals the expected string.
    InputEquals {
        /// The `EditText` widget read.
        field: ResRef,
        /// The exact value required to pass.
        expected: String,
    },
    /// The text field is non-empty.
    InputNonEmpty {
        /// The `EditText` widget read.
        field: ResRef,
    },
    /// The launching intent carried the given extra.
    HasExtra {
        /// The extra key looked up.
        key: String,
    },
}

/// One executable statement of a method body.
///
/// The statement set is deliberately small: it is the union of (a) the
/// shapes the paper's static analysis recognises and (b) the UI actions
/// its dynamic analysis must provoke or survive (dialogs, popup menus,
/// navigation drawers, crashes).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stmt {
    /// `setContentView(R.layout.x)` — inflate an activity's layout.
    SetContentView(ResRef),
    /// `inflater.inflate(R.layout.x, ..)` — inflate a fragment's layout
    /// from `onCreateView`.
    InflateLayout(ResRef),
    /// `findViewById(R.id.x)` — a code reference to a widget; Algorithm 3
    /// uses these to bind widgets to their host class.
    FindViewById(ResRef),
    /// `view.setOnClickListener(..)` — wires a widget to a handler method
    /// of the defining class.
    SetOnClick {
        /// The widget that receives clicks.
        widget: ResRef,
        /// The handler method invoked (a method of the same class).
        handler: MethodName,
    },
    /// `new Intent(..)` — begins building an intent in the implicit
    /// "current intent" register.
    NewIntent(IntentTarget),
    /// `intent.setClass(ctx, A1.class)` on the current intent.
    SetClass(ClassName),
    /// `intent.setAction("..")` on the current intent.
    SetAction(String),
    /// `intent.putExtra(key, value)` on the current intent.
    PutExtra {
        /// Extra key.
        key: String,
        /// Extra value (string-typed in this IR).
        value: String,
    },
    /// `startActivity(intent)`; `via_host` marks the
    /// `getActivity().startActivity(..)` form used inside fragments.
    StartActivity {
        /// Whether the call goes through the host activity's context.
        via_host: bool,
    },
    /// A guard in `onCreate` that force-closes the activity when the
    /// launching intent is missing the extra — the reason the paper's
    /// "mandatory starting" with empty intents fails on some activities.
    RequireExtra {
        /// Required extra key.
        key: String,
    },
    /// A guard that force-closes unless the app holds the permission —
    /// models the apps that "failed in the dynamic testing due to the
    /// issues of permissions".
    RequirePermission {
        /// Required permission, e.g. `android.permission.CAMERA`.
        permission: String,
    },
    /// `new F1()`.
    NewInstance(ClassName),
    /// `F1.newInstance()` — the static factory idiom.
    NewInstanceStatic(ClassName),
    /// `x instanceof F1`.
    InstanceOf(ClassName),
    /// `getFragmentManager()` (`support == false`) or
    /// `getSupportFragmentManager()` (`support == true`).
    GetFragmentManager {
        /// Whether the support-library manager is used.
        support: bool,
    },
    /// `fragmentManager.beginTransaction()`.
    BeginTransaction,
    /// `transaction.add(R.id.container, fragment)`.
    TxnAdd {
        /// The `ViewGroup` the fragment is placed into.
        container: ResRef,
        /// The fragment class instantiated.
        fragment: ClassName,
    },
    /// `transaction.replace(R.id.container, fragment)`.
    TxnReplace {
        /// The `ViewGroup` whose fragment is swapped.
        container: ResRef,
        /// The fragment class instantiated.
        fragment: ClassName,
    },
    /// `transaction.commit()`.
    TxnCommit,
    /// Attaches a fragment's view directly, bypassing the
    /// `FragmentManager` — the loading style FragDroid "cannot determine
    /// whether the Fragment is a real loading" for.
    AttachDirect {
        /// The container the fragment view is injected into.
        container: ResRef,
        /// The fragment class.
        fragment: ClassName,
    },
    /// Opens/closes a navigation drawer (the hidden slide menu of Fig. 2).
    ToggleDrawer {
        /// The drawer container widget.
        drawer: ResRef,
    },
    /// Shows a modal dialog; dismissed by the driver "clicking on blank
    /// space".
    ShowDialog {
        /// A label identifying the dialog.
        id: String,
    },
    /// Shows an action-bar popup menu — the pop operations that
    /// "interrupt normal test case generation" in the paper's §VII-B1.
    ShowPopupMenu {
        /// A label identifying the menu.
        id: String,
    },
    /// An invocation of a sensitive API, e.g.
    /// `invoke-api location/getAllProviders` (XPrivacy taxonomy).
    InvokeApi {
        /// The XPrivacy group (`location`, `internet`, …).
        group: String,
        /// The function name within the group.
        name: String,
    },
    /// A generic call into another app class; feeds Algorithm 2's
    /// used-class analysis.
    InvokeMethod {
        /// The callee class.
        class: ClassName,
        /// The callee method.
        method: MethodName,
    },
    /// `finish()` — pops the current activity.
    Finish,
    /// An unconditional crash (uncaught exception → Force Close).
    Crash {
        /// The exception message.
        reason: String,
    },
    /// A conditional block.
    If {
        /// The guard.
        cond: Cond,
        /// Statements executed when the guard holds.
        then: Vec<Stmt>,
        /// Statements executed otherwise.
        els: Vec<Stmt>,
    },
}

impl Stmt {
    /// Convenience constructor for a guarded block without an `else` arm.
    pub fn if_then(cond: Cond, then: Vec<Stmt>) -> Stmt {
        Stmt::If { cond, then, els: Vec::new() }
    }

    /// The class this single statement names, if any. No statement
    /// names more than one. (Use [`crate::visit::referenced_classes`] for
    /// whole-body queries — it also descends into `If` arms.)
    pub fn class_ref(&self) -> Option<&ClassName> {
        match self {
            Stmt::NewIntent(IntentTarget::Class(c))
            | Stmt::SetClass(c)
            | Stmt::NewInstance(c)
            | Stmt::NewInstanceStatic(c)
            | Stmt::InstanceOf(c)
            | Stmt::TxnAdd { fragment: c, .. }
            | Stmt::TxnReplace { fragment: c, .. }
            | Stmt::AttachDirect { fragment: c, .. }
            | Stmt::InvokeMethod { class: c, .. } => Some(c),
            _ => None,
        }
    }

    /// The resource reference this statement names, if any. No statement
    /// names more than one: an `if` contributes only its condition's
    /// field; refs inside the branches belong to the nested statements.
    pub fn res_ref(&self) -> Option<&ResRef> {
        match self {
            Stmt::SetContentView(r)
            | Stmt::InflateLayout(r)
            | Stmt::FindViewById(r)
            | Stmt::SetOnClick { widget: r, .. }
            | Stmt::TxnAdd { container: r, .. }
            | Stmt::TxnReplace { container: r, .. }
            | Stmt::AttachDirect { container: r, .. }
            | Stmt::ToggleDrawer { drawer: r } => Some(r),
            Stmt::If { cond, .. } => match cond {
                Cond::InputEquals { field, .. } | Cond::InputNonEmpty { field } => Some(field),
                Cond::HasExtra { .. } => None,
            },
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ref_covers_fragment_shapes() {
        let f = ClassName::new("a.F1");
        for s in [
            Stmt::NewInstance(f.clone()),
            Stmt::NewInstanceStatic(f.clone()),
            Stmt::InstanceOf(f.clone()),
            Stmt::TxnAdd { container: ResRef::id("c"), fragment: f.clone() },
            Stmt::TxnReplace { container: ResRef::id("c"), fragment: f.clone() },
        ] {
            assert_eq!(s.class_ref(), Some(&f), "statement {s:?}");
        }
    }

    #[test]
    fn res_ref_includes_condition_fields() {
        let s = Stmt::if_then(
            Cond::InputEquals { field: ResRef::id("edit"), expected: "x".into() },
            vec![],
        );
        assert_eq!(s.res_ref(), Some(&ResRef::id("edit")));
    }

    #[test]
    fn plain_statements_have_no_refs() {
        assert!(Stmt::Finish.class_ref().is_none());
        assert!(Stmt::TxnCommit.res_ref().is_none());
    }
}
