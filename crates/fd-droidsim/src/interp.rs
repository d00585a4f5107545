//! The statement interpreter: executes method bodies of the smali-like IR
//! against a [`Device`], implementing Android's runtime semantics for
//! intents, activity starts, fragment transactions, drawers, dialogs and
//! crashes.
//!
//! Execution model: one *event* (an activity `onCreate`, a click handler,
//! a reflective switch) runs to completion or until an [`Interrupt`].
//! Mutations land on the screen the frame is bound to, so a handler that
//! starts a new activity keeps affecting its own screen afterwards.

use crate::device::Device;
use crate::intent::Intent;
use crate::monitor::Caller;
use crate::screen::{FragmentPane, Handler, Overlay};
use fd_smali::{ClassName, Cond, IntentTarget, MethodDef, ResName, Stmt};

/// Maximum nested method-call / activity-start depth before the run is
/// aborted as a stack overflow (a `startActivity` cycle in `onCreate`).
pub const MAX_DEPTH: usize = 24;

/// Why execution stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// An uncaught exception: the app force-closes.
    Crash(String),
    /// `finish()` was called: the frame's activity should be popped after
    /// the event completes.
    Finish,
}

/// One executing method's context.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The class whose method is executing (handler lookup / `SetOnClick`
    /// registration use it).
    pub class: ClassName,
    /// Attribution for sensitive-API calls.
    pub owner: Caller,
    /// Index into the device's back stack of the screen this code runs in.
    pub screen_idx: usize,
    /// When running fragment code, the container its pane occupies.
    pub pane: Option<ResName>,
    /// The "current intent" register (`new Intent` … `startActivity`).
    intent_reg: Option<Intent>,
    /// The pending `FragmentTransaction`, if `beginTransaction` ran.
    txn: Option<Vec<TxnOp>>,
    /// Nesting depth.
    pub depth: usize,
}

impl Frame {
    /// A frame for activity code.
    pub fn activity(class: ClassName, screen_idx: usize, depth: usize) -> Self {
        Frame {
            owner: Caller::Activity(class.clone()),
            class,
            screen_idx,
            pane: None,
            intent_reg: None,
            txn: None,
            depth,
        }
    }

    /// A frame for fragment code hosted by `host`.
    pub fn fragment(
        class: ClassName,
        host: ClassName,
        screen_idx: usize,
        pane: Option<ResName>,
        depth: usize,
    ) -> Self {
        Frame {
            owner: Caller::Fragment { fragment: class.clone(), host },
            class,
            screen_idx,
            pane,
            intent_reg: None,
            txn: None,
            depth,
        }
    }
}

#[derive(Clone, Debug)]
enum TxnOp {
    Attach { container: ResName, fragment: ClassName },
}

/// Runs `method` of `class` in the given frame. Returns `Ok(())` on normal
/// completion or the interrupt that stopped it.
pub fn run_method(
    device: &mut Device,
    frame: &mut Frame,
    method: &MethodDef,
) -> Result<(), Interrupt> {
    if frame.depth >= MAX_DEPTH {
        return Err(Interrupt::Crash("StackOverflowError".to_string()));
    }
    run_stmts(device, frame, &method.body)
}

fn run_stmts(device: &mut Device, frame: &mut Frame, stmts: &[Stmt]) -> Result<(), Interrupt> {
    for stmt in stmts {
        run_stmt(device, frame, stmt)?;
    }
    Ok(())
}

fn eval_cond(device: &Device, frame: &Frame, cond: &Cond) -> bool {
    let screen = device.screen_at(frame.screen_idx);
    match cond {
        Cond::InputEquals { field, expected } => screen
            .map(|s| {
                s.inputs.get(field.name.as_str()).map(String::as_str) == Some(expected.as_str())
            })
            .unwrap_or(false),
        Cond::InputNonEmpty { field } => screen
            .map(|s| s.inputs.get(field.name.as_str()).map(|v| !v.is_empty()).unwrap_or(false))
            .unwrap_or(false),
        Cond::HasExtra { key } => screen.map(|s| s.intent.has_extra(key)).unwrap_or(false),
    }
}

fn run_stmt(device: &mut Device, frame: &mut Frame, stmt: &Stmt) -> Result<(), Interrupt> {
    match stmt {
        Stmt::SetContentView(layout_ref) => {
            let layout = device.inflate(&layout_ref.name).ok_or_else(|| {
                Interrupt::Crash(format!("InflateException: no layout {}", layout_ref.name))
            })?;
            if let Some(screen) = device.screen_at_mut(frame.screen_idx) {
                screen.layout = Some(layout);
            }
        }
        Stmt::InflateLayout(layout_ref) => {
            let layout = device.inflate(&layout_ref.name).ok_or_else(|| {
                Interrupt::Crash(format!("InflateException: no layout {}", layout_ref.name))
            })?;
            if let (Some(container), Some(screen)) =
                (&frame.pane, device.screen_at_mut(frame.screen_idx))
            {
                if let Some(pane) = screen.fragments.get_mut(container) {
                    pane.layout = Some(layout);
                }
            }
        }
        Stmt::FindViewById(_) => {}
        Stmt::SetOnClick { widget, handler } => {
            let h = Handler {
                class: frame.class.clone(),
                method: handler.clone(),
                fragment: match &frame.owner {
                    Caller::Fragment { fragment, .. } => Some(fragment.clone()),
                    Caller::Activity(_) => None,
                },
            };
            if let Some(screen) = device.screen_at_mut(frame.screen_idx) {
                screen.handlers.insert(widget.name.clone(), h);
            }
        }
        Stmt::NewIntent(target) => {
            frame.intent_reg = Some(match target {
                IntentTarget::Class(c) => Intent::explicit(c.clone()),
                IntentTarget::Action(a) => Intent::implicit(a.clone()),
            });
        }
        Stmt::SetClass(c) => {
            frame.intent_reg.get_or_insert_with(Intent::empty).target = Some(c.clone());
        }
        Stmt::SetAction(a) => {
            frame.intent_reg.get_or_insert_with(Intent::empty).action = Some(a.clone());
        }
        Stmt::PutExtra { key, value } => {
            frame
                .intent_reg
                .get_or_insert_with(Intent::empty)
                .extras
                .insert(key.clone(), value.clone());
        }
        Stmt::StartActivity { via_host: _ } => {
            let intent = frame.intent_reg.take().unwrap_or_else(Intent::empty);
            let target = intent.resolve(&device.app().manifest).ok_or_else(|| {
                Interrupt::Crash(format!(
                    "ActivityNotFoundException: {:?}/{:?}",
                    intent.target, intent.action
                ))
            })?;
            device.start_activity_frame(target, intent, frame.depth + 1)?;
        }
        Stmt::RequireExtra { key } => {
            let ok = device
                .screen_at(frame.screen_idx)
                .map(|s| s.intent.has_extra(key))
                .unwrap_or(false);
            if !ok {
                return Err(Interrupt::Crash(format!(
                    "NullPointerException: missing intent extra '{key}'"
                )));
            }
        }
        Stmt::RequirePermission { permission } => {
            if !device.has_permission(permission) {
                return Err(Interrupt::Crash(format!(
                    "SecurityException: permission denied: {permission}"
                )));
            }
        }
        Stmt::NewInstance(_) | Stmt::NewInstanceStatic(_) | Stmt::InstanceOf(_) => {}
        Stmt::GetFragmentManager { .. } => {}
        Stmt::BeginTransaction => {
            frame.txn = Some(Vec::new());
        }
        Stmt::TxnAdd { container, fragment } | Stmt::TxnReplace { container, fragment } => {
            let txn = frame.txn.as_mut().ok_or_else(|| {
                Interrupt::Crash("IllegalStateException: no transaction in progress".to_string())
            })?;
            txn.push(TxnOp::Attach {
                container: container.name.clone(),
                fragment: fragment.clone(),
            });
        }
        Stmt::TxnCommit => {
            let ops = frame.txn.take().ok_or_else(|| {
                Interrupt::Crash("IllegalStateException: commit without beginTransaction".into())
            })?;
            for TxnOp::Attach { container, fragment } in ops {
                attach_fragment(device, frame, &container, &fragment, true)?;
            }
        }
        Stmt::AttachDirect { container, fragment } => {
            attach_fragment(device, frame, &container.name, fragment, false)?;
        }
        Stmt::ToggleDrawer { drawer } => {
            if let Some(screen) = device.screen_at_mut(frame.screen_idx) {
                if !screen.open_drawers.remove(drawer.name.as_str()) {
                    screen.open_drawers.insert(drawer.name.clone());
                }
            }
        }
        Stmt::ShowDialog { id } => {
            if let Some(screen) = device.screen_at_mut(frame.screen_idx) {
                screen.overlay = Some(Overlay::Dialog { id: id.clone() });
            }
        }
        Stmt::ShowPopupMenu { id } => {
            if let Some(screen) = device.screen_at_mut(frame.screen_idx) {
                screen.overlay = Some(Overlay::PopupMenu { id: id.clone() });
            }
        }
        Stmt::InvokeApi { group, name } => {
            device.record_api(group, name, frame.owner.clone());
        }
        Stmt::InvokeMethod { class, method } => {
            // Calls into framework classes (not in the pool) are no-ops;
            // calls into app classes execute with the same UI attribution.
            let app = device.app_handle();
            let Some(m) =
                app.classes.get(class.as_str()).and_then(|def| def.method(method.as_str()))
            else {
                return Ok(());
            };
            let mut callee = Frame {
                class: class.clone(),
                owner: frame.owner.clone(),
                screen_idx: frame.screen_idx,
                pane: frame.pane.clone(),
                intent_reg: None,
                txn: None,
                depth: frame.depth + 1,
            };
            run_method(device, &mut callee, m)?;
        }
        Stmt::Finish => return Err(Interrupt::Finish),
        Stmt::Crash { reason } => return Err(Interrupt::Crash(reason.clone())),
        Stmt::If { cond, then, els } => {
            if eval_cond(device, frame, cond) {
                run_stmts(device, frame, then)?;
            } else {
                run_stmts(device, frame, els)?;
            }
        }
    }
    Ok(())
}

/// Attaches `fragment` into `container` of the frame's screen and runs its
/// `onCreateView`. `via_manager` is false for `attach-direct` loads.
pub fn attach_fragment(
    device: &mut Device,
    frame: &Frame,
    container: &ResName,
    fragment: &ClassName,
    via_manager: bool,
) -> Result<(), Interrupt> {
    let app = device.app_handle();
    let def = app
        .classes
        .get(fragment.as_str())
        .ok_or_else(|| Interrupt::Crash(format!("ClassNotFoundException: {fragment}")))?;
    if def.is_abstract {
        return Err(Interrupt::Crash(format!("InstantiationError: {fragment} is abstract")));
    }

    let host = match device.screen_at(frame.screen_idx) {
        Some(screen) => screen.activity.clone(),
        None => return Ok(()),
    };
    if let Some(screen) = device.screen_at_mut(frame.screen_idx) {
        screen.fragments.insert(
            container.clone(),
            FragmentPane { fragment: fragment.clone(), layout: None, via_manager },
        );
    }

    if let Some(on_create_view) = def.method("onCreateView") {
        let mut f = Frame::fragment(
            fragment.clone(),
            host,
            frame.screen_idx,
            Some(container.clone()),
            frame.depth + 1,
        );
        run_method(device, &mut f, on_create_view)?;
    }
    Ok(())
}
