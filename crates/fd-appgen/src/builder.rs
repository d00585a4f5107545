//! The declarative app builder.
//!
//! Specifications are written in terms of UI features (drawers, tabs,
//! gates, links); [`AppBuilder::build`] lowers them to a complete
//! [`AndroidApp`]: manifest declarations, layout widget trees, and
//! executable smali classes wired with click handlers.

use fd_apk::{
    ActivityDecl, AndroidApp, AppMeta, IntentFilter, Layout, Manifest, Widget, WidgetKind,
};
use fd_smali::{
    well_known, ClassDef, ClassName, Cond, IntentTarget, MethodDef, MethodName, ResRef, Stmt,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An input-gated activity link: an `EditText` plus a submit button whose
/// handler starts `target` only when the field holds `secret`.
///
/// When `input_known` is true the secret ends up in the app's
/// input-dependency data (the file analysts fill "with correct values in
/// advance", §V-C); when false the gate models the paper's untestable
/// strict inputs (*com.weather.Weather*'s place names).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatedLink {
    /// Target activity (simple name).
    pub target: String,
    /// The exact input that opens the gate.
    pub secret: String,
    /// Whether the input-dependency file knows the secret.
    pub input_known: bool,
}

/// A fragment specification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FragmentSpec {
    /// Simple class name, e.g. `NewsFragment`.
    pub name: String,
    /// Sensitive APIs called in `onCreateView`.
    pub apis: Vec<(String, String)>,
    /// Activities (simple names) started by buttons in this fragment
    /// (via `getActivity().startActivity(..)`).
    pub links_to: Vec<String>,
    /// Fragments (simple names) this fragment can switch to with a button
    /// — the `F → Fᵢ` edge.
    pub switches_to: Vec<String>,
    /// Whether the only constructor takes parameters (defeats reflection —
    /// the *zara* failure).
    pub ctor_args: bool,
    /// Whether the layout embeds a `WebView` (the embedded-content threat
    /// surface the paper's §IX calls out in fragments).
    pub webview: bool,
    /// Number of filler (non-interactive) widgets in the layout.
    pub extra_widgets: usize,
}

impl FragmentSpec {
    /// A plain fragment.
    pub fn new(name: impl Into<String>) -> Self {
        FragmentSpec { name: name.into(), ..Default::default() }
    }

    /// Adds a sensitive-API call (builder style).
    pub fn api(mut self, group: &str, name: &str) -> Self {
        self.apis.push((group.to_string(), name.to_string()));
        self
    }

    /// Adds a button starting an activity (builder style).
    pub fn link_to(mut self, target: impl Into<String>) -> Self {
        self.links_to.push(target.into());
        self
    }

    /// Adds a button switching to a sibling fragment (builder style).
    pub fn switch_to(mut self, target: impl Into<String>) -> Self {
        self.switches_to.push(target.into());
        self
    }

    /// Marks the constructor as parameterized (builder style).
    pub fn ctor_requires_args(mut self) -> Self {
        self.ctor_args = true;
        self
    }

    /// Embeds a WebView in the layout (builder style).
    pub fn with_webview(mut self) -> Self {
        self.webview = true;
        self
    }
}

/// An activity specification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActivitySpec {
    /// Simple class name, e.g. `MainActivity`.
    pub name: String,
    /// Whether this is the launcher activity.
    pub launcher: bool,
    /// Fragment attached in `onCreate` through the `FragmentManager`.
    pub initial_fragment: Option<String>,
    /// Fragments reachable only through the hidden navigation drawer
    /// (Fig. 2) — a hamburger button opens the drawer, items switch.
    pub drawer_fragments: Vec<String>,
    /// Fragments switched by an always-visible tab strip (Fig. 1).
    pub tab_fragments: Vec<String>,
    /// Fragments attached *without* a `FragmentManager` (the *dubsmash*
    /// failure: loading FragDroid cannot confirm).
    pub direct_fragments: Vec<String>,
    /// Additional fragments shown side by side in their own containers —
    /// the multi-pane UI of the paper's §II-B ("combine multiple
    /// Fragments in a single Activity to build a multi-pane UI").
    pub panes: Vec<String>,
    /// Buttons starting other activities by explicit intent.
    pub buttons_to: Vec<String>,
    /// Buttons starting activities by implicit action; the target gets a
    /// matching intent filter.
    pub action_links: Vec<(String, String)>,
    /// Input-gated links: each adds an `EditText` + submit button.
    pub gates: Vec<GatedLink>,
    /// Secrets the app leaks in its own UI (a `TextView` whose text is the
    /// credential) — the target of the input-harvesting extension (§VIII's
    /// "better input generation methods").
    pub hinted_secrets: Vec<String>,
    /// Fragments referenced only from *dead code* (a switch method no
    /// widget triggers). Static analysis sees the dependency and the
    /// reflection mechanism can reach them, but no click path exists —
    /// the hidden switches of the paper's Challenge 2.
    pub hidden_fragments: Vec<String>,
    /// Whether a button pops a modal dialog.
    pub dialog: bool,
    /// Whether an action-bar button pops a menu (the flows that "interrupt
    /// normal test case generation").
    pub popup_menu: bool,
    /// Sensitive APIs called in `onCreate`.
    pub apis: Vec<(String, String)>,
    /// An intent extra `onCreate` requires (FCs without it — defeats the
    /// empty-intent forced start).
    pub requires_extra: Option<String>,
    /// A permission `onCreate` requires (FCs when denied).
    pub requires_permission: Option<String>,
    /// Number of filler widgets.
    pub extra_widgets: usize,
}

impl ActivitySpec {
    /// A plain activity.
    pub fn new(name: impl Into<String>) -> Self {
        ActivitySpec { name: name.into(), ..Default::default() }
    }

    /// Marks as launcher (builder style).
    pub fn launcher(mut self) -> Self {
        self.launcher = true;
        self
    }

    /// Sets the fragment attached in `onCreate` (builder style).
    pub fn initial_fragment(mut self, f: impl Into<String>) -> Self {
        self.initial_fragment = Some(f.into());
        self
    }

    /// Adds hidden-drawer fragments (builder style).
    pub fn drawer(mut self, fragments: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.drawer_fragments.extend(fragments.into_iter().map(Into::into));
        self
    }

    /// Adds tab-strip fragments (builder style).
    pub fn tabs(mut self, fragments: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.tab_fragments.extend(fragments.into_iter().map(Into::into));
        self
    }

    /// Adds a direct-attached fragment (builder style).
    pub fn direct_fragment(mut self, f: impl Into<String>) -> Self {
        self.direct_fragments.push(f.into());
        self
    }

    /// Adds a side-by-side pane fragment (builder style).
    pub fn pane(mut self, f: impl Into<String>) -> Self {
        self.panes.push(f.into());
        self
    }

    /// Adds an explicit-intent button (builder style).
    pub fn button_to(mut self, target: impl Into<String>) -> Self {
        self.buttons_to.push(target.into());
        self
    }

    /// Adds an implicit-intent button (builder style).
    pub fn action_link(mut self, action: impl Into<String>, target: impl Into<String>) -> Self {
        self.action_links.push((action.into(), target.into()));
        self
    }

    /// Adds an input gate (builder style).
    pub fn gate(mut self, gate: GatedLink) -> Self {
        self.gates.push(gate);
        self
    }

    /// Adds a hidden (dead-code-referenced) fragment (builder style).
    pub fn hidden_fragment(mut self, f: impl Into<String>) -> Self {
        self.hidden_fragments.push(f.into());
        self
    }

    /// Adds a gate whose secret the UI itself leaks (builder style): the
    /// layout gains a `TextView` showing the secret verbatim, so a
    /// string-harvesting input generator can find it.
    pub fn hinted_gate(mut self, gate: GatedLink) -> Self {
        self.hinted_secrets.push(gate.secret.clone());
        self.gates.push(gate);
        self
    }

    /// Adds a dialog button (builder style).
    pub fn with_dialog(mut self) -> Self {
        self.dialog = true;
        self
    }

    /// Adds an action-bar popup (builder style).
    pub fn with_popup_menu(mut self) -> Self {
        self.popup_menu = true;
        self
    }

    /// Adds a sensitive-API call (builder style).
    pub fn api(mut self, group: &str, name: &str) -> Self {
        self.apis.push((group.to_string(), name.to_string()));
        self
    }

    /// Requires an intent extra (builder style).
    pub fn requires_extra(mut self, key: impl Into<String>) -> Self {
        self.requires_extra = Some(key.into());
        self
    }

    /// Requires a permission (builder style).
    pub fn requires_permission(mut self, p: impl Into<String>) -> Self {
        self.requires_permission = Some(p.into());
        self
    }
}

/// The output of [`AppBuilder::build`]: the app plus the values that would
/// populate FragDroid's input-dependency file.
#[derive(Clone, Debug)]
pub struct GeneratedApp {
    /// The complete app.
    pub app: AndroidApp,
    /// `widget resource-ID → correct input` for every known gate.
    pub known_inputs: BTreeMap<String, String>,
}

/// Builds whole apps from activity/fragment specifications.
#[derive(Clone, Debug, Default)]
pub struct AppBuilder {
    package: String,
    meta: AppMeta,
    activities: Vec<ActivitySpec>,
    fragments: Vec<FragmentSpec>,
}

impl AppBuilder {
    /// Starts an app for `package`.
    pub fn new(package: impl Into<String>) -> Self {
        AppBuilder { package: package.into(), ..Default::default() }
    }

    /// Sets store metadata (builder style).
    pub fn meta(mut self, category: &str, downloads: u64) -> Self {
        self.meta.category = category.to_string();
        self.meta.downloads = downloads;
        self
    }

    /// Marks the app packer-protected (builder style).
    pub fn packed(mut self) -> Self {
        self.meta.packed = true;
        self
    }

    /// Adds an activity (builder style).
    pub fn activity(mut self, spec: ActivitySpec) -> Self {
        self.activities.push(spec);
        self
    }

    /// Adds a fragment (builder style).
    pub fn fragment(mut self, spec: FragmentSpec) -> Self {
        self.fragments.push(spec);
        self
    }

    fn qualify(&self, simple: &str) -> ClassName {
        ClassName::new(format!("{}.{}", self.package, simple))
    }

    /// The container resource-ID an activity hosts fragments in.
    fn container_id(activity: &str) -> String {
        format!("content_{}", activity.to_lowercase())
    }

    /// Finds the first activity hosting `fragment` (for fragment-initiated
    /// switches, which need the container's resource-ID).
    fn host_of(&self, fragment: &str) -> Option<&ActivitySpec> {
        self.activities.iter().find(|a| {
            a.initial_fragment.as_deref() == Some(fragment)
                || a.drawer_fragments.iter().any(|f| f == fragment)
                || a.tab_fragments.iter().any(|f| f == fragment)
                || a.direct_fragments.iter().any(|f| f == fragment)
                || a.hidden_fragments.iter().any(|f| f == fragment)
                || a.panes.iter().any(|f| f == fragment)
        })
    }

    /// Lowers the specification to a complete, validated app.
    ///
    /// # Panics
    ///
    /// Panics if the produced app fails [`AndroidApp::validate`] — that is
    /// a bug in the specification (e.g. a link to an undeclared activity).
    /// Use [`AppBuilder::try_build`] to get the problems as an error
    /// instead.
    pub fn build(self) -> GeneratedApp {
        match self.try_build() {
            Ok(gen) => gen,
            Err(problems) => panic!("generated app is malformed: {problems:?}"),
        }
    }

    /// Like [`AppBuilder::build`], but reports specification problems as
    /// an error instead of panicking.
    pub fn try_build(self) -> Result<GeneratedApp, Vec<String>> {
        let mut manifest = Manifest::new(self.package.clone());
        let mut known_inputs = BTreeMap::new();

        // Manifest: declarations + intent filters for action links.
        for spec in &self.activities {
            let mut decl = ActivityDecl::new(self.qualify(&spec.name));
            if spec.launcher {
                decl = decl.launcher();
            }
            for other in &self.activities {
                for (action, target) in &other.action_links {
                    if target == &spec.name {
                        decl = decl.with_filter(IntentFilter::for_action(action.clone()));
                    }
                }
            }
            manifest.activities.push(decl);
            if let Some(p) = &spec.requires_permission {
                if !manifest.permissions.contains(p) {
                    manifest.permissions.push(p.clone());
                }
            }
        }

        let mut app = AndroidApp::new(manifest);
        app.meta = self.meta.clone();

        for spec in &self.activities {
            let (class, layout) = self.lower_activity(spec, &mut known_inputs);
            app.layouts.insert(layout.name.clone(), Arc::new(layout));
            app.classes.insert(class);
        }
        for spec in &self.fragments {
            let (class, layout) = self.lower_fragment(spec);
            app.layouts.insert(layout.name.clone(), Arc::new(layout));
            app.classes.insert(class);
        }

        app.finalize_resources();
        let problems = app.validate();
        if problems.is_empty() {
            Ok(GeneratedApp { app, known_inputs })
        } else {
            Err(problems)
        }
    }

    fn lower_activity(
        &self,
        spec: &ActivitySpec,
        known_inputs: &mut BTreeMap<String, String>,
    ) -> (ClassDef, Layout) {
        let lname = spec.name.to_lowercase();
        let layout_name = format!("lay_{lname}");
        let container = Self::container_id(&spec.name);
        let uses_manager = spec.initial_fragment.is_some()
            || !spec.drawer_fragments.is_empty()
            || !spec.tab_fragments.is_empty()
            || !spec.hidden_fragments.is_empty()
            || !spec.panes.is_empty();
        let has_container = uses_manager || !spec.direct_fragments.is_empty();

        // ---- layout ----
        let mut root = Widget::new(WidgetKind::Group).with_id(format!("root_{lname}"));
        let mut on_create = MethodDef::new("onCreate");
        let mut handlers: Vec<MethodDef> = Vec::new();

        // Hard requirements come first (before setContentView, like real
        // permission/extra guards at the top of onCreate).
        if let Some(key) = &spec.requires_extra {
            on_create = on_create.push(Stmt::RequireExtra { key: key.clone() });
        }
        if let Some(p) = &spec.requires_permission {
            on_create = on_create.push(Stmt::RequirePermission { permission: p.clone() });
        }
        on_create = on_create.push(Stmt::SetContentView(ResRef::layout(layout_name.clone())));
        for (group, name) in &spec.apis {
            on_create =
                on_create.push(Stmt::InvokeApi { group: group.clone(), name: name.clone() });
        }

        if spec.popup_menu {
            let id = format!("appbar_more_{lname}");
            root = root.with_child(Widget::new(WidgetKind::ActionBar).with_child(
                Widget::new(WidgetKind::ImageButton).with_id(id.clone()).with_text("⋮"),
            ));
            let h = format!("onMore{}", spec.name);
            on_create = on_create.push(Stmt::SetOnClick {
                widget: ResRef::id(id),
                handler: MethodName::new(h.clone()),
            });
            handlers
                .push(MethodDef::new(h).push(Stmt::ShowPopupMenu { id: format!("menu_{lname}") }));
        }

        if !spec.tab_fragments.is_empty() {
            let mut bar = Widget::new(WidgetKind::TabBar).with_id(format!("tabs_{lname}"));
            for frag in &spec.tab_fragments {
                let id = format!("tab_{}", frag.to_lowercase());
                bar = bar.with_child(
                    Widget::new(WidgetKind::Button).with_id(id.clone()).with_text(frag.clone()),
                );
                let h = format!("onTab{frag}");
                on_create = on_create.push(Stmt::SetOnClick {
                    widget: ResRef::id(id),
                    handler: MethodName::new(h.clone()),
                });
                handlers.push(
                    MethodDef::new(h)
                        .push(Stmt::GetFragmentManager { support: true })
                        .push(Stmt::BeginTransaction)
                        .push(Stmt::TxnReplace {
                            container: ResRef::id(container.clone()),
                            fragment: self.qualify(frag),
                        })
                        .push(Stmt::TxnCommit),
                );
            }
            root = root.with_child(bar);
        }

        if !spec.drawer_fragments.is_empty() {
            let hamburger = format!("hamburger_{lname}");
            root = root.with_child(
                Widget::new(WidgetKind::ImageButton).with_id(hamburger.clone()).with_text("≡"),
            );
            let drawer_id = format!("drawer_{lname}");
            let mut drawer = Widget::new(WidgetKind::Drawer).with_id(drawer_id.clone());
            let h = format!("onDrawerToggle{}", spec.name);
            on_create = on_create.push(Stmt::SetOnClick {
                widget: ResRef::id(hamburger),
                handler: MethodName::new(h.clone()),
            });
            handlers.push(
                MethodDef::new(h)
                    .push(Stmt::ToggleDrawer { drawer: ResRef::id(drawer_id.clone()) }),
            );
            for frag in &spec.drawer_fragments {
                let id = format!("menu_{}", frag.to_lowercase());
                drawer = drawer.with_child(
                    Widget::new(WidgetKind::TextView)
                        .with_id(id.clone())
                        .with_text(frag.clone())
                        .clickable(true),
                );
                let h = format!("onMenu{frag}");
                on_create = on_create.push(Stmt::SetOnClick {
                    widget: ResRef::id(id),
                    handler: MethodName::new(h.clone()),
                });
                handlers.push(
                    MethodDef::new(h)
                        .push(Stmt::GetFragmentManager { support: true })
                        .push(Stmt::BeginTransaction)
                        .push(Stmt::TxnReplace {
                            container: ResRef::id(container.clone()),
                            fragment: self.qualify(frag),
                        })
                        .push(Stmt::TxnCommit)
                        .push(Stmt::ToggleDrawer { drawer: ResRef::id(drawer_id.clone()) }),
                );
            }
            root = root.with_child(drawer);
        }

        for target in &spec.buttons_to {
            let id = format!("btn_{}", target.to_lowercase());
            root = root.with_child(
                Widget::new(WidgetKind::Button).with_id(id.clone()).with_text(target.clone()),
            );
            let h = format!("onGo{target}");
            on_create = on_create.push(Stmt::SetOnClick {
                widget: ResRef::id(id),
                handler: MethodName::new(h.clone()),
            });
            let mut handler =
                MethodDef::new(h).push(Stmt::NewIntent(IntentTarget::Class(self.qualify(target))));
            // The app's own code supplies any extras the target requires.
            if let Some(tspec) = self.activities.iter().find(|a| &a.name == target) {
                if let Some(key) = &tspec.requires_extra {
                    handler = handler.push(Stmt::PutExtra { key: key.clone(), value: "1".into() });
                }
            }
            handlers.push(handler.push(Stmt::StartActivity { via_host: false }));
        }

        for (action, target) in &spec.action_links {
            let id = format!("act_{}", target.to_lowercase());
            root = root.with_child(
                Widget::new(WidgetKind::Button).with_id(id.clone()).with_text(action.clone()),
            );
            let h = format!("onAction{target}");
            on_create = on_create.push(Stmt::SetOnClick {
                widget: ResRef::id(id),
                handler: MethodName::new(h.clone()),
            });
            handlers.push(
                MethodDef::new(h)
                    .push(Stmt::NewIntent(IntentTarget::Action(action.clone())))
                    .push(Stmt::StartActivity { via_host: false }),
            );
        }

        for (gate_idx, gate) in spec.gates.iter().enumerate() {
            let field = format!("input_{lname}_{gate_idx}");
            let submit = format!("submit_{lname}_{gate_idx}");
            root = root
                .with_child(Widget::new(WidgetKind::EditText).with_id(field.clone()))
                .with_child(
                    Widget::new(WidgetKind::Button).with_id(submit.clone()).with_text("Submit"),
                );
            if gate.input_known {
                known_inputs.insert(field.clone(), gate.secret.clone());
            }
            let h = format!("onSubmit{}{gate_idx}", spec.name);
            on_create = on_create.push(Stmt::SetOnClick {
                widget: ResRef::id(submit),
                handler: MethodName::new(h.clone()),
            });
            let mut then = vec![Stmt::NewIntent(IntentTarget::Class(self.qualify(&gate.target)))];
            if let Some(tspec) = self.activities.iter().find(|a| a.name == gate.target) {
                if let Some(key) = &tspec.requires_extra {
                    then.push(Stmt::PutExtra { key: key.clone(), value: "1".into() });
                }
            }
            then.push(Stmt::StartActivity { via_host: false });
            handlers.push(MethodDef::new(h).push(Stmt::If {
                cond: Cond::InputEquals { field: ResRef::id(field), expected: gate.secret.clone() },
                then,
                els: vec![Stmt::ShowDialog { id: "invalid input".into() }],
            }));
        }

        if spec.dialog {
            let id = format!("dlg_{lname}");
            root = root
                .with_child(Widget::new(WidgetKind::Button).with_id(id.clone()).with_text("Info"));
            let h = format!("onInfo{}", spec.name);
            on_create = on_create.push(Stmt::SetOnClick {
                widget: ResRef::id(id),
                handler: MethodName::new(h.clone()),
            });
            handlers.push(MethodDef::new(h).push(Stmt::ShowDialog { id: format!("info_{lname}") }));
        }

        for (i, secret) in spec.hinted_secrets.iter().enumerate() {
            root = root.with_child(
                Widget::new(WidgetKind::TextView)
                    .with_id(format!("hint_{lname}_{i}"))
                    .with_text(secret.clone()),
            );
        }
        for i in 0..spec.extra_widgets {
            root =
                root.with_child(Widget::new(WidgetKind::TextView).with_text(format!("label {i}")));
        }

        if has_container {
            root = root
                .with_child(Widget::new(WidgetKind::FragmentContainer).with_id(container.clone()));
        }
        for (i, _) in spec.panes.iter().enumerate() {
            root = root.with_child(
                Widget::new(WidgetKind::FragmentContainer).with_id(format!("pane{i}_{lname}")),
            );
        }

        // Fragment attachment goes last in onCreate so handlers are wired.
        if let Some(frag) = &spec.initial_fragment {
            on_create = on_create
                .push(Stmt::GetFragmentManager { support: true })
                .push(Stmt::BeginTransaction)
                .push(Stmt::TxnAdd {
                    container: ResRef::id(container.clone()),
                    fragment: self.qualify(frag),
                })
                .push(Stmt::TxnCommit);
        } else if uses_manager {
            // Drawer/tab activities still reference the manager in code
            // (reflection relies on seeing it).
            on_create = on_create.push(Stmt::GetFragmentManager { support: true });
        }
        for frag in &spec.direct_fragments {
            on_create = on_create.push(Stmt::AttachDirect {
                container: ResRef::id(container.clone()),
                fragment: self.qualify(frag),
            });
        }
        if !spec.panes.is_empty() {
            on_create = on_create
                .push(Stmt::GetFragmentManager { support: true })
                .push(Stmt::BeginTransaction);
            for (i, frag) in spec.panes.iter().enumerate() {
                on_create = on_create.push(Stmt::TxnAdd {
                    container: ResRef::id(format!("pane{i}_{lname}")),
                    fragment: self.qualify(frag),
                });
            }
            on_create = on_create.push(Stmt::TxnCommit);
        }
        // Hidden fragments: a switch method exists in the code (so the
        // static dependency is visible and reflection finds a container),
        // but no widget is wired to it.
        for frag in &spec.hidden_fragments {
            handlers.push(
                MethodDef::new(format!("show{frag}"))
                    .push(Stmt::GetFragmentManager { support: true })
                    .push(Stmt::BeginTransaction)
                    .push(Stmt::TxnReplace {
                        container: ResRef::id(container.clone()),
                        fragment: self.qualify(frag),
                    })
                    .push(Stmt::TxnCommit),
            );
        }

        let mut class =
            ClassDef::new(self.qualify(&spec.name), well_known::ACTIVITY).with_method(on_create);
        for h in handlers {
            class = class.with_method(h);
        }
        (class, Layout::new(layout_name, root))
    }

    fn lower_fragment(&self, spec: &FragmentSpec) -> (ClassDef, Layout) {
        let lname = spec.name.to_lowercase();
        let layout_name = format!("lay_frag_{lname}");
        let mut root = Widget::new(WidgetKind::Group).with_id(format!("frag_root_{lname}"));
        let mut on_create_view = MethodDef::new("onCreateView")
            .push(Stmt::InflateLayout(ResRef::layout(layout_name.clone())));
        for (group, name) in &spec.apis {
            on_create_view =
                on_create_view.push(Stmt::InvokeApi { group: group.clone(), name: name.clone() });
        }
        let mut handlers: Vec<MethodDef> = Vec::new();

        for target in &spec.links_to {
            let id = format!("fbtn_{lname}_{}", target.to_lowercase());
            root = root.with_child(
                Widget::new(WidgetKind::Button).with_id(id.clone()).with_text(target.clone()),
            );
            let h = format!("onGo{target}");
            on_create_view = on_create_view.push(Stmt::SetOnClick {
                widget: ResRef::id(id),
                handler: MethodName::new(h.clone()),
            });
            let mut handler =
                MethodDef::new(h).push(Stmt::NewIntent(IntentTarget::Class(self.qualify(target))));
            if let Some(tspec) = self.activities.iter().find(|a| &a.name == target) {
                if let Some(key) = &tspec.requires_extra {
                    handler = handler.push(Stmt::PutExtra { key: key.clone(), value: "1".into() });
                }
            }
            handlers.push(handler.push(Stmt::StartActivity { via_host: true }));
        }

        for target in &spec.switches_to {
            let id = format!("fswitch_{lname}_{}", target.to_lowercase());
            root = root.with_child(
                Widget::new(WidgetKind::Button).with_id(id.clone()).with_text(target.clone()),
            );
            let h = format!("onSwitch{target}");
            on_create_view = on_create_view.push(Stmt::SetOnClick {
                widget: ResRef::id(id),
                handler: MethodName::new(h.clone()),
            });
            let container = self
                .host_of(&spec.name)
                .map(|a| Self::container_id(&a.name))
                .unwrap_or_else(|| "content".to_string());
            handlers.push(
                MethodDef::new(h)
                    .push(Stmt::GetFragmentManager { support: true })
                    .push(Stmt::BeginTransaction)
                    .push(Stmt::TxnReplace {
                        container: ResRef::id(container),
                        fragment: self.qualify(target),
                    })
                    .push(Stmt::TxnCommit),
            );
        }

        if spec.webview {
            root =
                root.with_child(Widget::new(WidgetKind::WebView).with_id(format!("web_{lname}")));
        }
        for i in 0..spec.extra_widgets {
            root = root.with_child(Widget::new(WidgetKind::TextView).with_text(format!("row {i}")));
        }

        let mut class = ClassDef::new(self.qualify(&spec.name), well_known::SUPPORT_FRAGMENT)
            .with_method(on_create_view);
        if spec.ctor_args {
            class = class
                .with_method(MethodDef::new(MethodName::ctor()).with_param("java.lang.String"));
        }
        for h in handlers {
            class = class.with_method(h);
        }
        (class, Layout::new(layout_name, root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_droidsim::{Device, EventOutcome};

    fn two_screen_app() -> GeneratedApp {
        AppBuilder::new("gen.demo")
            .meta("Tools", 50_000)
            .activity(
                ActivitySpec::new("Main")
                    .launcher()
                    .initial_fragment("Home")
                    .drawer(["Feed"])
                    .button_to("Second")
                    .with_dialog(),
            )
            .activity(ActivitySpec::new("Second").requires_extra("id"))
            .fragment(FragmentSpec::new("Home").api("internet", "connect").switch_to("Feed"))
            .fragment(FragmentSpec::new("Feed").link_to("Second"))
            .build()
    }

    #[test]
    fn built_app_validates_and_runs() {
        let gen = two_screen_app();
        let mut d = Device::new(gen.app);
        let out = d.launch().unwrap();
        assert!(out.changed_ui());
        let sig = d.signature().unwrap();
        assert_eq!(sig.activity.as_str(), "gen.demo.Main");
        assert_eq!(sig.fragments["content_main"].as_str(), "gen.demo.Home");
    }

    #[test]
    fn drawer_flow_switches_fragment() {
        let gen = two_screen_app();
        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        d.click("hamburger_main").unwrap();
        let out = d.click("menu_feed").unwrap();
        let EventOutcome::UiChanged { to, .. } = out else { panic!("{out:?}") };
        assert_eq!(to.fragments["content_main"].as_str(), "gen.demo.Feed");
    }

    #[test]
    fn fragment_switch_button_performs_e3_transition() {
        let gen = two_screen_app();
        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        let out = d.click("fswitch_home_feed").unwrap();
        let EventOutcome::UiChanged { to, .. } = out else { panic!("{out:?}") };
        assert_eq!(to.fragments["content_main"].as_str(), "gen.demo.Feed");
    }

    #[test]
    fn button_supplies_required_extras() {
        let gen = two_screen_app();
        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        // The generated handler put-extras "id", so Second starts cleanly.
        let out = d.click("btn_second").unwrap();
        let EventOutcome::UiChanged { to, .. } = out else { panic!("{out:?}") };
        assert_eq!(to.activity.as_str(), "gen.demo.Second");
    }

    #[test]
    fn known_gate_secrets_are_exported() {
        let gen = AppBuilder::new("gen.gated")
            .activity(ActivitySpec::new("Login").launcher().gate(GatedLink {
                target: "Inside".into(),
                secret: "s3cret".into(),
                input_known: true,
            }))
            .activity(ActivitySpec::new("Inside"))
            .build();
        assert_eq!(gen.known_inputs.get("input_login_0").map(String::as_str), Some("s3cret"));

        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        d.enter_text("input_login_0", "s3cret").unwrap();
        let out = d.click("submit_login_0").unwrap();
        assert!(
            matches!(out, EventOutcome::UiChanged { ref to, .. } if to.activity.as_str() == "gen.gated.Inside")
        );
    }

    #[test]
    fn unknown_gate_secrets_are_not_exported() {
        let gen = AppBuilder::new("gen.gated")
            .activity(ActivitySpec::new("Login").launcher().gate(GatedLink {
                target: "Inside".into(),
                secret: "place name".into(),
                input_known: false,
            }))
            .activity(ActivitySpec::new("Inside"))
            .build();
        assert!(gen.known_inputs.is_empty());
    }

    #[test]
    fn action_links_get_intent_filters() {
        let gen = AppBuilder::new("gen.act")
            .activity(ActivitySpec::new("Main").launcher().action_link("gen.act.VIEW", "Viewer"))
            .activity(ActivitySpec::new("Viewer"))
            .build();
        let decl = gen.app.manifest.activity("gen.act.Viewer").unwrap();
        assert!(decl.handles_action("gen.act.VIEW"));

        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        let out = d.click("act_viewer").unwrap();
        assert!(
            matches!(out, EventOutcome::UiChanged { ref to, .. } if to.activity.as_str() == "gen.act.Viewer")
        );
    }

    #[test]
    fn popup_menu_interrupts() {
        let gen = AppBuilder::new("gen.pop")
            .activity(ActivitySpec::new("Main").launcher().with_popup_menu())
            .build();
        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        let out = d.click("appbar_more_main").unwrap();
        assert_eq!(out, EventOutcome::OverlayShown);
    }

    #[test]
    fn direct_fragments_attach_without_manager() {
        let gen = AppBuilder::new("gen.direct")
            .activity(ActivitySpec::new("Main").launcher().direct_fragment("Raw"))
            .fragment(FragmentSpec::new("Raw"))
            .build();
        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        let pane = &d.current().unwrap().fragments["content_main"];
        assert!(!pane.via_manager);
    }
}

#[cfg(test)]
mod pane_tests {
    use super::*;
    use fd_droidsim::Device;

    #[test]
    fn multi_pane_activity_attaches_all_panes_at_once() {
        // The paper's §II-B multi-pane UI: a master list and a detail
        // pane, side by side in one activity.
        let gen = AppBuilder::new("gen.tablet")
            .activity(ActivitySpec::new("Browse").launcher().pane("MasterList").pane("Detail"))
            .fragment(FragmentSpec::new("MasterList").api("internet", "connect"))
            .fragment(FragmentSpec::new("Detail").api("storage", "open"))
            .build();
        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        let sig = d.signature().unwrap();
        assert_eq!(sig.fragments.len(), 2, "both panes attached: {sig}");
        assert_eq!(sig.fragments["pane0_browse"].as_str(), "gen.tablet.MasterList");
        assert_eq!(sig.fragments["pane1_browse"].as_str(), "gen.tablet.Detail");
        // Both panes' widgets are on screen simultaneously.
        assert!(d.current().unwrap().visible_widget("frag_root_masterlist").is_some());
        assert!(d.current().unwrap().visible_widget("frag_root_detail").is_some());
    }

    #[test]
    fn fragment_reused_across_two_activities() {
        // "reuse one Fragment across multiple Activities" (§II-B): the
        // same fragment class hosted by two activities; API attribution
        // distinguishes the hosts.
        let gen = AppBuilder::new("gen.reuse")
            .activity(
                ActivitySpec::new("Main").launcher().initial_fragment("Shared").button_to("Other"),
            )
            .activity(ActivitySpec::new("Other").initial_fragment("Shared"))
            .fragment(FragmentSpec::new("Shared").api("location", "getProviders"))
            .build();
        let mut d = Device::new(gen.app);
        d.launch().unwrap();
        d.click("btn_other").unwrap();
        let hosts: std::collections::BTreeSet<String> = d
            .monitor()
            .sequence()
            .iter()
            .filter_map(|i| match &i.caller {
                fd_droidsim::Caller::Fragment { host, .. } => Some(host.as_str().to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(hosts.len(), 2, "the shared fragment ran under both hosts: {hosts:?}");
    }
}

#[cfg(test)]
mod try_build_tests {
    use super::*;

    #[test]
    fn try_build_reports_dangling_links() {
        let result = AppBuilder::new("bad.app")
            .activity(ActivitySpec::new("Main").launcher().initial_fragment("Ghost"))
            .try_build();
        let problems = result.expect_err("missing fragment class must be reported");
        assert!(problems.iter().any(|p| p.contains("Ghost")), "{problems:?}");
    }

    #[test]
    fn try_build_matches_build_on_wellformed_specs() {
        let ok = AppBuilder::new("ok.app")
            .activity(ActivitySpec::new("Main").launcher())
            .try_build()
            .expect("well-formed");
        assert_eq!(ok.app.package(), "ok.app");
    }
}
