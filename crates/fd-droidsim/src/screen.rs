//! Runtime UI state: one entry of the activity back stack.

use fd_apk::{Layout, Widget, WidgetKind};
use fd_smali::{ClassName, MethodName, ResName};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::intent::Intent;
use crate::outcome::{UiSignature, UiState};

/// A modal overlay currently covering the screen.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Overlay {
    /// A dialog box.
    Dialog {
        /// The dialog's label.
        id: String,
    },
    /// An action-bar popup menu.
    PopupMenu {
        /// The menu's label.
        id: String,
    },
}

/// A fragment currently attached to a container of the activity layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentPane {
    /// The fragment class.
    pub fragment: ClassName,
    /// The fragment's inflated layout, if its `onCreateView` inflated one
    /// — shared with every other pane and screen showing it.
    pub layout: Option<Arc<Layout>>,
    /// Whether the fragment was attached through a `FragmentManager`
    /// transaction (`false` for `attach-direct` loads, which reflection
    /// cannot see).
    pub via_manager: bool,
}

/// A click/text handler wired by `set-on-click`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Handler {
    /// The class defining the handler method.
    pub class: ClassName,
    /// The handler method.
    pub method: MethodName,
    /// If the wiring happened in fragment code, that fragment.
    pub fragment: Option<ClassName>,
}

/// One visible widget, as an automation framework would report it
/// (uiautomator dump / Robotium's view list).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisibleWidget {
    /// Resource-ID name, if the widget has one.
    pub id: Option<ResName>,
    /// View kind.
    pub kind: WidgetKind,
    /// Display text.
    pub text: String,
    /// Whether it reacts to clicks (declared clickable and a handler may
    /// or may not be attached — clicking a handler-less widget is a
    /// no-op, as on a real device).
    pub clickable: bool,
    /// Synthetic screen bounds `(x, y, w, h)` in the top-to-bottom,
    /// left-to-right order the paper's Case-3 clicking sweep uses.
    pub bounds: (u32, u32, u32, u32),
}

/// One activity instance on the back stack with its runtime UI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Screen {
    /// The activity class.
    pub activity: ClassName,
    /// The intent it was launched with.
    pub intent: Intent,
    /// The activity's inflated layout (if `onCreate` set one) — shared
    /// with every other screen showing it.
    pub layout: Option<Arc<Layout>>,
    /// Attached fragments, keyed by container resource-ID name.
    pub fragments: BTreeMap<ResName, FragmentPane>,
    /// Click handlers keyed by widget resource-ID name.
    pub handlers: BTreeMap<ResName, Handler>,
    /// Current text of input widgets, keyed by resource-ID name.
    pub inputs: BTreeMap<ResName, String>,
    /// Drawer IDs currently open.
    pub open_drawers: BTreeSet<ResName>,
    /// The modal overlay, if any.
    pub overlay: Option<Overlay>,
}

impl Screen {
    /// Creates an empty screen for an activity.
    pub fn new(activity: ClassName, intent: Intent) -> Self {
        Screen {
            activity,
            intent,
            layout: None,
            fragments: BTreeMap::new(),
            handlers: BTreeMap::new(),
            inputs: BTreeMap::new(),
            open_drawers: BTreeSet::new(),
            overlay: None,
        }
    }

    /// The fragment-level UI signature of this screen: activity class +
    /// the set of manager-attached fragments + overlay kind + open
    /// drawers. This is the state identity FragDroid distinguishes;
    /// activity-level tools use only the first component.
    pub fn signature(&self) -> UiSignature {
        UiSignature::new(UiState {
            activity: self.activity.clone(),
            fragments: self
                .fragments
                .iter()
                .map(|(container, pane)| (container.clone(), pane.fragment.clone()))
                .collect(),
            overlay: self.overlay.as_ref().map(|o| match o {
                Overlay::Dialog { id } => format!("dialog:{id}"),
                Overlay::PopupMenu { id } => format!("menu:{id}"),
            }),
            open_drawers: self.open_drawers.clone(),
        })
    }

    /// The fragments attached through a `FragmentManager` — what Robotium
    /// can enumerate by reflecting `FragmentManager.getFragments()`.
    /// Direct-attached panes are invisible here, which is why FragDroid
    /// "cannot determine whether the Fragment is a real loading" for them.
    pub fn manager_fragments(&self) -> impl Iterator<Item = (&str, &ClassName)> {
        self.fragments
            .iter()
            .filter(|(_, pane)| pane.via_manager)
            .map(|(container, pane)| (container.as_str(), &pane.fragment))
    }

    /// Which fragment (if any) owns the widget with resource-ID `id`,
    /// judged by whose inflated layout declares it.
    pub fn owner_fragment_of(&self, id: &str) -> Option<&ClassName> {
        for pane in self.fragments.values() {
            if let Some(layout) = &pane.layout {
                if layout.root.find_by_id(id).is_some() {
                    return Some(&pane.fragment);
                }
            }
        }
        None
    }

    /// The widgets currently visible, in the top-to-bottom/left-to-right
    /// order the paper's clicking sweep assumes. Traversal: overlay (a
    /// modal blocks everything else) → activity layout (closed drawers
    /// skipped) → fragment panes in container order.
    pub fn visible_widgets(&self) -> Vec<VisibleWidget> {
        if let Some(overlay) = &self.overlay {
            // A modal overlay exposes only its own dismiss surface: we
            // report it as a single pseudo-widget so drivers can see that
            // something is covering the UI.
            let text = match overlay {
                Overlay::Dialog { id } => format!("dialog:{id}"),
                Overlay::PopupMenu { id } => format!("menu:{id}"),
            };
            return vec![VisibleWidget {
                id: None,
                kind: WidgetKind::Group,
                text,
                clickable: false,
                bounds: (0, 0, 720, 1280),
            }];
        }

        let mut out = Vec::new();
        self.walk_visible(|widget, bounds| {
            out.push(VisibleWidget::at(widget, bounds));
            false
        });
        out
    }

    /// Finds a visible widget by resource-ID: the first match in
    /// [`Screen::visible_widgets`] order, with the same bounds, cloning
    /// only that widget.
    pub fn visible_widget(&self, id: &str) -> Option<VisibleWidget> {
        self.find_visible(id).map(|(widget, bounds)| VisibleWidget::at(widget, bounds))
    }

    /// The layout widget [`Screen::visible_widget`] reports, borrowed:
    /// what event injection reads without copying anything.
    pub(crate) fn find_visible(&self, id: &str) -> Option<(&Widget, Bounds)> {
        let mut found = None;
        if self.overlay.is_none() {
            self.walk_visible(|widget, bounds| {
                let hit = widget.id.as_deref() == Some(id);
                if hit {
                    found = Some((widget, bounds));
                }
                hit
            });
        }
        found
    }

    /// Calls `visit` on each visible widget with its synthetic bounds, in
    /// sweep order — activity layout, then fragment panes in container
    /// order — until it returns `true`. Overlays are the callers' business.
    fn walk_visible<'s>(&'s self, mut visit: impl FnMut(&'s Widget, Bounds) -> bool) {
        let mut row = 0u32;
        let panes = self
            .fragments
            .iter()
            // A fragment pane is visible only if its container widget is.
            .filter(|(container, _)| self.container_visible(container))
            .filter_map(|(_, pane)| pane.layout.as_ref());
        for layout in self.layout.iter().chain(panes) {
            if self.walk_tree(&layout.root, &mut row, &mut visit) {
                return;
            }
        }
    }

    /// The pre-order part of [`Screen::walk_visible`] under `widget`: a
    /// hidden widget hides its whole subtree, each visible one takes the
    /// next row. Returns whether `visit` stopped the walk.
    fn walk_tree<'s>(
        &'s self,
        widget: &'s Widget,
        row: &mut u32,
        visit: &mut impl FnMut(&'s Widget, Bounds) -> bool,
    ) -> bool {
        let shown = if matches!(widget.kind, WidgetKind::Drawer) {
            widget.id.as_deref().map(|id| self.open_drawers.contains(id)).unwrap_or(false)
        } else {
            widget.visible
        };
        if !shown {
            return false;
        }
        let bounds = (16, 64 + *row * 48, 688, 40);
        *row += 1;
        visit(widget, bounds)
            || widget.children.iter().any(|child| self.walk_tree(child, row, visit))
    }

    fn container_visible(&self, container: &str) -> bool {
        let Some(layout) = &self.layout else { return true };
        // The container is visible unless it sits inside a closed drawer.
        fn search(
            w: &Widget,
            container: &str,
            inside_closed: bool,
            open: &BTreeSet<ResName>,
        ) -> Option<bool> {
            let closed_here = matches!(w.kind, WidgetKind::Drawer)
                && !w.id.as_deref().map(|id| open.contains(id)).unwrap_or(false);
            let inside = inside_closed || closed_here;
            if w.id.as_deref() == Some(container) {
                return Some(!inside);
            }
            for child in &w.children {
                if let Some(found) = search(child, container, inside, open) {
                    return Some(found);
                }
            }
            None
        }
        search(&layout.root, container, false, &self.open_drawers).unwrap_or(true)
    }
}

/// Synthetic screen bounds `(x, y, w, h)`.
type Bounds = (u32, u32, u32, u32);

impl VisibleWidget {
    /// The automation-framework view of a layout widget shown at `bounds`.
    fn at(widget: &Widget, bounds: Bounds) -> Self {
        VisibleWidget {
            id: widget.id.clone(),
            kind: widget.kind,
            text: widget.text.clone(),
            clickable: widget.clickable,
            bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_apk::Layout;

    fn screen_with_drawer() -> Screen {
        let layout = Layout::new(
            "main",
            Widget::new(WidgetKind::Group)
                .with_child(Widget::new(WidgetKind::ImageButton).with_id("hamburger"))
                .with_child(Widget::new(WidgetKind::Drawer).with_id("drawer").with_child(
                    Widget::new(WidgetKind::TextView).with_id("menu_item").clickable(true),
                ))
                .with_child(Widget::new(WidgetKind::FragmentContainer).with_id("content")),
        );
        let mut s = Screen::new("a.Main".into(), Intent::empty());
        s.layout = Some(Arc::new(layout));
        s
    }

    #[test]
    fn closed_drawer_hides_its_children() {
        let s = screen_with_drawer();
        let ids: Vec<_> = s.visible_widgets().into_iter().filter_map(|w| w.id).collect();
        assert!(ids.contains(&"hamburger".into()));
        assert!(!ids.contains(&"drawer".into()));
        assert!(!ids.contains(&"menu_item".into()));
    }

    #[test]
    fn open_drawer_reveals_children() {
        let mut s = screen_with_drawer();
        s.open_drawers.insert("drawer".into());
        let ids: Vec<_> = s.visible_widgets().into_iter().filter_map(|w| w.id).collect();
        assert!(ids.contains(&"menu_item".into()));
    }

    #[test]
    fn overlay_masks_everything() {
        let mut s = screen_with_drawer();
        s.overlay = Some(Overlay::Dialog { id: "confirm".into() });
        let widgets = s.visible_widgets();
        assert_eq!(widgets.len(), 1);
        assert!(widgets[0].text.contains("confirm"));
    }

    #[test]
    fn fragment_pane_widgets_are_listed_after_activity_widgets() {
        let mut s = screen_with_drawer();
        s.fragments.insert(
            "content".into(),
            FragmentPane {
                fragment: "a.HomeFragment".into(),
                layout: Some(Arc::new(Layout::new(
                    "frag_home",
                    Widget::new(WidgetKind::Button).with_id("frag_btn"),
                ))),
                via_manager: true,
            },
        );
        let ids: Vec<_> = s.visible_widgets().into_iter().filter_map(|w| w.id).collect();
        let h = ids.iter().position(|i| *i == "hamburger").unwrap();
        let f = ids.iter().position(|i| *i == "frag_btn").unwrap();
        assert!(h < f);
    }

    #[test]
    fn fragment_in_closed_drawer_container_is_hidden() {
        let layout = Layout::new(
            "main",
            Widget::new(WidgetKind::Group).with_child(
                Widget::new(WidgetKind::Drawer).with_id("drawer").with_child(
                    Widget::new(WidgetKind::FragmentContainer).with_id("drawer_content"),
                ),
            ),
        );
        let mut s = Screen::new("a.Main".into(), Intent::empty());
        s.layout = Some(Arc::new(layout));
        s.fragments.insert(
            "drawer_content".into(),
            FragmentPane {
                fragment: "a.F".into(),
                layout: Some(Arc::new(Layout::new(
                    "f",
                    Widget::new(WidgetKind::Button).with_id("b"),
                ))),
                via_manager: true,
            },
        );
        assert!(s.visible_widget("b").is_none());
        s.open_drawers.insert("drawer".into());
        assert!(s.visible_widget("b").is_some());
    }

    #[test]
    fn signature_reflects_fragments_and_overlay() {
        let mut s = screen_with_drawer();
        let base = s.signature();
        s.fragments.insert(
            "content".into(),
            FragmentPane { fragment: "a.F".into(), layout: None, via_manager: true },
        );
        let with_fragment = s.signature();
        assert_ne!(base, with_fragment);
        s.overlay = Some(Overlay::PopupMenu { id: "m".into() });
        assert_ne!(with_fragment, s.signature());
    }

    #[test]
    fn owner_fragment_of_maps_widget_to_pane() {
        let mut s = screen_with_drawer();
        s.fragments.insert(
            "content".into(),
            FragmentPane {
                fragment: "a.F".into(),
                layout: Some(Arc::new(Layout::new(
                    "f",
                    Widget::new(WidgetKind::Button).with_id("fb"),
                ))),
                via_manager: true,
            },
        );
        assert_eq!(s.owner_fragment_of("fb").unwrap().as_str(), "a.F");
        assert!(s.owner_fragment_of("hamburger").is_none());
    }
}
