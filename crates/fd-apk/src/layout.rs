//! Layout files: inflatable widget trees.
//!
//! A layout is what `setContentView` / `inflate` instantiate. Widgets carry
//! symbolic resource-IDs; the paper's Algorithm 3 matches the IDs that
//! appear both in a layout and in a class's code to decide which Activity
//! or Fragment a widget belongs to.

use fd_smali::ResName;
use serde::{Deserialize, Serialize};

/// The kind of a widget, a small but representative subset of the Android
/// view classes the paper's apps exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WidgetKind {
    /// `android.widget.Button` — clickable by default.
    Button,
    /// `android.widget.ImageButton` — clickable by default (hamburger
    /// icons, action-bar items).
    ImageButton,
    /// `android.widget.TextView` — static text.
    TextView,
    /// `android.widget.EditText` — text input; the subject of input
    /// dependencies.
    EditText,
    /// `android.widget.CheckBox` — toggle input, clickable.
    CheckBox,
    /// `android.widget.ListView` — item list; items are modelled as
    /// children.
    ListView,
    /// A plain container (`LinearLayout`/`FrameLayout`).
    Group,
    /// A `ViewGroup` that hosts fragments (`R.id.fragment_container`).
    FragmentContainer,
    /// A `DrawerLayout` side panel — hidden until toggled (Fig. 2's
    /// "hidden slide menu").
    Drawer,
    /// A tab strip; tab children switch fragments (Fig. 1).
    TabBar,
    /// An action bar / toolbar hosting menu items.
    ActionBar,
    /// An embedded `WebView`.
    WebView,
}

impl WidgetKind {
    /// Whether widgets of this kind receive clicks by default.
    pub fn default_clickable(self) -> bool {
        matches!(self, WidgetKind::Button | WidgetKind::ImageButton | WidgetKind::CheckBox)
    }

    /// Whether this kind accepts text input.
    pub fn is_input(self) -> bool {
        matches!(self, WidgetKind::EditText | WidgetKind::CheckBox)
    }
}

/// One node of a layout's widget tree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Widget {
    /// View class.
    pub kind: WidgetKind,
    /// Symbolic resource-ID name (`R.id.<id>`); anonymous widgets have none.
    pub id: Option<ResName>,
    /// Display text / label.
    pub text: String,
    /// Whether the widget reacts to clicks. Non-interaction widgets are
    /// ruled out by Algorithm 3.
    pub clickable: bool,
    /// Whether the widget is initially visible. Drawers start hidden.
    pub visible: bool,
    /// Child widgets.
    pub children: Vec<Widget>,
}

impl Widget {
    /// Creates a widget with kind-default clickability and visibility
    /// (drawers start hidden, everything else visible).
    pub fn new(kind: WidgetKind) -> Self {
        Widget {
            kind,
            id: None,
            text: String::new(),
            clickable: kind.default_clickable(),
            visible: !matches!(kind, WidgetKind::Drawer),
            children: Vec::new(),
        }
    }

    /// Sets the resource-ID name (builder style).
    pub fn with_id(mut self, id: impl Into<ResName>) -> Self {
        self.id = Some(id.into());
        self
    }

    /// Sets the display text (builder style).
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Overrides clickability (builder style).
    pub fn clickable(mut self, yes: bool) -> Self {
        self.clickable = yes;
        self
    }

    /// Adds a child (builder style).
    pub fn with_child(mut self, child: Widget) -> Self {
        self.children.push(child);
        self
    }

    /// Adds many children (builder style).
    pub fn with_children(mut self, children: impl IntoIterator<Item = Widget>) -> Self {
        self.children.extend(children);
        self
    }

    /// Depth-first iteration over this widget and all descendants.
    pub fn iter(&self) -> WidgetIter<'_> {
        WidgetIter {
            root: Some(self),
            inline: std::array::from_fn(|_| [].iter()),
            deeper: Vec::new(),
            depth: 0,
        }
    }

    /// Finds a descendant (or self) by resource-ID name.
    pub fn find_by_id(&self, id: &str) -> Option<&Widget> {
        self.iter().find(|w| w.id.as_deref() == Some(id))
    }

    /// All resource-ID names declared in this subtree, in depth-first order.
    pub fn ids(&self) -> Vec<&str> {
        self.iter().filter_map(|w| w.id.as_deref()).collect()
    }
}

/// Depth-first widget iterator (pre-order, children visited left to right).
///
/// It keeps one cursor per open level of the tree: the first
/// [`WidgetIter::INLINE_DEPTH`] levels live inside the iterator, so a
/// walk of a layout no deeper than that allocates nothing.
pub struct WidgetIter<'a> {
    /// The root, until it is yielded.
    root: Option<&'a Widget>,
    /// The unvisited siblings on each open level, outermost first.
    inline: [std::slice::Iter<'a, Widget>; WidgetIter::INLINE_DEPTH],
    /// The levels below the inline ones, innermost last.
    deeper: Vec<std::slice::Iter<'a, Widget>>,
    /// Open levels, inline and deeper.
    depth: usize,
}

impl WidgetIter<'_> {
    /// Tree levels walked without allocating.
    pub const INLINE_DEPTH: usize = 8;
}

impl<'a> Iterator for WidgetIter<'a> {
    type Item = &'a Widget;

    fn next(&mut self) -> Option<Self::Item> {
        let widget = match self.root.take() {
            Some(root) => root,
            None => loop {
                let level = match self.depth {
                    0 => return None,
                    d if d <= Self::INLINE_DEPTH => &mut self.inline[d - 1],
                    _ => self.deeper.last_mut().expect("levels past the inline ones"),
                };
                match level.next() {
                    Some(widget) => break widget,
                    None => {
                        if self.depth > Self::INLINE_DEPTH {
                            self.deeper.pop();
                        }
                        self.depth -= 1;
                    }
                }
            },
        };
        if !widget.children.is_empty() {
            if self.depth < Self::INLINE_DEPTH {
                self.inline[self.depth] = widget.children.iter();
            } else {
                self.deeper.push(widget.children.iter());
            }
            self.depth += 1;
        }
        Some(widget)
    }
}

/// A named layout file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    /// The layout resource name (`R.layout.<name>`).
    pub name: ResName,
    /// The root widget.
    pub root: Widget,
}

impl Layout {
    /// Creates a layout.
    pub fn new(name: impl Into<ResName>, root: Widget) -> Self {
        Layout { name: name.into(), root }
    }

    /// All resource-ID names this layout declares.
    pub fn widget_ids(&self) -> Vec<&str> {
        self.root.ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Widget {
        Widget::new(WidgetKind::Group)
            .with_id("root")
            .with_child(Widget::new(WidgetKind::Button).with_id("go").with_text("GO"))
            .with_child(
                Widget::new(WidgetKind::Drawer)
                    .with_id("drawer")
                    .with_child(Widget::new(WidgetKind::TextView).with_id("item").clickable(true)),
            )
    }

    #[test]
    fn default_clickability_by_kind() {
        assert!(Widget::new(WidgetKind::Button).clickable);
        assert!(!Widget::new(WidgetKind::TextView).clickable);
        assert!(Widget::new(WidgetKind::CheckBox).clickable);
    }

    #[test]
    fn drawers_start_hidden() {
        assert!(!Widget::new(WidgetKind::Drawer).visible);
        assert!(Widget::new(WidgetKind::Group).visible);
    }

    #[test]
    fn iteration_is_preorder() {
        let t = tree();
        let ids: Vec<_> = t.iter().filter_map(|w| w.id.as_deref()).collect();
        assert_eq!(ids, vec!["root", "go", "drawer", "item"]);
    }

    #[test]
    fn iteration_past_the_inline_depth_stays_preorder() {
        // A chain twice as deep as the inline levels, with a sibling at
        // every level: pre-order visits the chain down, then the
        // siblings back up.
        let depth = 2 * WidgetIter::INLINE_DEPTH;
        let mut tree = Widget::new(WidgetKind::Button).with_id(format!("leaf{depth}"));
        for level in (0..depth).rev() {
            tree = Widget::new(WidgetKind::Group)
                .with_id(format!("chain{level}"))
                .with_child(tree)
                .with_child(Widget::new(WidgetKind::TextView).with_id(format!("side{level}")));
        }
        let ids: Vec<String> =
            tree.iter().filter_map(|w| w.id.as_deref()).map(String::from).collect();
        let mut expected: Vec<String> = (0..depth).map(|l| format!("chain{l}")).collect();
        expected.push(format!("leaf{depth}"));
        expected.extend((0..depth).rev().map(|l| format!("side{l}")));
        assert_eq!(ids, expected);
    }

    #[test]
    fn find_by_id_descends() {
        let t = tree();
        assert_eq!(t.find_by_id("item").unwrap().kind, WidgetKind::TextView);
        assert!(t.find_by_id("missing").is_none());
    }

    #[test]
    fn layout_ids() {
        let l = Layout::new("main", tree());
        assert_eq!(l.widget_ids(), vec!["root", "go", "drawer", "item"]);
    }
}
