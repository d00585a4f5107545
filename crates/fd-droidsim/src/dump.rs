//! A `uiautomator dump`-style XML rendering of the current UI hierarchy.
//!
//! Tools like Dynodroid "leverage the Hierarchy Viewer … to infer a UI
//! model during execution". This module provides the equivalent artifact
//! for the simulated device: an XML document of the visible widget tree,
//! annotated with resource-IDs, classes, clickability, bounds, and — the
//! part real dumps lack — the owning fragment where one exists.

use crate::screen::Screen;
use fd_apk::{Widget, WidgetKind};
use std::fmt::Write;

fn widget_class(kind: WidgetKind) -> &'static str {
    match kind {
        WidgetKind::Button => "android.widget.Button",
        WidgetKind::ImageButton => "android.widget.ImageButton",
        WidgetKind::TextView => "android.widget.TextView",
        WidgetKind::EditText => "android.widget.EditText",
        WidgetKind::CheckBox => "android.widget.CheckBox",
        WidgetKind::ListView => "android.widget.ListView",
        WidgetKind::Group => "android.widget.LinearLayout",
        WidgetKind::FragmentContainer => "android.widget.FrameLayout",
        WidgetKind::Drawer => "androidx.drawerlayout.widget.DrawerLayout",
        WidgetKind::TabBar => "com.google.android.material.tabs.TabLayout",
        WidgetKind::ActionBar => "androidx.appcompat.widget.Toolbar",
        WidgetKind::WebView => "android.webkit.WebView",
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

fn dump_widget(out: &mut String, screen: &Screen, widget: &Widget, indent: usize) {
    let pad = "  ".repeat(indent);
    let id_attr = widget
        .id
        .as_deref()
        .map(|id| format!(" resource-id=\"{}\"", xml_escape(id)))
        .unwrap_or_default();
    let owner_attr = widget
        .id
        .as_deref()
        .and_then(|id| screen.owner_fragment_of(id))
        .map(|f| format!(" fragment=\"{}\"", xml_escape(f.as_str())))
        .unwrap_or_default();
    let text_attr = if widget.text.is_empty() {
        String::new()
    } else {
        format!(" text=\"{}\"", xml_escape(&widget.text))
    };
    let open = if widget.children.is_empty() { "/>" } else { ">" };
    let _ = writeln!(
        out,
        "{pad}<node class=\"{}\"{}{}{} clickable=\"{}\"{open}",
        widget_class(widget.kind),
        id_attr,
        text_attr,
        owner_attr,
        widget.clickable,
    );
    if !widget.children.is_empty() {
        for child in &widget.children {
            dump_widget(out, screen, child, indent + 1);
        }
        let _ = writeln!(out, "{pad}</node>");
    }
}

/// Renders the screen's full hierarchy (activity layout plus every
/// attached fragment pane) as an XML document.
pub fn dump_hierarchy(screen: &Screen) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    let _ = writeln!(out, "<hierarchy activity=\"{}\">", xml_escape(screen.activity.as_str()));
    if let Some(layout) = &screen.layout {
        dump_widget(&mut out, screen, &layout.root, 1);
    }
    for (container, pane) in &screen.fragments {
        let _ = writeln!(
            out,
            "  <fragment container=\"{}\" class=\"{}\" via-manager=\"{}\">",
            xml_escape(container),
            xml_escape(pane.fragment.as_str()),
            pane.via_manager,
        );
        if let Some(layout) = &pane.layout {
            dump_widget(&mut out, screen, &layout.root, 2);
        }
        let _ = writeln!(out, "  </fragment>");
    }
    out.push_str("</hierarchy>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::Intent;
    use crate::screen::FragmentPane;
    use fd_apk::Layout;
    use std::sync::Arc;

    #[test]
    fn dump_contains_widgets_fragments_and_escapes() {
        let mut screen = Screen::new("d.Main".into(), Intent::empty());
        screen.layout = Some(Arc::new(Layout::new(
            "m",
            Widget::new(WidgetKind::Group)
                .with_child(Widget::new(WidgetKind::Button).with_id("go").with_text("a<b&\"c\"")),
        )));
        screen.fragments.insert(
            "content".into(),
            FragmentPane {
                fragment: "d.F".into(),
                layout: Some(Arc::new(Layout::new(
                    "f",
                    Widget::new(WidgetKind::TextView).with_id("lbl"),
                ))),
                via_manager: true,
            },
        );
        let xml = dump_hierarchy(&screen);
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("activity=\"d.Main\""));
        assert!(xml.contains("resource-id=\"go\""));
        assert!(xml.contains("text=\"a&lt;b&amp;&quot;c&quot;\""));
        assert!(xml.contains("<fragment container=\"content\" class=\"d.F\" via-manager=\"true\">"));
        assert!(xml.contains("fragment=\"d.F\""), "widget annotated with owning fragment");
        assert!(xml.ends_with("</hierarchy>\n"));
    }

    #[test]
    fn childless_widgets_self_close() {
        let mut screen = Screen::new("d.Main".into(), Intent::empty());
        screen.layout =
            Some(Arc::new(Layout::new("m", Widget::new(WidgetKind::Button).with_id("b"))));
        let xml = dump_hierarchy(&screen);
        assert!(xml.contains("/>"));
        assert!(!xml.contains(
            "<node class=\"android.widget.Button\" resource-id=\"b\" clickable=\"true\">"
        ));
    }
}
