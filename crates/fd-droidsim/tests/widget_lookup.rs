//! Differential test of the widget lookup behind `click` and
//! `enter_text`: `Screen::visible_widget(id)` stops at the first visible
//! match, and must pick exactly what a search of the full
//! `visible_widgets()` sweep picks — the same widget, the same bounds,
//! the same choice among duplicate ids.

use fd_apk::{Layout, Widget, WidgetKind};
use fd_droidsim::{Device, EventOutcome, FragmentPane, Intent, Overlay, Screen, VisibleWidget};
use fd_smali::ResName;
use std::sync::Arc;

/// The reference lookup: search the whole sweep list.
fn slow_lookup(screen: &Screen, id: &str) -> Option<VisibleWidget> {
    screen.visible_widgets().into_iter().find(|w| w.id.as_deref() == Some(id))
}

/// Every id the screen's inflated layouts declare, hidden ones included.
fn layout_ids(screen: &Screen) -> Vec<ResName> {
    let panes = screen.fragments.values().filter_map(|p| p.layout.as_ref());
    screen
        .layout
        .iter()
        .chain(panes)
        .flat_map(|l| l.root.iter().filter_map(|w| w.id.clone()))
        .collect()
}

/// Asserts both lookups agree for every declared id and one undeclared
/// id; returns `(found, not found)` counts.
fn check(screen: &Screen) -> (usize, usize) {
    let mut counts = (0, 0);
    for id in layout_ids(screen).iter().map(ResName::as_str).chain(["no_such_id"]) {
        let fast = screen.visible_widget(id);
        assert_eq!(fast, slow_lookup(screen, id), "lookup of {id:?} on {}", screen.signature());
        if fast.is_some() {
            counts.0 += 1;
        } else {
            counts.1 += 1;
        }
    }
    counts
}

/// A tiny deterministic generator, so the walk needs no RNG crate.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }
}

#[test]
fn fast_lookup_matches_the_full_sweep_on_replayed_apps() {
    let (mut screens, mut overlays, mut drawers_open) = (0, 0, 0);
    let (mut found, mut missed_declared) = (0, 0);
    for seed in 0..40u64 {
        let mut app = fd_appgen::random::generate(
            "lookup.app",
            &fd_appgen::random::GenConfig::default(),
            seed,
        )
        .app;
        app.manifest.add_main_action_everywhere();
        let activities: Vec<String> =
            app.manifest.activities.iter().map(|d| d.name.as_str().to_string()).collect();
        let fragments: Vec<String> = app
            .classes
            .iter()
            .filter(|c| app.classes.is_fragment_class(c.name.as_str()))
            .map(|c| c.name.as_str().to_string())
            .collect();
        let mut device = Device::new(app);
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        for _ in 0..200 {
            let widgets = device.visible_widgets();
            let pick = |rng: &mut XorShift, inputs: bool| {
                let ids: Vec<&str> = widgets
                    .iter()
                    .filter(|w| if inputs { w.kind.is_input() } else { w.clickable })
                    .filter_map(|w| w.id.as_deref())
                    .collect();
                ids.get(rng.below(ids.len())).map(|id| id.to_string())
            };
            // Errors (no widget, not running, failed reflection) are part
            // of the walk: the device just stays where it is.
            let _ = match rng.below(12) {
                0 => device.launch(),
                1..=5 => match pick(&mut rng, false) {
                    Some(id) => device.click(&id),
                    None => device.launch(),
                },
                6 => match pick(&mut rng, true) {
                    Some(id) => device.enter_text(&id, "secret").map(|()| EventOutcome::NoChange),
                    None => device.back(),
                },
                7 => device.back(),
                8 => device.swipe_open_drawer(),
                9 => device.dismiss_overlay(),
                10 => device.reflect_switch_fragment(&fragments[rng.below(fragments.len())]),
                _ => device.am_start(&activities[rng.below(activities.len())]),
            };
            let Some(screen) = device.current() else { continue };
            let (hits, misses) = check(screen);
            screens += 1;
            found += hits;
            missed_declared += misses - 1;
            overlays += usize::from(screen.overlay.is_some());
            drawers_open += usize::from(!screen.open_drawers.is_empty());
        }
    }
    // The walk must actually reach the interesting states.
    assert!(screens > 4_000, "screens checked: {screens}");
    assert!(found > 10_000, "visible lookups: {found}");
    assert!(missed_declared > 1_000, "declared-but-hidden lookups: {missed_declared}");
    assert!(overlays > 100, "screens under an overlay: {overlays}");
    assert!(drawers_open > 100, "screens with an open drawer: {drawers_open}");
}

fn screen(root: Widget) -> Screen {
    let mut s = Screen::new("a.Main".into(), Intent::empty());
    s.layout = Some(Arc::new(Layout::new("main", root)));
    s
}

fn pane(fragment: &str, root: Widget) -> FragmentPane {
    FragmentPane {
        fragment: fragment.into(),
        layout: Some(Arc::new(Layout::new("pane", root))),
        via_manager: true,
    }
}

fn drawer_layout() -> Widget {
    Widget::new(WidgetKind::Group)
        .with_child(Widget::new(WidgetKind::ImageButton).with_id("hamburger"))
        .with_child(
            Widget::new(WidgetKind::Drawer)
                .with_id("drawer")
                .with_child(Widget::new(WidgetKind::TextView).with_id("item").clickable(true))
                .with_child(Widget::new(WidgetKind::FragmentContainer).with_id("drawer_content")),
        )
        .with_child(Widget::new(WidgetKind::Button).with_id("after"))
}

#[test]
fn an_overlay_masks_every_id() {
    let mut s = screen(drawer_layout());
    s.overlay = Some(Overlay::Dialog { id: "confirm".into() });
    for id in ["hamburger", "drawer", "item", "after"] {
        assert_eq!(s.visible_widget(id), None);
    }
    check(&s);
}

#[test]
fn a_closed_drawer_hides_its_subtree_and_takes_no_row() {
    let mut s = screen(drawer_layout());
    assert_eq!(s.visible_widget("item"), None);
    assert_eq!(s.visible_widget("drawer"), None);
    // Hidden widgets do not consume rows: `after` sits right below the
    // hamburger while the drawer is closed.
    assert_eq!(s.visible_widget("after").expect("visible").bounds.1, 64 + 2 * 48);
    check(&s);

    s.open_drawers.insert("drawer".into());
    assert!(s.visible_widget("item").is_some());
    assert_eq!(s.visible_widget("after").expect("visible").bounds.1, 64 + 5 * 48);
    check(&s);
}

#[test]
fn a_pane_in_a_closed_drawer_container_is_hidden() {
    let mut s = screen(drawer_layout());
    s.fragments.insert(
        "drawer_content".into(),
        pane("a.F", Widget::new(WidgetKind::Button).with_id("pane_btn")),
    );
    assert_eq!(s.visible_widget("pane_btn"), None);
    check(&s);

    s.open_drawers.insert("drawer".into());
    // Pane widgets come after every activity-layout widget.
    assert_eq!(s.visible_widget("pane_btn").expect("visible").bounds.1, 64 + 6 * 48);
    check(&s);
}

#[test]
fn a_duplicate_id_resolves_to_its_first_visible_occurrence() {
    let root = Widget::new(WidgetKind::Group)
        .with_child(
            Widget::new(WidgetKind::Drawer)
                .with_id("drawer")
                .with_child(Widget::new(WidgetKind::Button).with_id("dup").with_text("hidden")),
        )
        .with_child(Widget::new(WidgetKind::Button).with_id("dup").with_text("shown"))
        .with_child(Widget::new(WidgetKind::FragmentContainer).with_id("content"));
    let mut s = screen(root);
    s.fragments
        .insert("content".into(), pane("a.F", Widget::new(WidgetKind::Button).with_id("dup")));

    let hit = s.visible_widget("dup").expect("one copy is visible");
    assert_eq!(hit.text, "shown");
    assert_eq!(hit.bounds.1, 64 + 48);
    check(&s);

    // Opening the drawer makes the first copy the visible match.
    s.open_drawers.insert("drawer".into());
    assert_eq!(s.visible_widget("dup").expect("visible").text, "hidden");
    check(&s);
}
