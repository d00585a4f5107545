//! The Monkey: Google's random input exerciser ("the original approach of
//! UI testing is to inject random test cases into a running app").

use crate::stats::ExplorationStats;
use crate::UiExplorer;
use fd_apk::AndroidApp;
use fd_droidsim::Device;
use fd_smali::ResName;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The event mix: cumulative probability thresholds over one uniform
/// roll, mirroring Monkey's `--pct-*` flags.
#[derive(Clone, Copy, Debug)]
pub struct MonkeyMix {
    /// Probability of a back press.
    pub p_back: f64,
    /// Probability of an edge swipe (drawer gesture).
    pub p_swipe: f64,
    /// Probability of random text entry.
    pub p_text: f64,
    // The remainder is random clicks.
}

impl Default for MonkeyMix {
    fn default() -> Self {
        MonkeyMix { p_back: 0.05, p_swipe: 0.05, p_text: 0.10 }
    }
}

/// A seeded random event injector.
#[derive(Clone, Debug)]
pub struct Monkey {
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Number of events to inject.
    pub events: usize,
    /// The event mix.
    pub mix: MonkeyMix,
}

impl Monkey {
    /// A monkey with the given seed, event budget and the default mix.
    pub fn new(seed: u64, events: usize) -> Self {
        Monkey { seed, events, mix: MonkeyMix::default() }
    }

    /// Overrides the event mix (builder style).
    pub fn with_mix(mut self, mix: MonkeyMix) -> Self {
        self.mix = mix;
        self
    }
}

impl UiExplorer for Monkey {
    fn name(&self) -> &'static str {
        "Monkey"
    }

    fn explore(
        &self,
        app: &AndroidApp,
        _provided_inputs: &BTreeMap<String, String>,
    ) -> ExplorationStats {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut device = Device::new(app.clone());
        let mut stats = ExplorationStats::default();

        for _ in 0..self.events {
            if device.is_crashed() || device.current().is_none() {
                if device.launch().is_err() {
                    break;
                }
                stats.events += 1;
                stats.observe(&device);
                continue;
            }
            stats.events += 1;
            let roll: f64 = rng.gen();
            let outcome = if roll < self.mix.p_back {
                device.back()
            } else if roll < self.mix.p_back + self.mix.p_swipe {
                device.swipe_open_drawer()
            } else if roll < self.mix.p_back + self.mix.p_swipe + self.mix.p_text {
                // Random text into a random input widget.
                let inputs: Vec<ResName> = device
                    .visible_widgets()
                    .into_iter()
                    .filter(|w| w.kind == fd_apk::WidgetKind::EditText)
                    .filter_map(|w| w.id)
                    .collect();
                if inputs.is_empty() {
                    continue;
                }
                let id = &inputs[rng.gen_range(0..inputs.len())];
                let junk: String = (0..6).map(|_| rng.gen_range(b'a'..=b'z') as char).collect();
                device.enter_text(id, &junk).map(|()| fd_droidsim::EventOutcome::NoChange)
            } else {
                // Random click — including on the overlay-blocked screen,
                // where the only sensible move is dismissing it.
                if device.current().map(|s| s.overlay.is_some()).unwrap_or(false) {
                    device.dismiss_overlay()
                } else {
                    let clickables: Vec<ResName> = device
                        .visible_widgets()
                        .into_iter()
                        .filter(|w| w.clickable)
                        .filter_map(|w| w.id)
                        .collect();
                    if clickables.is_empty() {
                        device.back()
                    } else {
                        device.click(&clickables[rng.gen_range(0..clickables.len())])
                    }
                }
            };
            if matches!(outcome, Ok(fd_droidsim::EventOutcome::Crashed { .. })) {
                stats.crashes += 1;
            }
            stats.observe(&device);
        }
        stats.finish(&device);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_appgen::templates;

    #[test]
    fn monkey_is_deterministic_per_seed() {
        let gen = templates::quickstart();
        let m = Monkey::new(7, 300);
        let a = m.explore(&gen.app, &gen.known_inputs);
        let b = m.explore(&gen.app, &gen.known_inputs);
        assert_eq!(a, b);
    }

    #[test]
    fn monkey_explores_something_but_not_gated_content() {
        let gen = templates::quickstart();
        let stats = Monkey::new(7, 800).explore(&gen.app, &gen.known_inputs);
        assert!(!stats.visited_activities.is_empty());
        // The PIN gate needs "pin-1234"; random six-letter strings never
        // produce it, so Account stays unvisited.
        assert!(!stats.visited_activities.contains("com.example.quickstart.Account"));
    }

    #[test]
    fn different_seeds_can_differ() {
        let gen = templates::quickstart();
        let a = Monkey::new(1, 200).explore(&gen.app, &gen.known_inputs);
        let b = Monkey::new(2, 200).explore(&gen.app, &gen.known_inputs);
        // Not guaranteed in general, but with 200 random events on this
        // app the traces diverge immediately.
        assert!(a.events == b.events);
    }
}

#[cfg(test)]
mod reliability_tests {
    use super::*;
    use crate::UiExplorer;
    use fd_appgen::templates;

    /// The paper's §I point about random testing: Monkey "can occasionally
    /// reach these Fragments, [but] they are not programmable and cannot
    /// be controlled accurately". With a tight budget the hidden drawer
    /// fragment is a coin flip across seeds; FragDroid finds it every time.
    #[test]
    fn monkey_is_unreliable_on_hidden_fragments_where_fragdroid_is_not() {
        let gen = templates::nav_drawer_wallpapers();
        let target = "fig2.wallpapers.FavoritesFragment";

        let budget = 12;
        let mut found = 0;
        let seeds = 20;
        for seed in 0..seeds {
            let stats = Monkey::new(seed, budget).explore(&gen.app, &gen.known_inputs);
            if stats.visited_fragments.contains(target) {
                found += 1;
            }
        }
        assert!(
            found < seeds,
            "with {budget} events, at least one seed should miss the drawer fragment"
        );

        // FragDroid's systematic sweep needs more events than the lucky
        // Monkey seeds, but succeeds on EVERY run with a modest budget.
        let fd = fragdroid::FragDroid::new(fragdroid::FragDroidConfig {
            event_budget: 120,
            ..fragdroid::FragDroidConfig::default()
        })
        .run(&gen.app, &gen.known_inputs);
        assert!(
            fd.visited_fragments.contains(target),
            "FragDroid must find the drawer fragment deterministically"
        );
    }
}

#[cfg(test)]
mod mix_tests {
    use super::*;
    use crate::UiExplorer;
    use fd_appgen::templates;

    #[test]
    fn event_mix_changes_what_the_monkey_can_reach() {
        let gen = templates::nav_drawer_wallpapers();
        // A swipe-only monkey opens the drawer forever but never clicks a
        // menu item, so the drawer-only fragment stays unvisited…
        let swipe_only = Monkey::new(3, 40)
            .with_mix(MonkeyMix { p_back: 0.0, p_swipe: 1.0, p_text: 0.0 })
            .explore(&gen.app, &gen.known_inputs);
        assert!(!swipe_only.visited_fragments.contains("fig2.wallpapers.FavoritesFragment"));
        // …while the default mix (mostly clicks) reaches it with the same
        // seed and budget.
        let default_mix = Monkey::new(3, 40).explore(&gen.app, &gen.known_inputs);
        assert!(default_mix.visited_fragments.contains("fig2.wallpapers.FavoritesFragment"));
    }
}
