//! The seven raw transition types and the 7 → 3 merge of §IV-A.

use crate::graph::Edge;
use fd_smali::ClassName;
use serde::{Deserialize, Serialize};

/// One of the seven transition types the paper observes in practice,
/// before merging. Fragment-rooted transitions carry the fragment's host
/// activity, because the merge re-roots them there.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RawTransition {
    /// `A → A`: activity to (external) activity.
    ActivityToActivity {
        /// Source activity.
        from: ClassName,
        /// Target activity.
        to: ClassName,
    },
    /// `A → Fᵢ`: activity to one of its own fragments.
    ActivityToOwnFragment {
        /// Host activity.
        activity: ClassName,
        /// The fragment shown.
        fragment: ClassName,
    },
    /// `F → Fᵢ`: fragment to fragment, same host activity.
    FragmentToFragment {
        /// The shared host activity.
        host: ClassName,
        /// Source fragment.
        from: ClassName,
        /// Target fragment.
        to: ClassName,
    },
    /// `A → F_o`: activity to a fragment living in *another* activity.
    ActivityToForeignFragment {
        /// Source activity.
        from: ClassName,
        /// The target fragment's host activity.
        host: ClassName,
        /// The fragment shown.
        fragment: ClassName,
    },
    /// `F → Aᵢ`: fragment back to its own host activity (ignored — "this
    /// transition must go through its host Activity").
    FragmentToHostActivity {
        /// The host activity.
        host: ClassName,
        /// The fragment.
        fragment: ClassName,
    },
    /// `F → A_o`: fragment to an external activity.
    FragmentToActivity {
        /// The source fragment's host activity.
        host: ClassName,
        /// Source fragment.
        fragment: ClassName,
        /// Target activity.
        to: ClassName,
    },
    /// `F → F_o`: fragment to a fragment of *another* activity.
    FragmentToForeignFragment {
        /// The source fragment's host activity.
        from_host: ClassName,
        /// Source fragment.
        fragment: ClassName,
        /// The target fragment's host activity.
        to_host: ClassName,
        /// Target fragment.
        to_fragment: ClassName,
    },
}

impl RawTransition {
    /// Merges this raw transition into basic E1/E2/E3 edges, following
    /// §IV-A exactly:
    ///
    /// * `F → Aᵢ` is dropped;
    /// * edges starting at a fragment are re-rooted at its host activity
    ///   (`F → A_o` ⇒ `A → A_o`, `F → F_o` ⇒ `A → F_o`);
    /// * `A → F_o` splits into `A → A'` (E1) plus `A' → Fᵢ` (E2).
    ///
    /// At most two edges come out, so they are yielded without a heap
    /// allocation.
    pub fn merge(self) -> impl Iterator<Item = Edge> {
        let edges = match self {
            RawTransition::ActivityToActivity { from, to } => [Some(Edge::e1(from, to)), None],
            RawTransition::ActivityToOwnFragment { activity, fragment } => {
                [Some(Edge::e2(activity, fragment)), None]
            }
            RawTransition::FragmentToFragment { host, from, to } => {
                [Some(Edge::e3(host, from, to)), None]
            }
            RawTransition::ActivityToForeignFragment { from, host, fragment } => {
                [Some(Edge::e1(from, host.clone())), Some(Edge::e2(host, fragment))]
            }
            RawTransition::FragmentToHostActivity { .. } => [None, None],
            RawTransition::FragmentToActivity { host, fragment: _, to } => {
                [Some(Edge::e1(host, to)), None]
            }
            RawTransition::FragmentToForeignFragment {
                from_host,
                fragment: _,
                to_host,
                to_fragment,
            } => [Some(Edge::e1(from_host, to_host.clone())), Some(Edge::e2(to_host, to_fragment))],
        };
        edges.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;

    #[test]
    fn basic_three_map_to_themselves() {
        let e = RawTransition::ActivityToActivity { from: "a.A0".into(), to: "a.A1".into() }
            .merge()
            .collect::<Vec<_>>();
        assert_eq!(e, vec![Edge::e1("a.A0", "a.A1")]);

        let e = RawTransition::ActivityToOwnFragment {
            activity: "a.A0".into(),
            fragment: "a.F0".into(),
        }
        .merge()
        .collect::<Vec<_>>();
        assert_eq!(e, vec![Edge::e2("a.A0", "a.F0")]);

        let e = RawTransition::FragmentToFragment {
            host: "a.A0".into(),
            from: "a.F0".into(),
            to: "a.F1".into(),
        }
        .merge()
        .collect::<Vec<_>>();
        assert_eq!(e, vec![Edge::e3("a.A0", "a.F0", "a.F1")]);
    }

    #[test]
    fn fragment_to_host_is_dropped() {
        let e =
            RawTransition::FragmentToHostActivity { host: "a.A0".into(), fragment: "a.F0".into() }
                .merge()
                .collect::<Vec<_>>();
        assert!(e.is_empty());
    }

    #[test]
    fn fragment_to_external_activity_reroots_at_host() {
        let e = RawTransition::FragmentToActivity {
            host: "a.A0".into(),
            fragment: "a.F0".into(),
            to: "a.A1".into(),
        }
        .merge()
        .collect::<Vec<_>>();
        assert_eq!(e, vec![Edge::e1("a.A0", "a.A1")]);
    }

    #[test]
    fn activity_to_foreign_fragment_splits() {
        let e = RawTransition::ActivityToForeignFragment {
            from: "a.A0".into(),
            host: "a.A1".into(),
            fragment: "a.F9".into(),
        }
        .merge()
        .collect::<Vec<_>>();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0], Edge::e1("a.A0", "a.A1"));
        assert_eq!(e[1], Edge::e2("a.A1", "a.F9"));
    }

    #[test]
    fn fragment_to_foreign_fragment_reroots_then_splits() {
        let e = RawTransition::FragmentToForeignFragment {
            from_host: "a.A0".into(),
            fragment: "a.F0".into(),
            to_host: "a.A1".into(),
            to_fragment: "a.F9".into(),
        }
        .merge()
        .collect::<Vec<_>>();
        assert_eq!(e, vec![Edge::e1("a.A0", "a.A1"), Edge::e2("a.A1", "a.F9")]);
        // Every produced edge is one of the three basic kinds by
        // construction of `Edge`, but assert the kinds explicitly:
        assert_eq!(e[0].kind, EdgeKind::E1);
        assert_eq!(e[1].kind, EdgeKind::E2);
    }
}
