//! The AFTM graph structure.

use crate::transition::RawTransition;
use fd_smali::ClassName;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A node of the AFTM: an activity or a fragment.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// An activity class.
    Activity(ClassName),
    /// A fragment class.
    Fragment(ClassName),
}

impl NodeId {
    /// The underlying class name.
    pub fn class(&self) -> &ClassName {
        match self {
            NodeId::Activity(c) | NodeId::Fragment(c) => c,
        }
    }

    /// Whether this is an activity node.
    pub fn is_activity(&self) -> bool {
        matches!(self, NodeId::Activity(_))
    }

    /// Whether this is a fragment node.
    pub fn is_fragment(&self) -> bool {
        matches!(self, NodeId::Fragment(_))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Activity(c) => write!(f, "A({c})"),
            NodeId::Fragment(c) => write!(f, "F({c})"),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The three basic transition kinds of Definition 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// `A → A`: activity to activity.
    E1,
    /// `A → Fᵢ`: activity to one of its own fragments.
    E2,
    /// `F → Fᵢ`: fragment to fragment within the same host activity.
    E3,
}

/// A directed AFTM edge. For inner edges (E2/E3) `host` names the activity
/// the transition happens inside; for E1 it equals the source activity.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Transition kind.
    pub kind: EdgeKind,
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// The activity that hosts the transition.
    pub host: ClassName,
}

impl Edge {
    /// An `A → A` edge.
    pub fn e1(from: impl Into<ClassName>, to: impl Into<ClassName>) -> Self {
        let from = from.into();
        Edge {
            kind: EdgeKind::E1,
            host: from.clone(),
            from: NodeId::Activity(from),
            to: NodeId::Activity(to.into()),
        }
    }

    /// An `A → Fᵢ` edge.
    pub fn e2(activity: impl Into<ClassName>, fragment: impl Into<ClassName>) -> Self {
        let activity = activity.into();
        Edge {
            kind: EdgeKind::E2,
            host: activity.clone(),
            from: NodeId::Activity(activity),
            to: NodeId::Fragment(fragment.into()),
        }
    }

    /// An `F → Fᵢ` edge inside `host`.
    pub fn e3(
        host: impl Into<ClassName>,
        from: impl Into<ClassName>,
        to: impl Into<ClassName>,
    ) -> Self {
        Edge {
            kind: EdgeKind::E3,
            host: host.into(),
            from: NodeId::Fragment(from.into()),
            to: NodeId::Fragment(to.into()),
        }
    }
}

/// The Activity & Fragment Transition Model.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Aftm {
    nodes: BTreeSet<NodeId>,
    /// Nodes the dynamic phase has visited.
    visited: BTreeSet<NodeId>,
    edges: BTreeSet<Edge>,
    /// The entry activity `A0` (the launcher).
    entry: Option<ClassName>,
}

impl Aftm {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the entry activity `A0`, inserting its node.
    pub fn set_entry(&mut self, activity: impl Into<ClassName>) {
        let activity = activity.into();
        self.add_node(NodeId::Activity(activity.clone()));
        self.entry = Some(activity);
    }

    /// The entry activity, if set.
    pub fn entry(&self) -> Option<&ClassName> {
        self.entry.as_ref()
    }

    /// Inserts a node (unvisited); returns `true` if it was new.
    pub fn add_node(&mut self, node: NodeId) -> bool {
        self.nodes.insert(node)
    }

    /// Inserts an edge plus its endpoints; returns `true` if anything in
    /// the model changed — the signal that triggers another evolutionary
    /// round.
    pub fn add_edge(&mut self, edge: Edge) -> bool {
        // An edge the model holds already has both endpoints.
        if self.edges.contains(&edge) {
            return false;
        }
        let mut changed = self.add_node(edge.from.clone());
        changed |= self.add_node(edge.to.clone());
        changed |= self.edges.insert(edge);
        changed
    }

    /// Applies a raw (possibly 7-type) transition, merging it into basic
    /// edges per §IV-A; returns `true` if the model changed.
    pub fn apply(&mut self, raw: RawTransition) -> bool {
        let mut changed = false;
        for edge in raw.merge() {
            changed |= self.add_edge(edge);
        }
        changed
    }

    /// Marks a node visited; returns `true` if it existed and was
    /// previously unvisited.
    pub fn mark_visited(&mut self, node: &NodeId) -> bool {
        if !self.nodes.contains(node) {
            return false;
        }
        self.visited.insert(node.clone())
    }

    /// Whether `node` is marked visited.
    pub fn is_visited(&self, node: &NodeId) -> bool {
        self.visited.contains(node)
    }

    /// Whether the model contains `node`.
    pub fn contains(&self, node: &NodeId) -> bool {
        self.nodes.contains(node)
    }

    /// All nodes in order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeId> {
        self.nodes.iter()
    }

    /// All edges in order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Outgoing edges of `node`.
    pub fn edges_from<'a>(&'a self, node: &'a NodeId) -> impl Iterator<Item = &'a Edge> {
        self.edges.iter().filter(move |e| &e.from == node)
    }

    /// Activity nodes, in order.
    pub fn activities(&self) -> impl Iterator<Item = &ClassName> {
        self.nodes.iter().filter(|n| n.is_activity()).map(NodeId::class)
    }

    /// Fragment nodes, in order.
    pub fn fragments(&self) -> impl Iterator<Item = &ClassName> {
        self.nodes.iter().filter(|n| n.is_fragment()).map(NodeId::class)
    }

    /// Nodes not yet visited, in order.
    pub fn unvisited(&self) -> impl Iterator<Item = &NodeId> {
        self.nodes.iter().filter(|n| !self.visited.contains(*n))
    }

    /// Whether every node has been visited (one half of the paper's
    /// termination condition).
    pub fn all_visited(&self) -> bool {
        self.visited.len() == self.nodes.len()
    }

    /// Count of (activities, fragments).
    pub fn counts(&self) -> (usize, usize) {
        let a = self.nodes.iter().filter(|n| n.is_activity()).count();
        (a, self.nodes.len() - a)
    }

    /// The host activities a fragment is attached to, according to E2/E3
    /// edges.
    pub fn hosts_of_fragment(&self, fragment: &str) -> BTreeSet<&ClassName> {
        self.edges
            .iter()
            .filter(|e| matches!(&e.to, NodeId::Fragment(f) if f.as_str() == fragment))
            .map(|e| &e.host)
            .collect()
    }

    /// Fragments hosted by `activity` (targets of its E2 edges and of E3
    /// edges inside it).
    pub fn fragments_of_activity(&self, activity: &str) -> BTreeSet<&ClassName> {
        self.edges
            .iter()
            .filter(|e| e.kind != EdgeKind::E1 && e.host.as_str() == activity)
            .filter_map(|e| match &e.to {
                NodeId::Fragment(f) => Some(f),
                NodeId::Activity(_) => None,
            })
            .collect()
    }

    /// Breadth-first order over the model starting at the entry activity.
    /// This is the traversal the queue-generation module uses ("traverses
    /// the initial AFTM by breadth-first search").
    pub fn bfs_from_entry(&self) -> Vec<NodeId> {
        let Some(entry) = &self.entry else { return Vec::new() };
        let start = NodeId::Activity(entry.clone());
        if !self.nodes.contains(&start) {
            return Vec::new();
        }
        let mut order = Vec::new();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(start.clone());
        queue.push_back(start);
        while let Some(node) = queue.pop_front() {
            for edge in self.edges_from(&node) {
                if seen.insert(edge.to.clone()) {
                    queue.push_back(edge.to.clone());
                }
            }
            order.push(node);
        }
        order
    }

    /// The BFS-tree edge path from the entry to `target`, or `None` if
    /// unreachable. Queue items derive their operation lists from this.
    pub fn path_to(&self, target: &NodeId) -> Option<Vec<Edge>> {
        let entry = self.entry.as_ref()?;
        let start = NodeId::Activity(entry.clone());
        if &start == target {
            return Some(Vec::new());
        }
        let mut parent: BTreeMap<NodeId, Edge> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(start.clone());
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        seen.insert(start);
        while let Some(node) = queue.pop_front() {
            for edge in self.edges_from(&node) {
                if seen.insert(edge.to.clone()) {
                    parent.insert(edge.to.clone(), edge.clone());
                    if &edge.to == target {
                        // Reconstruct.
                        let mut path = Vec::new();
                        let mut cur = target.clone();
                        while let Some(e) = parent.get(&cur) {
                            path.push(e.clone());
                            cur = e.from.clone();
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(edge.to.clone());
                }
            }
        }
        None
    }

    /// Nodes reachable from the entry. The paper removes *isolated*
    /// activities; this is the reachability test backing that filter.
    pub fn reachable(&self) -> BTreeSet<NodeId> {
        self.bfs_from_entry().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 5 example: A0 → A1, A0 → A2, A0 → F0, F0 → F1, A2 → F2.
    fn fig5() -> Aftm {
        let mut m = Aftm::new();
        m.set_entry("app.A0");
        m.add_edge(Edge::e1("app.A0", "app.A1"));
        m.add_edge(Edge::e1("app.A0", "app.A2"));
        m.add_edge(Edge::e2("app.A0", "app.F0"));
        m.add_edge(Edge::e3("app.A0", "app.F0", "app.F1"));
        m.add_edge(Edge::e2("app.A2", "app.F2"));
        m
    }

    #[test]
    fn counts_and_membership() {
        let m = fig5();
        assert_eq!(m.counts(), (3, 3));
        assert!(m.contains(&NodeId::Fragment("app.F1".into())));
        assert!(!m.contains(&NodeId::Activity("app.F1".into())));
    }

    #[test]
    fn add_edge_reports_change_only_once() {
        let mut m = fig5();
        assert!(!m.add_edge(Edge::e1("app.A0", "app.A1")), "duplicate must not change");
        assert!(m.add_edge(Edge::e1("app.A1", "app.A2")), "new edge between old nodes");
    }

    #[test]
    fn visited_bookkeeping() {
        let mut m = fig5();
        let n = NodeId::Activity("app.A1".into());
        assert!(!m.is_visited(&n));
        assert!(m.mark_visited(&n));
        assert!(!m.mark_visited(&n), "second mark is a no-op");
        assert!(m.is_visited(&n));
        assert!(!m.mark_visited(&NodeId::Activity("app.Ghost".into())));
        assert_eq!(m.unvisited().count(), 5);
        assert!(!m.all_visited());
    }

    #[test]
    fn bfs_visits_everything_reachable_breadth_first() {
        let m = fig5();
        let order = m.bfs_from_entry();
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], NodeId::Activity("app.A0".into()));
        // F1 (depth 2) must come after all depth-1 nodes.
        let pos = |n: &NodeId| order.iter().position(|x| x == n).unwrap();
        let f1 = NodeId::Fragment("app.F1".into());
        for depth1 in ["app.A1", "app.A2"] {
            assert!(pos(&NodeId::Activity(depth1.into())) < pos(&f1));
        }
    }

    #[test]
    fn path_to_nested_fragment() {
        let m = fig5();
        let path = m.path_to(&NodeId::Fragment("app.F1".into())).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].kind, EdgeKind::E2);
        assert_eq!(path[1].kind, EdgeKind::E3);
        assert_eq!(path[1].to, NodeId::Fragment("app.F1".into()));
    }

    #[test]
    fn path_to_entry_is_empty() {
        let m = fig5();
        assert_eq!(m.path_to(&NodeId::Activity("app.A0".into())), Some(Vec::new()));
    }

    #[test]
    fn unreachable_node_has_no_path() {
        let mut m = fig5();
        m.add_node(NodeId::Activity("app.Isolated".into()));
        assert_eq!(m.path_to(&NodeId::Activity("app.Isolated".into())), None);
        assert!(!m.reachable().contains(&NodeId::Activity("app.Isolated".into())));
    }

    #[test]
    fn host_queries() {
        let m = fig5();
        let hosts = m.hosts_of_fragment("app.F1");
        assert_eq!(hosts.len(), 1);
        assert!(hosts.iter().any(|h| h.as_str() == "app.A0"));
        let frags = m.fragments_of_activity("app.A0");
        let names: Vec<&str> = frags.iter().map(|f| f.as_str()).collect();
        assert_eq!(names, vec!["app.F0", "app.F1"]);
    }

    #[test]
    fn serde_roundtrip() {
        let m = fig5();
        let json = serde_json::to_string(&m).unwrap();
        let back: Aftm = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
