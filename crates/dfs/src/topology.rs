//! Cluster rack topology.

use alm_types::{rack_of, NodeId, RackId};
use serde::Serialize;
use std::collections::BTreeMap;

/// Node ⟷ rack mapping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Topology {
    node_rack: BTreeMap<NodeId, RackId>,
}

impl Topology {
    /// `nodes` spread round-robin over `racks` racks (the common
    /// even-racks layout; the paper's testbed is one or two racks of
    /// identical machines).
    pub fn even(nodes: u32, racks: u32) -> Topology {
        let node_rack = (0..nodes).map(|n| (NodeId(n), RackId(rack_of(n, racks)))).collect();
        Topology { node_rack }
    }

    /// Explicit placement.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NodeId, RackId)>) -> Topology {
        Topology { node_rack: pairs.into_iter().collect() }
    }

    pub fn rack_of(&self, node: NodeId) -> Option<RackId> {
        self.node_rack.get(&node).copied()
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_rack.keys().copied()
    }

    pub fn num_racks(&self) -> usize {
        let mut racks: Vec<RackId> = self.node_rack.values().copied().collect();
        racks.sort_unstable();
        racks.dedup();
        racks.len()
    }

    /// Nodes in the same rack as `node`, excluding `node` itself.
    pub fn rack_peers(&self, node: NodeId) -> Vec<NodeId> {
        match self.rack_of(node) {
            None => Vec::new(),
            Some(rack) => {
                self.node_rack.iter().filter(|(n, r)| **r == rack && **n != node).map(|(n, _)| *n).collect()
            }
        }
    }

    /// Nodes in a different rack than `node`.
    pub fn off_rack_nodes(&self, node: NodeId) -> Vec<NodeId> {
        match self.rack_of(node) {
            None => self.nodes().collect(),
            Some(rack) => self.node_rack.iter().filter(|(_, r)| **r != rack).map(|(n, _)| *n).collect(),
        }
    }

    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        match (self.rack_of(a), self.rack_of(b)) {
            (Some(ra), Some(rb)) => ra == rb,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_layout() {
        let t = Topology::even(6, 2);
        assert_eq!(t.num_racks(), 2);
        assert_eq!(t.rack_of(NodeId(0)), Some(RackId(0)));
        assert_eq!(t.rack_of(NodeId(1)), Some(RackId(1)));
        assert!(t.same_rack(NodeId(0), NodeId(2)));
        assert!(!t.same_rack(NodeId(0), NodeId(1)));
        assert_eq!(t.rack_of(NodeId(99)), None);
    }

    #[test]
    fn peers_exclude_self_and_off_rack_disjoint() {
        let t = Topology::even(7, 2);
        let peers = t.rack_peers(NodeId(0));
        assert!(!peers.contains(&NodeId(0)));
        let off = t.off_rack_nodes(NodeId(0));
        for p in &peers {
            assert!(!off.contains(p));
        }
        assert_eq!(peers.len() + off.len() + 1, 7);
    }

    #[test]
    fn single_rack_has_no_off_rack() {
        let t = Topology::even(4, 1);
        assert!(t.off_rack_nodes(NodeId(0)).is_empty());
        assert_eq!(t.rack_peers(NodeId(0)).len(), 3);
    }
}
