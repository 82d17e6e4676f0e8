//! Topology deltas for dynamic graphs.
//!
//! A [`DeltaBatch`] collects edge insertions/deletions and node
//! additions/removals; [`Graph::apply_deltas`] rebuilds the CSR
//! incrementally — untouched nodes' neighbor slices are copied verbatim
//! (no re-sort), so their **ports are stable**: ports are indices into
//! the sorted neighbor list, and a node whose list did not change keeps
//! every port meaning exactly what it meant before. Only the reverse
//! ports are recomputed, by the same shared linear pass every
//! construction path uses (`Graph::from_sorted_halves` /
//! `Graph::from_csr_parts`).
//!
//! Node ids are **stable**: removing a node does not renumber anyone.
//! At the [`Graph`] level a removed node simply becomes isolated; the
//! [`DynGraph`] wrapper adds the *active* mask that distinguishes a
//! deliberately removed node from a merely isolated one, which is what
//! survivor-aware MIS verification consumes. New nodes append fresh ids
//! at the end (`n..n+k`).
//!
//! Deltas are idempotent in the delta-CRDT style: inserting an edge
//! that already exists or deleting one that does not is a no-op, not an
//! error — what *was applied* comes back in the [`AppliedDelta`] so
//! callers (incremental MIS repair) see only the effective changes.
//! Structural contradictions are errors: self loops, out-of-range
//! endpoints, the same edge both inserted and deleted in one batch, and
//! inserting an edge at a node the same batch removes.

use crate::graph::{Graph, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Error returned when a [`DeltaBatch`] cannot be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge endpoint is outside the post-batch id space.
    EndpointOutOfRange {
        /// The offending edge.
        edge: (NodeId, NodeId),
        /// The post-batch node count it was checked against.
        n: usize,
    },
    /// An edge connects a node to itself.
    SelfLoop(NodeId),
    /// A removed node id is `>= n` (nodes added by the same batch
    /// cannot be removed by it).
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The pre-batch node count it was checked against.
        n: usize,
    },
    /// The same edge appears in both the insert and the delete list.
    InsertDeleteConflict((NodeId, NodeId)),
    /// An inserted edge touches a node the same batch removes.
    EdgeToRemovedNode {
        /// The offending edge.
        edge: (NodeId, NodeId),
        /// The endpoint being removed.
        node: NodeId,
    },
    /// An inserted edge touches a node that was removed earlier
    /// ([`DynGraph`] only — plain graphs have no notion of inactive).
    InactiveEndpoint {
        /// The offending edge.
        edge: (NodeId, NodeId),
        /// The inactive endpoint.
        node: NodeId,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::EndpointOutOfRange { edge, n } => {
                write!(f, "edge ({}, {}) has endpoint out of range (n = {n})", edge.0, edge.1)
            }
            DeltaError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            DeltaError::NodeOutOfRange { node, n } => {
                write!(f, "removed node {node} out of range (n = {n})")
            }
            DeltaError::InsertDeleteConflict(e) => {
                write!(f, "edge ({}, {}) both inserted and deleted in one batch", e.0, e.1)
            }
            DeltaError::EdgeToRemovedNode { edge, node } => write!(
                f,
                "edge ({}, {}) inserted at node {node}, which the same batch removes",
                edge.0, edge.1
            ),
            DeltaError::InactiveEndpoint { edge, node } => write!(
                f,
                "edge ({}, {}) inserted at node {node}, which was removed earlier",
                edge.0, edge.1
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A batch of topology deltas, collected through the builder methods
/// and validated + deduplicated when applied.
///
/// # Example
///
/// ```
/// # use graphgen::{Graph, delta::DeltaBatch};
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
/// let mut batch = DeltaBatch::new();
/// batch.insert_edge(0, 3).delete_edge(1, 2).add_nodes(1).remove_node(2);
/// let (g2, applied) = g.apply_deltas(&batch)?;
/// assert_eq!(g2.n(), 5);
/// assert!(g2.has_edge(0, 3));
/// assert_eq!(g2.degree(2), 0); // removed node: isolated, id kept
/// assert_eq!(applied.added, vec![4]);
/// // The (2,3) edge went away implicitly with node 2's removal.
/// assert_eq!(applied.deleted, vec![(1, 2), (2, 3)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    insert_edges: Vec<(NodeId, NodeId)>,
    delete_edges: Vec<(NodeId, NodeId)>,
    add_nodes: usize,
    remove_nodes: Vec<NodeId>,
}

/// Canonical (undirected) form of an edge: `(min, max)`.
fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Queues an edge insertion (either orientation).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> &mut DeltaBatch {
        self.insert_edges.push(canon(u, v));
        self
    }

    /// Queues an edge deletion (either orientation).
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> &mut DeltaBatch {
        self.delete_edges.push(canon(u, v));
        self
    }

    /// Queues `k` node additions; the new ids are `n..n+k` in order.
    pub fn add_nodes(&mut self, k: usize) -> &mut DeltaBatch {
        self.add_nodes += k;
        self
    }

    /// Queues a node removal. The node keeps its id but loses every
    /// incident edge (and, under [`DynGraph`], its active status).
    pub fn remove_node(&mut self, v: NodeId) -> &mut DeltaBatch {
        self.remove_nodes.push(v);
        self
    }

    /// Whether the batch holds no operations at all.
    pub fn is_empty(&self) -> bool {
        self.insert_edges.is_empty()
            && self.delete_edges.is_empty()
            && self.add_nodes == 0
            && self.remove_nodes.is_empty()
    }

    /// Number of queued operations (before dedup/idempotence filtering).
    pub fn ops(&self) -> usize {
        self.insert_edges.len()
            + self.delete_edges.len()
            + self.add_nodes
            + self.remove_nodes.len()
    }

    /// The queued edge insertions, canonicalized `(min, max)`.
    pub fn insert_edges(&self) -> &[(NodeId, NodeId)] {
        &self.insert_edges
    }

    /// The queued edge deletions, canonicalized `(min, max)`.
    pub fn delete_edges(&self) -> &[(NodeId, NodeId)] {
        &self.delete_edges
    }

    /// The number of queued node additions.
    pub fn added_count(&self) -> usize {
        self.add_nodes
    }

    /// The queued node removals, as given.
    pub fn remove_nodes(&self) -> &[NodeId] {
        &self.remove_nodes
    }
}

/// What a [`DeltaBatch`] actually changed: the *effective* deltas after
/// validation, deduplication, and idempotence filtering. Every list is
/// sorted; edges are canonical `(min, max)`. This is the input the
/// incremental MIS repair consumes to compute its damage frontier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedDelta {
    /// Edges that were actually created.
    pub inserted: Vec<(NodeId, NodeId)>,
    /// Edges that were actually dropped — explicit deletions of edges
    /// that existed, plus every edge implicitly lost to a node removal.
    pub deleted: Vec<(NodeId, NodeId)>,
    /// Ids of the nodes the batch appended.
    pub added: Vec<NodeId>,
    /// Nodes that were removed (their ids survive, isolated).
    pub removed: Vec<NodeId>,
}

impl AppliedDelta {
    /// Whether nothing effectively changed.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.deleted.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
    }

    /// Total number of effective deltas.
    pub fn ops(&self) -> usize {
        self.inserted.len() + self.deleted.len() + self.added.len() + self.removed.len()
    }
}

impl Graph {
    /// Applies a delta batch, returning the new graph and the effective
    /// changes. Node ids are stable; removed nodes become isolated; new
    /// nodes take ids `n..n+k`. Untouched nodes keep their neighbor
    /// slices (and therefore their ports) verbatim — the CSR is rebuilt
    /// by per-node merge, not by a global re-sort.
    ///
    /// # Errors
    ///
    /// See [`DeltaError`]: out-of-range endpoints, self loops,
    /// insert/delete conflicts, and inserts at removed nodes.
    pub fn apply_deltas(&self, batch: &DeltaBatch) -> Result<(Graph, AppliedDelta), DeltaError> {
        let n = self.n();
        let n_new = n + batch.add_nodes;

        // Validate + canonicalize the node removals.
        let mut removed: Vec<NodeId> = batch.remove_nodes.clone();
        removed.sort_unstable();
        removed.dedup();
        if let Some(&v) = removed.iter().find(|&&v| v as usize >= n) {
            return Err(DeltaError::NodeOutOfRange { node: v, n });
        }
        let mut is_removed = vec![false; n_new];
        for &v in &removed {
            is_removed[v as usize] = true;
        }

        // Validate + canonicalize the edge lists.
        let check = |edges: &[(NodeId, NodeId)]| -> Result<Vec<(NodeId, NodeId)>, DeltaError> {
            let mut out = Vec::with_capacity(edges.len());
            for &(a, b) in edges {
                if a == b {
                    return Err(DeltaError::SelfLoop(a));
                }
                if a as usize >= n_new || b as usize >= n_new {
                    return Err(DeltaError::EndpointOutOfRange { edge: (a, b), n: n_new });
                }
                out.push(canon(a, b));
            }
            out.sort_unstable();
            out.dedup();
            Ok(out)
        };
        let ins = check(&batch.insert_edges)?;
        let del = check(&batch.delete_edges)?;
        if let Some(&e) = ins.iter().find(|e| del.binary_search(e).is_ok()) {
            return Err(DeltaError::InsertDeleteConflict(e));
        }
        for &(a, b) in &ins {
            for v in [a, b] {
                if is_removed[v as usize] {
                    return Err(DeltaError::EdgeToRemovedNode { edge: (a, b), node: v });
                }
            }
        }

        // Idempotence filtering: keep only inserts of absent edges and
        // deletes of present ones. Endpoints at `>= n` have no edges yet.
        let present =
            |&(a, b): &(NodeId, NodeId)| (a as usize) < n && (b as usize) < n && self.has_edge(a, b);
        let inserted: Vec<(NodeId, NodeId)> = ins.into_iter().filter(|e| !present(e)).collect();
        let mut deleted: Vec<(NodeId, NodeId)> = del.into_iter().filter(present).collect();
        // Node removals implicitly delete every incident edge.
        for &v in &removed {
            for &u in self.neighbors(v) {
                deleted.push(canon(v, u));
            }
        }
        deleted.sort_unstable();
        deleted.dedup();

        // Per-node effective delta lists, touched nodes only — an
        // untouched node's slice is copied verbatim below, which is what
        // keeps its ports stable.
        let mut touched: HashMap<NodeId, (Vec<NodeId>, Vec<NodeId>)> = HashMap::new();
        for &(a, b) in &inserted {
            touched.entry(a).or_default().0.push(b);
            touched.entry(b).or_default().0.push(a);
        }
        for &(a, b) in &deleted {
            touched.entry(a).or_default().1.push(b);
            touched.entry(b).or_default().1.push(a);
        }

        let half_count = (self.m() + inserted.len()).saturating_sub(deleted.len()) * 2;
        let mut offsets = Vec::with_capacity(n_new + 1);
        let mut targets: Vec<NodeId> = Vec::with_capacity(half_count);
        offsets.push(0usize);
        for v in 0..n_new as NodeId {
            let old: &[NodeId] = if (v as usize) < n { self.neighbors(v) } else { &[] };
            match touched.get_mut(&v) {
                None => targets.extend_from_slice(old),
                Some((adds, dels)) => {
                    adds.sort_unstable();
                    dels.sort_unstable();
                    // Merge: old neighbors minus dels, interleaved with
                    // adds, both ascending — output stays sorted.
                    let mut ai = 0;
                    let mut di = 0;
                    for &u in old {
                        while ai < adds.len() && adds[ai] < u {
                            targets.push(adds[ai]);
                            ai += 1;
                        }
                        if di < dels.len() && dels[di] == u {
                            di += 1;
                        } else {
                            targets.push(u);
                        }
                    }
                    targets.extend_from_slice(&adds[ai..]);
                }
            }
            offsets.push(targets.len());
        }

        let added: Vec<NodeId> = (n as NodeId..n_new as NodeId).collect();
        let applied = AppliedDelta { inserted, deleted, added, removed };
        Ok((Graph::from_csr_parts(offsets, targets), applied))
    }
}

/// A mutable graph with stable node ids and an *active* mask.
///
/// Removed nodes stay in the id space as inactive, isolated nodes; the
/// mask is exactly the `alive` vector survivor-aware MIS verification
/// (`check_mis_survivors`) consumes, so a removed node is exempt from
/// both independence and domination requirements. Re-inserting edges at
/// an inactive node is rejected — removal is permanent; growth happens
/// through fresh ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynGraph {
    graph: Graph,
    active: Vec<bool>,
    active_count: usize,
}

impl DynGraph {
    /// Wraps a static graph; every node starts active.
    pub fn new(graph: Graph) -> DynGraph {
        let n = graph.n();
        DynGraph { graph, active: vec![true; n], active_count: n }
    }

    /// The current topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The active mask (`true` = node participates).
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Whether `v` is active.
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v as usize]
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Total id-space size (active + removed).
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Applies a batch: removals of already-inactive nodes are no-ops
    /// (idempotent), inserts at inactive nodes are errors, everything
    /// else delegates to [`Graph::apply_deltas`]. Returns the effective
    /// changes.
    ///
    /// # Errors
    ///
    /// [`DeltaError::InactiveEndpoint`] for inserts at removed nodes,
    /// plus everything [`Graph::apply_deltas`] rejects.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<AppliedDelta, DeltaError> {
        for &(a, b) in &batch.insert_edges {
            for v in [a, b] {
                if (v as usize) < self.active.len() && !self.active[v as usize] {
                    return Err(DeltaError::InactiveEndpoint { edge: (a, b), node: v });
                }
            }
        }
        // Idempotence: drop removals of nodes that are already inactive.
        let needs_filter =
            batch.remove_nodes.iter().any(|&v| (v as usize) < self.active.len() && !self.active[v as usize]);
        let filtered;
        let effective = if needs_filter {
            filtered = DeltaBatch {
                insert_edges: batch.insert_edges.clone(),
                delete_edges: batch.delete_edges.clone(),
                add_nodes: batch.add_nodes,
                remove_nodes: batch
                    .remove_nodes
                    .iter()
                    .copied()
                    .filter(|&v| (v as usize) >= self.active.len() || self.active[v as usize])
                    .collect(),
            };
            &filtered
        } else {
            batch
        };
        let (graph, applied) = self.graph.apply_deltas(effective)?;
        self.graph = graph;
        self.active.resize(self.graph.n(), true);
        for &v in &applied.removed {
            self.active[v as usize] = false;
        }
        self.active_count = self.active_count + applied.added.len() - applied.removed.len();
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle5() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap()
    }

    #[test]
    fn edge_insert_and_delete() {
        let g = cycle5();
        let mut b = DeltaBatch::new();
        b.insert_edge(0, 2).delete_edge(3, 4);
        let (g2, applied) = g.apply_deltas(&b).unwrap();
        assert!(g2.has_edge(0, 2));
        assert!(!g2.has_edge(3, 4));
        assert_eq!(g2.m(), g.m()); // one in, one out
        assert_eq!(applied.inserted, vec![(0, 2)]);
        assert_eq!(applied.deleted, vec![(3, 4)]);
        assert!(applied.added.is_empty() && applied.removed.is_empty());
    }

    #[test]
    fn idempotent_deltas_are_no_ops() {
        let g = cycle5();
        let mut b = DeltaBatch::new();
        b.insert_edge(0, 1).insert_edge(1, 0).delete_edge(0, 2).delete_edge(2, 0);
        let (g2, applied) = g.apply_deltas(&b).unwrap();
        assert_eq!(g2, g);
        assert!(applied.is_empty());
        assert_eq!(applied.ops(), 0);
    }

    #[test]
    fn node_add_and_remove() {
        let g = cycle5();
        let mut b = DeltaBatch::new();
        b.add_nodes(2).insert_edge(5, 6).insert_edge(0, 5).remove_node(2).remove_node(2);
        let (g2, applied) = g.apply_deltas(&b).unwrap();
        assert_eq!(g2.n(), 7);
        assert_eq!(g2.degree(2), 0);
        assert!(g2.has_edge(5, 6) && g2.has_edge(0, 5));
        assert!(!g2.has_edge(1, 2) && !g2.has_edge(2, 3));
        assert_eq!(applied.added, vec![5, 6]);
        assert_eq!(applied.removed, vec![2]); // deduplicated
        assert_eq!(applied.deleted, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn validation_rejects_contradictions() {
        let g = cycle5();
        let mut b = DeltaBatch::new();
        b.insert_edge(1, 1);
        assert_eq!(g.apply_deltas(&b), Err(DeltaError::SelfLoop(1)));

        let mut b = DeltaBatch::new();
        b.insert_edge(0, 9);
        assert!(matches!(g.apply_deltas(&b), Err(DeltaError::EndpointOutOfRange { .. })));

        let mut b = DeltaBatch::new();
        b.insert_edge(0, 2).delete_edge(2, 0);
        assert_eq!(g.apply_deltas(&b), Err(DeltaError::InsertDeleteConflict((0, 2))));

        let mut b = DeltaBatch::new();
        b.remove_node(7);
        assert!(matches!(g.apply_deltas(&b), Err(DeltaError::NodeOutOfRange { .. })));

        let mut b = DeltaBatch::new();
        b.remove_node(2).insert_edge(2, 4);
        assert!(matches!(g.apply_deltas(&b), Err(DeltaError::EdgeToRemovedNode { .. })));
    }

    #[test]
    fn untouched_nodes_keep_their_ports() {
        // A denser graph where several nodes stay untouched.
        let g = Graph::from_edges(
            8,
            &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (1, 6)],
        )
        .unwrap();
        let mut b = DeltaBatch::new();
        b.insert_edge(3, 7).delete_edge(4, 5).add_nodes(1).insert_edge(2, 8);
        let (g2, _) = g.apply_deltas(&b).unwrap();
        // Touched: 3, 7 (insert), 4, 5 (delete), 2, 8 (insert). Nodes
        // 0, 1, 6 are untouched: identical neighbor lists, and every
        // port resolves to the same (neighbor, reverse-port-target)
        // pair as before.
        for v in [0u32, 1, 6] {
            assert_eq!(g.neighbors(v), g2.neighbors(v), "node {v} neighbor list drifted");
            for p in 0..g.degree(v) as u32 {
                let (u_old, _) = g.endpoint(v, p);
                let (u_new, q_new) = g2.endpoint(v, p);
                assert_eq!(u_old, u_new, "node {v} port {p} re-targeted");
                // The reverse port round-trips in the new graph.
                assert_eq!(g2.endpoint(u_new, q_new), (v, p));
            }
        }
        // And the rebuilt graph equals a from-scratch construction.
        let mut edges: Vec<(NodeId, NodeId)> =
            g.edges().filter(|&e| e != (4, 5)).collect();
        edges.push((3, 7));
        edges.push((2, 8));
        assert_eq!(g2, Graph::from_edges(9, &edges).unwrap());
    }

    #[test]
    fn dyn_graph_tracks_active_mask() {
        let mut d = DynGraph::new(cycle5());
        assert_eq!(d.active_count(), 5);
        let mut b = DeltaBatch::new();
        b.remove_node(1).add_nodes(1).insert_edge(0, 5);
        let applied = d.apply(&b).unwrap();
        assert_eq!(applied.removed, vec![1]);
        assert_eq!(d.n(), 6);
        assert_eq!(d.active_count(), 5);
        assert!(!d.is_active(1) && d.is_active(5));

        // Removing an inactive node again is a no-op, not an error.
        let mut b = DeltaBatch::new();
        b.remove_node(1);
        let applied = d.apply(&b).unwrap();
        assert!(applied.is_empty());
        assert_eq!(d.active_count(), 5);

        // Inserting at an inactive node is rejected.
        let mut b = DeltaBatch::new();
        b.insert_edge(1, 3);
        assert!(matches!(d.apply(&b), Err(DeltaError::InactiveEndpoint { node: 1, .. })));
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = cycle5();
        let (g2, applied) = g.apply_deltas(&DeltaBatch::new()).unwrap();
        assert_eq!(g2, g);
        assert!(applied.is_empty());
        assert!(DeltaBatch::new().is_empty());
    }

    #[test]
    fn delete_to_empty_and_isolated_nodes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut b = DeltaBatch::new();
        b.delete_edge(0, 1).delete_edge(1, 2).delete_edge(0, 2);
        let (g2, applied) = g.apply_deltas(&b).unwrap();
        assert_eq!(g2.m(), 0);
        assert_eq!(g2.n(), 3);
        assert_eq!(applied.deleted.len(), 3);
        // And back up from nothing.
        let mut b = DeltaBatch::new();
        b.insert_edge(0, 1);
        let (g3, _) = g2.apply_deltas(&b).unwrap();
        assert!(g3.has_edge(0, 1));
        assert_eq!(g3.degree(2), 0);
    }
}
