//! Mutable data-dependence graph with a transactional mutation layer.
//!
//! Besides the plain graph operations, [`DepGraph`] supports *checkpointed
//! transactions*: [`DepGraph::checkpoint`] starts (or marks a point inside)
//! a journaled transaction, every subsequent structural edit — node/edge
//! insertion and removal, operand rewiring through
//! [`DepGraph::replace_src`], value registration, producer changes —
//! records its inverse in an undo log, and [`DepGraph::rollback_to`]
//! replays those inverses to restore the graph *bit-identically* (same
//! adjacency-list and consumer-index orderings, same id allocation state)
//! in O(edits) instead of rebuilding from a clone in O(graph).
//!
//! The iterative scheduler is the motivating client: one working graph per
//! loop survives every II restart, rolled back between attempts instead of
//! being re-cloned per attempt.

use crate::ids::{NodeId, ValueId};
use crate::loop_ir::MemAccess;
use std::fmt;
use vliw::{LatencyModel, MemLatency, Opcode};

/// Identifier of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Numeric index of the edge.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Kind of dependence between two operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// True (flow) dependence through a register: producer → consumer.
    RegFlow,
    /// Anti dependence through a register: consumer → next definition.
    RegAnti,
    /// Output dependence through a register: definition → next definition.
    RegOutput,
    /// Dependence through memory (store/load ordering).
    Memory,
    /// Control dependence.
    Control,
}

/// A dependence edge with an iteration distance.
///
/// The modulo-scheduling constraint implied by an edge is
/// `cycle(to) ≥ cycle(from) + latency − II · distance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Dependence kind.
    pub kind: DepKind,
    /// Iteration distance (0 = same iteration, ≥ 1 = loop carried).
    pub distance: u32,
    /// Explicit latency override; when `None` the latency is derived from
    /// the producer opcode (flow) or the dependence kind.
    pub delay_override: Option<i64>,
    /// The value carried by a register dependence, if any. Used by the
    /// scheduler when rerouting dependences around spill and move nodes.
    pub value: Option<ValueId>,
}

/// Why a node exists in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeOrigin {
    /// Operation of the original loop body.
    Original,
    /// Store inserted by the register spiller for `value`.
    SpillStore {
        /// Spilled value.
        value: ValueId,
    },
    /// Load inserted by the register spiller for `value`.
    SpillLoad {
        /// Spilled value.
        value: ValueId,
    },
    /// Inter-cluster move of `value` inserted by the cluster assigner.
    Move {
        /// Moved value.
        value: ValueId,
    },
}

/// Payload of a graph node: one machine operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationData {
    /// Machine opcode.
    pub opcode: Opcode,
    /// Value defined by the operation (if any).
    pub dest: Option<ValueId>,
    /// Values read by the operation (may contain loop invariants).
    ///
    /// Crate-private on purpose: once the node is inserted, the graph keeps
    /// a value→consumers index over these operands, so all mutation must go
    /// through [`DepGraph::replace_src`]. Read access goes through
    /// [`OperationData::srcs`].
    pub(crate) srcs: Vec<ValueId>,
    /// Memory access pattern for loads/stores (used by the cache simulator).
    pub mem: Option<MemAccess>,
    /// Latency assumption used when scheduling this operation's result
    /// (binding prefetching schedules selected loads with miss latency).
    pub mem_latency: MemLatency,
    /// Provenance of the node.
    pub origin: NodeOrigin,
    /// Human-readable name for debugging and reports.
    pub name: String,
}

impl OperationData {
    /// New original operation.
    #[must_use]
    pub fn new(opcode: Opcode, dest: Option<ValueId>, srcs: Vec<ValueId>) -> Self {
        Self {
            opcode,
            dest,
            srcs,
            mem: None,
            mem_latency: MemLatency::Hit,
            origin: NodeOrigin::Original,
            name: String::new(),
        }
    }

    /// Scheduling latency of the operation under its memory assumption.
    #[must_use]
    pub fn latency(&self, lat: &LatencyModel) -> u32 {
        lat.latency_of(self.opcode, self.mem_latency)
    }

    /// Values read by the operation (may contain loop invariants).
    #[must_use]
    pub fn srcs(&self) -> &[ValueId] {
        &self.srcs
    }
}

/// A value (virtual register) of the loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueData {
    /// Human-readable name.
    pub name: String,
    /// Node producing the value; `None` for loop invariants (live-in values).
    pub producer: Option<NodeId>,
    /// Whether the value is loop invariant (single value for all iterations).
    pub invariant: bool,
}

/// One reversible primitive mutation, recorded while a transaction is
/// active. Undoing entries in reverse journal order restores the graph
/// bit-identically: tombstone slots, adjacency-list positions and
/// consumer-index orderings all come back exactly as they were.
#[derive(Debug, Clone)]
enum UndoOp {
    /// A value was appended by `add_value`.
    AddValue,
    /// A value's `(producer, invariant)` pair was overwritten.
    SetProducer {
        v: ValueId,
        producer: Option<NodeId>,
        invariant: bool,
    },
    /// `replace_src` rewrote `old` → `new` in the listed operand slots.
    ReplaceSrc {
        n: NodeId,
        old: ValueId,
        new: ValueId,
        slots: Vec<u32>,
    },
    /// A node was appended by `add_node` (its `set_producer` side effect is
    /// journaled separately, before this entry).
    AddNode,
    /// A node was tombstoned by `remove_node` (its incident-edge removals
    /// are journaled separately, before this entry).
    RemoveNode {
        n: NodeId,
        op: OperationData,
        cleared_producer: bool,
    },
    /// An edge was appended by `add_edge`.
    AddEdge,
    /// An edge was tombstoned by `remove_edge`; the positions it occupied
    /// in the endpoint adjacency lists are kept so the undo restores the
    /// exact iteration order.
    RemoveEdge {
        e: EdgeId,
        edge: DepEdge,
        succ_pos: u32,
        pred_pos: u32,
    },
    /// `op_mut` handed out mutable access to a node's payload; the whole
    /// payload is snapshotted since the borrow is unconstrained.
    MutateOp { n: NodeId, op: OperationData },
}

/// Opaque mark inside a [`DepGraph`] transaction, produced by
/// [`DepGraph::checkpoint`] and consumed by [`DepGraph::rollback_to`].
///
/// Checkpoints nest: rolling back to an outer checkpoint discards
/// everything after it, including inner checkpoints. A checkpoint is
/// invalidated by [`DepGraph::commit`] and by rolling back *past* it.
#[derive(Debug, Clone)]
pub struct GraphCheckpoint {
    journal_len: usize,
    epoch: u64,
    /// Transaction generation the checkpoint belongs to; a commit bumps the
    /// graph's generation, so stale checkpoints are detected instead of
    /// silently rolling back a *later* transaction's edits.
    generation: u64,
}

/// Mutable data-dependence graph of one loop body.
///
/// Node and edge ids are stable: removal leaves a tombstone, so ids held by
/// the scheduler never dangle silently (accessors panic on removed ids,
/// `contains`/`is_live` can be used to check).
///
/// See the module docs for the transactional checkpoint/rollback layer.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    nodes: Vec<Option<OperationData>>,
    values: Vec<ValueData>,
    edges: Vec<Option<DepEdge>>,
    succ: Vec<Vec<EdgeId>>,
    pred: Vec<Vec<EdgeId>>,
    /// Value→consumers index: for each value, the live nodes reading it,
    /// sorted by node id and deduplicated — exactly what a scan over every
    /// node's operand list would produce. Maintained by `add_node`,
    /// `remove_node` and `replace_src` so `consumers_of` is O(consumers)
    /// instead of O(nodes).
    consumers: Vec<Vec<NodeId>>,
    /// Undo log of the active transaction (empty while journaling is off).
    journal: Vec<UndoOp>,
    /// Whether mutations are currently journaled.
    journaling: bool,
    /// Monotonic-per-transaction structural version: bumped by every
    /// mutation, restored by rollback. Two equal epochs taken at
    /// checkpoint boundaries denote identical structure, so derived data
    /// (an HRMS order, cached heights) can be reused across rollbacks.
    /// Epochs taken *mid-transaction* must not be compared across a
    /// rollback (an equal count of different edits would alias).
    epoch: u64,
    /// Bumped by every [`DepGraph::commit`]; checkpoints carry the
    /// generation they were taken in, so `rollback_to` can reject
    /// checkpoints that a commit invalidated.
    generation: u64,
}

impl DepGraph {
    /// Create an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    // ----- values ---------------------------------------------------------

    /// Register a new value. `producer` may be filled in later with
    /// [`DepGraph::set_producer`].
    pub fn add_value(&mut self, name: impl Into<String>, invariant: bool) -> ValueId {
        let id = ValueId(u32::try_from(self.values.len()).expect("too many values"));
        self.values.push(ValueData {
            name: name.into(),
            producer: None,
            invariant,
        });
        self.consumers.push(Vec::new());
        self.epoch += 1;
        if self.journaling {
            self.journal.push(UndoOp::AddValue);
        }
        id
    }

    /// Value metadata.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn value(&self, v: ValueId) -> &ValueData {
        &self.values[v.index()]
    }

    /// Number of registered values.
    #[must_use]
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Iterate over all value ids.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.values.len()).map(|i| ValueId(i as u32))
    }

    /// Rename value `v`. Names are not journaled, so this is for a
    /// committed graph only: the scheduler names the values it inserted
    /// once per result, after the commit.
    ///
    /// # Panics
    ///
    /// Panics inside a transaction or if `v` is out of range.
    pub fn rename_value(&mut self, v: ValueId, name: String) {
        assert!(
            !self.journaling,
            "names are not journaled: rename after commit"
        );
        self.values[v.index()].name = name;
    }

    /// Set the producer of a value (also marks it non-invariant).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_producer(&mut self, v: ValueId, producer: NodeId) {
        if self.journaling {
            let old = &self.values[v.index()];
            self.journal.push(UndoOp::SetProducer {
                v,
                producer: old.producer,
                invariant: old.invariant,
            });
        }
        self.epoch += 1;
        let data = &mut self.values[v.index()];
        data.producer = Some(producer);
        data.invariant = false;
    }

    /// Nodes that read `v` (live nodes only), in node-id order.
    ///
    /// O(consumers): read from the maintained value→consumers index rather
    /// than scanning every node's operand list — `consumers_of` sits on the
    /// scheduler's hot path (cluster selection, spill-candidate selection,
    /// invariant-pressure derivation) and the scan dominated profiles once
    /// the rest of the inner loop became allocation-light.
    #[must_use]
    pub fn consumers_of(&self, v: ValueId) -> Vec<NodeId> {
        let found = self.consumers[v.index()].clone();
        debug_assert_eq!(
            found,
            self.node_ids()
                .filter(|&n| self.op(n).srcs.contains(&v))
                .collect::<Vec<_>>(),
            "consumer index for {v:?} drifted from the operand lists"
        );
        found
    }

    /// Borrowed variant of [`DepGraph::consumers_of`] for read-only hot
    /// paths (no allocation, no oracle check).
    #[must_use]
    pub fn consumer_ids(&self, v: ValueId) -> &[NodeId] {
        &self.consumers[v.index()]
    }

    /// Insert `n` into the consumer list of `v`, keeping it sorted and
    /// deduplicated.
    fn index_consumer(&mut self, v: ValueId, n: NodeId) {
        let list = &mut self.consumers[v.index()];
        if let Err(pos) = list.binary_search(&n) {
            list.insert(pos, n);
        }
    }

    /// Remove `n` from the consumer list of `v` (no-op if absent).
    fn unindex_consumer(&mut self, v: ValueId, n: NodeId) {
        let list = &mut self.consumers[v.index()];
        if let Ok(pos) = list.binary_search(&n) {
            list.remove(pos);
        }
    }

    /// Replace every occurrence of `old` in `n`'s operand list with `new`,
    /// keeping the value→consumers index current. Returns the number of
    /// operand slots rewritten.
    ///
    /// This is the only way to mutate a node's operands after insertion —
    /// the scheduler's spill insertion and move (un)rewiring all route
    /// through here.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not live or either value id is out of range.
    pub fn replace_src(&mut self, n: NodeId, old: ValueId, new: ValueId) -> usize {
        assert!(new.index() < self.values.len(), "value {new} out of range");
        if old == new {
            return self.op(n).srcs.iter().filter(|&&s| s == old).count();
        }
        let journaling = self.journaling;
        let op = self.nodes[n.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("node {n} is not live"));
        let mut replaced = 0;
        // Lazily allocated: empty until the first hit, and only filled when
        // a transaction is active (the undo must restore exactly the slots
        // that changed — the node may legitimately read `new` elsewhere).
        let mut slots: Vec<u32> = Vec::new();
        for (i, s) in op.srcs.iter_mut().enumerate() {
            if *s == old {
                *s = new;
                replaced += 1;
                if journaling {
                    slots.push(i as u32);
                }
            }
        }
        if replaced > 0 {
            self.unindex_consumer(old, n);
            self.index_consumer(new, n);
            self.epoch += 1;
            if journaling {
                self.journal.push(UndoOp::ReplaceSrc { n, old, new, slots });
            }
        }
        replaced
    }

    // ----- nodes ----------------------------------------------------------

    /// Add a node; if it defines a value the value's producer is updated.
    pub fn add_node(&mut self, data: OperationData) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        if let Some(dest) = data.dest {
            self.set_producer(dest, id);
        }
        for i in 0..data.srcs.len() {
            self.index_consumer(data.srcs[i], id);
        }
        self.nodes.push(Some(data));
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        self.epoch += 1;
        if self.journaling {
            self.journal.push(UndoOp::AddNode);
        }
        id
    }

    /// Remove a node and all edges incident to it. The node id becomes dead.
    ///
    /// If the node produced a value, the value keeps existing but loses its
    /// producer (callers re-point it as needed).
    ///
    /// # Panics
    ///
    /// Panics if `n` was already removed.
    pub fn remove_node(&mut self, n: NodeId) {
        assert!(self.is_live(n), "node {n} already removed");
        let incident: Vec<EdgeId> = self.succ[n.index()]
            .iter()
            .chain(self.pred[n.index()].iter())
            .copied()
            .collect();
        for e in incident {
            if self.edges[e.index()].is_some() {
                self.remove_edge(e);
            }
        }
        if let Some(op) = self.nodes[n.index()].take() {
            let mut cleared_producer = false;
            if let Some(dest) = op.dest {
                if self.values[dest.index()].producer == Some(n) {
                    self.values[dest.index()].producer = None;
                    cleared_producer = true;
                }
            }
            for &src in &op.srcs {
                self.unindex_consumer(src, n);
            }
            self.epoch += 1;
            if self.journaling {
                self.journal.push(UndoOp::RemoveNode {
                    n,
                    op,
                    cleared_producer,
                });
            }
        }
    }

    /// Whether `n` refers to a live (non-removed) node.
    #[must_use]
    pub fn is_live(&self, n: NodeId) -> bool {
        self.nodes
            .get(n.index())
            .map(Option::is_some)
            .unwrap_or(false)
    }

    /// Operation data of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` was removed or never existed.
    #[must_use]
    pub fn op(&self, n: NodeId) -> &OperationData {
        self.nodes[n.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("node {n} is not live"))
    }

    /// Mutable operation data of node `n`.
    ///
    /// Inside a transaction the whole payload is snapshotted (the returned
    /// borrow is unconstrained), so callers on hot paths should prefer the
    /// targeted mutators. The operand list must not be edited through this
    /// handle — route operand rewrites through [`DepGraph::replace_src`] so
    /// the consumer index stays coherent.
    ///
    /// # Panics
    ///
    /// Panics if `n` was removed or never existed.
    pub fn op_mut(&mut self, n: NodeId) -> &mut OperationData {
        if self.journaling {
            let snapshot = self.nodes[n.index()]
                .as_ref()
                .unwrap_or_else(|| panic!("node {n} is not live"))
                .clone();
            self.journal.push(UndoOp::MutateOp { n, op: snapshot });
        }
        self.epoch += 1;
        self.nodes[n.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("node {n} is not live"))
    }

    /// Rename node `n`; like [`DepGraph::rename_value`], for a committed
    /// graph only.
    ///
    /// # Panics
    ///
    /// Panics inside a transaction or if `n` is not live.
    pub fn rename_node(&mut self, n: NodeId, name: String) {
        assert!(
            !self.journaling,
            "names are not journaled: rename after commit"
        );
        self.nodes[n.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("node {n} is not live"))
            .name = name;
    }

    /// Number of live nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Whether the graph has no live nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Upper bound on node indices ever allocated (including removed ones).
    #[must_use]
    pub fn node_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Iterate over live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i as u32)))
    }

    // ----- edges ----------------------------------------------------------

    /// Add a dependence edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a live node.
    pub fn add_edge(&mut self, edge: DepEdge) -> EdgeId {
        assert!(
            self.is_live(edge.from),
            "edge source {} not live",
            edge.from
        );
        assert!(self.is_live(edge.to), "edge target {} not live", edge.to);
        let id = EdgeId(u32::try_from(self.edges.len()).expect("too many edges"));
        self.succ[edge.from.index()].push(id);
        self.pred[edge.to.index()].push(id);
        self.edges.push(Some(edge));
        self.epoch += 1;
        if self.journaling {
            self.journal.push(UndoOp::AddEdge);
        }
        id
    }

    /// Convenience: add a flow dependence carrying `value` from `from` to `to`.
    pub fn add_flow(&mut self, from: NodeId, to: NodeId, value: ValueId, distance: u32) -> EdgeId {
        self.add_edge(DepEdge {
            from,
            to,
            kind: DepKind::RegFlow,
            distance,
            delay_override: None,
            value: Some(value),
        })
    }

    /// Remove an edge. The edge id becomes dead.
    ///
    /// # Panics
    ///
    /// Panics if the edge was already removed.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let edge = self.edges[e.index()]
            .take()
            .unwrap_or_else(|| panic!("edge {e} is not live"));
        // Remove by position (an edge id appears exactly once per list) and
        // remember the positions: iteration order over adjacency lists is
        // scheduler-visible, so the rollback must restore it exactly.
        let succ_list = &mut self.succ[edge.from.index()];
        let succ_pos = succ_list
            .iter()
            .position(|&x| x == e)
            .expect("live edge is in its source's succ list");
        succ_list.remove(succ_pos);
        let pred_list = &mut self.pred[edge.to.index()];
        let pred_pos = pred_list
            .iter()
            .position(|&x| x == e)
            .expect("live edge is in its target's pred list");
        pred_list.remove(pred_pos);
        self.epoch += 1;
        if self.journaling {
            self.journal.push(UndoOp::RemoveEdge {
                e,
                edge,
                succ_pos: succ_pos as u32,
                pred_pos: pred_pos as u32,
            });
        }
    }

    /// Edge data.
    ///
    /// # Panics
    ///
    /// Panics if `e` was removed or never existed.
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> &DepEdge {
        self.edges[e.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("edge {e} is not live"))
    }

    /// Number of live edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.is_some()).count()
    }

    /// Iterate over live edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| EdgeId(i as u32)))
    }

    /// Outgoing edges of `n` (to live targets).
    #[must_use]
    pub fn out_edges(&self, n: NodeId) -> Vec<EdgeId> {
        self.succ[n.index()].clone()
    }

    /// Incoming edges of `n` (from live sources).
    #[must_use]
    pub fn in_edges(&self, n: NodeId) -> Vec<EdgeId> {
        self.pred[n.index()].clone()
    }

    /// Outgoing edges of `n` as a borrowed slice — the allocation-free
    /// variant of [`DepGraph::out_edges`] for read-only hot paths.
    #[must_use]
    pub fn out_edge_ids(&self, n: NodeId) -> &[EdgeId] {
        &self.succ[n.index()]
    }

    /// Incoming edges of `n` as a borrowed slice — the allocation-free
    /// variant of [`DepGraph::in_edges`] for read-only hot paths.
    #[must_use]
    pub fn in_edge_ids(&self, n: NodeId) -> &[EdgeId] {
        &self.pred[n.index()]
    }

    /// Successor nodes of `n` (deduplicated, in edge order).
    #[must_use]
    pub fn successors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &e in &self.succ[n.index()] {
            let to = self.edge(e).to;
            if !out.contains(&to) {
                out.push(to);
            }
        }
        out
    }

    /// Predecessor nodes of `n` (deduplicated, in edge order).
    #[must_use]
    pub fn predecessors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &e in &self.pred[n.index()] {
            let from = self.edge(e).from;
            if !out.contains(&from) {
                out.push(from);
            }
        }
        out
    }

    /// Effective latency of a dependence edge under the given latency model.
    ///
    /// Flow dependences inherit the latency of the producing operation
    /// (under its memory-latency assumption); anti dependences allow the
    /// consumer and the next definition in the same cycle (latency 0);
    /// output and memory dependences impose a one-cycle separation. An
    /// explicit `delay_override` on the edge wins over all of these.
    #[must_use]
    pub fn edge_latency(&self, e: EdgeId, lat: &LatencyModel) -> i64 {
        self.latency_of(self.edge(e), lat)
    }

    /// [`DepGraph::edge_latency`] on an already-borrowed edge — the window
    /// computations scan adjacency lists and hold the edge anyway, so the
    /// second id lookup is pure waste on the scheduler's hottest path.
    #[must_use]
    pub fn latency_of(&self, edge: &DepEdge, lat: &LatencyModel) -> i64 {
        if let Some(d) = edge.delay_override {
            return d;
        }
        match edge.kind {
            DepKind::RegFlow => i64::from(self.op(edge.from).latency(lat)),
            DepKind::RegAnti => 0,
            DepKind::RegOutput | DepKind::Memory | DepKind::Control => 1,
        }
    }

    /// The modulo-scheduling difference constraints implied by the live
    /// edges: one `(from, to, latency, distance)` tuple per edge, with the
    /// same latency resolution as [`DepGraph::edge_latency`]. Any schedule
    /// of the graph at initiation interval `II` must satisfy
    /// `t(to) − t(from) ≥ latency − II·distance` for every tuple.
    ///
    /// This is the propagation query exact feasibility provers build their
    /// constraint closure from; tuples are yielded in ascending edge-id
    /// order, so consumers inherit the graph's determinism.
    pub fn difference_constraints<'a>(
        &'a self,
        lat: &'a LatencyModel,
    ) -> impl Iterator<Item = (NodeId, NodeId, i64, u32)> + 'a {
        self.edge_ids().map(move |e| {
            let edge = self.edge(e);
            (
                edge.from,
                edge.to,
                self.latency_of(edge, lat),
                edge.distance,
            )
        })
    }

    /// Sum of operation latencies of all live nodes — a cheap upper bound on
    /// the schedule length used to bound II searches.
    #[must_use]
    pub fn latency_sum(&self, lat: &LatencyModel) -> u64 {
        self.node_ids()
            .map(|n| u64::from(self.op(n).latency(lat)) + 1)
            .sum()
    }

    /// Count live nodes whose opcode satisfies `pred`.
    pub fn count_ops(&self, mut pred: impl FnMut(Opcode) -> bool) -> usize {
        self.node_ids().filter(|&n| pred(self.op(n).opcode)).count()
    }

    // ----- transactions ---------------------------------------------------

    /// Start journaling mutations (if not already) and return a checkpoint
    /// marking the current state. Until [`DepGraph::commit`], every
    /// structural edit records its inverse; [`DepGraph::rollback_to`]
    /// restores the state at a checkpoint in O(edits since the checkpoint).
    ///
    /// Checkpoints nest freely: each call just marks a position in the
    /// journal.
    ///
    /// # Example
    ///
    /// ```
    /// use ddg::{DepGraph, OperationData};
    /// use vliw::Opcode;
    ///
    /// let mut g = DepGraph::new();
    /// let x = g.add_value("x", false);
    /// let load = g.add_node(OperationData::new(Opcode::Load, Some(x), vec![]));
    ///
    /// let before = g.clone();
    /// let cp = g.checkpoint();
    ///
    /// // Speculative edit: spill the loaded value, then think better of it.
    /// let slot = g.add_value("x.spill", false);
    /// g.add_node(OperationData::new(Opcode::SpillStore, Some(slot), vec![x]));
    /// g.remove_node(load);
    /// assert!(!g.same_content(&before));
    ///
    /// g.rollback_to(&cp);
    /// assert!(g.same_content(&before)); // bit-identical, not just equivalent
    /// assert!(g.is_live(load));
    /// g.commit();
    /// ```
    pub fn checkpoint(&mut self) -> GraphCheckpoint {
        self.journaling = true;
        GraphCheckpoint {
            journal_len: self.journal.len(),
            epoch: self.epoch,
            generation: self.generation,
        }
    }

    /// Undo every mutation performed since `cp`, restoring the graph
    /// bit-identically: node/edge tombstones, id allocation state,
    /// adjacency-list order and the consumer index all return to exactly
    /// the checkpointed state, and the structural epoch is restored so
    /// epoch-keyed caches taken at the checkpoint stay valid.
    ///
    /// The transaction stays open — the caller can keep mutating and roll
    /// back to the same (or an older) checkpoint again.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active or if the graph was already
    /// rolled back past `cp` (or `cp` was invalidated by a commit).
    pub fn rollback_to(&mut self, cp: &GraphCheckpoint) {
        assert!(
            self.journaling,
            "rollback_to without an active transaction (checkpoint invalidated by commit?)"
        );
        assert_eq!(
            cp.generation, self.generation,
            "checkpoint was invalidated by a commit (it belongs to an earlier transaction)"
        );
        assert!(
            self.journal.len() >= cp.journal_len,
            "checkpoint is ahead of the journal (already rolled back past it)"
        );
        while self.journal.len() > cp.journal_len {
            let op = self.journal.pop().expect("length checked above");
            self.undo(op);
        }
        self.epoch = cp.epoch;
    }

    /// Accept every journaled mutation: the undo log is discarded and
    /// journaling stops. All outstanding checkpoints are invalidated —
    /// the transaction generation is bumped, so using one in a later
    /// [`DepGraph::rollback_to`] panics instead of silently undoing the
    /// wrong transaction's edits.
    pub fn commit(&mut self) {
        self.journal.clear();
        self.journaling = false;
        self.generation += 1;
    }

    /// Whether a transaction is currently journaling mutations.
    #[must_use]
    pub fn in_transaction(&self) -> bool {
        self.journaling
    }

    /// Number of undo entries in the active transaction's journal.
    #[must_use]
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Structural version of the graph: bumped by every mutation and
    /// restored by [`DepGraph::rollback_to`]. Two equal epochs observed at
    /// checkpoint boundaries denote bit-identical structure, so derived
    /// orderings (HRMS priority lists, cached heights) can be reused across
    /// II restarts. Do not compare epochs taken mid-transaction across a
    /// rollback.
    #[must_use]
    pub fn structural_epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether two graphs have identical content: same nodes, values,
    /// edges (including tombstones and id allocation), same adjacency-list
    /// and consumer-index orderings. Transaction bookkeeping (journal,
    /// epoch) is ignored — this is the "rollback equals fresh clone"
    /// relation the scheduler's audit mode asserts at every restart.
    #[must_use]
    pub fn same_content(&self, other: &DepGraph) -> bool {
        self.nodes == other.nodes
            && self.values == other.values
            && self.edges == other.edges
            && self.succ == other.succ
            && self.pred == other.pred
            && self.consumers == other.consumers
    }

    /// Structural payload of the graph for the snapshot codec
    /// (`ddg::snap`): nodes, values and edges *including tombstones*, in
    /// id order. Adjacency lists and the consumer index are derived data,
    /// rebuilt on decode by [`DepGraph::from_snap_parts`]; transaction
    /// bookkeeping is never captured.
    pub(crate) fn snap_parts(
        &self,
    ) -> (&[Option<OperationData>], &[ValueData], &[Option<DepEdge>]) {
        (&self.nodes, &self.values, &self.edges)
    }

    /// Rebuild a graph from decoded snapshot parts.
    ///
    /// Tombstone slots keep their positions, so id allocation continues
    /// exactly where the encoded graph left off. `succ`/`pred` lists are
    /// regenerated by scanning live edges in id order and the consumer
    /// index by scanning live nodes' operands in id order — exactly the
    /// orderings the mutation API maintains (appends are in id order and
    /// removals preserve relative order), so the rebuilt graph is
    /// [`DepGraph::same_content`]-identical to the encoded one. Journaling
    /// state is reset: snapshots never capture an open transaction.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant when the parts are
    /// inconsistent (dangling ids, edges touching tombstoned nodes, value
    /// producers that are not live nodes), so hostile snapshot payloads
    /// surface as typed decode errors rather than panics downstream.
    pub(crate) fn from_snap_parts(
        nodes: Vec<Option<OperationData>>,
        values: Vec<ValueData>,
        edges: Vec<Option<DepEdge>>,
    ) -> Result<Self, &'static str> {
        if nodes.len() > u32::MAX as usize
            || values.len() > u32::MAX as usize
            || edges.len() > u32::MAX as usize
        {
            return Err("snapshot graph exceeds id space");
        }
        let node_live = |n: NodeId| nodes.get(n.index()).map(Option::is_some).unwrap_or(false);
        for op in nodes.iter().flatten() {
            if let Some(d) = op.dest {
                if d.index() >= values.len() {
                    return Err("node dest value out of range");
                }
            }
            if op.srcs.iter().any(|s| s.index() >= values.len()) {
                return Err("node src value out of range");
            }
            let origin_value = match op.origin {
                NodeOrigin::Original => None,
                NodeOrigin::SpillStore { value }
                | NodeOrigin::SpillLoad { value }
                | NodeOrigin::Move { value } => Some(value),
            };
            if origin_value.is_some_and(|v| v.index() >= values.len()) {
                return Err("node origin value out of range");
            }
        }
        for v in &values {
            if let Some(p) = v.producer {
                if !node_live(p) {
                    return Err("value producer is not a live node");
                }
            }
        }
        let mut succ: Vec<Vec<EdgeId>> = vec![Vec::new(); nodes.len()];
        let mut pred: Vec<Vec<EdgeId>> = vec![Vec::new(); nodes.len()];
        for (i, slot) in edges.iter().enumerate() {
            let Some(edge) = slot else { continue };
            if !node_live(edge.from) || !node_live(edge.to) {
                return Err("edge endpoint is not a live node");
            }
            if edge.value.is_some_and(|v| v.index() >= values.len()) {
                return Err("edge value out of range");
            }
            let e = EdgeId(i as u32);
            succ[edge.from.index()].push(e);
            pred[edge.to.index()].push(e);
        }
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); values.len()];
        for (i, slot) in nodes.iter().enumerate() {
            let Some(op) = slot else { continue };
            let n = NodeId(i as u32);
            for s in &op.srcs {
                let list = &mut consumers[s.index()];
                if let Err(pos) = list.binary_search(&n) {
                    list.insert(pos, n);
                }
            }
        }
        Ok(Self {
            nodes,
            values,
            edges,
            succ,
            pred,
            consumers,
            journal: Vec::new(),
            journaling: false,
            epoch: 0,
            generation: 0,
        })
    }

    /// Apply the inverse of one journaled mutation.
    fn undo(&mut self, op: UndoOp) {
        match op {
            UndoOp::AddValue => {
                self.values.pop().expect("journaled value exists");
                let consumers = self.consumers.pop().expect("consumer list exists");
                debug_assert!(
                    consumers.is_empty(),
                    "consumers of a rolled-back value must be undone first"
                );
            }
            UndoOp::SetProducer {
                v,
                producer,
                invariant,
            } => {
                let data = &mut self.values[v.index()];
                data.producer = producer;
                data.invariant = invariant;
            }
            UndoOp::ReplaceSrc { n, old, new, slots } => {
                let op = self.nodes[n.index()]
                    .as_mut()
                    .expect("rewritten node is live at undo time");
                for &i in &slots {
                    debug_assert_eq!(op.srcs[i as usize], new, "slot drifted since journaling");
                    op.srcs[i as usize] = old;
                }
                let still_reads_new = op.srcs.contains(&new);
                self.index_consumer(old, n);
                if !still_reads_new {
                    self.unindex_consumer(new, n);
                }
            }
            UndoOp::AddNode => {
                let id = NodeId((self.nodes.len() - 1) as u32);
                let op = self
                    .nodes
                    .pop()
                    .expect("journaled node exists")
                    .expect("appended node is live at undo time");
                let succ = self.succ.pop().expect("succ list exists");
                let pred = self.pred.pop().expect("pred list exists");
                debug_assert!(
                    succ.is_empty() && pred.is_empty(),
                    "incident edges of a rolled-back node must be undone first"
                );
                for &src in &op.srcs {
                    self.unindex_consumer(src, id);
                }
                // A dest producer set by `add_node` is restored by the
                // `SetProducer` entry journaled just before this one.
            }
            UndoOp::RemoveNode {
                n,
                op,
                cleared_producer,
            } => {
                if cleared_producer {
                    let dest = op.dest.expect("cleared_producer implies a dest");
                    self.values[dest.index()].producer = Some(n);
                }
                for &src in &op.srcs {
                    self.index_consumer(src, n);
                }
                debug_assert!(
                    self.nodes[n.index()].is_none(),
                    "tombstone occupied at RemoveNode undo"
                );
                self.nodes[n.index()] = Some(op);
            }
            UndoOp::AddEdge => {
                let edge = self
                    .edges
                    .pop()
                    .expect("journaled edge exists")
                    .expect("appended edge is live at undo time");
                let e = EdgeId(self.edges.len() as u32);
                let s = self.succ[edge.from.index()].pop();
                debug_assert_eq!(s, Some(e), "appended edge is last in its succ list");
                let p = self.pred[edge.to.index()].pop();
                debug_assert_eq!(p, Some(e), "appended edge is last in its pred list");
            }
            UndoOp::RemoveEdge {
                e,
                edge,
                succ_pos,
                pred_pos,
            } => {
                debug_assert!(
                    self.edges[e.index()].is_none(),
                    "tombstone occupied at RemoveEdge undo"
                );
                self.succ[edge.from.index()].insert(succ_pos as usize, e);
                self.pred[edge.to.index()].insert(pred_pos as usize, e);
                self.edges[e.index()] = Some(edge);
            }
            UndoOp::MutateOp { n, op } => {
                debug_assert_eq!(
                    self.nodes[n.index()].as_ref().map(|o| &o.srcs),
                    Some(&op.srcs),
                    "operand lists must not change through op_mut"
                );
                self.nodes[n.index()] = Some(op);
            }
        }
    }
}

/// A stack of nested [`GraphCheckpoint`]s — the checkpoint-*tree* helper
/// behind branching searches over one transactional graph.
///
/// A plain checkpoint is a single mark; exploring several alternatives from
/// one state (a window of candidate IIs, perturbed retries of the same II)
/// needs a discipline on top: enter a branch by pushing a checkpoint, try
/// edits, and either *abandon* the branch (roll the graph back to the mark
/// and pop it) or *keep* it (pop the mark, folding the branch's edits into
/// the parent scope). Because every sibling branch starts by abandoning the
/// previous one, the set of live checkpoints always forms a root-to-leaf
/// path of the search tree — which is exactly a stack.
///
/// The stack never clones the graph; all state restoration is the O(edits)
/// journal rollback of the transaction layer.
#[derive(Debug, Default)]
pub struct CheckpointStack {
    stack: Vec<GraphCheckpoint>,
}

impl CheckpointStack {
    /// Empty stack (depth 0).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nested checkpoints currently held.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Whether no checkpoint is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Enter a branch: mark the current graph state and return the new
    /// nesting depth (1 for the outermost scope).
    pub fn push(&mut self, g: &mut DepGraph) -> usize {
        self.stack.push(g.checkpoint());
        self.stack.len()
    }

    /// Abandon the innermost branch: roll the graph back to the most recent
    /// mark and pop it.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty, or if the underlying
    /// [`DepGraph::rollback_to`] rejects the checkpoint (committed or
    /// rolled-back-past transaction).
    pub fn abandon(&mut self, g: &mut DepGraph) {
        let cp = self
            .stack
            .pop()
            .expect("abandon on an empty CheckpointStack");
        g.rollback_to(&cp);
    }

    /// Roll the graph back to the innermost mark but keep it on the stack,
    /// so another sibling branch can start from the same state.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CheckpointStack::abandon`].
    pub fn rewind(&mut self, g: &mut DepGraph) {
        let cp = self
            .stack
            .last()
            .expect("rewind on an empty CheckpointStack");
        g.rollback_to(cp);
    }

    /// Keep the innermost branch: pop its mark *without* rolling back, so
    /// the branch's edits belong to the enclosing scope from now on.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn keep(&mut self) {
        self.stack.pop().expect("keep on an empty CheckpointStack");
    }

    /// Abandon branches until the stack is `depth` deep, rolling the graph
    /// back through each popped mark (outermost-popped last, so the final
    /// state is the `depth`-level mark).
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the current depth.
    pub fn abandon_to(&mut self, g: &mut DepGraph, depth: usize) {
        assert!(
            depth <= self.stack.len(),
            "abandon_to({depth}) on a stack of depth {}",
            self.stack.len()
        );
        while self.stack.len() > depth {
            self.abandon(g);
        }
    }

    /// Forget every mark without touching the graph (e.g. after the graph
    /// was committed or handed off).
    pub fn clear(&mut self) {
        self.stack.clear();
    }
}

// The parallel sweep harness shares `&DepGraph` bases across worker threads;
// this compile-time check pins the graph's thread-safety so a future field
// (an `Rc`, a `Cell`) cannot silently revoke it.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DepGraph>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_graph() -> (DepGraph, NodeId, NodeId, ValueId) {
        let mut g = DepGraph::new();
        let v = g.add_value("t", false);
        let a = g.add_node(OperationData::new(Opcode::Load, Some(v), vec![]));
        let w = g.add_value("u", false);
        let b = g.add_node(OperationData::new(Opcode::FpAdd, Some(w), vec![v]));
        g.add_flow(a, b, v, 0);
        (g, a, b, v)
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let (g, a, b, v) = simple_graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(a), vec![b]);
        assert_eq!(g.predecessors(b), vec![a]);
        assert_eq!(g.value(v).producer, Some(a));
        assert_eq!(g.consumers_of(v), vec![b]);
    }

    #[test]
    fn removing_a_node_removes_incident_edges() {
        let (mut g, a, b, _v) = simple_graph();
        g.remove_node(a);
        assert!(!g.is_live(a));
        assert!(g.is_live(b));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.predecessors(b), vec![]);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn removing_producer_clears_value_producer() {
        let (mut g, a, _b, v) = simple_graph();
        g.remove_node(a);
        assert_eq!(g.value(v).producer, None);
    }

    #[test]
    fn node_ids_are_stable_across_removal() {
        let (mut g, a, b, _v) = simple_graph();
        g.remove_node(a);
        // b keeps its id and data.
        assert_eq!(g.op(b).opcode, Opcode::FpAdd);
        let c = g.add_node(OperationData::new(Opcode::Store, None, vec![]));
        assert_ne!(c, a, "removed ids are not reused");
    }

    #[test]
    fn edge_latency_rules() {
        let lat = LatencyModel::default();
        let mut g = DepGraph::new();
        let v = g.add_value("x", false);
        let w = g.add_value("y", false);
        let mul = g.add_node(OperationData::new(Opcode::FpMul, Some(v), vec![]));
        let add = g.add_node(OperationData::new(Opcode::FpAdd, Some(w), vec![v]));
        let flow = g.add_flow(mul, add, v, 0);
        assert_eq!(g.edge_latency(flow, &lat), 4);
        let anti = g.add_edge(DepEdge {
            from: add,
            to: mul,
            kind: DepKind::RegAnti,
            distance: 1,
            delay_override: None,
            value: Some(v),
        });
        assert_eq!(g.edge_latency(anti, &lat), 0);
        let ovr = g.add_edge(DepEdge {
            from: mul,
            to: add,
            kind: DepKind::Memory,
            distance: 0,
            delay_override: Some(5),
            value: None,
        });
        assert_eq!(g.edge_latency(ovr, &lat), 5);
    }

    #[test]
    fn flow_latency_respects_prefetch_assumption() {
        let lat = LatencyModel::default();
        let mut g = DepGraph::new();
        let v = g.add_value("x", false);
        let w = g.add_value("y", false);
        let ld = g.add_node(OperationData::new(Opcode::Load, Some(v), vec![]));
        let add = g.add_node(OperationData::new(Opcode::FpAdd, Some(w), vec![v]));
        let e = g.add_flow(ld, add, v, 0);
        assert_eq!(g.edge_latency(e, &lat), 2);
        g.op_mut(ld).mem_latency = MemLatency::Miss;
        assert_eq!(g.edge_latency(e, &lat), 25);
    }

    #[test]
    fn difference_constraints_mirror_edge_latencies() {
        let lat = LatencyModel::default();
        let mut g = DepGraph::new();
        let v = g.add_value("x", false);
        let w = g.add_value("y", false);
        let mul = g.add_node(OperationData::new(Opcode::FpMul, Some(v), vec![]));
        let add = g.add_node(OperationData::new(Opcode::FpAdd, Some(w), vec![v]));
        g.add_flow(mul, add, v, 0);
        g.add_edge(DepEdge {
            from: add,
            to: mul,
            kind: DepKind::RegAnti,
            distance: 2,
            delay_override: None,
            value: Some(v),
        });
        let cs: Vec<_> = g.difference_constraints(&lat).collect();
        assert_eq!(cs, vec![(mul, add, 4, 0), (add, mul, 0, 2)]);
        // Removing a node drops its constraints with it.
        let mut g2 = g.clone();
        g2.remove_node(add);
        assert_eq!(g2.difference_constraints(&lat).count(), 0);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn accessing_removed_node_panics() {
        let (mut g, a, _b, _v) = simple_graph();
        g.remove_node(a);
        let _ = g.op(a);
    }

    #[test]
    fn count_ops_filters_by_opcode() {
        let (g, _a, _b, _v) = simple_graph();
        assert_eq!(g.count_ops(|o| o.is_memory()), 1);
        assert_eq!(g.count_ops(|o| o == Opcode::FpAdd), 1);
        assert_eq!(g.count_ops(|o| o == Opcode::FpDiv), 0);
    }

    #[test]
    fn replace_src_rewrites_operands_and_index() {
        let (mut g, a, b, v) = simple_graph();
        let w = g.add_value("w", false);
        assert_eq!(g.consumers_of(v), vec![b]);
        assert_eq!(g.consumers_of(w), vec![]);
        assert_eq!(g.replace_src(b, v, w), 1);
        assert_eq!(g.op(b).srcs(), &[w]);
        assert_eq!(g.consumers_of(v), vec![]);
        assert_eq!(g.consumers_of(w), vec![b]);
        // Replacing a value the node does not read is a no-op.
        assert_eq!(g.replace_src(a, v, w), 0);
        assert_eq!(g.consumers_of(w), vec![b]);
        // old == new leaves everything untouched but reports occurrences.
        assert_eq!(g.replace_src(b, w, w), 1);
        assert_eq!(g.consumers_of(w), vec![b]);
    }

    #[test]
    fn replace_src_handles_duplicate_operands() {
        let mut g = DepGraph::new();
        let v = g.add_value("v", false);
        let w = g.add_value("w", false);
        let n = g.add_node(OperationData::new(Opcode::FpAdd, None, vec![v, v]));
        assert_eq!(g.consumers_of(v), vec![n]);
        assert_eq!(g.replace_src(n, v, w), 2);
        assert_eq!(g.op(n).srcs(), &[w, w]);
        assert_eq!(g.consumers_of(v), vec![]);
        assert_eq!(g.consumers_of(w), vec![n]);
    }

    #[test]
    fn consumer_index_tracks_node_removal() {
        let (mut g, _a, b, v) = simple_graph();
        g.remove_node(b);
        assert_eq!(g.consumers_of(v), vec![]);
        assert_eq!(g.consumer_ids(v), &[] as &[NodeId]);
    }

    #[test]
    fn consumer_index_is_sorted_by_node_id() {
        let mut g = DepGraph::new();
        let v = g.add_value("v", false);
        let mut nodes: Vec<NodeId> = (0..4)
            .map(|_| g.add_node(OperationData::new(Opcode::FpAdd, None, vec![v])))
            .collect();
        assert_eq!(g.consumers_of(v), nodes);
        g.remove_node(nodes[1]);
        nodes.remove(1);
        assert_eq!(g.consumers_of(v), nodes);
        assert_eq!(g.consumer_ids(v), nodes.as_slice());
    }

    /// The scheduler-shaped mutation burst: spill store/load insertion,
    /// operand rewiring, move insertion and removal.
    fn scheduler_style_edits(g: &mut DepGraph, a: NodeId, b: NodeId, v: ValueId) {
        // Spill: store the value, reload it, rewire the consumer.
        let st = g.add_node(OperationData::new(Opcode::SpillStore, None, vec![v]));
        g.add_flow(a, st, v, 0);
        let reload = g.add_value("t.reload", false);
        let ld = g.add_node(OperationData::new(Opcode::SpillLoad, Some(reload), vec![]));
        g.add_edge(DepEdge {
            from: st,
            to: ld,
            kind: DepKind::Memory,
            distance: 0,
            delay_override: None,
            value: None,
        });
        let direct: Vec<EdgeId> = g
            .in_edges(b)
            .into_iter()
            .filter(|&e| g.edge(e).value == Some(v))
            .collect();
        for e in direct {
            g.remove_edge(e);
        }
        g.replace_src(b, v, reload);
        g.add_flow(ld, b, reload, 0);
        // Move: insert, then remove again (the eject path).
        let copy = g.add_value("t@1", false);
        let mut mv_data = OperationData::new(Opcode::Move, Some(copy), vec![v]);
        mv_data.origin = NodeOrigin::Move { value: v };
        let mv = g.add_node(mv_data);
        g.add_flow(a, mv, v, 0);
        g.remove_node(mv);
    }

    #[test]
    fn rollback_restores_scheduler_style_edits_bit_identically() {
        let (mut g, a, b, v) = simple_graph();
        let before = g.clone();
        let cp = g.checkpoint();
        scheduler_style_edits(&mut g, a, b, v);
        assert!(!g.same_content(&before), "edits visibly changed the graph");
        g.rollback_to(&cp);
        assert!(g.same_content(&before), "rollback restored the graph");
        assert_eq!(g.structural_epoch(), cp.epoch);
        assert_eq!(g.journal_len(), 0);
        assert!(g.in_transaction(), "rollback keeps the transaction open");
    }

    #[test]
    fn rollback_is_repeatable_across_attempts() {
        let (mut g, a, b, v) = simple_graph();
        let before = g.clone();
        let cp = g.checkpoint();
        for _ in 0..3 {
            scheduler_style_edits(&mut g, a, b, v);
            g.rollback_to(&cp);
            assert!(g.same_content(&before));
            assert_eq!(g.structural_epoch(), cp.epoch);
        }
    }

    #[test]
    fn nested_checkpoints_roll_back_independently() {
        let (mut g, a, _b, v) = simple_graph();
        let outer = g.checkpoint();
        let snapshot_outer = g.clone();
        let st = g.add_node(OperationData::new(Opcode::SpillStore, None, vec![v]));
        g.add_flow(a, st, v, 0);
        let inner = g.checkpoint();
        let snapshot_inner = g.clone();
        let w = g.add_value("w", false);
        let n = g.add_node(OperationData::new(Opcode::FpAdd, Some(w), vec![v]));
        g.add_flow(a, n, v, 0);
        // Inner rollback drops only the inner edits.
        g.rollback_to(&inner);
        assert!(g.same_content(&snapshot_inner));
        assert!(g.is_live(st), "outer edit survives the inner rollback");
        // Outer rollback drops the rest.
        g.rollback_to(&outer);
        assert!(g.same_content(&snapshot_outer));
        assert!(!g.is_live(st));
    }

    #[test]
    fn commit_keeps_edits_and_closes_the_transaction() {
        let (mut g, a, _b, v) = simple_graph();
        let _cp = g.checkpoint();
        let st = g.add_node(OperationData::new(Opcode::SpillStore, None, vec![v]));
        g.add_flow(a, st, v, 0);
        g.commit();
        assert!(!g.in_transaction());
        assert_eq!(g.journal_len(), 0);
        assert!(g.is_live(st), "committed edits survive");
        // Mutations after a commit are not journaled.
        let _ = g.add_value("later", false);
        assert_eq!(g.journal_len(), 0);
    }

    #[test]
    #[should_panic(expected = "without an active transaction")]
    fn rollback_after_commit_panics() {
        let (mut g, _a, _b, v) = simple_graph();
        let cp = g.checkpoint();
        let _ = g.add_node(OperationData::new(Opcode::SpillStore, None, vec![v]));
        g.commit();
        g.rollback_to(&cp);
    }

    #[test]
    #[should_panic(expected = "invalidated by a commit")]
    fn stale_checkpoint_is_rejected_inside_a_new_transaction() {
        // A checkpoint from before a commit must not silently roll back a
        // later transaction's edits (and rewind the epoch to a state the
        // graph no longer has).
        let (mut g, _a, _b, v) = simple_graph();
        let stale = g.checkpoint();
        let _ = g.add_value("committed", false);
        g.commit();
        let _fresh = g.checkpoint();
        let _ = g.add_node(OperationData::new(Opcode::SpillStore, None, vec![v]));
        g.rollback_to(&stale);
    }

    #[test]
    #[should_panic(expected = "rolled back past it")]
    fn rollback_past_an_inner_checkpoint_invalidates_it() {
        let (mut g, _a, _b, v) = simple_graph();
        let outer = g.checkpoint();
        let _ = g.add_node(OperationData::new(Opcode::SpillStore, None, vec![v]));
        let inner = g.checkpoint();
        let _ = g.add_value("x", false);
        g.rollback_to(&outer);
        g.rollback_to(&inner);
    }

    #[test]
    fn rollback_restores_adjacency_order_after_mid_list_removal() {
        // Three parallel edges a->b; remove the middle one, roll back, and
        // the original edge iteration order must come back exactly.
        let mut g = DepGraph::new();
        let v = g.add_value("v", false);
        let a = g.add_node(OperationData::new(Opcode::Load, Some(v), vec![]));
        let b = g.add_node(OperationData::new(Opcode::FpAdd, None, vec![v]));
        let e0 = g.add_flow(a, b, v, 0);
        let e1 = g.add_flow(a, b, v, 1);
        let e2 = g.add_flow(a, b, v, 2);
        let cp = g.checkpoint();
        g.remove_edge(e1);
        assert_eq!(g.out_edge_ids(a), &[e0, e2]);
        g.rollback_to(&cp);
        assert_eq!(g.out_edge_ids(a), &[e0, e1, e2]);
        assert_eq!(g.in_edge_ids(b), &[e0, e1, e2]);
    }

    #[test]
    fn rollback_restores_op_mut_payloads() {
        let (mut g, a, _b, _v) = simple_graph();
        let cp = g.checkpoint();
        g.op_mut(a).mem_latency = MemLatency::Miss;
        g.op_mut(a).name = "renamed".into();
        g.rollback_to(&cp);
        assert_eq!(g.op(a).mem_latency, MemLatency::Hit);
        assert_eq!(g.op(a).name, "");
    }

    #[test]
    fn replace_src_rollback_keeps_preexisting_operands_of_the_new_value() {
        // srcs = [v, w]; replace v->w gives [w, w]; the rollback must
        // restore [v, w], not [v, v].
        let mut g = DepGraph::new();
        let v = g.add_value("v", false);
        let w = g.add_value("w", false);
        let n = g.add_node(OperationData::new(Opcode::FpAdd, None, vec![v, w]));
        let cp = g.checkpoint();
        assert_eq!(g.replace_src(n, v, w), 1);
        assert_eq!(g.op(n).srcs(), &[w, w]);
        assert_eq!(g.consumers_of(v), vec![]);
        g.rollback_to(&cp);
        assert_eq!(g.op(n).srcs(), &[v, w]);
        assert_eq!(g.consumers_of(v), vec![n]);
        assert_eq!(g.consumers_of(w), vec![n]);
    }

    #[test]
    fn epoch_advances_on_mutation_and_rewinds_on_rollback() {
        let (mut g, _a, b, v) = simple_graph();
        let e0 = g.structural_epoch();
        let cp = g.checkpoint();
        let w = g.add_value("w", false);
        g.replace_src(b, v, w);
        assert_ne!(g.structural_epoch(), e0);
        g.rollback_to(&cp);
        assert_eq!(g.structural_epoch(), e0);
    }

    #[test]
    fn checkpoint_stack_nests_and_abandons_in_order() {
        let (mut g, a, _b, v) = simple_graph();
        let base = g.clone();
        let mut cps = CheckpointStack::new();
        assert!(cps.is_empty());
        assert_eq!(cps.push(&mut g), 1);
        g.op_mut(a).mem_latency = MemLatency::Miss;
        let after_outer_edit = g.clone();
        assert_eq!(cps.push(&mut g), 2);
        let w = g.add_value("w", false);
        let n = g.add_node(OperationData::new(Opcode::FpAdd, None, vec![v, w]));
        assert_eq!(cps.push(&mut g), 3);
        g.remove_node(n);
        assert_eq!(cps.depth(), 3);
        // Rewind re-enters the innermost branch without popping it.
        cps.rewind(&mut g);
        assert!(g.is_live(n));
        assert_eq!(cps.depth(), 3);
        g.remove_node(n);
        // Abandon the two inner branches, then the outer one.
        cps.abandon_to(&mut g, 1);
        assert!(g.same_content(&after_outer_edit));
        assert_eq!(cps.depth(), 1);
        cps.abandon(&mut g);
        assert!(g.same_content(&base));
        assert!(cps.is_empty());
    }

    #[test]
    fn checkpoint_stack_keep_folds_a_branch_into_its_parent() {
        let (mut g, _a, b, v) = simple_graph();
        let base = g.clone();
        let mut cps = CheckpointStack::new();
        cps.push(&mut g);
        cps.push(&mut g);
        let w = g.add_value("w", false);
        g.replace_src(b, v, w);
        let with_edit = g.clone();
        // Keeping the inner branch must not roll anything back...
        cps.keep();
        assert_eq!(cps.depth(), 1);
        assert!(g.same_content(&with_edit));
        // ...and the kept edits now belong to the outer scope.
        cps.abandon(&mut g);
        assert!(g.same_content(&base));
    }

    #[test]
    #[should_panic(expected = "abandon_to(3)")]
    fn checkpoint_stack_rejects_deepening_abandon_to() {
        let (mut g, _a, _b, _v) = simple_graph();
        let mut cps = CheckpointStack::new();
        cps.push(&mut g);
        cps.abandon_to(&mut g, 3);
    }

    #[test]
    fn invariant_values_have_no_producer() {
        let mut g = DepGraph::new();
        let inv = g.add_value("c", true);
        assert!(g.value(inv).invariant);
        assert_eq!(g.value(inv).producer, None);
        let v = g.add_value("t", false);
        let n = g.add_node(OperationData::new(Opcode::FpMul, Some(v), vec![inv]));
        assert_eq!(g.consumers_of(inv), vec![n]);
        // Defining a node with dest = inv would clear the invariant flag.
        let inv2 = g.add_value("d", true);
        let m = g.add_node(OperationData::new(Opcode::FpAdd, Some(inv2), vec![]));
        assert!(!g.value(inv2).invariant);
        assert_eq!(g.value(inv2).producer, Some(m));
    }
}
