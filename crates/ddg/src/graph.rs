//! Mutable data-dependence graph of one loop body.
//!
//! Node and edge ids are stable (removal leaves a tombstone), adjacency
//! lists keep insertion order and a value→consumers index answers
//! `consumers_of` without a scan. The hand-written `Clone` impls reuse the
//! destination's allocations in `clone_from`: the scheduler gives every II
//! attempt its own copy of one immutable base graph that way, copying
//! into a reused buffer instead of allocating a graph per attempt.
//!
//! Operand, edge and consumer lists are [`SmallList`]s that hold their
//! first few ids inline, so a node of a typical loop owns no heap block
//! beyond its name. The inline capacities follow the list lengths of the
//! paper-scale workbench (1258 loops, 32401 nodes): operand and in-edge
//! lists never exceed 2 entries there and hold 3 inline; out-edge lists
//! exceed 4 entries for 4.6% of nodes and 6 for 0.7%, consumer lists 4 for
//! 5.5% of values and 6 for 1.1%, and both hold 6 inline. A list of 3
//! inline ids takes the 24 bytes of a `Vec`, and one of 6 takes 32 bytes,
//! as one of 4 would.

use crate::ids::{NodeId, ValueId};
use crate::loop_ir::MemAccess;
use crate::small_list::{Slot, SmallList};
use std::fmt;
use vliw::{LatencyModel, MemLatency, Opcode};

/// Identifier of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Numeric index of the edge.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl Slot for EdgeId {
    const FILL: Self = EdgeId(0);
}

impl Slot for NodeId {
    const FILL: Self = NodeId(0);
}

impl Slot for ValueId {
    const FILL: Self = ValueId(0);
}

/// Operand list of a node.
type Operands = SmallList<ValueId, 3>;
/// Out-edge list of a node.
type OutEdges = SmallList<EdgeId, 6>;
/// In-edge list of a node.
type InEdges = SmallList<EdgeId, 3>;
/// Consumer list of a value.
type Consumers = SmallList<NodeId, 6>;

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
#[derive(Debug, PartialEq)]
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
    pub(crate) srcs: Operands,
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
            srcs: Operands::from_vec(srcs),
            mem: None,
            mem_latency: MemLatency::Hit,
            origin: NodeOrigin::Original,
            name: String::new(),
        }
    }

    /// Scheduling latency of the operation under its memory assumption.
    #[must_use]
    #[inline]
    pub fn latency(&self, lat: &LatencyModel) -> u32 {
        lat.latency_of(self.opcode, self.mem_latency)
    }

    /// Values read by the operation (may contain loop invariants).
    #[must_use]
    #[inline]
    pub fn srcs(&self) -> &[ValueId] {
        &self.srcs
    }
}

// `clone_from` reuses the name and a heap operand list, which a derived
// impl would allocate again. Both methods destructure the source, so a new
// field fails to compile until it is copied here.
impl Clone for OperationData {
    fn clone(&self) -> Self {
        let Self {
            opcode,
            dest,
            srcs,
            mem,
            mem_latency,
            origin,
            name,
        } = self;
        Self {
            opcode: *opcode,
            dest: *dest,
            srcs: srcs.clone(),
            mem: *mem,
            mem_latency: *mem_latency,
            origin: *origin,
            name: name.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            opcode,
            dest,
            srcs,
            mem,
            mem_latency,
            origin,
            name,
        } = source;
        self.opcode = *opcode;
        self.dest = *dest;
        self.srcs.clone_from(srcs);
        self.mem = *mem;
        self.mem_latency = *mem_latency;
        self.origin = *origin;
        self.name.clone_from(name);
    }
}

/// A value (virtual register) of the loop.
#[derive(Debug, PartialEq, Eq)]
pub struct ValueData {
    /// Human-readable name.
    pub name: String,
    /// Node producing the value; `None` for loop invariants (live-in values).
    pub producer: Option<NodeId>,
    /// Whether the value is loop invariant (single value for all iterations).
    pub invariant: bool,
}

// `clone_from` reuses the name; see the `OperationData` impl.
impl Clone for ValueData {
    fn clone(&self) -> Self {
        let Self {
            name,
            producer,
            invariant,
        } = self;
        Self {
            name: name.clone(),
            producer: *producer,
            invariant: *invariant,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            name,
            producer,
            invariant,
        } = source;
        self.name.clone_from(name);
        self.producer = *producer;
        self.invariant = *invariant;
    }
}

/// Mutable data-dependence graph of one loop body.
///
/// Node and edge ids are stable: removal leaves a tombstone, so ids held by
/// the scheduler never dangle silently (accessors panic on removed ids,
/// `contains`/`is_live` can be used to check).
///
/// Equality compares every field: nodes, values and edges (tombstones and
/// id allocation included) and the adjacency-list and consumer-index
/// orderings, so two equal graphs schedule identically.
#[derive(Debug, Default, PartialEq)]
pub struct DepGraph {
    nodes: Vec<Option<OperationData>>,
    values: Vec<ValueData>,
    edges: Vec<Option<DepEdge>>,
    succ: Vec<OutEdges>,
    pred: Vec<InEdges>,
    /// Value→consumers index: for each value, the live nodes reading it,
    /// sorted by node id and deduplicated — exactly what a scan over every
    /// node's operand list would produce. Maintained by `add_node`,
    /// `remove_node` and `replace_src` so `consumers_of` is O(consumers)
    /// instead of O(nodes).
    consumers: Vec<Consumers>,
}

// `clone_from` reuses every list of the destination, down to the operand
// lists, names and adjacency lists of its nodes and values, so copying a
// base graph into a graph buffer allocates only where the buffer is
// smaller. The source is destructured, so a new field fails to compile
// until it is copied here.
impl Clone for DepGraph {
    fn clone(&self) -> Self {
        let mut copy = Self::default();
        copy.clone_from(self);
        copy
    }

    /// Make `self` a copy of `source`, keeping `self`'s allocations.
    ///
    /// # Example
    ///
    /// ```
    /// use ddg::{DepGraph, OperationData};
    /// use vliw::Opcode;
    ///
    /// let mut base = DepGraph::new();
    /// let x = base.add_value("x", false);
    /// base.add_node(OperationData::new(Opcode::Load, Some(x), vec![]));
    ///
    /// // A buffer that an earlier attempt grew past the base.
    /// let mut buf = base.clone();
    /// let slot = buf.add_value("x.spill", false);
    /// buf.add_node(OperationData::new(Opcode::SpillStore, Some(slot), vec![x]));
    /// assert_ne!(buf, base);
    ///
    /// buf.clone_from(&base);
    /// assert_eq!(buf, base);
    /// ```
    fn clone_from(&mut self, source: &Self) {
        let Self {
            nodes,
            values,
            edges,
            succ,
            pred,
            consumers,
        } = source;
        self.nodes.clone_from(nodes);
        self.values.clone_from(values);
        self.edges.clone_from(edges);
        self.succ.clone_from(succ);
        self.pred.clone_from(pred);
        self.consumers.clone_from(consumers);
    }
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
        self.consumers.push(Consumers::new());
        id
    }

    /// Value metadata.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    #[inline]
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

    /// Rename value `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn rename_value(&mut self, v: ValueId, name: String) {
        self.values[v.index()].name = name;
    }

    /// Set the producer of a value (also marks it non-invariant).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_producer(&mut self, v: ValueId, producer: NodeId) {
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
        let found = self.consumers[v.index()].to_vec();
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
    #[inline]
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
        let op = self.nodes[n.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("node {n} is not live"));
        let mut replaced = 0;
        for s in op.srcs.iter_mut().filter(|s| **s == old) {
            *s = new;
            replaced += 1;
        }
        if replaced > 0 {
            self.unindex_consumer(old, n);
            self.index_consumer(new, n);
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
        self.succ.push(OutEdges::new());
        self.pred.push(InEdges::new());
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
        // Removal keeps the order of every other list, so the order in
        // which the incident edges go does not matter. A self-edge leaves
        // both lists with its first removal.
        while let Some(&e) = self.succ[n.index()].last() {
            self.remove_edge(e);
        }
        while let Some(&e) = self.pred[n.index()].last() {
            self.remove_edge(e);
        }
        if let Some(op) = self.nodes[n.index()].take() {
            if let Some(dest) = op.dest {
                if self.values[dest.index()].producer == Some(n) {
                    self.values[dest.index()].producer = None;
                }
            }
            for &src in &op.srcs {
                self.unindex_consumer(src, n);
            }
        }
    }

    /// Whether `n` refers to a live (non-removed) node.
    #[must_use]
    #[inline]
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
    #[inline]
    pub fn op(&self, n: NodeId) -> &OperationData {
        self.nodes[n.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("node {n} is not live"))
    }

    /// Mutable operation data of node `n`.
    ///
    /// The operand list must not be edited through this handle — route
    /// operand rewrites through [`DepGraph::replace_src`] so the consumer
    /// index stays coherent.
    ///
    /// # Panics
    ///
    /// Panics if `n` was removed or never existed.
    pub fn op_mut(&mut self, n: NodeId) -> &mut OperationData {
        self.nodes[n.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("node {n} is not live"))
    }

    /// Rename node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not live.
    pub fn rename_node(&mut self, n: NodeId, name: String) {
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
        // Remove by position (an edge id appears exactly once per list),
        // keeping the order of the rest: iteration order over adjacency
        // lists is scheduler-visible.
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
    }

    /// Edge data.
    ///
    /// # Panics
    ///
    /// Panics if `e` was removed or never existed.
    #[must_use]
    #[inline]
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

    /// Outgoing edges of `n` (to live targets), in insertion order.
    #[must_use]
    #[inline]
    pub fn out_edge_ids(&self, n: NodeId) -> &[EdgeId] {
        &self.succ[n.index()]
    }

    /// Incoming edges of `n` (from live sources), in insertion order.
    #[must_use]
    #[inline]
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
    #[inline]
    pub fn edge_latency(&self, e: EdgeId, lat: &LatencyModel) -> i64 {
        self.latency_of(self.edge(e), lat)
    }

    /// [`DepGraph::edge_latency`] on an already-borrowed edge — the window
    /// computations scan adjacency lists and hold the edge anyway, so the
    /// second id lookup is pure waste on the scheduler's hottest path.
    #[must_use]
    #[inline]
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

    /// Count live nodes whose opcode satisfies `pred`.
    pub fn count_ops(&self, mut pred: impl FnMut(Opcode) -> bool) -> usize {
        self.node_ids().filter(|&n| pred(self.op(n).opcode)).count()
    }

    /// Structural payload of the graph for the snapshot codec
    /// (`ddg::snap`): nodes, values and edges *including tombstones*, in
    /// id order. Adjacency lists and the consumer index are derived data,
    /// rebuilt on decode by [`DepGraph::from_snap_parts`].
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
    /// removals preserve relative order), so the rebuilt graph equals the
    /// encoded one.
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
        let mut succ = vec![OutEdges::new(); nodes.len()];
        let mut pred = vec![InEdges::new(); nodes.len()];
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
        let mut consumers = vec![Consumers::new(); values.len()];
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
        })
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
    use vliw::{SnapDecode, SnapEncode, SnapReader, SnapWriter};

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

    #[test]
    fn replace_src_onto_an_operand_the_node_already_reads() {
        // srcs = [v, w]; replacing v -> w gives [w, w] with one consumer
        // entry for w.
        let mut g = DepGraph::new();
        let v = g.add_value("v", false);
        let w = g.add_value("w", false);
        let n = g.add_node(OperationData::new(Opcode::FpAdd, None, vec![v, w]));
        assert_eq!(g.replace_src(n, v, w), 1);
        assert_eq!(g.op(n).srcs(), &[w, w]);
        assert_eq!(g.consumers_of(v), vec![]);
        assert_eq!(g.consumers_of(w), vec![n]);
    }

    #[test]
    fn remove_edge_keeps_the_order_of_the_rest() {
        // Iteration order over adjacency lists is scheduler-visible.
        let mut g = DepGraph::new();
        let v = g.add_value("v", false);
        let a = g.add_node(OperationData::new(Opcode::Load, Some(v), vec![]));
        let b = g.add_node(OperationData::new(Opcode::FpAdd, None, vec![v]));
        let e0 = g.add_flow(a, b, v, 0);
        let e1 = g.add_flow(a, b, v, 1);
        let e2 = g.add_flow(a, b, v, 2);
        g.remove_edge(e1);
        assert_eq!(g.out_edge_ids(a), &[e0, e2]);
        assert_eq!(g.in_edge_ids(b), &[e0, e2]);
    }

    /// Whether the out-edge list of `n` and the consumer list of `v` are
    /// held inline.
    fn inline_forms(g: &DepGraph, n: NodeId, v: ValueId) -> [bool; 2] {
        [
            matches!(g.succ[n.index()], SmallList::Inline { .. }),
            matches!(g.consumers[v.index()], SmallList::Inline { .. }),
        ]
    }

    /// Encode and decode `g`, checking that the copy has its content.
    fn round_trip(g: &DepGraph) -> DepGraph {
        let mut w = SnapWriter::new();
        g.encode_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = DepGraph::decode_snap(&mut r).expect("round trip");
        r.expect_end().expect("the decoder reads every byte");
        assert_eq!(&back, g);
        back
    }

    #[test]
    fn lists_past_their_inline_capacity_copy_and_round_trip() {
        // The producer of `v` feeds eight consumers, more than an out-edge
        // or consumer list holds inline.
        let mut g = DepGraph::new();
        let v = g.add_value("v", false);
        let p = g.add_node(OperationData::new(Opcode::Load, Some(v), vec![]));
        let empty = round_trip(&g);
        let mut consumers = Vec::new();
        for _ in 0..8 {
            let c = g.add_node(OperationData::new(Opcode::FpAdd, None, vec![v, v]));
            g.add_flow(p, c, v, 0);
            consumers.push(c);
        }
        assert_eq!(inline_forms(&g, p, v), [false, false]);
        let grown = round_trip(&g);

        // Removed back below the inline capacity, the lists stay on the
        // heap; a decoded copy holds the same content inline.
        for c in consumers.drain(..5) {
            g.remove_node(c);
        }
        assert_eq!(g.consumer_ids(v), consumers.as_slice());
        let targets: Vec<NodeId> = g.out_edge_ids(p).iter().map(|&e| g.edge(e).to).collect();
        assert_eq!(targets, consumers);
        assert_eq!(inline_forms(&g, p, v), [false, false]);
        let shrunk = round_trip(&g);
        assert_eq!(inline_forms(&shrunk, p, v), [true, true]);

        // `clone_from` between buffers in the other form, both ways.
        let mut buf = shrunk.clone();
        buf.clone_from(&g);
        assert_eq!(inline_forms(&buf, p, v), [true, true]);
        assert_eq!(buf, g);
        let mut heap_buf = grown.clone();
        heap_buf.clone_from(&shrunk);
        assert_eq!(inline_forms(&heap_buf, p, v), [false, false]);
        assert_eq!(heap_buf, shrunk);
        round_trip(&heap_buf);
        let mut inline_buf = empty.clone();
        inline_buf.clone_from(&grown);
        assert_eq!(inline_forms(&inline_buf, p, v), [false, false]);
        assert_eq!(inline_buf, grown);
        round_trip(&inline_buf);
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
