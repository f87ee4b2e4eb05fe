//! Convenient construction of loop dependence graphs.

use crate::collections::HashMap;
use crate::graph::{DepEdge, DepGraph, DepKind, OperationData};
use crate::ids::{NodeId, ValueId};
use crate::loop_ir::{Loop, MemAccess};
use vliw::Opcode;

/// Builder for [`Loop`]s.
///
/// Values are in SSA form: every loop-variant value has exactly one defining
/// operation per iteration. Recurrences (loop-carried flow dependences) are
/// expressed with [`LoopBuilder::recurrence`] / [`LoopBuilder::close_recurrence`].
///
/// ```
/// use ddg::LoopBuilder;
/// use vliw::Opcode;
///
/// // y[i] = a * x[i] + y[i]   (daxpy)
/// let mut b = LoopBuilder::new("daxpy");
/// let a = b.invariant("a");
/// let x = b.load("x");
/// let y = b.load("y");
/// let ax = b.op(Opcode::FpMul, &[a, x]);
/// let sum = b.op(Opcode::FpAdd, &[ax, y]);
/// b.store("y", sum);
/// let lp = b.finish(256);
/// assert_eq!(lp.body_size(), 5);
/// ```
#[derive(Debug)]
pub struct LoopBuilder {
    name: String,
    graph: DepGraph,
    arrays: HashMap<String, u32>,
    open_recurrences: Vec<ValueId>,
}

impl LoopBuilder {
    /// Start building a loop called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            graph: DepGraph::new(),
            arrays: HashMap::default(),
            open_recurrences: Vec::new(),
        }
    }

    /// Access the graph under construction (rarely needed; prefer the
    /// builder methods).
    #[must_use]
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Symbol id of `array`, creating it on first use.
    pub fn array(&mut self, array: &str) -> u32 {
        let next = self.arrays.len() as u32;
        *self.arrays.entry(array.to_string()).or_insert(next)
    }

    /// Declare a loop-invariant (live-in) value.
    pub fn invariant(&mut self, name: &str) -> ValueId {
        self.graph.add_value(name, true)
    }

    /// Declare a value produced by a later operation and consumed across
    /// iterations (a recurrence). Must be closed with
    /// [`LoopBuilder::close_recurrence`] before [`LoopBuilder::finish`].
    pub fn recurrence(&mut self, name: &str) -> ValueId {
        let v = self.graph.add_value(name, false);
        self.open_recurrences.push(v);
        v
    }

    /// Close a recurrence: `producer_of` is the value whose defining node
    /// produces `rec` one (or `distance`) iteration(s) later.
    ///
    /// Flow edges with the given iteration distance are added from the
    /// producer to every consumer of `rec`.
    ///
    /// # Panics
    ///
    /// Panics if `rec` was not declared with [`LoopBuilder::recurrence`], or
    /// if `producer_of` has no defining node, or if `distance == 0`.
    pub fn close_recurrence(&mut self, rec: ValueId, producer_of: ValueId, distance: u32) {
        assert!(
            distance > 0,
            "a recurrence needs a positive iteration distance"
        );
        let pos = self
            .open_recurrences
            .iter()
            .position(|&v| v == rec)
            .expect("close_recurrence on a value not declared with recurrence()");
        self.open_recurrences.swap_remove(pos);
        let producer = self
            .graph
            .value(producer_of)
            .producer
            .expect("recurrence producer value has no defining node");
        self.graph.set_producer(rec, producer);
        for consumer in self.graph.consumers_of(rec) {
            self.graph.add_flow(producer, consumer, rec, distance);
        }
    }

    fn add_op_node(&mut self, mut data: OperationData, name: &str) -> NodeId {
        data.name = name.to_string();
        let srcs = data.srcs.clone();
        let node = self.graph.add_node(data);
        let mut seen: Vec<ValueId> = Vec::new();
        for &src in &srcs {
            if seen.contains(&src) {
                continue;
            }
            seen.push(src);
            if let Some(producer) = self.graph.value(src).producer {
                if producer != node {
                    self.graph.add_flow(producer, node, src, 0);
                }
            }
        }
        node
    }

    /// Add an arithmetic operation consuming `srcs`; returns the produced value.
    pub fn op(&mut self, opcode: Opcode, srcs: &[ValueId]) -> ValueId {
        self.op_named(opcode, srcs, &format!("{opcode}"))
    }

    /// Add a named arithmetic operation consuming `srcs`.
    pub fn op_named(&mut self, opcode: Opcode, srcs: &[ValueId], name: &str) -> ValueId {
        let dest = self.graph.add_value(format!("{name}.out"), false);
        let data = OperationData::new(opcode, Some(dest), srcs.to_vec());
        self.add_op_node(data, name);
        dest
    }

    /// Add a sequential load from `array`; returns the loaded value.
    pub fn load(&mut self, array: &str) -> ValueId {
        let sym = self.array(array);
        self.load_with(array, MemAccess::sequential(sym))
    }

    /// Add a load with an explicit access pattern.
    pub fn load_with(&mut self, array: &str, access: MemAccess) -> ValueId {
        let dest = self.graph.add_value(format!("ld.{array}"), false);
        let mut data = OperationData::new(Opcode::Load, Some(dest), vec![]);
        data.mem = Some(access);
        self.add_op_node(data, &format!("load {array}"));
        dest
    }

    /// Add a sequential store of `value` to `array`; returns the store node.
    pub fn store(&mut self, array: &str, value: ValueId) -> NodeId {
        let sym = self.array(array);
        self.store_with(array, value, MemAccess::sequential(sym))
    }

    /// Add a store with an explicit access pattern; returns the store node.
    pub fn store_with(&mut self, array: &str, value: ValueId, access: MemAccess) -> NodeId {
        let mut data = OperationData::new(Opcode::Store, None, vec![value]);
        data.mem = Some(access);
        self.add_op_node(data, &format!("store {array}"))
    }

    /// Node defining `value`, if any.
    #[must_use]
    pub fn producer_of(&self, value: ValueId) -> Option<NodeId> {
        self.graph.value(value).producer
    }

    /// Add an explicit memory-ordering dependence between two nodes.
    pub fn mem_dep(&mut self, from: NodeId, to: NodeId, distance: u32) {
        self.graph.add_edge(DepEdge {
            from,
            to,
            kind: DepKind::Memory,
            distance,
            delay_override: None,
            value: None,
        });
    }

    /// Add an explicit control dependence between two nodes.
    pub fn control_dep(&mut self, from: NodeId, to: NodeId, distance: u32) {
        self.graph.add_edge(DepEdge {
            from,
            to,
            kind: DepKind::Control,
            distance,
            delay_override: None,
            value: None,
        });
    }

    /// Finish the loop with the given trip count.
    ///
    /// # Panics
    ///
    /// Panics if a recurrence declared with [`LoopBuilder::recurrence`] was
    /// never closed.
    #[must_use]
    pub fn finish(self, trip_count: u64) -> Loop {
        assert!(
            self.open_recurrences.is_empty(),
            "loop {:?} has {} unclosed recurrence value(s)",
            self.name,
            self.open_recurrences.len()
        );
        Loop::new(self.name, self.graph, trip_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepKind;

    #[test]
    fn def_use_edges_are_created_automatically() {
        let mut b = LoopBuilder::new("t");
        let x = b.load("x");
        let y = b.op(Opcode::FpMul, &[x, x]);
        b.store("y", y);
        let lp = b.finish(10);
        // load -> mul, mul -> store.
        assert_eq!(lp.graph.edge_count(), 2);
        assert!(lp
            .graph
            .edge_ids()
            .all(|e| lp.graph.edge(e).kind == DepKind::RegFlow));
    }

    #[test]
    fn invariants_do_not_create_edges() {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant("a");
        let x = b.load("x");
        let _ = b.op(Opcode::FpMul, &[a, x]);
        let lp = b.finish(10);
        assert_eq!(lp.graph.edge_count(), 1, "only the load→mul edge");
    }

    #[test]
    fn recurrence_creates_loop_carried_edge() {
        let mut b = LoopBuilder::new("sum");
        let x = b.load("x");
        let s = b.recurrence("s");
        let add = b.op(Opcode::FpAdd, &[s, x]);
        b.close_recurrence(s, add, 1);
        let lp = b.finish(10);
        let carried: Vec<_> = lp
            .graph
            .edge_ids()
            .filter(|&e| lp.graph.edge(e).distance == 1)
            .collect();
        assert_eq!(carried.len(), 1);
        let e = lp.graph.edge(carried[0]);
        // The add feeds itself one iteration later.
        assert_eq!(e.from, e.to);
        assert_eq!(e.kind, DepKind::RegFlow);
    }

    #[test]
    #[should_panic(expected = "unclosed recurrence")]
    fn unclosed_recurrence_panics() {
        let mut b = LoopBuilder::new("bad");
        let _ = b.recurrence("s");
        let _ = b.finish(10);
    }

    #[test]
    fn explicit_memory_dependences() {
        let mut b = LoopBuilder::new("t");
        let x = b.load("a");
        let st = b.store("a", x);
        let ld_node = b.producer_of(x).unwrap();
        b.mem_dep(st, ld_node, 1); // store a[i] -> load a[i+1]
        let lp = b.finish(10);
        assert_eq!(
            lp.graph
                .edge_ids()
                .filter(|&e| lp.graph.edge(e).kind == DepKind::Memory)
                .count(),
            1
        );
    }

    #[test]
    fn arrays_get_stable_symbols() {
        let mut b = LoopBuilder::new("t");
        let s1 = b.array("x");
        let s2 = b.array("y");
        let s1_again = b.array("x");
        assert_eq!(s1, s1_again);
        assert_ne!(s1, s2);
    }

    #[test]
    fn multiple_consumers_of_recurrence_each_get_an_edge() {
        let mut b = LoopBuilder::new("t");
        let s = b.recurrence("s");
        let x = b.load("x");
        let a1 = b.op(Opcode::FpAdd, &[s, x]);
        let _a2 = b.op(Opcode::FpMul, &[s, x]);
        b.close_recurrence(s, a1, 2);
        let lp = b.finish(10);
        let carried = lp
            .graph
            .edge_ids()
            .filter(|&e| lp.graph.edge(e).distance == 2)
            .count();
        assert_eq!(carried, 2);
    }
}
