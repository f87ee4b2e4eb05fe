//! Property tests for copying a `DepGraph` into a reused buffer, the way
//! every scheduling attempt gets its own copy of the loop's base graph:
//! whatever a buffer held before, `clone_from` must leave it
//! *bit-identical* to the base — nodes, values, edges (including
//! tombstones and id-allocation state), adjacency-list order and the
//! value→consumers index, so the copy equals the base — and the copy must
//! then take further edits exactly as a fresh clone does.
//!
//! Edits are generated fuzzer-style: a vector of random words is
//! interpreted against the *current* graph state, so every generated
//! operation is valid by construction (remove only live edges/nodes,
//! rewire only existing values) while still covering the scheduler-shaped
//! mix of spill insertion, move insertion/removal, operand rewiring and
//! payload mutation.

use ddg::{DepEdge, DepGraph, DepKind, EdgeId, NodeId, NodeOrigin, OperationData, ValueId};
use proptest::prelude::*;
use vliw::{MemLatency, Opcode};

/// Seed graph shaped like a small loop body: a couple of loads feeding
/// arithmetic, a store, one loop-carried edge and an invariant.
fn seed_graph() -> DepGraph {
    let mut g = DepGraph::new();
    let inv = g.add_value("c", true);
    let x = g.add_value("x", false);
    let y = g.add_value("y", false);
    let t = g.add_value("t", false);
    let lx = g.add_node(OperationData::new(Opcode::Load, Some(x), vec![]));
    let ly = g.add_node(OperationData::new(Opcode::Load, Some(y), vec![]));
    let mul = g.add_node(OperationData::new(Opcode::FpMul, Some(t), vec![inv, x]));
    let add = g.add_node(OperationData::new(Opcode::FpAdd, None, vec![t, y]));
    g.add_flow(lx, mul, x, 0);
    g.add_flow(ly, add, y, 0);
    g.add_flow(mul, add, t, 0);
    g.add_edge(DepEdge {
        from: add,
        to: lx,
        kind: DepKind::RegAnti,
        distance: 1,
        delay_override: None,
        value: Some(x),
    });
    g
}

/// Interpret one random word as a valid structural edit. Returns the index
/// of the value, node or edge the edit created or touched, or `None` when
/// it changed nothing.
fn apply_edit(g: &mut DepGraph, word: u64) -> Option<u32> {
    let live_nodes: Vec<NodeId> = g.node_ids().collect();
    let live_edges: Vec<EdgeId> = g.edge_ids().collect();
    let pick_node = |w: u64| live_nodes[(w % live_nodes.len() as u64) as usize];
    let pick_value = |w: u64| ValueId((w % g.value_count() as u64) as u32);
    match word % 8 {
        // Register a fresh value.
        0 => Some(
            g.add_value(format!("v{}", g.value_count()), word % 16 == 0)
                .0,
        ),
        // Insert a consumer node reading one or two existing values.
        1 => {
            let a = pick_value(word >> 3);
            let b = pick_value(word >> 17);
            let srcs = if word & 0x100 != 0 {
                vec![a, b]
            } else {
                vec![a]
            };
            let dest = if word & 0x200 != 0 {
                Some(g.add_value(format!("d{}", g.value_count()), false))
            } else {
                None
            };
            Some(g.add_node(OperationData::new(Opcode::FpAdd, dest, srcs)).0)
        }
        // Spill-store-style insertion: node + flow edge from a producer.
        2 => {
            let v = pick_value(word >> 3);
            let producer = g.value(v).producer?;
            let mut data = OperationData::new(Opcode::SpillStore, None, vec![v]);
            data.origin = NodeOrigin::SpillStore { value: v };
            let st = g.add_node(data);
            g.add_flow(producer, st, v, (word >> 9) as u32 % 3);
            Some(st.0)
        }
        // Add a dependence edge between two live nodes.
        3 => {
            if live_nodes.is_empty() {
                return None;
            }
            let from = pick_node(word >> 3);
            let to = pick_node(word >> 23);
            let e = g.add_edge(DepEdge {
                from,
                to,
                kind: if word & 0x40 != 0 {
                    DepKind::Memory
                } else {
                    DepKind::Control
                },
                distance: (word >> 9) as u32 % 2,
                delay_override: if word & 0x80 != 0 { Some(2) } else { None },
                value: None,
            });
            Some(e.0)
        }
        // Remove a live edge.
        4 => {
            if live_edges.is_empty() {
                return None;
            }
            let e = live_edges[(word >> 3) as usize % live_edges.len()];
            g.remove_edge(e);
            Some(e.0)
        }
        // Remove a live node (and its incident edges).
        5 => {
            if live_nodes.len() <= 1 {
                return None;
            }
            let n = pick_node(word >> 3);
            g.remove_node(n);
            Some(n.0)
        }
        // Rewire operands: replace one value with another everywhere in a
        // node's operand list.
        6 => {
            if live_nodes.is_empty() {
                return None;
            }
            let n = pick_node(word >> 3);
            let old = *g.op(n).srcs().first()?;
            let new = pick_value(word >> 23);
            if new == old {
                return None; // old == new changes nothing
            }
            (g.replace_src(n, old, new) > 0).then_some(n.0)
        }
        // Mutate a node payload through `op_mut`.
        _ => {
            if live_nodes.is_empty() {
                return None;
            }
            let n = pick_node(word >> 3);
            g.op_mut(n).mem_latency = if word & 0x40 != 0 {
                MemLatency::Miss
            } else {
                MemLatency::Hit
            };
            Some(n.0)
        }
    }
}

/// `seed_graph` after the edits `words` describe.
fn edited(words: &[u64]) -> DepGraph {
    let mut g = seed_graph();
    for &w in words {
        apply_edit(&mut g, w);
    }
    g
}

/// Full-state fingerprint: value count, node-id allocation and the live
/// node and edge ids.
fn snapshot(g: &DepGraph) -> (usize, usize, Vec<NodeId>, Vec<EdgeId>) {
    (
        g.value_count(),
        g.node_capacity(),
        g.node_ids().collect(),
        g.edge_ids().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// A buffer dirtied by any edit sequence — left longer or shorter than
    /// the base, with its own tombstones and rewired operands — becomes
    /// the base under `clone_from`, and then takes any
    /// further edit sequence exactly as a fresh clone of the base does.
    #[test]
    fn clone_from_turns_any_buffer_into_the_base(
        base_words in proptest::collection::vec(0u64..u64::MAX, 0..30),
        dirty_words in proptest::collection::vec(0u64..u64::MAX, 1..60),
        further in proptest::collection::vec(0u64..u64::MAX, 1..30),
    ) {
        let base = edited(&base_words);
        let mut buf = edited(&dirty_words);
        buf.clone_from(&base);
        prop_assert!(buf == base, "clone_from must be bit-identical");
        prop_assert_eq!(snapshot(&buf), snapshot(&base));
        // The consumer index came along intact: the oracle-checked accessor
        // agrees with a from-scratch operand scan for every value.
        for v in buf.value_ids() {
            let expect: Vec<NodeId> = buf
                .node_ids()
                .filter(|&n| buf.op(n).srcs().contains(&v))
                .collect();
            prop_assert_eq!(buf.consumers_of(v), expect);
        }

        let mut fresh = base.clone();
        for &w in &further {
            let touched = apply_edit(&mut buf, w);
            prop_assert_eq!(touched, apply_edit(&mut fresh, w), "edit {:#x} diverged", w);
        }
        prop_assert!(buf == fresh, "the reused buffer edits like a fresh clone");
        prop_assert_eq!(snapshot(&buf), snapshot(&fresh));
    }
}
