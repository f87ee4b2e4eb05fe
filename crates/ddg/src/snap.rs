//! Snapshot codec for dependence graphs, and the loop fingerprint.
//!
//! Builds on the [`vliw::snap`] primitives. A graph's payload captures the
//! full structural state — nodes, values and edges **including tombstone
//! slots** — so the decoded graph equals the original and continues id
//! allocation exactly where the encoded graph left off. Derived data
//! (adjacency lists, the value→consumers index) is rebuilt on decode. A
//! schedule result carries its final graph this way into
//! the schedule cache's entries (`harness::cache`).
//!
//! A [`Loop`] only encodes: [`loop_fingerprint`] hashes its payload into
//! the loop's part of the cache key.
//!
//! # Example
//!
//! ```
//! use ddg::{snap::loop_fingerprint, LoopBuilder};
//! use vliw::Opcode;
//!
//! let axpy = |trip_count| {
//!     let mut b = LoopBuilder::new("axpy");
//!     let a = b.invariant("a");
//!     let x = b.load("x");
//!     let m = b.op(Opcode::FpMul, &[a, x]);
//!     b.store("y", m);
//!     b.finish(trip_count)
//! };
//!
//! let lp = axpy(100);
//! assert_eq!(loop_fingerprint(&lp), loop_fingerprint(&lp.clone()));
//! assert_ne!(loop_fingerprint(&lp), loop_fingerprint(&axpy(200)));
//! ```

use crate::graph::{DepEdge, DepGraph, DepKind, EdgeId, NodeOrigin, OperationData, ValueData};
use crate::ids::{NodeId, ValueId};
use crate::loop_ir::{Loop, MemAccess};
use crate::small_list::{Slot, SmallList};
use vliw::snap::{hash64, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};

impl SnapEncode for NodeId {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.0);
    }
}

impl SnapDecode for NodeId {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeId(r.get_u32()?))
    }
}

impl SnapEncode for ValueId {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.0);
    }
}

impl SnapDecode for ValueId {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ValueId(r.get_u32()?))
    }
}

impl SnapEncode for EdgeId {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.0);
    }
}

impl SnapDecode for EdgeId {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(EdgeId(r.get_u32()?))
    }
}

impl<T: SnapDecode + Slot, const N: usize> SnapDecode for SmallList<T, N> {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        // get_len caps the count at the remaining byte count.
        let n = r.get_len()?;
        let mut out = Self::new();
        for _ in 0..n {
            out.push(T::decode_snap(r)?);
        }
        Ok(out)
    }
}

impl SnapEncode for DepKind {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            DepKind::RegFlow => 0,
            DepKind::RegAnti => 1,
            DepKind::RegOutput => 2,
            DepKind::Memory => 3,
            DepKind::Control => 4,
        });
    }
}

impl SnapDecode for DepKind {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => DepKind::RegFlow,
            1 => DepKind::RegAnti,
            2 => DepKind::RegOutput,
            3 => DepKind::Memory,
            4 => DepKind::Control,
            _ => return Err(SnapError::Malformed("unknown dependence-kind tag")),
        })
    }
}

impl SnapEncode for NodeOrigin {
    fn encode_snap(&self, w: &mut SnapWriter) {
        match self {
            NodeOrigin::Original => w.put_u8(0),
            NodeOrigin::SpillStore { value } => {
                w.put_u8(1);
                value.encode_snap(w);
            }
            NodeOrigin::SpillLoad { value } => {
                w.put_u8(2);
                value.encode_snap(w);
            }
            NodeOrigin::Move { value } => {
                w.put_u8(3);
                value.encode_snap(w);
            }
        }
    }
}

impl SnapDecode for NodeOrigin {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => NodeOrigin::Original,
            1 => NodeOrigin::SpillStore {
                value: ValueId::decode_snap(r)?,
            },
            2 => NodeOrigin::SpillLoad {
                value: ValueId::decode_snap(r)?,
            },
            3 => NodeOrigin::Move {
                value: ValueId::decode_snap(r)?,
            },
            _ => return Err(SnapError::Malformed("unknown node-origin tag")),
        })
    }
}

impl SnapEncode for MemAccess {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.array);
        w.put_i64(self.offset);
        w.put_i64(self.stride);
    }
}

impl SnapDecode for MemAccess {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(MemAccess {
            array: r.get_u32()?,
            offset: r.get_i64()?,
            stride: r.get_i64()?,
        })
    }
}

impl SnapEncode for OperationData {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.opcode.encode_snap(w);
        self.dest.encode_snap(w);
        self.srcs.encode_snap(w);
        self.mem.encode_snap(w);
        self.mem_latency.encode_snap(w);
        self.origin.encode_snap(w);
        self.name.encode_snap(w);
    }
}

impl SnapDecode for OperationData {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(OperationData {
            opcode: SnapDecode::decode_snap(r)?,
            dest: SnapDecode::decode_snap(r)?,
            srcs: SnapDecode::decode_snap(r)?,
            mem: SnapDecode::decode_snap(r)?,
            mem_latency: SnapDecode::decode_snap(r)?,
            origin: SnapDecode::decode_snap(r)?,
            name: SnapDecode::decode_snap(r)?,
        })
    }
}

impl SnapEncode for ValueData {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.name.encode_snap(w);
        self.producer.encode_snap(w);
        w.put_bool(self.invariant);
    }
}

impl SnapDecode for ValueData {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ValueData {
            name: SnapDecode::decode_snap(r)?,
            producer: SnapDecode::decode_snap(r)?,
            invariant: r.get_bool()?,
        })
    }
}

impl SnapEncode for DepEdge {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.from.encode_snap(w);
        self.to.encode_snap(w);
        self.kind.encode_snap(w);
        w.put_u32(self.distance);
        self.delay_override.encode_snap(w);
        self.value.encode_snap(w);
    }
}

impl SnapDecode for DepEdge {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(DepEdge {
            from: SnapDecode::decode_snap(r)?,
            to: SnapDecode::decode_snap(r)?,
            kind: SnapDecode::decode_snap(r)?,
            distance: r.get_u32()?,
            delay_override: SnapDecode::decode_snap(r)?,
            value: SnapDecode::decode_snap(r)?,
        })
    }
}

impl SnapEncode for DepGraph {
    fn encode_snap(&self, w: &mut SnapWriter) {
        let (nodes, values, edges) = self.snap_parts();
        nodes.encode_snap(w);
        values.encode_snap(w);
        edges.encode_snap(w);
    }
}

impl SnapDecode for DepGraph {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let nodes: Vec<Option<OperationData>> = SnapDecode::decode_snap(r)?;
        let values: Vec<ValueData> = SnapDecode::decode_snap(r)?;
        let edges: Vec<Option<DepEdge>> = SnapDecode::decode_snap(r)?;
        DepGraph::from_snap_parts(nodes, values, edges).map_err(SnapError::Malformed)
    }
}

impl SnapEncode for Loop {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.name.encode_snap(w);
        self.graph.encode_snap(w);
        w.put_u64(self.trip_count);
        w.put_f64(self.weight);
    }
}

/// Structural fingerprint of a loop: [`hash64`] of its snapshot payload,
/// seed 0.
///
/// Loops with byte-identical snapshot encodings — same name, same trip
/// count and weight, same graph content including tombstones — share a
/// fingerprint, and encodings that differ only inside one 8-byte word never
/// do. This is the loop component of the schedule cache key
/// (`harness::cache`), stable across processes; its value on a workbench
/// loop is pinned there, since moving it moves every key.
#[must_use]
pub fn loop_fingerprint(lp: &Loop) -> u64 {
    let mut w = SnapWriter::new();
    lp.encode_snap(&mut w);
    hash64(&w.into_bytes(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use vliw::Opcode;

    fn sample_loop() -> Loop {
        let mut b = LoopBuilder::new("dot-step");
        let a = b.invariant("a");
        let x = b.load("x");
        let prod = b.op(Opcode::FpMul, &[a, x]);
        let s = b.recurrence("s");
        let sum = b.op(Opcode::FpAdd, &[s, prod]);
        b.close_recurrence(s, sum, 1);
        b.finish(1000).with_weight(0.25)
    }

    /// Decode a whole graph payload; every byte must be read.
    fn decode(bytes: &[u8]) -> Result<DepGraph, SnapError> {
        let mut r = SnapReader::new(bytes);
        let g = DepGraph::decode_snap(&mut r)?;
        r.expect_end()?;
        Ok(g)
    }

    #[test]
    fn graph_round_trip_preserves_tombstones_and_id_allocation() {
        let mut lp = sample_loop();
        // Tombstone a node and one of its values' edges through the public
        // mutation API.
        let victim = lp.graph.node_ids().nth(1).unwrap();
        lp.graph.remove_node(victim);
        let g = &lp.graph;

        let mut w = SnapWriter::new();
        g.encode_snap(&mut w);
        let mut back = decode(&w.into_bytes()).unwrap();
        assert_eq!(&back, g, "decoded graph differs structurally");
        assert!(!back.is_live(victim), "tombstone survived the round trip");

        // Id allocation continues where the original left off: the next
        // node added to either graph gets the same id.
        let mut original = g.clone();
        let data = crate::graph::OperationData::new(Opcode::IntAlu, None, vec![]);
        let id_orig = original.add_node(data.clone());
        let id_back = back.add_node(data);
        assert_eq!(id_orig, id_back);
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let lp = sample_loop();
        let mut other = sample_loop();
        assert_eq!(loop_fingerprint(&lp), loop_fingerprint(&other));
        let victim = other.graph.node_ids().nth(1).unwrap();
        other.graph.remove_node(victim);
        assert_ne!(loop_fingerprint(&lp), loop_fingerprint(&other));
        // The name, trip count and weight are part of the loop too.
        let renamed = Loop::new("dot", lp.graph.clone(), lp.trip_count).with_weight(lp.weight);
        let reweighted = sample_loop().with_weight(0.5);
        let longer = Loop::new(lp.name.clone(), lp.graph.clone(), 2000).with_weight(lp.weight);
        for variant in [renamed, reweighted, longer] {
            assert_ne!(loop_fingerprint(&lp), loop_fingerprint(&variant));
        }
    }

    #[test]
    fn dangling_edge_is_rejected_as_malformed() {
        let lp = sample_loop();
        let (nodes, values, edges) = lp.graph.snap_parts();
        let mut w = SnapWriter::new();
        // Re-encode by hand with one extra edge pointing at a node id far
        // outside the graph.
        let mut bad_edges: Vec<Option<DepEdge>> = edges.to_vec();
        bad_edges.push(Some(DepEdge {
            from: NodeId(10_000),
            to: NodeId(0),
            kind: DepKind::Control,
            distance: 0,
            delay_override: None,
            value: None,
        }));
        nodes.encode_snap(&mut w);
        values.encode_snap(&mut w);
        bad_edges.encode_snap(&mut w);
        assert!(matches!(
            decode(&w.into_bytes()),
            Err(SnapError::Malformed("edge endpoint is not a live node"))
        ));
    }
}
