//! Snapshot codec for loops and dependence graphs.
//!
//! Builds on the [`vliw::snap`] primitives to serialise [`DepGraph`]
//! (`MDDG` blobs) and [`Loop`] (`MLOP` blobs). A graph snapshot captures
//! the full structural state — nodes, values and edges **including
//! tombstone slots** — so the decoded graph is
//! [`DepGraph::same_content`]-identical to the original and continues id
//! allocation exactly where the encoded graph left off. Derived data
//! (adjacency lists, the value→consumers index) is rebuilt on decode; the
//! structural epoch is not captured and restarts at 0.
//!
//! # Example
//!
//! ```
//! use ddg::{snap, LoopBuilder};
//! use vliw::Opcode;
//!
//! let mut b = LoopBuilder::new("axpy");
//! let a = b.invariant("a");
//! let x = b.load("x");
//! let m = b.op(Opcode::FpMul, &[a, x]);
//! b.store("y", m);
//! let lp = b.finish(100);
//!
//! let blob = snap::encode_loop(&lp);
//! let back = snap::decode_loop(&blob).expect("round trip");
//! assert!(back.graph.same_content(&lp.graph));
//! assert_eq!(back.name, lp.name);
//! ```

use crate::graph::{DepEdge, DepGraph, DepKind, EdgeId, NodeOrigin, OperationData, ValueData};
use crate::ids::{NodeId, ValueId};
use crate::loop_ir::{Loop, MemAccess};
use crate::small_list::{Slot, SmallList};
use vliw::snap::{
    decode_blob, encode_blob, fnv1a, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter,
};

/// Envelope magic for [`DepGraph`] snapshots.
pub const GRAPH_MAGIC: [u8; 4] = *b"MDDG";

/// Envelope magic for [`Loop`] snapshots.
pub const LOOP_MAGIC: [u8; 4] = *b"MLOP";

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

// The same bytes as a `Vec`: a length, then the entries.
impl<T: SnapEncode, const N: usize> SnapEncode for SmallList<T, N> {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.encode_snap(w);
        }
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

fn encode_tombstoned<T: SnapEncode>(slots: &[Option<T>], w: &mut SnapWriter) {
    w.put_len(slots.len());
    for slot in slots {
        slot.encode_snap(w);
    }
}

impl SnapEncode for DepGraph {
    fn encode_snap(&self, w: &mut SnapWriter) {
        let (nodes, values, edges) = self.snap_parts();
        encode_tombstoned(nodes, w);
        w.put_len(values.len());
        for v in values {
            v.encode_snap(w);
        }
        encode_tombstoned(edges, w);
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

impl SnapDecode for Loop {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let name = String::decode_snap(r)?;
        let graph = DepGraph::decode_snap(r)?;
        let trip_count = r.get_u64()?;
        let weight = r.get_f64()?;
        Ok(Loop::new(name, graph, trip_count).with_weight(weight))
    }
}

/// Encode a [`DepGraph`] into a sealed `MDDG` blob.
#[must_use]
pub fn encode_graph(graph: &DepGraph) -> Vec<u8> {
    encode_blob(GRAPH_MAGIC, graph)
}

/// Decode a sealed `MDDG` blob back into a [`DepGraph`].
///
/// # Errors
///
/// Any [`SnapError`] from the envelope or payload check, including
/// [`SnapError::Malformed`] for structurally inconsistent graphs
/// (dangling ids, edges touching tombstoned nodes).
pub fn decode_graph(blob: &[u8]) -> Result<DepGraph, SnapError> {
    decode_blob(GRAPH_MAGIC, blob)
}

/// Encode a [`Loop`] into a sealed `MLOP` blob.
#[must_use]
pub fn encode_loop(lp: &Loop) -> Vec<u8> {
    encode_blob(LOOP_MAGIC, lp)
}

/// Decode a sealed `MLOP` blob back into a [`Loop`].
///
/// # Errors
///
/// Any [`SnapError`] from the envelope or payload check.
pub fn decode_loop(blob: &[u8]) -> Result<Loop, SnapError> {
    decode_blob(LOOP_MAGIC, blob)
}

/// Structural fingerprint of a loop: FNV-1a over its snapshot payload.
///
/// Two loops have the same fingerprint iff their snapshot encodings are
/// byte-identical — same name, same trip count and weight, same graph
/// content including tombstones. This is the loop component of the
/// schedule cache key (`harness::cache`), stable across processes.
#[must_use]
pub fn loop_fingerprint(lp: &Loop) -> u64 {
    let mut w = SnapWriter::new();
    lp.encode_snap(&mut w);
    fnv1a(&w.into_bytes())
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

    #[test]
    fn loop_round_trip() {
        let lp = sample_loop();
        let blob = encode_loop(&lp);
        let back = decode_loop(&blob).unwrap();
        assert!(back.graph.same_content(&lp.graph));
        assert_eq!(back.name, lp.name);
        assert_eq!(back.trip_count, lp.trip_count);
        assert!((back.weight - lp.weight).abs() < f64::EPSILON);
    }

    #[test]
    fn graph_round_trip_preserves_tombstones_and_id_allocation() {
        let mut lp = sample_loop();
        // Tombstone a node and one of its values' edges through the public
        // mutation API.
        let victim = lp.graph.node_ids().nth(1).unwrap();
        lp.graph.remove_node(victim);
        let g = &lp.graph;

        let blob = encode_graph(g);
        let mut back = decode_graph(&blob).unwrap();
        assert!(back.same_content(g), "decoded graph differs structurally");
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
        super::encode_tombstoned(nodes, &mut w);
        w.put_len(values.len());
        for v in values {
            v.encode_snap(&mut w);
        }
        super::encode_tombstoned(&bad_edges, &mut w);
        let blob = vliw::snap::seal(GRAPH_MAGIC, &w.into_bytes());
        assert!(matches!(
            decode_graph(&blob),
            Err(SnapError::Malformed("edge endpoint is not a live node"))
        ));
    }
}
