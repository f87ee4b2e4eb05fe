//! Snapshot codec impls for schedule results.
//!
//! [`SnapEncode`]/[`SnapDecode`] for a complete [`ScheduleResult`] — final
//! graph, placements, register requirements, scheduler counters and search
//! metadata — over the [`vliw::snap`] primitives and the graph codec of
//! [`ddg::snap`]. The schedule cache (`harness::cache`) seals one result
//! per `MCHE` entry. A decoded result reproduces the original's
//! [`ScheduleResult::schedule_hash`] exactly, which is what lets the cache
//! verify an entry's integrity end to end.
//!
//! The placement map is serialised as a `(node, placement)` list sorted by
//! node id — a canonical order, so encoding the same result twice yields
//! byte-identical payloads regardless of hash-map iteration order.

use crate::options::SearchStrategyKind;
use crate::result::{Placement, ScheduleResult, SchedulerStats, SearchMeta, SearchProof};
use ddg::collections::HashMap;
use ddg::{DepGraph, NodeId};
use vliw::snap::{SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use vliw::ClusterId;

// Tag 2 belonged to the retired `perturb` strategy; it stays unassigned so
// a stray old blob decodes as malformed rather than as another strategy.
impl SnapEncode for SearchStrategyKind {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            SearchStrategyKind::Linear => 0,
            SearchStrategyKind::Backtracking => 1,
            SearchStrategyKind::Exact => 3,
        });
    }
}

impl SnapDecode for SearchStrategyKind {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => SearchStrategyKind::Linear,
            1 => SearchStrategyKind::Backtracking,
            3 => SearchStrategyKind::Exact,
            _ => return Err(SnapError::Malformed("unknown search-strategy tag")),
        })
    }
}

impl SnapEncode for SearchProof {
    fn encode_snap(&self, w: &mut SnapWriter) {
        match self {
            SearchProof::Heuristic => w.put_u8(0),
            SearchProof::Optimal => w.put_u8(1),
            SearchProof::LowerBound(b) => {
                w.put_u8(2);
                w.put_u32(*b);
            }
            SearchProof::BudgetExhausted(b) => {
                w.put_u8(3);
                w.put_u32(*b);
            }
        }
    }
}

impl SnapDecode for SearchProof {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => SearchProof::Heuristic,
            1 => SearchProof::Optimal,
            2 => SearchProof::LowerBound(r.get_u32()?),
            3 => SearchProof::BudgetExhausted(r.get_u32()?),
            _ => return Err(SnapError::Malformed("unknown search-proof tag")),
        })
    }
}

impl SnapEncode for SchedulerStats {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.attempts);
        w.put_u64(self.ejections);
        w.put_u64(self.forced);
        w.put_u32(self.spill_stores);
        w.put_u32(self.spill_loads);
        w.put_u32(self.moves);
        w.put_u64(self.moves_removed);
        w.put_u32(self.restarts);
        w.put_u64(self.spill_memo_hits);
        w.put_u64(self.spill_memo_misses);
        w.put_f64(self.relax_seconds);
        w.put_f64(self.scheduling_seconds);
    }
}

impl SnapDecode for SchedulerStats {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SchedulerStats {
            attempts: r.get_u64()?,
            ejections: r.get_u64()?,
            forced: r.get_u64()?,
            spill_stores: r.get_u32()?,
            spill_loads: r.get_u32()?,
            moves: r.get_u32()?,
            moves_removed: r.get_u64()?,
            restarts: r.get_u32()?,
            spill_memo_hits: r.get_u64()?,
            spill_memo_misses: r.get_u64()?,
            relax_seconds: r.get_f64()?,
            scheduling_seconds: r.get_f64()?,
        })
    }
}

impl SnapEncode for SearchMeta {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.strategy.encode_snap(w);
        w.put_u32(self.attempts);
        w.put_u32(self.candidates);
        w.put_u32(self.groups);
        w.put_u32(self.pruned_iis);
        self.proof.encode_snap(w);
    }
}

impl SnapDecode for SearchMeta {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SearchMeta {
            strategy: SnapDecode::decode_snap(r)?,
            attempts: r.get_u32()?,
            candidates: r.get_u32()?,
            groups: r.get_u32()?,
            pruned_iis: r.get_u32()?,
            proof: SnapDecode::decode_snap(r)?,
        })
    }
}

impl SnapEncode for Placement {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_i64(self.cycle);
        w.put_u16(self.cluster.0);
    }
}

impl SnapDecode for Placement {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Placement {
            cycle: r.get_i64()?,
            cluster: ClusterId(r.get_u16()?),
        })
    }
}

impl SnapEncode for ScheduleResult {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.loop_name.encode_snap(w);
        w.put_u32(self.ii);
        w.put_u32(self.mii);
        self.graph.encode_snap(w);
        // Canonical placement order: sorted by node id, so equal results
        // encode to byte-identical payloads.
        let mut placed: Vec<(NodeId, Placement)> =
            self.placements.iter().map(|(&n, &p)| (n, p)).collect();
        placed.sort_unstable_by_key(|(n, _)| *n);
        placed.encode_snap(w);
        self.max_live.encode_snap(w);
        w.put_u32(self.memory_traffic);
        w.put_u32(self.moves);
        w.put_u32(self.span);
        self.stats.encode_snap(w);
        self.search.encode_snap(w);
    }
}

impl SnapDecode for ScheduleResult {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let loop_name = String::decode_snap(r)?;
        let ii = r.get_u32()?;
        let mii = r.get_u32()?;
        let graph = DepGraph::decode_snap(r)?;
        let placed: Vec<(NodeId, Placement)> = SnapDecode::decode_snap(r)?;
        if !placed.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(SnapError::Malformed("placements are not sorted by node id"));
        }
        let mut placements: HashMap<NodeId, Placement> = HashMap::default();
        placements.reserve(placed.len());
        for (n, p) in placed {
            placements.insert(n, p);
        }
        Ok(ScheduleResult {
            loop_name,
            ii,
            mii,
            graph,
            placements,
            max_live: SnapDecode::decode_snap(r)?,
            memory_traffic: r.get_u32()?,
            moves: r.get_u32()?,
            span: r.get_u32()?,
            stats: SnapDecode::decode_snap(r)?,
            search: SnapDecode::decode_snap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MirsScheduler, SchedulerOptions};
    use ddg::LoopBuilder;
    use vliw::{MachineConfig, Opcode};

    fn scheduled_result() -> ScheduleResult {
        let mut b = LoopBuilder::new("daxpy");
        let a = b.invariant("a");
        let x = b.load("x");
        let y = b.load("y");
        let ax = b.op(Opcode::FpMul, &[a, x]);
        let sum = b.op(Opcode::FpAdd, &[ax, y]);
        b.store("y", sum);
        let lp = b.finish(1000);
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        MirsScheduler::new(&machine, SchedulerOptions::default())
            .schedule(&lp)
            .expect("schedulable loop")
    }

    fn payload<T: SnapEncode>(value: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.encode_snap(&mut w);
        w.into_bytes()
    }

    /// Decode a whole payload; every byte must be read.
    fn decode<T: SnapDecode>(bytes: &[u8]) -> Result<T, SnapError> {
        let mut r = SnapReader::new(bytes);
        let value = T::decode_snap(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }

    #[test]
    fn result_round_trip_preserves_schedule_hash() {
        let r = scheduled_result();
        let back: ScheduleResult = decode(&payload(&r)).unwrap();
        assert_eq!(back.schedule_hash(), r.schedule_hash());
        assert_eq!(back.ii, r.ii);
        assert_eq!(back.mii, r.mii);
        assert_eq!(back.loop_name, r.loop_name);
        assert_eq!(back.placements.len(), r.placements.len());
        assert_eq!(back.max_live, r.max_live);
        assert_eq!(back.stats, r.stats);
        assert_eq!(back.search, r.search);
        assert!(back.graph == r.graph);
    }

    #[test]
    fn encoding_is_canonical() {
        let r = scheduled_result();
        assert_eq!(payload(&r), payload(&r.clone()));
    }

    #[test]
    fn unsorted_placements_are_rejected() {
        // A tiny result with two placements in the wrong order.
        let mut w = SnapWriter::new();
        String::from("t").encode_snap(&mut w);
        w.put_u32(1); // ii
        w.put_u32(1); // mii
        DepGraph::new().encode_snap(&mut w);
        let placed = [
            (
                NodeId(1),
                Placement {
                    cycle: 0,
                    cluster: ClusterId(0),
                },
            ),
            (
                NodeId(0),
                Placement {
                    cycle: 1,
                    cluster: ClusterId(0),
                },
            ),
        ];
        placed.encode_snap(&mut w);
        Vec::<u32>::new().encode_snap(&mut w);
        w.put_u32(0);
        w.put_u32(0);
        w.put_u32(0);
        SchedulerStats::default().encode_snap(&mut w);
        SearchMeta::default().encode_snap(&mut w);
        assert!(matches!(
            decode::<ScheduleResult>(&w.into_bytes()),
            Err(SnapError::Malformed("placements are not sorted by node id"))
        ));

        // The retired `perturb` strategy tag is malformed, not a strategy.
        assert!(matches!(
            decode::<SearchStrategyKind>(&[2]),
            Err(SnapError::Malformed("unknown search-strategy tag"))
        ));
    }

    #[test]
    fn search_proof_round_trips_through_search_meta() {
        for proof in [
            SearchProof::Heuristic,
            SearchProof::Optimal,
            SearchProof::LowerBound(6),
            SearchProof::BudgetExhausted(9),
        ] {
            let meta = SearchMeta {
                strategy: SearchStrategyKind::Exact,
                attempts: 3,
                candidates: 1,
                groups: 1,
                pruned_iis: 4,
                proof,
            };
            let back: SearchMeta = decode(&payload(&meta)).unwrap();
            assert_eq!(back, meta);
            assert_eq!(back.proof, proof);
        }
    }
}
