//! Per-operation reservation tables.
//!
//! A reservation table lists the resources an operation occupies at each
//! cycle relative to its issue cycle. Most operations are simple (one
//! resource for one cycle, or a blocking unit for divide/sqrt), but an
//! inter-cluster `move` is a *complex* operation: it simultaneously needs the
//! output port of the source cluster, a shared bus, and — `λm - 1` cycles
//! later — the input port of the destination cluster. These complex tables
//! are precisely what makes backtracking valuable in MIRS-C.

use crate::op::{LatencyModel, Opcode};
use crate::resource::{ClusterId, ResourceKind};

/// One resource requirement of a reservation table: `kind` is occupied during
/// cycle `issue + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceUse {
    /// Cycle offset relative to the issue cycle of the operation.
    pub offset: u32,
    /// The resource occupied during that cycle.
    pub kind: ResourceKind,
}

/// Resource usage pattern of a single operation instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReservationTable {
    uses: Vec<ResourceUse>,
}

impl ReservationTable {
    /// Empty reservation table (used by pseudo-operations).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the reservation table for `op` executed on `cluster`.
    ///
    /// For [`Opcode::Move`] the destination cluster must be provided via
    /// [`ReservationTable::for_move`]; this function panics if called with a
    /// move opcode.
    ///
    /// # Panics
    ///
    /// Panics if `op` is [`Opcode::Move`].
    #[must_use]
    pub fn for_op(op: Opcode, cluster: ClusterId, lat: &LatencyModel) -> Self {
        assert!(
            !op.is_move(),
            "use ReservationTable::for_move for inter-cluster moves"
        );
        let mut uses = Vec::new();
        let kind = match op.class() {
            crate::op::OpClass::Gp => ResourceKind::GpUnit { cluster },
            crate::op::OpClass::Mem => ResourceKind::MemPort { cluster },
            crate::op::OpClass::Move => unreachable!(),
        };
        for offset in 0..lat.occupancy(op) {
            uses.push(ResourceUse { offset, kind });
        }
        Self { uses }
    }

    /// Build the coupled send/receive reservation table of an inter-cluster
    /// move from `src` to `dst` with move latency `λm`.
    ///
    /// The move occupies the output port of `src` and one bus at the issue
    /// cycle, and the input port of `dst` at cycle `issue + λm - 1` (for
    /// `λm = 1` all three resources are needed in the same cycle).
    #[must_use]
    pub fn for_move(src: ClusterId, dst: ClusterId, lat: &LatencyModel) -> Self {
        let recv_offset = lat.move_latency.saturating_sub(1);
        let uses = vec![
            ResourceUse {
                offset: 0,
                kind: ResourceKind::OutPort { cluster: src },
            },
            ResourceUse {
                offset: 0,
                kind: ResourceKind::Bus,
            },
            ResourceUse {
                offset: recv_offset,
                kind: ResourceKind::InPort { cluster: dst },
            },
        ];
        Self { uses }
    }

    /// Iterate over the individual resource requirements.
    pub fn iter(&self) -> impl Iterator<Item = &ResourceUse> {
        self.uses.iter()
    }

    /// Number of resource requirements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uses.len()
    }

    /// Whether the table requires no resources.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uses.is_empty()
    }

    /// Largest cycle offset used by the table (0 for an empty table).
    #[must_use]
    pub fn span(&self) -> u32 {
        self.uses.iter().map(|u| u.offset).max().unwrap_or(0)
    }
}

impl<'a> IntoIterator for &'a ReservationTable {
    type Item = &'a ResourceUse;
    type IntoIter = std::slice::Iter<'a, ResourceUse>;

    fn into_iter(self) -> Self::IntoIter {
        self.uses.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_op_occupies_single_cycle() {
        let lat = LatencyModel::default();
        let rt = ReservationTable::for_op(Opcode::FpAdd, ClusterId(0), &lat);
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.span(), 0);
        assert_eq!(
            rt.iter().next().unwrap().kind,
            ResourceKind::GpUnit {
                cluster: ClusterId(0)
            }
        );
    }

    #[test]
    fn divide_blocks_its_unit_for_its_latency() {
        let lat = LatencyModel::default();
        let rt = ReservationTable::for_op(Opcode::FpDiv, ClusterId(1), &lat);
        assert_eq!(rt.len(), lat.fp_div as usize);
        assert_eq!(rt.span(), lat.fp_div - 1);
        assert!(rt.iter().all(|u| u.kind
            == ResourceKind::GpUnit {
                cluster: ClusterId(1)
            }));
    }

    #[test]
    fn loads_use_memory_ports() {
        let lat = LatencyModel::default();
        for op in [
            Opcode::Load,
            Opcode::Store,
            Opcode::SpillLoad,
            Opcode::SpillStore,
        ] {
            let rt = ReservationTable::for_op(op, ClusterId(2), &lat);
            assert_eq!(rt.len(), 1);
            assert_eq!(
                rt.iter().next().unwrap().kind,
                ResourceKind::MemPort {
                    cluster: ClusterId(2)
                }
            );
        }
    }

    #[test]
    fn move_with_unit_latency_needs_three_resources_same_cycle() {
        let lat = LatencyModel::with_move_latency(1);
        let rt = ReservationTable::for_move(ClusterId(0), ClusterId(1), &lat);
        assert_eq!(rt.len(), 3);
        assert!(rt.iter().all(|u| u.offset == 0));
        assert!(rt.iter().any(|u| u.kind == ResourceKind::Bus));
    }

    #[test]
    fn move_with_latency_three_receives_later() {
        let lat = LatencyModel::with_move_latency(3);
        let rt = ReservationTable::for_move(ClusterId(0), ClusterId(3), &lat);
        assert_eq!(rt.span(), 2);
        let recv = rt
            .iter()
            .find(|u| matches!(u.kind, ResourceKind::InPort { .. }))
            .unwrap();
        assert_eq!(recv.offset, 2);
        assert_eq!(
            recv.kind,
            ResourceKind::InPort {
                cluster: ClusterId(3)
            }
        );
    }

    #[test]
    #[should_panic(expected = "for_move")]
    fn for_op_rejects_moves() {
        let lat = LatencyModel::default();
        let _ = ReservationTable::for_op(Opcode::Move, ClusterId(0), &lat);
    }

    #[test]
    fn empty_table_has_zero_span() {
        let rt = ReservationTable::new();
        assert!(rt.is_empty());
        assert_eq!(rt.span(), 0);
    }
}
