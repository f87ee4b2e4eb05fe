//! Operation repertoire and latency model.

use std::fmt;

/// Resource class an operation executes on.
///
/// Each cluster owns a number of general-purpose functional units
/// ([`OpClass::Gp`]), a number of memory ports ([`OpClass::Mem`]) and one
/// input / one output port used by inter-cluster communication
/// ([`OpClass::Move`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// General-purpose (arithmetic) functional unit.
    Gp,
    /// Memory port (load/store unit).
    Mem,
    /// Inter-cluster communication (uses ports and a bus).
    Move,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpClass::Gp => write!(f, "gp"),
            OpClass::Mem => write!(f, "mem"),
            OpClass::Move => write!(f, "move"),
        }
    }
}

/// The operations the modeled VLIW core can execute.
///
/// The repertoire follows the paper's evaluation framework: floating-point
/// addition, multiplication, division and square root on the general-purpose
/// units, loads and stores (including the spill accesses inserted by the
/// scheduler) on the memory ports, and `move` operations between clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    /// Floating-point addition / subtraction.
    FpAdd,
    /// Floating-point multiplication.
    FpMul,
    /// Floating-point division (not fully pipelined).
    FpDiv,
    /// Floating-point square root (not fully pipelined).
    FpSqrt,
    /// Integer / address arithmetic executed on a general-purpose unit.
    IntAlu,
    /// Copy between registers of the same cluster (executed on a GP unit).
    Copy,
    /// Memory load generated by the original program.
    Load,
    /// Memory store generated by the original program.
    Store,
    /// Load inserted by the register spiller.
    SpillLoad,
    /// Store inserted by the register spiller.
    SpillStore,
    /// Inter-cluster move (coupled send/receive through a bus).
    Move,
}

impl Opcode {
    /// Resource class this opcode executes on.
    #[must_use]
    #[inline]
    pub fn class(self) -> OpClass {
        match self {
            Opcode::FpAdd
            | Opcode::FpMul
            | Opcode::FpDiv
            | Opcode::FpSqrt
            | Opcode::IntAlu
            | Opcode::Copy => OpClass::Gp,
            Opcode::Load | Opcode::Store | Opcode::SpillLoad | Opcode::SpillStore => OpClass::Mem,
            Opcode::Move => OpClass::Move,
        }
    }

    /// Whether the opcode reads memory.
    #[must_use]
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Load | Opcode::SpillLoad)
    }

    /// Whether the opcode writes memory.
    #[must_use]
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Store | Opcode::SpillStore)
    }

    /// Whether the opcode accesses memory at all.
    #[must_use]
    #[inline]
    pub fn is_memory(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether the opcode was inserted by the register spiller.
    #[must_use]
    #[inline]
    pub fn is_spill(self) -> bool {
        matches!(self, Opcode::SpillLoad | Opcode::SpillStore)
    }

    /// Whether the opcode is an inter-cluster move.
    #[must_use]
    #[inline]
    pub fn is_move(self) -> bool {
        matches!(self, Opcode::Move)
    }

    /// Whether the opcode produces a register result.
    #[must_use]
    #[inline]
    pub fn defines_register(self) -> bool {
        !matches!(self, Opcode::Store | Opcode::SpillStore)
    }

    /// All opcodes, useful for exhaustive tests.
    #[must_use]
    pub fn all() -> &'static [Opcode] {
        &[
            Opcode::FpAdd,
            Opcode::FpMul,
            Opcode::FpDiv,
            Opcode::FpSqrt,
            Opcode::IntAlu,
            Opcode::Copy,
            Opcode::Load,
            Opcode::Store,
            Opcode::SpillLoad,
            Opcode::SpillStore,
            Opcode::Move,
        ]
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::FpAdd => "fadd",
            Opcode::FpMul => "fmul",
            Opcode::FpDiv => "fdiv",
            Opcode::FpSqrt => "fsqrt",
            Opcode::IntAlu => "ialu",
            Opcode::Copy => "copy",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::SpillLoad => "spill.load",
            Opcode::SpillStore => "spill.store",
            Opcode::Move => "move",
        };
        write!(f, "{s}")
    }
}

/// Latency assumed when scheduling memory load operations.
///
/// Under *binding prefetching* (Section 4.3 of the paper) selected loads are
/// scheduled with the cache-miss latency so that the schedule itself hides
/// the miss; the remaining loads use the hit latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLatency {
    /// Schedule the load assuming it hits in the cache.
    Hit,
    /// Schedule the load assuming it misses (binding prefetching).
    Miss,
}

/// Operation latencies of the modeled core.
///
/// Defaults follow Section 4 of the paper: 4 cycles for addition and
/// multiplication, 17 for division, 30 for square root; all operations fully
/// pipelined except division and square root. Loads take the cache *hit*
/// latency (2 cycles) unless binding prefetching schedules them with the miss
/// latency. The latency of a `move` is a machine parameter (`λm ∈ {1, 3}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyModel {
    /// Latency of floating-point add/sub.
    pub fp_add: u32,
    /// Latency of floating-point multiply.
    pub fp_mul: u32,
    /// Latency of floating-point divide.
    pub fp_div: u32,
    /// Latency of floating-point square root.
    pub fp_sqrt: u32,
    /// Latency of integer/address arithmetic and copies.
    pub int_alu: u32,
    /// Load latency when the access hits in the cache (read).
    pub load_hit: u32,
    /// Load latency assumed when binding prefetching schedules a miss.
    pub load_miss: u32,
    /// Store latency (write hit).
    pub store: u32,
    /// Latency of an inter-cluster move (`λm`).
    pub move_latency: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            fp_add: 4,
            fp_mul: 4,
            fp_div: 17,
            fp_sqrt: 30,
            int_alu: 1,
            load_hit: 2,
            load_miss: 25,
            store: 1,
            move_latency: 1,
        }
    }
}

impl LatencyModel {
    /// Latency model with a given move latency (`λm`), other values default.
    #[must_use]
    pub fn with_move_latency(move_latency: u32) -> Self {
        Self {
            move_latency,
            ..Self::default()
        }
    }

    /// Latency of `op`, scheduling loads with the given memory assumption.
    #[must_use]
    #[inline]
    pub fn latency_of(&self, op: Opcode, mem: MemLatency) -> u32 {
        match op {
            Opcode::FpAdd => self.fp_add,
            Opcode::FpMul => self.fp_mul,
            Opcode::FpDiv => self.fp_div,
            Opcode::FpSqrt => self.fp_sqrt,
            Opcode::IntAlu | Opcode::Copy => self.int_alu,
            Opcode::Load | Opcode::SpillLoad => match mem {
                MemLatency::Hit => self.load_hit,
                MemLatency::Miss => self.load_miss,
            },
            Opcode::Store | Opcode::SpillStore => self.store,
            Opcode::Move => self.move_latency,
        }
    }

    /// Latency of `op` under the hit-latency assumption.
    #[must_use]
    pub fn latency(&self, op: Opcode) -> u32 {
        self.latency_of(op, MemLatency::Hit)
    }

    /// Number of consecutive cycles `op` occupies its functional unit.
    ///
    /// Fully pipelined operations occupy their unit for a single cycle;
    /// division and square root block it for their whole latency, as in the
    /// paper ("all operations are fully pipelined except for division and
    /// square root").
    #[must_use]
    pub fn occupancy(&self, op: Opcode) -> u32 {
        match op {
            Opcode::FpDiv => self.fp_div,
            Opcode::FpSqrt => self.fp_sqrt,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies_match_paper() {
        let lat = LatencyModel::default();
        assert_eq!(lat.latency(Opcode::FpAdd), 4);
        assert_eq!(lat.latency(Opcode::FpMul), 4);
        assert_eq!(lat.latency(Opcode::FpDiv), 17);
        assert_eq!(lat.latency(Opcode::FpSqrt), 30);
    }

    #[test]
    fn classes_are_consistent() {
        for &op in Opcode::all() {
            match op.class() {
                OpClass::Mem => assert!(op.is_memory()),
                OpClass::Move => assert!(op.is_move()),
                OpClass::Gp => {
                    assert!(!op.is_memory());
                    assert!(!op.is_move());
                }
            }
        }
    }

    #[test]
    fn stores_do_not_define_registers() {
        assert!(!Opcode::Store.defines_register());
        assert!(!Opcode::SpillStore.defines_register());
        assert!(Opcode::Load.defines_register());
        assert!(Opcode::Move.defines_register());
    }

    #[test]
    fn spill_ops_are_memory_ops() {
        assert!(Opcode::SpillLoad.is_spill() && Opcode::SpillLoad.is_memory());
        assert!(Opcode::SpillStore.is_spill() && Opcode::SpillStore.is_memory());
        assert!(!Opcode::Load.is_spill());
    }

    #[test]
    fn binding_prefetch_uses_miss_latency() {
        let lat = LatencyModel::default();
        assert_eq!(lat.latency_of(Opcode::Load, MemLatency::Miss), 25);
        assert_eq!(lat.latency_of(Opcode::Load, MemLatency::Hit), 2);
        // Non-memory ops ignore the memory assumption.
        assert_eq!(
            lat.latency_of(Opcode::FpAdd, MemLatency::Miss),
            lat.latency_of(Opcode::FpAdd, MemLatency::Hit)
        );
    }

    #[test]
    fn only_div_sqrt_block_their_unit() {
        let lat = LatencyModel::default();
        for &op in Opcode::all() {
            let occ = lat.occupancy(op);
            if matches!(op, Opcode::FpDiv | Opcode::FpSqrt) {
                assert_eq!(occ, lat.latency(op));
            } else {
                assert_eq!(occ, 1);
            }
        }
    }

    #[test]
    fn move_latency_is_configurable() {
        let lat = LatencyModel::with_move_latency(3);
        assert_eq!(lat.latency(Opcode::Move), 3);
    }

    #[test]
    fn display_is_nonempty() {
        for &op in Opcode::all() {
            assert!(!op.to_string().is_empty());
        }
        assert_eq!(OpClass::Gp.to_string(), "gp");
    }
}
