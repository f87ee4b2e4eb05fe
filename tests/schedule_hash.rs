//! Pins the exact schedules MIRS-C produces on a reference workbench.
//!
//! [`ScheduleResult::schedule_hash`] digests the II, every placement and the
//! inserted spill/move counts into one stable FNV-1a value. The constants
//! below were recorded from the pre-flat-MRT scheduler; any change to the
//! resource bookkeeping or the incremental pressure gauges that alters even
//! one placement shows up here as a hash mismatch. This is the determinism
//! guarantee behind performance refactors of the scheduling loop: the flat
//! modulo reservation table must be a pure speedup, not a behaviour change.

use loopgen::{Workbench, WorkbenchParams};
use mirs::{MirsScheduler, ScheduleError, SchedulerOptions, SearchConfig, SearchProof};
use vliw::{MachineConfig, SnapEncode, SnapWriter};

fn workbench() -> Workbench {
    Workbench::generate(&WorkbenchParams {
        loops: 10,
        ..WorkbenchParams::default()
    })
}

/// Fold one schedule hash into a running digest.
fn fold(combined: u64, hash: u64) -> u64 {
    combined
        .rotate_left(7)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .wrapping_add(hash)
}

/// Combine the per-loop hashes of a full workbench run into one value.
fn workbench_hash(machine: &MachineConfig) -> u64 {
    let wb = workbench();
    let sched = MirsScheduler::new(machine, SchedulerOptions::default());
    let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
    for lp in wb.loops() {
        let r = sched.schedule(lp).expect("reference workbench converges");
        r.validate(machine).expect("schedule validates");
        combined = fold(combined, r.schedule_hash());
    }
    combined
}

#[test]
fn schedules_are_reproducible_on_the_unified_machine() {
    let machine = MachineConfig::paper_config(1, 64).unwrap();
    let h = workbench_hash(&machine);
    assert_eq!(
        h, GOLDEN_1X64,
        "1-(GP8M4-REG64) schedules changed: got {h:#018x}"
    );
}

#[test]
fn schedules_are_reproducible_on_the_clustered_machine() {
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let h = workbench_hash(&machine);
    assert_eq!(
        h, GOLDEN_2X32,
        "2-(GP4M2-REG32) schedules changed: got {h:#018x}"
    );
}

/// Four clusters at 16 registers: the workbench inserts 27 moves here, so
/// this pins the move reservation tables.
#[test]
fn schedules_are_reproducible_with_moves_on_four_clusters() {
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let h = workbench_hash(&machine);
    assert_eq!(
        h, GOLDEN_4X16,
        "4-(GP2M1-REG16) schedules changed: got {h:#018x}"
    );
}

/// The unified machine at 16 registers: the workbench inserts 9 spill
/// operations here, so this pins the spill path.
#[test]
fn schedules_are_reproducible_with_spill_code() {
    let machine = MachineConfig::paper_config(1, 16).unwrap();
    let h = workbench_hash(&machine);
    assert_eq!(
        h, GOLDEN_1X16,
        "1-(GP8M4-REG16) schedules changed: got {h:#018x}"
    );
}

/// Register-starved machines, where most schedules carry spill code: the
/// first 40 unsaturated workbench loops on 1x16 and 2x16 and the pinned
/// hard cases on 1x8 and 2x8, at an II cap of 64. This pins which value
/// and which section the spill heuristic picks, not only that it spills:
/// ranking the candidates differently (later ties winning, a later
/// invariant winning) moves schedules here that the 1x16 workbench pin
/// above never reaches.
#[test]
fn spill_choices_are_pinned_on_register_starved_machines() {
    let unsaturated = Workbench::generate(&WorkbenchParams {
        loops: 40,
        ..WorkbenchParams::unsaturated()
    });
    let hard = loopgen::hard_cases();
    let opts = SchedulerOptions {
        max_ii: 64,
        ..SchedulerOptions::default()
    };
    let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut schedules, mut spill_ops) = (0, 0);
    for (loops, k, regs) in [
        (unsaturated.loops(), 1u32, 16u32),
        (unsaturated.loops(), 2, 16),
        (&hard[..], 1, 8),
        (&hard[..], 2, 8),
    ] {
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        let sched = MirsScheduler::new(&machine, opts);
        for lp in loops {
            let r = sched
                .schedule(lp)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", lp.name, machine.name()));
            r.validate(&machine).expect("schedule validates");
            schedules += 1;
            spill_ops += r.stats.spill_stores + r.stats.spill_loads;
            combined = fold(combined, r.schedule_hash());
        }
    }
    assert_eq!((schedules, spill_ops), (90, 164), "schedules / spill ops");
    assert_eq!(
        combined, GOLDEN_SPILL,
        "register-starved schedules changed: got {combined:#018x}"
    );
}

/// One word per proof: the kind in the low byte, the bound above it.
fn proof_word(proof: SearchProof) -> u64 {
    match proof {
        SearchProof::Heuristic => 1,
        SearchProof::Optimal => 2,
        SearchProof::LowerBound(b) => 3 | u64::from(b) << 8,
        SearchProof::BudgetExhausted(b) => 4 | u64::from(b) << 8,
    }
}

/// Pins the search outcome, not only the schedule. For every strategy, on
/// default loops on 4x16, unsaturated loops on 1x16 and the hard cases on
/// 1x8, it digests the attempt, candidate and group counters, the
/// restarts, the proof, and the `last_ii` of every `NotConverged` verdict.
/// The II caps of 4 and 6 on 4x16 and of 3 and 5 on the hard cases stop
/// many climbs short, so a climb that ends one II early, skips an II, or
/// an `exact` climb that starts below its certified floor moves this
/// digest.
#[test]
fn search_outcomes_are_pinned() {
    let default = Workbench::generate(&WorkbenchParams {
        loops: 20,
        ..WorkbenchParams::default()
    });
    let unsaturated = Workbench::generate(&WorkbenchParams {
        loops: 20,
        ..WorkbenchParams::unsaturated()
    });
    let hard = loopgen::hard_cases();
    let grid = [
        (default.loops(), 4u32, 16u32, &[4u32, 6, 1024][..]),
        (unsaturated.loops(), 1, 16, &[64][..]),
        (&hard[..], 1, 8, &[3, 5, 64][..]),
    ];
    let mut scratch = mirs::SchedScratch::new();
    let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut ok, mut not_converged) = (0, 0);
    for search in [
        SearchConfig::linear(),
        SearchConfig::backtracking(),
        SearchConfig::exact(),
    ] {
        for &(loops, k, regs, caps) in &grid {
            let machine = MachineConfig::paper_config(k, regs).unwrap();
            for &max_ii in caps {
                let opts = SchedulerOptions {
                    max_ii,
                    ..SchedulerOptions::default()
                }
                .with_search(search);
                let sched = MirsScheduler::new(&machine, opts);
                for lp in loops {
                    match sched.schedule_with(lp, &mut scratch) {
                        Ok(r) => {
                            ok += 1;
                            for word in [
                                r.schedule_hash(),
                                u64::from(r.ii),
                                u64::from(r.stats.restarts),
                                u64::from(r.search.attempts),
                                u64::from(r.search.candidates),
                                u64::from(r.search.groups),
                                proof_word(r.search.proof),
                            ] {
                                combined = fold(combined, word);
                            }
                        }
                        Err(ScheduleError::NotConverged { last_ii, .. }) => {
                            not_converged += 1;
                            combined = fold(combined, 0xdead_0000 | u64::from(last_ii));
                        }
                        Err(e) => panic!("{} on {}: {e}", lp.name, machine.name()),
                    }
                }
            }
        }
    }
    assert_eq!((ok, not_converged), (207, 78), "converged / not converged");
    assert_eq!(
        combined, SEARCH_OUTCOMES,
        "search outcomes changed: got {combined:#018x}"
    );
}

#[test]
fn schedule_hash_is_stable_across_runs() {
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let wb = workbench();
    let sched = MirsScheduler::new(&machine, SchedulerOptions::default());
    let lp = &wb.loops()[0];
    let a = sched.schedule(lp).unwrap().schedule_hash();
    let b = sched.schedule(lp).unwrap().schedule_hash();
    assert_eq!(a, b, "same loop, same machine, same hash");
}

/// One `SchedScratch` reused across every loop (and every machine shape)
/// produces exactly the schedules fresh-scratch runs produce: warmed
/// buffers carry capacity, never state. This is the contract that lets the
/// sweep engine keep one scratch per worker.
#[test]
fn schedules_are_identical_with_a_reused_scratch() {
    let wb = workbench();
    let mut scratch = mirs::SchedScratch::new();
    for (k, regs) in [(1u32, 64u32), (2, 32), (4, 16)] {
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        let sched = MirsScheduler::new(&machine, SchedulerOptions::default());
        for lp in wb.loops() {
            let fresh = sched.schedule(lp).expect("reference workbench converges");
            let reused = sched
                .schedule_with(lp, &mut scratch)
                .expect("reference workbench converges");
            assert_eq!(
                fresh.schedule_hash(),
                reused.schedule_hash(),
                "{}: scratch reuse changed the schedule of {}",
                machine.name(),
                lp.name
            );
            assert_eq!(fresh.ii, reused.ii);
            assert_eq!(fresh.max_live, reused.max_live);
            assert_eq!(fresh.stats.restarts, reused.stats.restarts);
        }
    }
}

/// FNV-1a over the snapshot payload of every workbench loop's final graph,
/// in workbench order, plus the number of nodes whose name starts with
/// `move ` and with `spill.`. `schedule_hash` leaves names out, but they
/// travel in the graph payload that every cache entry carries, so this
/// pins the graphs the results carry, names of inserted values and nodes
/// included. Only the payload is hashed, so the format version cannot move
/// the digest without the graphs changing.
fn workbench_graph_digest(machine: &MachineConfig) -> (u64, usize, usize) {
    let wb = workbench();
    let sched = MirsScheduler::new(machine, SchedulerOptions::default());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut moves, mut spills) = (0, 0);
    for lp in wb.loops() {
        let r = sched.schedule(lp).expect("reference workbench converges");
        let mut w = SnapWriter::new();
        r.graph.encode_snap(&mut w);
        for byte in w.into_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        for n in r.graph.node_ids() {
            let name = &r.graph.op(n).name;
            moves += usize::from(name.starts_with("move "));
            spills += usize::from(name.starts_with("spill."));
        }
    }
    (h, moves, spills)
}

#[test]
fn final_graphs_are_pinned_names_included() {
    for (k, regs, golden, moves, spills) in [
        (1u32, 64u32, GRAPH_1X64, 0, 0),
        (2, 32, GRAPH_2X32, 18, 0),
        (4, 16, GRAPH_4X16, 27, 0),
        (1, 16, GRAPH_1X16, 0, 9),
    ] {
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        let (h, got_moves, got_spills) = workbench_graph_digest(&machine);
        assert_eq!(
            (got_moves, got_spills),
            (moves, spills),
            "{}: named move / spill nodes",
            machine.name()
        );
        assert_eq!(
            h,
            golden,
            "{}: final graphs changed: got {h:#018x}",
            machine.name()
        );
    }
}

/// Recorded from the seed (hash-map MRT) scheduler; the flat-MRT refactor
/// must reproduce these exactly.
const GOLDEN_1X64: u64 = 0xe16d_bd67_223a_565e;
const GOLDEN_2X32: u64 = 0xda8c_f0c2_9b3e_3938;
/// Recorded from the scheduler that probed unfolded reservation tables;
/// folding them onto the MRT must reproduce these exactly.
const GOLDEN_4X16: u64 = 0x8262_5be3_1262_750e;
const GOLDEN_1X16: u64 = 0x34f1_dc01_435b_54a9;
/// Recorded over the sealed blobs from the scheduler that formatted the
/// names of inserted values and nodes when it created them, and re-recorded
/// over the bare payloads of the same graphs when snapshot format 6 came
/// in (the graphs did not change).
const GRAPH_1X64: u64 = 0xd604_bfe1_3a9f_5ad3;
const GRAPH_2X32: u64 = 0xe30a_1394_43f0_a3d4;
const GRAPH_4X16: u64 = 0x11e9_af78_5b33_383f;
const GRAPH_1X16: u64 = 0x362d_9021_2f1a_90cd;
/// Recorded from the scheduler that built every spill candidate before
/// ranking it; ranking first and building only the winner must reproduce
/// it exactly.
const GOLDEN_SPILL: u64 = 0x8d90_707a_868d_21a3;
/// Re-recorded when the search stopped screening IIs with a relaxation
/// filter. A comparator run over this grid against the filtered search
/// showed every schedule hash, II, spill count, move count, proof and
/// `last_ii` unchanged; where the filter had skipped IIs, each one became
/// one more group, and one more attempt and restart per attempt in it.
const SEARCH_OUTCOMES: u64 = 0xccfc_f008_4022_fa40;
