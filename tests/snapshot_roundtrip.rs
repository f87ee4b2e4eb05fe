//! Snapshot-codec round-trip and hostile-input properties, cross-crate.
//!
//! The codec layers (`vliw::snap`, `ddg::snap`, `mirs::snap`) each carry
//! unit tests next to their impls; this suite drives them end to end over
//! *random* inputs — synthetic loopgen loops, scheduled results, machine
//! shapes — and asserts the two global contracts:
//!
//! 1. decode(encode(x)) is content-identical to x (including id-allocation
//!    state, so a decoded graph keeps growing exactly like the original);
//! 2. corrupt blobs are rejected with a typed [`SnapError`], never a panic
//!    and never a silently-wrong value.

use ddg::snap::{decode_graph, decode_loop, encode_graph, encode_loop, loop_fingerprint};
use loopgen::{synthetic, SyntheticParams};
use mirs::snap::{decode_result, encode_result};
use mirs::{MirsScheduler, SchedulerOptions, SearchConfig};
use proptest::prelude::*;
use vliw::snap::{decode_machine, encode_machine, SnapError};
use vliw::{ClusterConfig, MachineConfig};

fn synthetic_loop(seed: u64, arith: usize, streams: usize, recurrences: usize) -> ddg::Loop {
    let params = SyntheticParams {
        arith_ops: arith,
        input_streams: streams,
        output_stores: 1,
        invariants: 1,
        recurrences,
        ..SyntheticParams::default()
    };
    synthetic::generate(&params, seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Any synthetic loop survives the `MLOP` round trip with identical
    /// content, identical fingerprint, and identical id-allocation state.
    #[test]
    fn loops_round_trip(
        seed in 0u64..1000,
        arith in 3usize..20,
        streams in 1usize..5,
        recurrences in 0usize..2,
    ) {
        let lp = synthetic_loop(seed, arith, streams, recurrences);
        let blob = encode_loop(&lp);
        let back = decode_loop(&blob).expect("own encoding decodes");
        prop_assert_eq!(&back.name, &lp.name);
        prop_assert_eq!(back.trip_count, lp.trip_count);
        prop_assert!(back.graph.same_content(&lp.graph));
        prop_assert_eq!(loop_fingerprint(&back), loop_fingerprint(&lp));
        // Canonical: encoding is a pure function of content.
        prop_assert_eq!(encode_loop(&back), blob);
    }

    /// A graph that lost nodes to spill/move churn round-trips with its
    /// tombstones, so decoded graphs allocate the same ids as the source.
    #[test]
    fn mutated_graphs_round_trip(seed in 0u64..500, kill in 0usize..4) {
        let mut lp = synthetic_loop(seed, 8, 2, 1);
        let victims: Vec<ddg::NodeId> = lp
            .graph
            .node_ids()
            .filter(|n| lp.graph.out_edges(*n).is_empty())
            .take(kill)
            .collect();
        for v in victims {
            lp.graph.remove_node(v);
        }
        let blob = encode_graph(&lp.graph);
        let back = decode_graph(&blob).expect("own encoding decodes");
        prop_assert!(back.same_content(&lp.graph));
    }

    /// Scheduled results round-trip with the exact `schedule_hash` — the
    /// integrity anchor of the persistent cache.
    #[test]
    fn schedule_results_round_trip(
        seed in 0u64..300,
        arith in 3usize..12,
        clusters_pow in 0u32..3,
    ) {
        let lp = synthetic_loop(seed, arith, 2, 0);
        let k = 1u32 << clusters_pow;
        let machine = MachineConfig::builder()
            .identical_clusters(k, ClusterConfig::new(8 / k, 4 / k, 32))
            .buses(2)
            .build()
            .unwrap();
        let result = MirsScheduler::new(&machine, SchedulerOptions::default())
            .schedule(&lp)
            .expect("synthetic loops converge");
        let blob = encode_result(&result);
        let back = decode_result(&blob).expect("own encoding decodes");
        prop_assert_eq!(back.schedule_hash(), result.schedule_hash());
        prop_assert_eq!(back.ii, result.ii);
        prop_assert_eq!(back.stats, result.stats);
        prop_assert!(back.graph.same_content(&result.graph));
        prop_assert!(back.validate(&machine).is_ok());
    }

    /// Machine configurations round-trip through `MMCH` blobs.
    #[test]
    fn machines_round_trip(clusters_pow in 0u32..3, regs_idx in 0usize..3, buses in 1u32..5) {
        let k = 1u32 << clusters_pow;
        let regs = [16u32, 32, 64][regs_idx];
        let machine = MachineConfig::builder()
            .identical_clusters(k, ClusterConfig::new(8 / k, 4 / k, regs))
            .buses(buses)
            .build()
            .unwrap();
        let back = decode_machine(&encode_machine(&machine)).expect("own encoding decodes");
        prop_assert_eq!(back.name(), machine.name());
        prop_assert_eq!(back.cluster_configs(), machine.cluster_configs());
        prop_assert_eq!(back.buses(), machine.buses());
    }

    /// Truncating a valid blob at *any* byte boundary yields a typed error
    /// — never a panic, never a bogus decoded value.
    #[test]
    fn every_truncation_is_rejected(seed in 0u64..200, cut_permille in 0usize..1000) {
        let lp = synthetic_loop(seed, 6, 2, 1);
        let blob = encode_loop(&lp);
        let cut = cut_permille * blob.len() / 1000;
        prop_assert!(cut < blob.len());
        prop_assert!(decode_loop(&blob[..cut]).is_err());
    }

    /// Flipping a single bit anywhere in a sealed blob is detected: either
    /// an envelope/payload error, or (for bits the codec does not read,
    /// e.g. unused high bytes that still feed the checksum) a checksum
    /// mismatch. A flipped blob must never decode to different content
    /// while claiming success with the same fingerprint... unless the flip
    /// is inside the checksum trailer itself, which also errors.
    #[test]
    fn every_bitflip_is_rejected(seed in 0u64..200, pos_permille in 0usize..1000, bit in 0u8..8) {
        let lp = synthetic_loop(seed, 6, 2, 0);
        let mut blob = encode_loop(&lp);
        let pos = pos_permille * blob.len() / 1000;
        blob[pos] ^= 1 << bit;
        prop_assert!(decode_loop(&blob).is_err(), "bit {bit} at byte {pos} slipped through");
    }
}

#[test]
fn hostile_envelopes_yield_typed_errors() {
    let lp = synthetic_loop(7, 6, 2, 1);
    let blob = encode_loop(&lp);

    // Wrong magic: a loop blob is not a graph blob.
    assert!(matches!(
        decode_graph(&blob),
        Err(SnapError::BadMagic { .. })
    ));

    // Unsupported format version.
    let mut v = blob.clone();
    v[4] = 0xff;
    assert!(matches!(
        decode_loop(&v),
        Err(SnapError::UnsupportedVersion { .. })
    ));

    // Flipped checksum byte.
    let mut c = blob.clone();
    let last = c.len() - 1;
    c[last] ^= 0xff;
    assert!(matches!(
        decode_loop(&c),
        Err(SnapError::ChecksumMismatch { .. })
    ));

    // Truncated header.
    assert!(matches!(
        decode_loop(&blob[..5]),
        Err(SnapError::Truncated { .. })
    ));

    // Trailing garbage after a valid blob.
    let mut t = blob.clone();
    t.extend_from_slice(b"junk");
    assert!(decode_loop(&t).is_err());

    // Empty input.
    assert!(decode_loop(&[]).is_err());
}

#[test]
fn cross_strategy_results_share_the_codec() {
    // The same loop scheduled under every strategy round-trips; decoded
    // results keep their strategy tag, which the cache's tier rule relies
    // on.
    let lp = synthetic_loop(11, 8, 2, 1);
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    for search in [
        SearchConfig::default(),
        SearchConfig::backtracking(),
        SearchConfig::exact(),
    ] {
        let result = MirsScheduler::new(&machine, SchedulerOptions::default().with_search(search))
            .schedule(&lp)
            .expect("schedulable");
        let back = decode_result(&encode_result(&result)).unwrap();
        assert_eq!(back.search.strategy, search.strategy);
        assert_eq!(back.schedule_hash(), result.schedule_hash());
        assert_eq!(
            back.search.proof, result.search.proof,
            "the optimality proof must survive the MRES round trip"
        );
        assert_eq!(back.certified_lower_bound(), result.certified_lower_bound());
    }
}

/// An exact result's proof is substantive after the round trip: the
/// decoded entry still certifies a bound no larger than its achieved II,
/// so a warm cache hit carries the same optimality evidence as the fresh
/// run that produced it.
#[test]
fn exact_proofs_round_trip_with_their_bounds() {
    let lp = synthetic_loop(23, 6, 2, 1);
    let machine = MachineConfig::paper_config(1, 64).unwrap();
    let result = MirsScheduler::new(
        &machine,
        SchedulerOptions::default().with_search(SearchConfig::exact()),
    )
    .schedule(&lp)
    .expect("schedulable");
    let lb = result.certified_lower_bound().expect("exact certifies");
    let back = decode_result(&encode_result(&result)).unwrap();
    assert_eq!(back.certified_lower_bound(), Some(lb));
    assert!(lb <= back.ii);
    // Canonical: the proof feeds the encoding deterministically.
    assert_eq!(encode_result(&back), encode_result(&result));
}
