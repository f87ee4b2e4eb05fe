//! Snapshot round-trip and hostile-input properties, end to end.
//!
//! The schedule cache's `MCHE` entry is the one format the workspace
//! persists. The codec impls (`vliw::snap`, `ddg::snap`, `mirs`) carry unit
//! tests next to them; this suite drives the decoder that reads entries
//! from disk, [`harness::cache::decode_entry`], over entries of *random*
//! inputs — synthetic loopgen loops scheduled on one, two and four clusters,
//! where some four-cluster graphs carry the tombstones of removed moves —
//! and the graph payload of random loops, and asserts the two global
//! contracts:
//!
//! 1. decode(encode(x)) is content-identical to x (including id-allocation
//!    state, so a decoded graph keeps growing exactly like the original),
//!    and re-encoding it gives the same bytes;
//! 2. corrupt entries are rejected with a typed [`SnapError`], never a
//!    panic and never a silently-wrong value.

use ddg::snap::loop_fingerprint;
use ddg::{DepGraph, OperationData};
use harness::cache::{decode_entry, encode_entry};
use loopgen::{synthetic, SyntheticParams};
use mirs::{MirsScheduler, ScheduleResult, SchedulerOptions, SearchConfig};
use proptest::prelude::*;
use vliw::{
    ClusterConfig, MachineConfig, Opcode, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter,
};

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

/// Eight GP units and four memory ports split over `k` clusters.
fn machine(k: u32) -> MachineConfig {
    MachineConfig::builder()
        .identical_clusters(k, ClusterConfig::new(8 / k, 4 / k, 32))
        .buses(2)
        .build()
        .unwrap()
}

fn schedule(lp: &ddg::Loop, machine: &MachineConfig, search: SearchConfig) -> ScheduleResult {
    MirsScheduler::new(machine, SchedulerOptions::default().with_search(search))
        .schedule(lp)
        .expect("synthetic loops converge")
}

/// A graph's snapshot payload, as an entry embeds it.
fn graph_payload(graph: &DepGraph) -> Vec<u8> {
    let mut w = SnapWriter::new();
    graph.encode_snap(&mut w);
    w.into_bytes()
}

/// The entry of a small synthetic loop scheduled on `k` clusters.
fn entry(seed: u64, k: u32) -> Vec<u8> {
    let lp = synthetic_loop(seed, 6, 2, 1);
    encode_entry(&schedule(&lp, &machine(k), SearchConfig::default()))
}

/// Decode `blob`, a valid entry, with bit `bit` of byte `pos` flipped, and
/// say whether it fails with the error that position calls for. Each
/// header field fails its own check: a length bit the flip sets promises
/// bytes that are not there, one it clears leaves bytes over. A flip in the
/// payload or the trailer fails the checksum, which catches every change
/// inside one 8-byte word.
fn flip_fails_as_expected(blob: &[u8], pos: usize, bit: u8) -> Result<(), String> {
    let mut bad = blob.to_vec();
    bad[pos] ^= 1 << bit;
    let got = decode_entry(&bad).err();
    let expected = match pos {
        0..=3 => matches!(got, Some(SnapError::BadMagic { .. })),
        4..=5 => matches!(got, Some(SnapError::UnsupportedVersion { .. })),
        6..=13 if blob[pos] & (1 << bit) == 0 => matches!(got, Some(SnapError::Truncated { .. })),
        6..=13 => matches!(got, Some(SnapError::TrailingBytes { .. })),
        _ => matches!(got, Some(SnapError::ChecksumMismatch { .. })),
    };
    if expected {
        Ok(())
    } else {
        Err(format!("bit {bit} of byte {pos}: {got:?}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Any synthetic loop's graph survives its snapshot payload with
    /// identical content and id-allocation state, so the loop rebuilt
    /// around the decoded graph keeps its fingerprint (the loop part of the
    /// cache key); re-encoding the decoded graph gives the same bytes.
    #[test]
    fn loops_round_trip(
        seed in 0u64..1000,
        arith in 3usize..20,
        streams in 1usize..5,
        recurrences in 0usize..2,
    ) {
        let lp = synthetic_loop(seed, arith, streams, recurrences);
        let payload = graph_payload(&lp.graph);
        let mut r = SnapReader::new(&payload);
        let graph = DepGraph::decode_snap(&mut r).expect("own encoding decodes");
        r.expect_end().expect("own encoding is read whole");
        prop_assert!(graph == lp.graph);
        prop_assert_eq!(graph_payload(&graph), payload);
        let op = OperationData::new(Opcode::IntAlu, None, vec![]);
        prop_assert_eq!(graph.clone().add_node(op.clone()), lp.graph.clone().add_node(op));
        let back = ddg::Loop::new(lp.name.clone(), graph, lp.trip_count).with_weight(lp.weight);
        prop_assert_eq!(loop_fingerprint(&back), loop_fingerprint(&lp));
    }

    /// Scheduled results round-trip through entries with the exact
    /// `schedule_hash` — the integrity anchor of the cache — and with their
    /// graphs' content; re-encoding the decoded result gives the same bytes.
    #[test]
    fn schedule_results_round_trip(
        seed in 0u64..300,
        arith in 3usize..12,
        clusters_pow in 0u32..3,
    ) {
        let lp = synthetic_loop(seed, arith, 2, 0);
        let machine = machine(1 << clusters_pow);
        let result = schedule(&lp, &machine, SearchConfig::default());
        let blob = encode_entry(&result);
        let back = decode_entry(&blob).expect("own encoding decodes");
        prop_assert_eq!(back.schedule_hash(), result.schedule_hash());
        prop_assert_eq!(back.ii, result.ii);
        prop_assert_eq!(back.stats, result.stats);
        prop_assert!(back.graph == result.graph);
        prop_assert!(back.validate(&machine).is_ok());
        prop_assert_eq!(encode_entry(&back), blob);
    }

    /// Truncating an entry at *any* byte boundary is a typed truncation
    /// error — never a panic, never a bogus decoded value.
    #[test]
    fn every_truncation_is_rejected(
        seed in 0u64..200,
        clusters_pow in 0u32..3,
        cut_permille in 0usize..1000,
    ) {
        let blob = entry(seed, 1 << clusters_pow);
        let cut = cut_permille * blob.len() / 1000;
        let got = decode_entry(&blob[..cut]);
        prop_assert!(matches!(got, Err(SnapError::Truncated { .. })), "cut at {}: {:?}", cut, got);
    }

    /// Flipping a single bit anywhere in an entry is detected: in the
    /// header as a bad magic, version or length, in the payload or the
    /// trailer as a checksum mismatch.
    #[test]
    fn every_bitflip_is_rejected(
        seed in 0u64..200,
        clusters_pow in 0u32..3,
        pos_permille in 0usize..1000,
        bit in 0u8..8,
    ) {
        let blob = entry(seed, 1 << clusters_pow);
        let pos = pos_permille * blob.len() / 1000;
        prop_assert_eq!(flip_fails_as_expected(&blob, pos, bit), Ok(()));
    }
}

/// Every bit of one four-cluster entry, flipped in turn, fails with the
/// error its position calls for: the random cases above sample positions,
/// this covers them all. This entry's payload ends in a 6-byte partial
/// word, so the checksum's zero-padded last word is covered too.
#[test]
fn every_bit_of_an_entry_is_checked() {
    let blob = entry(3, 4);
    // 14 header bytes and an 8-byte trailer around the payload.
    assert_eq!(
        (blob.len() - 14 - 8) % 8,
        6,
        "the payload should end in a partial word"
    );
    for pos in 0..blob.len() {
        for bit in 0..8 {
            assert_eq!(flip_fails_as_expected(&blob, pos, bit), Ok(()));
        }
    }
}

/// Graphs that lost moves during scheduling keep their tombstones through
/// an entry, so a decoded graph allocates the same ids as its source. Only
/// about one four-cluster schedule in six of these loops keeps a removed
/// move's tombstone, too few for the random cases above to be sure of one.
#[test]
fn mutated_graphs_round_trip() {
    let machine = machine(4);
    let mut tombstoned = 0;
    for seed in 0..30 {
        let lp = synthetic_loop(seed, 16, 2, 1);
        let result = schedule(&lp, &machine, SearchConfig::default());
        if result.graph.node_capacity() == result.graph.node_count() {
            continue;
        }
        tombstoned += 1;
        let back = decode_entry(&encode_entry(&result)).expect("own encoding decodes");
        assert!(back.graph == result.graph, "seed {seed}");
        let op = OperationData::new(Opcode::IntAlu, None, vec![]);
        assert_eq!(
            back.graph.clone().add_node(op.clone()),
            result.graph.clone().add_node(op),
            "seed {seed}"
        );
    }
    assert!(
        tombstoned > 0,
        "no schedule kept a removed move's tombstone"
    );
}

#[test]
fn hostile_envelopes_yield_typed_errors() {
    let blob = entry(7, 4);

    // Wrong magic: a blob of another kind is not an entry.
    let mut m = blob.clone();
    m[0] ^= 0xff;
    assert!(matches!(decode_entry(&m), Err(SnapError::BadMagic { .. })));

    // Unsupported format version.
    let mut v = blob.clone();
    v[4] = 0xff;
    assert!(matches!(
        decode_entry(&v),
        Err(SnapError::UnsupportedVersion { .. })
    ));

    // Flipped checksum byte.
    let mut c = blob.clone();
    let last = c.len() - 1;
    c[last] ^= 0xff;
    assert!(matches!(
        decode_entry(&c),
        Err(SnapError::ChecksumMismatch { .. })
    ));

    // Truncated header.
    assert!(matches!(
        decode_entry(&blob[..5]),
        Err(SnapError::Truncated { .. })
    ));

    // Trailing garbage after a valid entry.
    let mut t = blob.clone();
    t.extend_from_slice(b"junk");
    assert!(matches!(
        decode_entry(&t),
        Err(SnapError::TrailingBytes { count: 4 })
    ));

    // Empty input.
    assert!(matches!(
        decode_entry(&[]),
        Err(SnapError::Truncated { .. })
    ));
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
        let result = schedule(&lp, &machine, search);
        let blob = encode_entry(&result);
        let back = decode_entry(&blob).unwrap();
        assert_eq!(back.search.strategy, search.strategy);
        assert_eq!(back.schedule_hash(), result.schedule_hash());
        assert_eq!(
            back.search.proof, result.search.proof,
            "the optimality proof must survive the entry round trip"
        );
        assert_eq!(back.certified_lower_bound(), result.certified_lower_bound());
        assert_eq!(encode_entry(&back), blob);
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
    let result = schedule(&lp, &machine, SearchConfig::exact());
    let lb = result.certified_lower_bound().expect("exact certifies");
    let blob = encode_entry(&result);
    let back = decode_entry(&blob).unwrap();
    assert_eq!(back.certified_lower_bound(), Some(lb));
    assert!(lb <= back.ii);
    // Canonical: the proof feeds the encoding deterministically.
    assert_eq!(encode_entry(&back), blob);
}
