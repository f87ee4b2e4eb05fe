//! Versioned binary snapshot codec: primitives and machine-model impls.
//!
//! This module is the foundation of the workspace's persistence layer. It
//! defines a hand-rolled, **versioned, length-prefixed, little-endian**
//! binary format. `ddg::snap` and `mirs` implement it for dependence graphs
//! and schedule results, and `harness::cache` seals one result per file as
//! its `MCHE` entry, the one format the workspace persists. The machine
//! impls here only encode: the cache key hashes a machine's payload. There
//! are no external dependencies: the format is a few hundred lines of plain
//! Rust, designed to be auditable and stable across process restarts.
//!
//! # Blob envelope
//!
//! A sealed blob wraps a payload in a self-describing envelope:
//!
//! ```text
//! offset  size  field
//! 0       4     magic         (ASCII tag of the blob's kind, e.g. b"MCHE")
//! 4       2     version       (u16 LE, FORMAT_VERSION)
//! 6       8     payload_len   (u64 LE)
//! 14      n     payload       (type-specific, SnapEncode output)
//! 14+n    8     checksum      (u64 LE, hash64 of the payload bytes, seed 0)
//! ```
//!
//! [`unseal`] validates the magic, the version, the length, the checksum
//! and that no trailing bytes follow — every failure is a typed
//! [`SnapError`], never a panic, so corrupt or truncated blobs degrade
//! gracefully. The checksum is [`hash64`], which catches every change
//! confined to one 8-byte word of the payload, so every flipped bit.
//!
//! # Example
//!
//! ```
//! use vliw::snap::{seal, unseal, SnapError};
//! use vliw::{SnapDecode, SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! w.put_str("daxpy");
//! w.put_u32(4);
//! let blob = seal(*b"DEMO", &w.into_bytes());
//!
//! let mut r = SnapReader::new(unseal(*b"DEMO", &blob)?);
//! assert_eq!(String::decode_snap(&mut r)?, "daxpy");
//! assert_eq!(r.get_u32()?, 4);
//! r.expect_end()?;
//!
//! // A flipped payload bit fails the checksum.
//! let mut bad = blob.clone();
//! bad[14] ^= 1;
//! assert!(matches!(
//!     unseal(*b"DEMO", &bad),
//!     Err(SnapError::ChecksumMismatch { .. })
//! ));
//! # Ok::<(), SnapError>(())
//! ```

use crate::cluster::ClusterConfig;
use crate::config::MachineConfig;
use crate::op::{LatencyModel, MemLatency, Opcode};
use std::fmt;

/// Current snapshot format version, written into every blob envelope.
///
/// Bump this when the payload encoding of any snapshot type changes;
/// decoders reject other versions with [`SnapError::UnsupportedVersion`]
/// rather than misinterpreting old bytes.
///
/// History: 1 — initial format; 2 — `SearchMeta` gained the optimality
/// proof and `SearchConfig` the exact certification budget; 3 —
/// `SearchMeta` gained the salvaged/replaced op counts and `SearchConfig`
/// the restart-salvage flag; 4 — `SearchMeta`/`SchedulerStats` gained the
/// pruned-II counters (and relax timing) and `SearchConfig` the
/// admission-filter flag; 5 — `SearchMeta` lost the salvaged/replaced op
/// counts, strategy tag 2 (`perturb`) was retired and the `SearchConfig`
/// codec removed; 6 — `SearchMeta` lost the per-attempt branch timings;
/// 7 — `SchedulerStats` lost the duplicate pruned-II count; 8 — the
/// checksum is [`hash64`] instead of byte-serial FNV-1a (payloads are
/// unchanged).
pub const FORMAT_VERSION: u16 = 8;

/// Seed of the envelope checksum.
const CHECKSUM_SEED: u64 = 0;

/// Size of the envelope header (magic + version + payload length).
const HEADER_LEN: usize = 4 + 2 + 8;

/// Size of the envelope trailer (payload checksum).
const TRAILER_LEN: usize = 8;

/// Typed decoding failure.
///
/// Every way a snapshot blob can be unusable maps to exactly one variant;
/// callers that treat a cache as advisory (e.g. `harness::cache`) match on
/// this to fall through to a fresh computation instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The blob does not start with the expected magic tag.
    BadMagic {
        /// Magic the decoder was asked to expect.
        expected: [u8; 4],
        /// First four bytes actually present.
        found: [u8; 4],
    },
    /// The blob was written by an unknown format version.
    UnsupportedVersion {
        /// Version recorded in the envelope.
        found: u16,
        /// Version this build supports ([`FORMAT_VERSION`]).
        supported: u16,
    },
    /// The blob ends before the declared payload and checksum.
    Truncated {
        /// Bytes the envelope requires.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload checksum does not match the stored one.
    ChecksumMismatch {
        /// Checksum recorded in the envelope trailer.
        stored: u64,
        /// Checksum recomputed over the payload bytes.
        computed: u64,
    },
    /// Bytes follow the envelope (or the payload outlives its decoder).
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
    /// The payload decoded structurally but violates a type invariant.
    Malformed(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic { expected, found } => write!(
                f,
                "bad snapshot magic: expected {:?}, found {:?}",
                expected.escape_ascii().to_string(),
                found.escape_ascii().to_string()
            ),
            SnapError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            SnapError::Truncated { needed, available } => write!(
                f,
                "truncated snapshot: need {needed} bytes, have {available}"
            ),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after snapshot payload")
            }
            SnapError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Word-at-a-time 64-bit hash of `bytes` under `seed`: the envelope
/// checksum, the loop fingerprint (`ddg::snap::loop_fingerprint`) and both
/// halves of the schedule cache key (`harness::cache::cache_key`).
///
/// The length, then each 8-byte little-endian word of `bytes` (the last
/// one zero-padded) goes through one step, and splitmix64's finaliser
/// mixes the result. A step is a bijection of the state for a fixed word
/// and injective in the word for a fixed state, so two inputs of one
/// length that differ only inside one word never hash alike: a flipped bit
/// or byte is always caught. Each word is mixed (multiply, xor-shift)
/// before it meets the state, off the state's dependency chain; without
/// that, flipping bit 63 of one word and bits 63 and 31 of the next would
/// collide under every seed, both halves of a cache key at once.
///
/// It is not a cryptographic hash: inputs that differ in several words can
/// collide, and ones chosen with the seed in hand can be made to. Its
/// values are pinned (`harness::cache` tests), because cache keys are
/// built from them.
#[must_use]
pub fn hash64(bytes: &[u8], seed: u64) -> u64 {
    // Both multipliers are odd, so each multiply is a bijection.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    const M: u64 = 0xff51_afd7_ed55_8ccd;
    let xorshift = |x: u64| x ^ (x >> 32);
    let step = |h: u64, w: u64| xorshift((h ^ xorshift(w.wrapping_mul(M))).wrapping_mul(K));
    let mut h = step(seed, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("chunks of 8 bytes");
        h = step(h, u64::from_le_bytes(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Append-only little-endian payload writer.
///
/// Encoding is infallible: the writer grows a `Vec<u8>` and every `put_*`
/// method appends a fixed-width little-endian value (lengths and strings
/// are 8-byte-length-prefixed).
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Fresh empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the payload bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length / element count as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over payload bytes; every getter is bounds-checked.
#[derive(Debug)]
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reader positioned at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Take the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: self.pos + n,
                available: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(self.get_u64()? as i64)
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `bool` (one byte, must be 0 or 1).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload; [`SnapError::Malformed`]
    /// for any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool byte is neither 0 nor 1")),
        }
    }

    /// Read a length / element count written by [`SnapWriter::put_len`].
    ///
    /// The value is sanity-checked against the remaining payload size so a
    /// corrupt length prefix cannot drive a pathological allocation.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload; [`SnapError::Malformed`]
    /// if the count cannot fit in the remaining bytes.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let raw = self.get_u64()?;
        let n = usize::try_from(raw)
            .map_err(|_| SnapError::Malformed("length prefix exceeds usize"))?;
        if n > self.remaining() {
            return Err(SnapError::Malformed("length prefix exceeds payload"));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload; [`SnapError::Malformed`]
    /// if the bytes are not valid UTF-8.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Malformed("string bytes are not UTF-8"))
    }

    /// Assert that the whole payload has been consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] if any bytes remain.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

/// A type that can write itself into a snapshot payload.
///
/// This is the real successor of the retired `serde::Serialize` marker
/// stub: implementations append a fixed, documented byte layout to the
/// writer and are the single source of truth for the format.
pub trait SnapEncode {
    /// Append this value's payload encoding to `w`.
    fn encode_snap(&self, w: &mut SnapWriter);
}

/// A type that can reconstruct itself from a snapshot payload.
///
/// The real successor of the retired `serde::Deserialize` marker stub.
/// Decoders must validate every invariant they rely on and return
/// [`SnapError`] — never panic — on hostile input.
pub trait SnapDecode: Sized {
    /// Read one value of this type from `r`.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] describing why the payload cannot be this type.
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! impl_snap_primitive {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl SnapEncode for $t {
            fn encode_snap(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
        }
        impl SnapDecode for $t {
            fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    )*};
}

impl_snap_primitive!(
    u8 => put_u8 / get_u8,
    u16 => put_u16 / get_u16,
    u32 => put_u32 / get_u32,
    u64 => put_u64 / get_u64,
    i64 => put_i64 / get_i64,
    f64 => put_f64 / get_f64,
    bool => put_bool / get_bool,
);

impl SnapEncode for String {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
}

impl SnapDecode for String {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_str()
    }
}

impl<T: SnapEncode> SnapEncode for Option<T> {
    fn encode_snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode_snap(w);
            }
        }
    }
}

impl<T: SnapDecode> SnapDecode for Option<T> {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_snap(r)?)),
            _ => Err(SnapError::Malformed("option tag is neither 0 nor 1")),
        }
    }
}

// Any list — a `Vec`, a slice, a graph's inline list — encodes as a
// length, then the entries.
impl<T: SnapEncode> SnapEncode for [T] {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.encode_snap(w);
        }
    }
}

impl<T: SnapDecode> SnapDecode for Vec<T> {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        // get_len caps the count at the remaining byte count, which is a
        // valid bound because every element encoding is at least one byte.
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode_snap(r)?);
        }
        Ok(out)
    }
}

impl<A: SnapEncode, B: SnapEncode> SnapEncode for (A, B) {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.0.encode_snap(w);
        self.1.encode_snap(w);
    }
}

impl<A: SnapDecode, B: SnapDecode> SnapDecode for (A, B) {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode_snap(r)?, B::decode_snap(r)?))
    }
}

/// Wrap payload bytes in the versioned envelope described in the module
/// docs: magic, version, length, payload, [`hash64`] checksum (seed 0).
#[must_use]
pub fn seal(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&hash64(payload, CHECKSUM_SEED).to_le_bytes());
    out
}

/// Validate a blob's envelope and return its payload slice.
///
/// # Errors
///
/// [`SnapError::Truncated`] if the blob is shorter than the envelope
/// declares, [`SnapError::BadMagic`] / [`SnapError::UnsupportedVersion`]
/// for a foreign or other-version blob, [`SnapError::ChecksumMismatch`]
/// when the payload's [`hash64`] differs from the trailer's (a flip in
/// either, or any change inside one word of the payload, always does), and
/// [`SnapError::TrailingBytes`] if the blob continues past the envelope.
pub fn unseal(magic: [u8; 4], blob: &[u8]) -> Result<&[u8], SnapError> {
    if blob.len() < HEADER_LEN {
        return Err(SnapError::Truncated {
            needed: HEADER_LEN,
            available: blob.len(),
        });
    }
    let found = [blob[0], blob[1], blob[2], blob[3]];
    if found != magic {
        return Err(SnapError::BadMagic {
            expected: magic,
            found,
        });
    }
    let version = u16::from_le_bytes([blob[4], blob[5]]);
    if version != FORMAT_VERSION {
        return Err(SnapError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes([
        blob[6], blob[7], blob[8], blob[9], blob[10], blob[11], blob[12], blob[13],
    ]);
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| SnapError::Malformed("payload length exceeds usize"))?;
    let total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN))
        .ok_or(SnapError::Malformed("payload length overflows"))?;
    if blob.len() < total {
        return Err(SnapError::Truncated {
            needed: total,
            available: blob.len(),
        });
    }
    if blob.len() > total {
        return Err(SnapError::TrailingBytes {
            count: blob.len() - total,
        });
    }
    let payload = &blob[HEADER_LEN..HEADER_LEN + payload_len];
    let stored = u64::from_le_bytes([
        blob[total - 8],
        blob[total - 7],
        blob[total - 6],
        blob[total - 5],
        blob[total - 4],
        blob[total - 3],
        blob[total - 2],
        blob[total - 1],
    ]);
    let computed = hash64(payload, CHECKSUM_SEED);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Machine-model impls. Opcodes and memory latencies travel inside graphs;
// the machine description only encodes, since no stored format carries it:
// the schedule cache hashes its payload into the key.
// ---------------------------------------------------------------------------

impl SnapEncode for Opcode {
    fn encode_snap(&self, w: &mut SnapWriter) {
        let tag: u8 = match self {
            Opcode::FpAdd => 0,
            Opcode::FpMul => 1,
            Opcode::FpDiv => 2,
            Opcode::FpSqrt => 3,
            Opcode::IntAlu => 4,
            Opcode::Copy => 5,
            Opcode::Load => 6,
            Opcode::Store => 7,
            Opcode::SpillLoad => 8,
            Opcode::SpillStore => 9,
            Opcode::Move => 10,
        };
        w.put_u8(tag);
    }
}

impl SnapDecode for Opcode {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => Opcode::FpAdd,
            1 => Opcode::FpMul,
            2 => Opcode::FpDiv,
            3 => Opcode::FpSqrt,
            4 => Opcode::IntAlu,
            5 => Opcode::Copy,
            6 => Opcode::Load,
            7 => Opcode::Store,
            8 => Opcode::SpillLoad,
            9 => Opcode::SpillStore,
            10 => Opcode::Move,
            _ => return Err(SnapError::Malformed("unknown opcode tag")),
        })
    }
}

impl SnapEncode for MemLatency {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            MemLatency::Hit => 0,
            MemLatency::Miss => 1,
        });
    }
}

impl SnapDecode for MemLatency {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => MemLatency::Hit,
            1 => MemLatency::Miss,
            _ => return Err(SnapError::Malformed("unknown memory-latency tag")),
        })
    }
}

impl SnapEncode for LatencyModel {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.fp_add);
        w.put_u32(self.fp_mul);
        w.put_u32(self.fp_div);
        w.put_u32(self.fp_sqrt);
        w.put_u32(self.int_alu);
        w.put_u32(self.load_hit);
        w.put_u32(self.load_miss);
        w.put_u32(self.store);
        w.put_u32(self.move_latency);
    }
}

impl SnapEncode for ClusterConfig {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.gp_units);
        w.put_u32(self.mem_ports);
        w.put_u32(self.registers);
        w.put_u32(self.out_ports);
        w.put_u32(self.in_ports);
    }
}

impl SnapEncode for MachineConfig {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.cluster_configs().encode_snap(w);
        w.put_u32(self.buses());
        self.latencies().encode_snap(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_tags_are_total() {
        for &op in Opcode::all() {
            let mut w = SnapWriter::new();
            op.encode_snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(Opcode::decode_snap(&mut r), Ok(op));
            assert_eq!(r.expect_end(), Ok(()));
        }
    }

    #[test]
    fn envelope_rejects_hostile_blobs() {
        let mut w = SnapWriter::new();
        MachineConfig::paper_config(2, 32)
            .unwrap()
            .encode_snap(&mut w);
        let payload = w.into_bytes();
        let blob = seal(*b"TEST", &payload);
        assert_eq!(unseal(*b"TEST", &blob), Ok(payload.as_slice()));

        // Truncations at every prefix length fail with a typed error.
        for cut in 0..blob.len() {
            let got = unseal(*b"TEST", &blob[..cut]);
            assert!(
                matches!(got, Err(SnapError::Truncated { .. })),
                "prefix of {cut} bytes: {got:?}"
            );
        }

        // Wrong magic.
        assert!(matches!(
            unseal(*b"MCHE", &blob),
            Err(SnapError::BadMagic { .. })
        ));

        // Future version.
        let mut bad = blob.clone();
        bad[4] = 0xfe;
        assert!(matches!(
            unseal(*b"TEST", &bad),
            Err(SnapError::UnsupportedVersion { found: 0xfe, .. })
        ));

        // Flipped payload byte.
        let mut bad = blob.clone();
        bad[HEADER_LEN] ^= 0x01;
        assert!(matches!(
            unseal(*b"TEST", &bad),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Flipped checksum byte.
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            unseal(*b"TEST", &bad),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Trailing garbage.
        let mut bad = blob.clone();
        bad.push(0);
        assert!(matches!(
            unseal(*b"TEST", &bad),
            Err(SnapError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn hash64_catches_every_one_word_change() {
        // Three words and a tail: every flipped bit changes the hash, the
        // zero-padded tail's included.
        let base: Vec<u8> = (0u8..29).collect();
        let flipped = |bits: &[usize]| {
            let mut b = base.clone();
            for &bit in bits {
                b[bit / 8] ^= 1 << (bit % 8);
            }
            b
        };
        for seed in [0, 1] {
            let h = hash64(&base, seed);
            for bit in 0..base.len() * 8 {
                assert_ne!(hash64(&flipped(&[bit]), seed), h, "bit {bit}");
            }
            // Bit 63 of word 0 and bits 63 and 31 of word 1: the pair the
            // word mix is there to separate.
            assert_ne!(hash64(&flipped(&[63, 127, 95]), seed), h);
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_drive_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let got = Vec::<u32>::decode_snap(&mut SnapReader::new(&bytes));
        assert!(matches!(got, Err(SnapError::Malformed(_))));
    }

    #[test]
    fn errors_display_cleanly() {
        let errs: Vec<SnapError> = vec![
            SnapError::BadMagic {
                expected: *b"MCHE",
                found: *b"XXXX",
            },
            SnapError::UnsupportedVersion {
                found: 9,
                supported: FORMAT_VERSION,
            },
            SnapError::Truncated {
                needed: 14,
                available: 3,
            },
            SnapError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            SnapError::TrailingBytes { count: 7 },
            SnapError::Malformed("example"),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
