//! Versioned binary snapshot codec: primitives and machine-model impls.
//!
//! This module is the foundation of the workspace's persistence layer. It
//! defines a hand-rolled, **versioned, length-prefixed, little-endian**
//! binary format used by `ddg::snap` (loops and dependence graphs),
//! `mirs::snap` (schedule results) and `harness::cache` (the on-disk
//! schedule cache). There are no external dependencies: the format is a
//! few hundred lines of plain Rust, designed to be auditable and stable
//! across process restarts.
//!
//! # Blob envelope
//!
//! Every top-level snapshot is wrapped in a self-describing envelope:
//!
//! ```text
//! offset  size  field
//! 0       4     magic         (per-type ASCII tag, e.g. b"MMCH")
//! 4       2     version       (u16 LE, FORMAT_VERSION)
//! 6       8     payload_len   (u64 LE)
//! 14      n     payload       (type-specific, SnapEncode output)
//! 14+n    8     checksum      (u64 LE, FNV-1a over the payload bytes)
//! ```
//!
//! Decoding validates the magic, the version, the length, the checksum and
//! that no trailing bytes follow — every failure is a typed [`SnapError`],
//! never a panic, so corrupt or truncated blobs degrade gracefully.
//!
//! # Example
//!
//! ```
//! use vliw::{snap, MachineConfig};
//!
//! let mc = MachineConfig::paper_config(2, 32)?;
//! let blob = snap::encode_machine(&mc);
//! let back = snap::decode_machine(&blob).expect("round trip");
//! assert_eq!(back, mc);
//! # Ok::<(), vliw::ConfigError>(())
//! ```

use crate::cluster::ClusterConfig;
use crate::config::MachineConfig;
use crate::op::{LatencyModel, MemLatency, Opcode};
use crate::resource::{ClusterId, ResourceIndexer};
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
/// codec removed; 6 — `SearchMeta` lost the per-attempt branch timings.
pub const FORMAT_VERSION: u16 = 6;

/// Envelope magic for [`MachineConfig`] snapshots.
pub const MACHINE_MAGIC: [u8; 4] = *b"MMCH";

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
    /// The blob does not start with the expected per-type magic tag.
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

/// FNV-1a over a byte slice — the checksum of the blob envelope.
///
/// Same constants as `ScheduleResult::schedule_hash`, so the whole
/// persistence layer shares one well-understood hash.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
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

impl<T: SnapEncode> SnapEncode for Vec<T> {
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
/// docs: magic, version, length, payload, FNV-1a checksum.
#[must_use]
pub fn seal(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Validate a blob's envelope and return its payload slice.
///
/// # Errors
///
/// [`SnapError::Truncated`] if the blob is shorter than the envelope
/// declares, [`SnapError::BadMagic`] / [`SnapError::UnsupportedVersion`]
/// for a foreign or future blob, [`SnapError::ChecksumMismatch`] when the
/// payload bytes are corrupt, and [`SnapError::TrailingBytes`] if the blob
/// continues past the envelope.
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
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Encode a value into a complete, sealed snapshot blob.
#[must_use]
pub fn encode_blob<T: SnapEncode + ?Sized>(magic: [u8; 4], value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.encode_snap(&mut w);
    seal(magic, &w.into_bytes())
}

/// Decode a complete snapshot blob produced by [`encode_blob`].
///
/// # Errors
///
/// Any [`SnapError`] from the envelope check or the payload decoder,
/// including [`SnapError::TrailingBytes`] if the payload outlives the
/// decoded value.
pub fn decode_blob<T: SnapDecode>(magic: [u8; 4], blob: &[u8]) -> Result<T, SnapError> {
    let payload = unseal(magic, blob)?;
    let mut r = SnapReader::new(payload);
    let value = T::decode_snap(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Machine-model impls
// ---------------------------------------------------------------------------

impl SnapEncode for ClusterId {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u16(self.0);
    }
}

impl SnapDecode for ClusterId {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ClusterId(r.get_u16()?))
    }
}

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

impl SnapDecode for LatencyModel {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(LatencyModel {
            fp_add: r.get_u32()?,
            fp_mul: r.get_u32()?,
            fp_div: r.get_u32()?,
            fp_sqrt: r.get_u32()?,
            int_alu: r.get_u32()?,
            load_hit: r.get_u32()?,
            load_miss: r.get_u32()?,
            store: r.get_u32()?,
            move_latency: r.get_u32()?,
        })
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

impl SnapDecode for ClusterConfig {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ClusterConfig {
            gp_units: r.get_u32()?,
            mem_ports: r.get_u32()?,
            registers: r.get_u32()?,
            out_ports: r.get_u32()?,
            in_ports: r.get_u32()?,
        })
    }
}

impl SnapEncode for ResourceIndexer {
    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_len(self.clusters());
    }
}

impl SnapDecode for ResourceIndexer {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let clusters = r.get_u64()?;
        let clusters = usize::try_from(clusters)
            .ok()
            .filter(|&c| c > 0 && c <= usize::from(u16::MAX))
            .ok_or(SnapError::Malformed(
                "invalid resource-indexer cluster count",
            ))?;
        Ok(ResourceIndexer::new(clusters))
    }
}

impl SnapEncode for MachineConfig {
    fn encode_snap(&self, w: &mut SnapWriter) {
        self.cluster_configs().to_vec().encode_snap(w);
        w.put_u32(self.buses());
        self.latencies().encode_snap(w);
    }
}

impl SnapDecode for MachineConfig {
    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let clusters = Vec::<ClusterConfig>::decode_snap(r)?;
        let buses = r.get_u32()?;
        let latencies = LatencyModel::decode_snap(r)?;
        // Rebuild through the public builder so every decoded machine
        // satisfies the same invariants as a hand-built one.
        let mut b = MachineConfig::builder();
        for c in clusters {
            b = b.cluster(c);
        }
        b.buses(buses)
            .latencies(latencies)
            .build()
            .map_err(|_| SnapError::Malformed("decoded machine fails validation"))
    }
}

/// Encode a [`MachineConfig`] into a sealed `MMCH` blob.
#[must_use]
pub fn encode_machine(mc: &MachineConfig) -> Vec<u8> {
    encode_blob(MACHINE_MAGIC, mc)
}

/// Decode a sealed `MMCH` blob back into a [`MachineConfig`].
///
/// # Errors
///
/// Any [`SnapError`] from the envelope or payload check.
pub fn decode_machine(blob: &[u8]) -> Result<MachineConfig, SnapError> {
    decode_blob(MACHINE_MAGIC, blob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_machines() -> Vec<MachineConfig> {
        let mut out = vec![
            MachineConfig::paper_config(1, 64).unwrap(),
            MachineConfig::paper_config(2, 32).unwrap(),
            MachineConfig::paper_config(4, 16).unwrap(),
            MachineConfig::paper_config_unbounded(2).unwrap(),
            MachineConfig::replicated(8, 4).unwrap(),
        ];
        out.push(
            MachineConfig::builder()
                .cluster(ClusterConfig::new(4, 2, 64))
                .cluster(ClusterConfig::new(2, 1, 32))
                .buses(3)
                .latencies(LatencyModel::with_move_latency(3))
                .build()
                .unwrap(),
        );
        out
    }

    #[test]
    fn machine_round_trip() {
        for mc in sample_machines() {
            let blob = encode_machine(&mc);
            let back = decode_machine(&blob).unwrap();
            assert_eq!(back, mc, "round trip of {}", mc.name());
            assert_eq!(back.name(), mc.name());
        }
    }

    #[test]
    fn indexer_round_trip() {
        for clusters in [1usize, 2, 4, 8, 64] {
            let ix = ResourceIndexer::new(clusters);
            let blob = encode_blob(*b"TIDX", &ix);
            let back: ResourceIndexer = decode_blob(*b"TIDX", &blob).unwrap();
            assert_eq!(back, ix);
        }
    }

    #[test]
    fn indexer_rejects_zero_clusters_without_panicking() {
        let mut w = SnapWriter::new();
        w.put_len(0);
        let blob = seal(*b"TIDX", &w.into_bytes());
        let got = decode_blob::<ResourceIndexer>(*b"TIDX", &blob);
        assert!(matches!(got, Err(SnapError::Malformed(_))));
    }

    #[test]
    fn opcode_tags_are_total() {
        for &op in Opcode::all() {
            let blob = encode_blob(*b"TOPC", &op);
            let back: Opcode = decode_blob(*b"TOPC", &blob).unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn envelope_rejects_hostile_blobs() {
        let mc = MachineConfig::paper_config(2, 32).unwrap();
        let blob = encode_machine(&mc);

        // Truncations at every prefix length fail with a typed error.
        for cut in 0..blob.len() {
            let got = decode_machine(&blob[..cut]);
            assert!(got.is_err(), "prefix of {cut} bytes must not decode");
        }

        // Wrong magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            decode_machine(&bad),
            Err(SnapError::BadMagic { .. })
        ));

        // Future version.
        let mut bad = blob.clone();
        bad[4] = 0xfe;
        assert!(matches!(
            decode_machine(&bad),
            Err(SnapError::UnsupportedVersion { found: 0xfe, .. })
        ));

        // Flipped payload byte.
        let mut bad = blob.clone();
        bad[HEADER_LEN] ^= 0x01;
        assert!(matches!(
            decode_machine(&bad),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Flipped checksum byte.
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            decode_machine(&bad),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Trailing garbage.
        let mut bad = blob.clone();
        bad.push(0);
        assert!(matches!(
            decode_machine(&bad),
            Err(SnapError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn corrupt_length_prefix_cannot_drive_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let blob = seal(*b"TVEC", &w.into_bytes());
        let got = decode_blob::<Vec<u32>>(*b"TVEC", &blob);
        assert!(matches!(got, Err(SnapError::Malformed(_))));
    }

    #[test]
    fn errors_display_cleanly() {
        let errs: Vec<SnapError> = vec![
            SnapError::BadMagic {
                expected: MACHINE_MAGIC,
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
