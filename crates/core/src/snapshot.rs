//! Versioned crash-resume snapshots for the streaming fleet replay.
//!
//! `FleetSimulator::run_stream_resumable_traced` chains exact-carry windows
//! sequentially and, at every window (epoch) boundary, hands the caller
//! a [`ReplaySnapshot`]: the trace stream's resumable position
//! ([`crate::stream::StreamCheckpoint`]), the carried simulation state
//! (in-flight ledger, controller state, partial observation epoch), and
//! the replay's metering folded behind the boundary's in-flight
//! watermark: running accumulators for every final invocation, the
//! per-invocation tail of the still-live ones, the retry/hedge records,
//! and the control samples. A snapshot is therefore O(functions +
//! in-flight + retries + ticks) — its size does not grow with the
//! number of invocations replayed. Feeding the snapshot back as the
//! `resume` argument replays the remaining windows and produces a
//! [`crate::fleet::FleetReport`] **bit-identical** to an uninterrupted
//! run — kill the process at any epoch, reload the last snapshot, and
//! the report cannot tell.
//!
//! # Wire format
//!
//! Snapshots serialize to a hand-rolled little-endian binary layout (no
//! external serialization crates): magic, [`SNAPSHOT_VERSION`], a replay
//! fingerprint (strategy + config + trace shape + cadence, so a snapshot
//! cannot silently resume a *different* replay), then the epoch header
//! and the length-prefixed checkpoint/carry/metering sections, closed by
//! a trailing FNV-64 checksum over every preceding byte. Floats travel
//! as IEEE-754 bit patterns — bit-identity survives the disk round-trip
//! by construction. Decoding validates the checksum first, then magic,
//! version, and exact length; truncation, bit flips, and version skew
//! are each a clean [`FreedomError::InvalidArgument`], never a panic or
//! a partial state. Every length prefix is checked against the bytes
//! remaining divided by its element's wire size before anything is
//! allocated, and the decoded metering must be consistent with the
//! header (see `Metering::load`) and with the carry's live indices.

use std::path::Path;

use crate::fleet::{Carry, Metering};
use crate::stream::StreamCheckpoint;
use crate::{FreedomError, Result};

/// Current snapshot wire-format version. Bumped on any layout change;
/// decoders reject other versions rather than guessing. Version 2 added
/// the file index to CSV stream checkpoints (multi-file traces); version
/// 3 added the pending-retry heap and retry-budget carry state plus the
/// trailing FNV-64 integrity checksum; version 4 replaced the
/// per-invocation metering history with the watermark fold's
/// accumulators and in-flight tail.
pub const SNAPSHOT_VERSION: u32 = 4;

/// File magic: "FDSN" little-endian.
const MAGIC: u32 = u32::from_le_bytes(*b"FDSN");

/// FNV-1a 64-bit over `bytes` — the snapshot's integrity checksum. Not
/// cryptographic; it exists to turn torn writes and bit rot into clean
/// decode errors instead of silently resuming corrupt state.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A resumable position in a streaming fleet replay, taken at a window
/// (epoch) boundary. Opaque outside the crate: produce one with
/// `FleetSimulator::run_stream_resumable_traced`'s snapshot callback, persist
/// it with [`ReplaySnapshot::write_to`] (or [`ReplaySnapshot::to_bytes`]),
/// and feed it back as the `resume` argument after a crash.
#[derive(Debug, Clone)]
pub struct ReplaySnapshot {
    /// Wire-format version this snapshot was encoded with.
    pub(crate) version: u32,
    /// Fingerprint of the replay (strategy, config, fleet shape, trace
    /// shape, snapshot cadence) this position belongs to.
    pub(crate) fingerprint: u64,
    /// Next window index to simulate: windows `0..epoch` are metered
    /// in `metering`, the stream checkpoint sits at the first event of
    /// window `epoch`.
    pub(crate) epoch: u64,
    /// Snapshot cadence in integer nanoseconds (the window size).
    pub(crate) window_nanos: u64,
    /// Trace events consumed by the folded prefix.
    pub(crate) events_consumed: u64,
    /// The trace stream's position at the boundary.
    pub(crate) checkpoint: StreamCheckpoint,
    /// Everything crossing the boundary: in-flight ledger, controller
    /// state, partial observation epoch.
    pub(crate) carry: Carry,
    /// Metering of windows `0..epoch`, folded behind the boundary's
    /// in-flight watermark.
    pub(crate) metering: Metering,
}

impl ReplaySnapshot {
    /// Next window index to simulate on resume.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Trace events already consumed by the snapshotted prefix.
    pub fn events_consumed(&self) -> u64 {
        self.events_consumed
    }

    /// Snapshot cadence (window size) in integer nanoseconds.
    pub fn window_nanos(&self) -> u64 {
        self.window_nanos
    }

    /// Fingerprint of the replay this snapshot belongs to; resuming
    /// under a different strategy/config/trace is rejected.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Encoded size of the control-sample section: one fixed-size
    /// sample per controller tick so far — the only part of a snapshot
    /// that grows with the epoch index.
    pub fn control_sample_bytes(&self) -> usize {
        self.metering.control_samples() * crate::controller::ControlSample::WIRE_BYTES
    }

    /// Serializes the snapshot to its versioned wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Wire::new();
        w.u32(MAGIC);
        w.u32(self.version);
        w.u64(self.fingerprint);
        w.u64(self.epoch);
        w.u64(self.window_nanos);
        w.u64(self.events_consumed);
        self.checkpoint.save(&mut w);
        self.carry.save(&mut w);
        self.metering.save(&mut w);
        let mut bytes = w.into_bytes();
        let checksum = fnv64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Decodes a snapshot, validating the trailing checksum first, then
    /// magic, version, and exact length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let Some(body_len) = bytes.len().checked_sub(8) else {
            return Err(FreedomError::InvalidArgument(
                "snapshot: too short to hold the integrity checksum".into(),
            ));
        };
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().unwrap());
        if stored != fnv64(&bytes[..body_len]) {
            return Err(FreedomError::InvalidArgument(
                "snapshot: checksum mismatch (truncated, torn, or bit-flipped)".into(),
            ));
        }
        let mut r = Unwire::new(&bytes[..body_len]);
        if r.u32()? != MAGIC {
            return Err(FreedomError::InvalidArgument(
                "snapshot: bad magic (not a replay snapshot)".into(),
            ));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(FreedomError::InvalidArgument(format!(
                "snapshot: version {version} is not the supported {SNAPSHOT_VERSION}"
            )));
        }
        let fingerprint = r.u64()?;
        let epoch = r.u64()?;
        let window_nanos = r.u64()?;
        let events_consumed = r.u64()?;
        let checkpoint = StreamCheckpoint::load(&mut r)?;
        let carry = Carry::load(&mut r)?;
        let metering = Metering::load(&mut r, events_consumed)?;
        r.finish()?;
        // Everything live across the boundary is an invocation the
        // metering has not folded yet.
        let unfolded = metering.folded()..events_consumed;
        if carry
            .live_indices()
            .any(|i| !unfolded.contains(&u64::from(i)))
        {
            return Err(FreedomError::InvalidArgument(
                "snapshot: in-flight or pending invocation outside the unfolded tail".into(),
            ));
        }
        Ok(Self {
            version,
            fingerprint,
            epoch,
            window_nanos,
            events_consumed,
            checkpoint,
            carry,
            metering,
        })
    }

    /// Writes the snapshot to `path` atomically: encode to a sibling
    /// temporary file, then rename over the target — a crash mid-write
    /// leaves either the previous snapshot or none, never a torn one.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let io_err = |what: &str, e: std::io::Error| {
            FreedomError::InvalidArgument(format!("snapshot {what} {}: {e}", path.display()))
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes()).map_err(|e| io_err("write", e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            io_err("rename", e)
        })
    }

    /// Reads and decodes a snapshot previously written with
    /// [`ReplaySnapshot::write_to`].
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            FreedomError::InvalidArgument(format!("snapshot read {}: {e}", path.display()))
        })?;
        Self::from_bytes(&bytes)
    }
}

/// Little-endian byte writer for the snapshot wire format.
pub(crate) struct Wire {
    buf: Vec<u8>,
}

impl Wire {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats travel as IEEE-754 bit patterns: the round-trip is the
    /// identity on every value, NaN payloads and signed zeros included.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length prefix for a following sequence.
    pub(crate) fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Checked little-endian reader over a snapshot byte buffer.
pub(crate) struct Unwire<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Unwire<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(FreedomError::InvalidArgument(
                "snapshot: truncated (unexpected end of data)".into(),
            ));
        };
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(FreedomError::InvalidArgument(format!(
                "snapshot: invalid bool byte {v}"
            ))),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix of a sequence whose elements each occupy at
    /// least `elem_bytes` bytes on the wire, capped so a corrupt prefix
    /// cannot drive a pre-allocation beyond the input: a plausible
    /// length never exceeds the bytes remaining ÷ `elem_bytes`.
    pub(crate) fn len(&mut self, elem_bytes: usize) -> Result<usize> {
        let n = self.u64()?;
        let remaining = self.buf.len() - self.pos;
        let most = (remaining / elem_bytes.max(1)) as u64;
        if n > most {
            return Err(FreedomError::InvalidArgument(format!(
                "snapshot: length prefix {n} × {elem_bytes} B exceeds the \
                 {remaining} bytes remaining"
            )));
        }
        Ok(n as usize)
    }

    /// Requires the buffer to be fully consumed.
    pub(crate) fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(FreedomError::InvalidArgument(format!(
                "snapshot: {} trailing bytes after the decoded state",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trips_every_primitive() {
        let mut w = Wire::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.f64(-0.0);
        w.f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        w.len(3);
        w.u8(1);
        w.u8(2);
        w.u8(3);
        let bytes = w.into_bytes();
        let mut r = Unwire::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        let n = r.len(1).unwrap();
        assert_eq!(n, 3);
        for expected in 1..=3u8 {
            assert_eq!(r.u8().unwrap(), expected);
        }
        // Exhaustion and truncation are clean errors:
        assert!(r.finish().is_ok());
        assert!(r.u8().is_err());
        let mut r2 = Unwire::new(&bytes[..2]);
        r2.u8().unwrap();
        assert!(r2.u32().is_err());
    }

    /// Seals a raw body with the trailing checksum the decoder expects,
    /// so header-validation tests get past the integrity layer.
    fn sealed(body: Vec<u8>) -> Vec<u8> {
        let mut bytes = body;
        let checksum = fnv64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        assert!(ReplaySnapshot::from_bytes(b"").is_err());
        assert!(ReplaySnapshot::from_bytes(b"NOPE").is_err());
        // Wrong magic and version skew each fail cleanly even when the
        // checksum itself is intact.
        let mut w = Wire::new();
        w.u32(u32::from_le_bytes(*b"XXXX"));
        w.u32(SNAPSHOT_VERSION);
        assert!(ReplaySnapshot::from_bytes(&sealed(w.into_bytes())).is_err());
        let mut w = Wire::new();
        w.u32(MAGIC);
        w.u32(SNAPSHOT_VERSION + 1);
        assert!(ReplaySnapshot::from_bytes(&sealed(w.into_bytes())).is_err());
        // A giant length prefix fails cleanly instead of allocating.
        let mut w = Wire::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Unwire::new(&bytes).len(1).is_err());
    }

    /// A hand-built v4 snapshot body: an empty CSV checkpoint, a carry
    /// holding at most one in-flight invocation, and a metering section
    /// with `folded` accumulated invocations plus `tail` unfolded
    /// on-demand records — every field chosen by the test.
    struct Crafted {
        version: u32,
        events_consumed: u64,
        inflight_idx: Option<u32>,
        folded: u64,
        by_class: [u64; 8],
        values: Vec<(u64, u64)>,
        /// Declared tail length; `tail_classes` supplies the records.
        tail_len: u64,
        tail_classes: Vec<u8>,
    }

    impl Crafted {
        /// Consistent state: 3 folded on-demand invocations at inflation
        /// 1.0, 2 more in the tail, the newest still in flight.
        fn valid() -> Self {
            Self {
                version: SNAPSHOT_VERSION,
                events_consumed: 5,
                inflight_idx: Some(4),
                folded: 3,
                by_class: [3, 0, 0, 0, 0, 0, 0, 0],
                values: vec![(1.0f64.to_bits(), 3)],
                tail_len: 2,
                tail_classes: vec![0, 0],
            }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut w = Wire::new();
            w.u32(MAGIC);
            w.u32(self.version);
            w.u64(0xF00D); // fingerprint
            w.u64(1); // epoch
            w.u64(1_000_000_000); // window
            w.u64(self.events_consumed);
            // Checkpoint: CSV at file 0, offset 0, no open rows.
            w.u8(1);
            w.u32(0);
            w.u64(0);
            w.u64(0);
            w.u64(0);
            w.bool(false);
            w.len(0);
            // Carry: in-flight entries, no pending retries, no budget
            // buckets, a greedy controller state, a zeroed epoch.
            w.len(usize::from(self.inflight_idx.is_some()));
            if let Some(idx) = self.inflight_idx {
                w.u64(2_000_000_000);
                for field in [0, idx, 0, 500, 512, 1] {
                    w.u32(field);
                }
                w.f64(1e-6);
            }
            w.len(0);
            w.len(0);
            w.u8(0);
            w.u64(0);
            w.f64(0.0);
            w.f64(0.0);
            w.len(0);
            w.len(0);
            w.bool(false);
            w.len(0);
            for _ in 0..8 {
                w.u32(0);
            }
            w.len(0);
            // Metering.
            w.u64(self.folded);
            w.f64(3e-6);
            w.f64(3.0);
            for c in self.by_class {
                w.u64(c);
            }
            w.len(self.values.len());
            for &(bits, count) in &self.values {
                w.u64(bits);
                w.u64(count);
            }
            w.u64(self.tail_len);
            for _ in &self.tail_classes {
                w.f64(1e-6);
            }
            for _ in &self.tail_classes {
                w.f64(1.0);
            }
            for &c in &self.tail_classes {
                w.u8(c);
            }
            for _ in 0..4 {
                w.len(0); // retry adjustments, retries, hedges, samples
            }
            w.u32(0);
            sealed(w.into_bytes())
        }
    }

    /// Decodes `c` and returns the error text, failing if it decodes.
    fn rejection(c: &Crafted) -> String {
        match ReplaySnapshot::from_bytes(&c.bytes()) {
            Ok(_) => panic!("crafted snapshot must be rejected"),
            Err(e @ FreedomError::InvalidArgument(_)) => e.to_string(),
            Err(e) => panic!("expected InvalidArgument, got {e}"),
        }
    }

    #[test]
    fn crafted_consistent_body_decodes() {
        let snap = ReplaySnapshot::from_bytes(&Crafted::valid().bytes()).unwrap();
        assert_eq!(snap.events_consumed(), 5);
        assert_eq!(snap.metering.folded(), 3);
        assert_eq!(snap.control_sample_bytes(), 0);
    }

    #[test]
    fn inconsistent_folded_state_is_rejected() {
        let c = Crafted {
            events_consumed: 6,
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("events consumed"));
        let c = Crafted {
            by_class: [2, 0, 0, 0, 0, 0, 0, 0],
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("class counts"));
        let c = Crafted {
            values: vec![(1.0f64.to_bits(), 2), (2.0f64.to_bits(), 2)],
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("value-table counts"));
        // Overflowing counts are summed wide, not wrapped into a match.
        let c = Crafted {
            values: vec![(1.0f64.to_bits(), u64::MAX), (2.0f64.to_bits(), 4)],
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("value-table counts"));
        let c = Crafted {
            values: vec![(2.0f64.to_bits(), 1), (1.0f64.to_bits(), 2)],
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("canonical order"));
        let c = Crafted {
            tail_classes: vec![0, 7],
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("class out of range"));
        // An in-flight invocation the metering already folded.
        let c = Crafted {
            inflight_idx: Some(1),
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("outside the unfolded tail"));
    }

    #[test]
    fn lying_length_prefixes_are_rejected_before_allocating() {
        // A tail of `n` records needs 17·n bytes: a prefix that fits the
        // bytes remaining but not ÷ 17 must fail at the prefix.
        let c = Crafted {
            tail_len: 40,
            ..Crafted::valid()
        };
        assert!(c.bytes().len() > 40 + 8, "prefix must fit the raw bytes");
        assert!(rejection(&c).contains("length prefix 40 × 17 B"));
        let c = Crafted {
            tail_len: u64::MAX,
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("length prefix"));
    }

    #[test]
    fn version_3_snapshots_are_rejected() {
        let c = Crafted {
            version: 3,
            ..Crafted::valid()
        };
        assert!(rejection(&c).contains("version 3 is not the supported 4"));
    }

    #[test]
    fn every_single_bit_flip_breaks_the_checksum() {
        // A sealed header: any one-bit corruption anywhere in the file —
        // body or checksum — must be rejected before decoding begins.
        let mut w = Wire::new();
        w.u32(MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u64(0x1234_5678_9abc_def0);
        let bytes = sealed(w.into_bytes());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                let err =
                    ReplaySnapshot::from_bytes(&flipped).expect_err("bit flip must not decode");
                assert!(
                    format!("{err}").contains("checksum"),
                    "flip at byte {byte} bit {bit} failed past the checksum: {err}"
                );
            }
        }
    }

    #[test]
    fn missing_files_and_bad_paths_are_clean_errors() {
        assert!(ReplaySnapshot::read_from("/nonexistent/replay.snap").is_err());
    }
}
