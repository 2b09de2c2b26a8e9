//! The streaming trace pipeline: constant-memory event production, and
//! the one trace front end of the fleet replay.
//!
//! A [`StreamTrace`] holds only the trace's **specification** (generator
//! parameters, or the CSV inputs plus a per-line function table) and
//! O(functions) scan metadata, never the events. An [`EventStream`]
//! pulls arrivals one at a time through the same k-way merge and
//! tie-break contract (time, then function index) as the materialized
//! [`Trace`], so peak resident state is `O(functions)` cursors — one
//! pending event each — instead of `O(total events)`.
//!
//! Three constructors cover every input:
//!
//! - [`StreamTrace::generate`]: the synthetic [`TraceSource`] shapes;
//! - [`StreamTrace::from_csv_files`]: `app,func,minute,count` rows
//!   ("Serverless in the Wild" per-minute counts) in files on disk;
//! - [`StreamTrace::from_csv_parts`]: the same rows in memory.
//!
//! The materialized [`Trace`] ([`StreamTrace::materialize`]) is the test
//! oracle the streaming pipeline is diffed against, not a replay input.
//!
//! # The streaming cursor contract
//!
//! - **Bit-identity.** `StreamTrace::open().events()` yields exactly the
//!   events of [`StreamTrace::materialize`], same `f64` bits, same
//!   order. Synthetic sources guarantee it by construction (both paths
//!   drain the same generator cursor); the CSV reader shares the
//!   materialized parser's row grammar and spread formula, and its
//!   bounded-lookahead merge is exact for every file it accepts.
//! - **Checkpoint / rewind.** [`EventStream::checkpoint`] captures the
//!   stream's position (per-function generator states and pending
//!   events; for CSV, the file index and decompressed byte offset plus
//!   open rows); [`StreamTrace::open_at`] reopens the stream there,
//!   replaying the identical suffix. This is how a crash-resumed fleet
//!   replay re-seeks its epoch boundary without ever holding the merged
//!   view. A checkpoint that cannot belong to the trace is rejected
//!   with a typed error.
//! - **CSV lookahead.** Rows may arrive out of minute order by at most
//!   [`CSV_LOOKAHEAD_MINUTES`]; the reader buffers the open rows of that
//!   sliding window (its only super-constant state) and rejects files
//!   that exceed the bound with a file- and line-qualified error at scan
//!   time. The bound is **global across file seams**: the first row of
//!   file *k+1* may trail the highest minute of files *1..k* by at most
//!   the same lookahead.
//! - **Multi-file and gzip inputs.** A CSV trace is a list of inputs
//!   replayed as one logical trace: inputs are scanned in parallel,
//!   per-input key lists merge in input order (bit-identical to scanning
//!   the concatenation), and each input may carry its own header row.
//!   Inputs whose first bytes are the gzip magic are decompressed on the
//!   fly through the vendored [`flate`] inflater, on whichever thread
//!   drives the stream. Identical bytes flow either way, so gz ≡ plain ≡
//!   materialized, bit for bit.
//! - **Pipelined ingest.** A fleet replay does not pull this stream on
//!   its own thread: `pipelined` moves the stream — inflate, CSV parse
//!   and the k-way merge — onto one scoped ingest thread that fills
//!   fixed-size event batches from a preallocated pool, while the
//!   simulation consumes them over a bounded hand-off. Epoch boundaries
//!   travel in the batch stream as checkpoints taken at the exact
//!   boundary position. Event order is the stream's own, so the replay
//!   is bit-identical to a single-threaded pull by construction.
//!
//! Construction performs one **scan pass** over every core (cheap:
//! generation or parsing only, no simulation) recording the event count
//! and horizon — what the fleet engine needs before replay — plus an
//! identity digest of the input that crash-resume snapshots are checked
//! against, so `open()` itself is allocation-light and replays never
//! re-derive metadata.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;

use crate::market::Fnv64;
use crate::trace::{
    event_nanos, minute_event, parse_csv_row, stream_seed, GenCursor, Trace, TraceEvent,
    TraceSource,
};
use crate::{FreedomError, Result};

/// How far out of minute order CSV rows may arrive before the streaming
/// reader rejects the file: a row with `minute < max_seen − LOOKAHEAD`
/// is an error. Bounds the reader's buffered state to the open rows of
/// a sliding `LOOKAHEAD + 1`-minute window. The bound carries across
/// file seams: `max_seen` includes every earlier file of the trace.
pub const CSV_LOOKAHEAD_MINUTES: u64 = 8;

/// Default chunk size of the CSV byte reader. Tests shrink it through
/// [`StreamTrace::from_csv_parts_chunked`] to force records across chunk
/// boundaries.
const CSV_CHUNK_BYTES: usize = 64 * 1024;

/// Where the CSV bytes live. `Mem` shares the buffer across reopened
/// streams; `File` reopens and seeks, so a stream holds one descriptor
/// and a chunk — never the file.
#[derive(Debug, Clone)]
enum CsvBytes {
    Mem(Arc<[u8]>),
    File(PathBuf),
}

/// One input of a (possibly multi-input) CSV trace.
#[derive(Debug, Clone)]
struct CsvFile {
    bytes: CsvBytes,
    /// The input starts with the gzip magic: decompress through the
    /// vendored inflater before line splitting.
    gz: bool,
    /// Human-readable name used in error attribution ("" for a single
    /// in-memory input, whose messages carry no label).
    label: String,
}

impl CsvFile {
    fn new(bytes: CsvBytes, label: String) -> Result<Self> {
        let gz = match &bytes {
            CsvBytes::Mem(data) => flate::is_gzip(data),
            CsvBytes::File(path) => {
                let mut magic = Vec::with_capacity(2);
                std::fs::File::open(path)
                    .and_then(|file| file.take(2).read_to_end(&mut magic))
                    .map_err(|e| cannot_read(path, e))?;
                flate::is_gzip(&magic)
            }
        };
        Ok(Self { bytes, gz, label })
    }
}

fn cannot_read(path: &Path, e: std::io::Error) -> FreedomError {
    FreedomError::InvalidArgument(format!("cannot read trace CSV {}: {e}", path.display()))
}

/// A lazily-evaluated arrival trace: the specification plus O(functions)
/// scan metadata, never the events.
#[derive(Debug, Clone)]
pub struct StreamTrace {
    spec: StreamSpec,
    n_functions: usize,
    len: usize,
    horizon_nanos: u64,
    /// Identity of the input, fixed at scan time (see
    /// [`StreamTrace::digest`]).
    digest: u64,
    /// Wall timings of the construction-time scan pass, one entry per
    /// scanned unit (file, part, or the synthetic count pass), offsets
    /// relative to the scan's start. Replayed into a telemetry recorder
    /// by [`StreamTrace::record_scan`].
    scan: Arc<Vec<ScanTiming>>,
}

/// Wall timing of one scan-phase unit, captured while the trace was
/// constructed.
#[derive(Debug, Clone, Copy)]
struct ScanTiming {
    /// Offset from the start of the scan pass, in wall nanoseconds.
    start_nanos: u64,
    dur_nanos: u64,
    /// Whether the unit was gzip-decompressed while scanning.
    gz: bool,
}

#[derive(Debug, Clone)]
enum StreamSpec {
    Synthetic {
        source: TraceSource,
        duration_secs: f64,
        seed: u64,
    },
    Csv {
        files: Vec<CsvFile>,
        /// Dense per-file row → function-index tables, indexed by
        /// 0-based line number (`u32::MAX` for non-data lines: blanks
        /// and headers). Indices are assigned in order of first
        /// appearance across the file sequence — the same assignment
        /// the materialized reader makes over the concatenated text.
        /// Built once at scan time so the replay hot loop does an array
        /// load per row instead of re-building and hashing the
        /// `(app, func)` composite key against a map.
        row_fn: Arc<Vec<Vec<u32>>>,
        chunk: usize,
    },
}

/// FNV-1a over a byte string, length-prefixed so consecutive strings
/// cannot run into each other.
fn digest_bytes(h: &mut Fnv64, bytes: &[u8]) {
    h.write(bytes.len() as u64);
    for &b in bytes {
        h.write(u64::from(b));
    }
}

/// Multiply-xor string hasher for the composite-key maps. The replay
/// loop probes the key map once per CSV row, and for such short keys
/// SipHash's setup/finalization dominates the lookup. Not DoS-hardened,
/// which is acceptable for trace-derived keys; nothing observable
/// depends on hash order (the maps are probed, never iterated).
#[derive(Clone, Default)]
struct FxHasher {
    hash: u64,
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.hash;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder().iter().rev() {
            tail = (tail << 8) | b as u64;
        }
        h = (h.rotate_left(5) ^ tail).wrapping_mul(SEED);
        self.hash = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;
type KeyMap = HashMap<String, u32, FxBuild>;

/// Builds the unambiguous `(app, func)` composite key in `scratch`:
/// the app length prefix makes `("ab","c")` distinct from `("a","bc")`
/// without allocating per lookup. The length is formatted by hand —
/// `write!` drags the whole `fmt` machinery into the per-row path.
fn composite_key(scratch: &mut String, app: &str, func: &str) {
    scratch.clear();
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut n = app.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    scratch.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
    scratch.push(':');
    scratch.push_str(app);
    scratch.push_str(func);
}

/// Prefixes `trace CSV line N: ...` messages with the file label so
/// multi-file errors attribute the exact file (`trace CSV day2.csv.gz
/// line N: ...`).
fn qualify_err(e: FreedomError, label: &str) -> FreedomError {
    if label.is_empty() {
        return e;
    }
    match e {
        FreedomError::InvalidArgument(msg) => {
            FreedomError::InvalidArgument(match msg.strip_prefix("trace CSV ") {
                Some(rest) => format!("trace CSV {label} {rest}"),
                None => format!("{label}: {msg}"),
            })
        }
        other => other,
    }
}

/// `trace CSV`, followed by the file label when there is one.
fn csv_name(label: &str) -> String {
    if label.is_empty() {
        "trace CSV".to_string()
    } else {
        format!("trace CSV {label}")
    }
}

fn csv_line_prefix(label: &str, lineno: usize) -> String {
    format!("{} line {}", csv_name(label), lineno + 1)
}

/// Per-file scan result, merged in file order into the trace metadata.
struct FileScan {
    /// Composite keys in first-appearance order within this file.
    keys: Vec<String>,
    /// Line-number-indexed local key id per line (`u32::MAX` for
    /// non-data lines); remapped to global indices at merge time.
    row_fn: Vec<u32>,
    len: usize,
    last: f64,
    /// Highest minute seen (meaningful only when `data_rows > 0`).
    m_max: u64,
    data_rows: usize,
    /// Rows whose minute is strictly below every earlier minute of the
    /// same file, in line order (minutes strictly decreasing). The first
    /// cross-seam lookahead violation is always one of these, so the
    /// merge pass attributes it exactly without a second scan.
    prefix_mins: Vec<(usize, u64)>,
    /// Decompressed size of the file.
    bytes: u64,
}

fn scan_file(file: &CsvFile, chunk: usize) -> Result<FileScan> {
    let mut reader = ChunkedLines::open(file, 0, 0, chunk)?;
    let mut local = KeyMap::default();
    let mut keys = Vec::new();
    let mut row_fn: Vec<u32> = Vec::new();
    let mut scratch = String::new();
    let mut len = 0usize;
    let mut last = f64::NEG_INFINITY;
    let mut m_max = 0u64;
    let mut data_rows = 0usize;
    let mut prefix_mins: Vec<(usize, u64)> = Vec::new();
    while let Some((lineno, line)) = reader.next_line()? {
        debug_assert_eq!(row_fn.len(), lineno, "one row_fn entry per line");
        row_fn.push(u32::MAX);
        let Some(row) = parse_csv_row(line, lineno).map_err(|e| qualify_err(e, &file.label))?
        else {
            continue;
        };
        if data_rows > 0 && row.minute.saturating_add(CSV_LOOKAHEAD_MINUTES) < m_max {
            return Err(FreedomError::InvalidArgument(format!(
                "{}: minute {} arrives more than {CSV_LOOKAHEAD_MINUTES} minutes behind \
                 minute {m_max}; the streaming reader's lookahead cannot reorder it (sort \
                 the rows by minute)",
                csv_line_prefix(&file.label, lineno),
                row.minute,
            )));
        }
        if data_rows == 0 || prefix_mins.last().is_some_and(|&(_, m)| row.minute < m) {
            prefix_mins.push((lineno, row.minute));
        }
        m_max = m_max.max(row.minute);
        data_rows += 1;
        composite_key(&mut scratch, row.app, row.func);
        let local_id = match local.get(scratch.as_str()) {
            Some(&id) => id,
            None => {
                let id = keys.len() as u32;
                local.insert(scratch.clone(), id);
                keys.push(scratch.clone());
                id
            }
        };
        *row_fn.last_mut().expect("pushed above") = local_id;
        if row.count > 0 {
            len += row.count as usize;
            last = last.max(minute_event(row.minute, row.count - 1, row.count));
        }
    }
    Ok(FileScan {
        keys,
        row_fn,
        len,
        last,
        m_max,
        data_rows,
        prefix_mins,
        bytes: reader.offset(),
    })
}

impl StreamTrace {
    /// A lazy trace over `n_functions` independent generator streams —
    /// the streaming counterpart of [`TraceSource::generate`]. The scan
    /// pass fans out over every core; streams are pure functions of
    /// `(seed, function index)`, so the metadata — and every event later
    /// pulled — is bit-identical whatever the core count.
    pub fn generate(
        source: TraceSource,
        n_functions: usize,
        duration_secs: f64,
        seed: u64,
    ) -> Result<Self> {
        source.validate(n_functions, duration_secs)?;
        let scan_epoch = std::time::Instant::now();
        let threads = freedom_parallel::available_threads();
        let per_fn = freedom_parallel::par_run(n_functions, threads, |f| {
            let mut cursor = GenCursor::new(&source, duration_secs, stream_seed(seed, f));
            let mut count = 0usize;
            let mut last = f64::NEG_INFINITY;
            while let Some(t) = cursor.next_arrival() {
                count += 1;
                last = t;
            }
            (count, last)
        });
        let len = per_fn.iter().map(|&(c, _)| c).sum();
        // The merged view's last event is the max over per-function last
        // arrivals — same float, same nanos as the materialized path.
        let horizon_nanos = per_fn
            .iter()
            .filter(|&&(c, _)| c > 0)
            .map(|&(_, last)| event_nanos(last))
            .max()
            .unwrap_or(0);
        let scan = vec![ScanTiming {
            start_nanos: 0,
            dur_nanos: scan_epoch.elapsed().as_nanos() as u64,
            gz: false,
        }];
        let mut digest = Fnv64::new();
        digest_bytes(&mut digest, format!("{source:?}").as_bytes());
        digest.write(duration_secs.to_bits());
        digest.write(seed);
        Ok(Self {
            spec: StreamSpec::Synthetic {
                source,
                duration_secs,
                seed,
            },
            n_functions,
            len,
            horizon_nanos,
            digest: digest.finish(),
            scan: Arc::new(scan),
        })
    }

    /// A CSV trace read from files: `paths` replay back to back as one
    /// logical event stream, in the given order (for the Azure dataset,
    /// one file per day). The scan reads each file once, in parallel;
    /// replays re-read them, so the files must not change while the
    /// trace is in use. Each file may carry its own header row and is
    /// gzip-decompressed when its first bytes are the gzip magic. Minute
    /// order must hold **across** seams too: the earliest rows of a file
    /// may trail the highest minute of earlier files by at most
    /// [`CSV_LOOKAHEAD_MINUTES`]; violations name the exact file and
    /// line.
    pub fn from_csv_files<P: AsRef<Path>>(paths: &[P]) -> Result<Self> {
        let files = paths
            .iter()
            .map(|path| {
                let path = path.as_ref();
                CsvFile::new(
                    CsvBytes::File(path.to_path_buf()),
                    path.display().to_string(),
                )
            })
            .collect::<Result<_>>()?;
        Self::from_parts(files, CSV_CHUNK_BYTES)
    }

    /// A CSV trace held in memory: each part is one logical file
    /// (gzip-detected independently, own header allowed), replayed back
    /// to back under the same rules as [`StreamTrace::from_csv_files`].
    /// Errors attribute parts as `part 1`, `part 2`, … when there is
    /// more than one; a single part's errors carry no label.
    pub fn from_csv_parts(parts: &[&[u8]]) -> Result<Self> {
        Self::from_csv_parts_chunked(parts, CSV_CHUNK_BYTES)
    }

    /// [`StreamTrace::from_csv_parts`] with an explicit reader chunk size
    /// (clamped to ≥ 1 byte). Chunking is observable only in I/O
    /// granularity — records straddling chunk boundaries parse
    /// identically — which is what tests pin down by shrinking the chunk
    /// to a few bytes.
    #[doc(hidden)]
    pub fn from_csv_parts_chunked(parts: &[&[u8]], chunk_bytes: usize) -> Result<Self> {
        let files = parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let label = if parts.len() > 1 {
                    format!("part {}", i + 1)
                } else {
                    String::new()
                };
                CsvFile::new(CsvBytes::Mem(Arc::from(*part)), label)
            })
            .collect::<Result<_>>()?;
        Self::from_parts(files, chunk_bytes)
    }

    fn from_parts(files: Vec<CsvFile>, chunk: usize) -> Result<Self> {
        if files.is_empty() {
            return Err(FreedomError::InvalidArgument(
                "trace CSV file list is empty".into(),
            ));
        }
        // Per-file scans are independent (grammar, in-file ordering,
        // first-appearance key list, prefix-min ladder), so they fan out
        // like the generator scan; the sequential merge below is
        // O(files + functions).
        let threads = freedom_parallel::available_threads();
        let scan_epoch = std::time::Instant::now();
        let scans = freedom_parallel::par_run(files.len(), threads, |i| {
            let started = scan_epoch.elapsed().as_nanos() as u64;
            let out = scan_file(&files[i], chunk);
            let dur = (scan_epoch.elapsed().as_nanos() as u64).saturating_sub(started);
            (out, started, dur)
        });
        let mut scan_timings = Vec::with_capacity(files.len());
        let mut keys = KeyMap::default();
        let mut row_fn: Vec<Vec<u32>> = Vec::with_capacity(files.len());
        let mut len = 0usize;
        let mut last = f64::NEG_INFINITY;
        let mut data_rows = 0usize;
        let mut prior_max: Option<u64> = None;
        // The input's identity: per-file decompressed size and line
        // count, then the keys in first-appearance order. Paths and
        // timings stay out, so moving or re-compressing the files keeps
        // snapshots valid.
        let mut digest = Fnv64::new();
        for (file, (scan, started, dur)) in files.iter().zip(scans) {
            let scan = scan?;
            digest.write(scan.bytes);
            digest.write(scan.row_fn.len() as u64);
            scan_timings.push(ScanTiming {
                start_nanos: started,
                dur_nanos: dur,
                gz: file.gz,
            });
            // Cross-seam lookahead: every row of this file must stay
            // within the lookahead of the highest minute carried in from
            // earlier files. The first violating row is necessarily a
            // prefix-min of its file (any earlier row with an equal or
            // smaller minute would already violate), so the first
            // violating prefix-min entry is exact file:line attribution.
            if let Some(pm) = prior_max {
                if let Some(&(lineno, minute)) = scan
                    .prefix_mins
                    .iter()
                    .find(|&&(_, m)| m.saturating_add(CSV_LOOKAHEAD_MINUTES) < pm)
                {
                    return Err(FreedomError::InvalidArgument(format!(
                        "{}: minute {minute} arrives more than {CSV_LOOKAHEAD_MINUTES} minutes \
                         behind minute {pm} carried across the file seam; the streaming \
                         reader's lookahead cannot reorder it (sort the rows by minute)",
                        csv_line_prefix(&file.label, lineno),
                    )));
                }
            }
            if scan.data_rows > 0 {
                prior_max = Some(prior_max.map_or(scan.m_max, |p| p.max(scan.m_max)));
            }
            // Folding per-file first-appearance lists in file order
            // assigns exactly the indices a scan of the concatenation
            // would: a key's first appearance overall is its first
            // appearance in the first file that contains it. `remap`
            // carries local → global ids into the file's dense table.
            let mut remap = Vec::with_capacity(scan.keys.len());
            for key in scan.keys {
                let next_index = keys.len() as u32;
                let id = *keys.entry(key).or_insert_with_key(|key| {
                    digest_bytes(&mut digest, key.as_bytes());
                    next_index
                });
                remap.push(id);
            }
            row_fn.push(
                scan.row_fn
                    .iter()
                    .map(|&l| match l {
                        u32::MAX => u32::MAX,
                        l => remap[l as usize],
                    })
                    .collect(),
            );
            len += scan.len;
            last = last.max(scan.last);
            data_rows += scan.data_rows;
        }
        if data_rows == 0 {
            return Err(FreedomError::InvalidArgument(
                "trace CSV has no data rows".into(),
            ));
        }
        let horizon_nanos = if len == 0 { 0 } else { event_nanos(last) };
        Ok(Self {
            n_functions: keys.len(),
            len,
            horizon_nanos,
            digest: digest.finish(),
            spec: StreamSpec::Csv {
                files,
                row_fn: Arc::new(row_fn),
                chunk,
            },
            scan: Arc::new(scan_timings),
        })
    }

    /// Number of functions with a (possibly empty) stream.
    pub fn n_functions(&self) -> usize {
        self.n_functions
    }

    /// Total number of arrivals the stream will yield.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arrival time of the last event in integer nanoseconds (0 for an
    /// empty trace) — the replay horizon supply steps and controller
    /// ticks are capped at.
    pub fn horizon_nanos(&self) -> u64 {
        self.horizon_nanos
    }

    /// A 64-bit identity of the input, fixed at scan time: for synthetic
    /// traces the source, duration and seed; for CSV traces each file's
    /// decompressed size and line count plus the function keys in
    /// first-appearance order. Crash-resume snapshots carry it, so a
    /// snapshot cannot resume on a different trace of the same shape.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Replays the construction-time scan timings into a telemetry
    /// recorder as wall spans: one `Scan` span covering the whole scan
    /// pass (arg = number of scanned units), plus one span per unit —
    /// `GzDecompress` for gzip'd files, `Scan` otherwise (arg = unit
    /// index). The spans are anchored so the pass ends at the
    /// recorder's current wall clock; call this right after
    /// constructing the trace.
    pub fn record_scan<R: freedom_telemetry::Recorder>(&self, rec: &mut R) {
        if !R::ENABLED || self.scan.is_empty() {
            return;
        }
        let total = self
            .scan
            .iter()
            .map(|t| t.start_nanos + t.dur_nanos)
            .max()
            .unwrap_or(0);
        let base = rec.now_nanos().saturating_sub(total);
        rec.span_wall_at(
            freedom_telemetry::Span::Scan,
            base,
            total,
            self.scan.len() as u64,
        );
        if self.scan.len() == 1 && !self.scan[0].gz {
            return; // the umbrella span already is the single unit
        }
        for (i, t) in self.scan.iter().enumerate() {
            let kind = if t.gz {
                freedom_telemetry::Span::GzDecompress
            } else {
                freedom_telemetry::Span::Scan
            };
            rec.span_wall_at(kind, base + t.start_nanos, t.dur_nanos, i as u64);
        }
    }

    /// Opens the event stream at position 0.
    pub fn open(&self) -> Result<EventStream<'_>> {
        let imp = match &self.spec {
            StreamSpec::Synthetic {
                source,
                duration_secs,
                seed,
            } => {
                let mut cursors: Vec<GenCursor> = (0..self.n_functions)
                    .map(|f| GenCursor::new(source, *duration_secs, stream_seed(*seed, f)))
                    .collect();
                let pending = cursors.iter_mut().map(GenCursor::next_arrival).collect();
                CpImp::Merge { cursors, pending }
            }
            StreamSpec::Csv { .. } => CpImp::Csv(CsvState::default()),
        };
        self.open_at(&StreamCheckpoint { imp })
    }

    /// Reopens the stream at a checkpoint previously taken from one of
    /// this trace's streams, replaying the identical suffix — the
    /// crash-resumed replay's epoch re-seek. Returns
    /// [`FreedomError::InvalidArgument`] when the checkpoint cannot
    /// belong to this trace: the other stream kind, a cursor count other
    /// than the function count, an open row naming an unknown function
    /// or an exhausted or empty count, or a position past the end of its
    /// file.
    pub fn open_at(&self, cp: &StreamCheckpoint) -> Result<EventStream<'_>> {
        let bad = |what: String| {
            Err(FreedomError::InvalidArgument(format!(
                "stream checkpoint does not belong to this trace: {what}"
            )))
        };
        match (&self.spec, &cp.imp) {
            (StreamSpec::Synthetic { .. }, CpImp::Merge { cursors, pending }) => {
                if cursors.len() != self.n_functions {
                    return bad(format!(
                        "{} generator cursors for {} functions",
                        cursors.len(),
                        self.n_functions
                    ));
                }
                Ok(EventStream {
                    imp: StreamImp::Merge(MergeStream::new(cursors.clone(), pending.clone())),
                })
            }
            (
                StreamSpec::Csv {
                    files,
                    row_fn,
                    chunk,
                },
                CpImp::Csv(state),
            ) => {
                let file = state.file as usize;
                let Some(lines) = row_fn.get(file) else {
                    return bad(format!("file {file} of a {}-file trace", files.len()));
                };
                if state.lineno > lines.len() {
                    return bad(format!(
                        "line {} of a {}-line file",
                        state.lineno,
                        lines.len()
                    ));
                }
                if let Some(row) = state.rows.iter().find(|r| {
                    r.function as usize >= self.n_functions || r.count == 0 || r.j >= r.count
                }) {
                    return bad(format!(
                        "open row of function {} at arrival {} of {} ({} functions)",
                        row.function, row.j, row.count, self.n_functions
                    ));
                }
                Ok(EventStream {
                    imp: StreamImp::Csv(CsvStream {
                        reader: MultiFileLines::open_at(
                            files,
                            file,
                            state.offset,
                            state.lineno,
                            *chunk,
                        )?,
                        row_fn,
                        heap: state.rows.iter().cloned().map(Reverse).collect(),
                        m_max: state.m_max,
                        exhausted: state.exhausted,
                        peak_open: state.rows.len(),
                    }),
                })
            }
            _ => bad("the other trace kind".into()),
        }
    }

    /// The test oracle: builds the fully materialized [`Trace`] of the
    /// same specification, O(events) in memory. Tests diff the streaming
    /// pipeline against it, and it is the pre-decoded input of the
    /// simulation-only reference replay
    /// ([`FleetSimulator::run`](crate::fleet::FleetSimulator::run)).
    pub fn materialize(&self) -> Result<Trace> {
        match &self.spec {
            StreamSpec::Synthetic {
                source,
                duration_secs,
                seed,
            } => source.generate(self.n_functions, *duration_secs, *seed),
            StreamSpec::Csv { files, .. } => {
                let mut text = String::new();
                for (i, file) in files.iter().enumerate() {
                    let raw = match &file.bytes {
                        CsvBytes::Mem(data) => data.to_vec(),
                        CsvBytes::File(path) => {
                            std::fs::read(path).map_err(|e| cannot_read(path, e))?
                        }
                    };
                    let raw = if file.gz {
                        flate::gunzip(&raw).map_err(|e| {
                            qualify_err(
                                FreedomError::InvalidArgument(format!("trace CSV {e}")),
                                &file.label,
                            )
                        })?
                    } else {
                        raw
                    };
                    let mut part = std::str::from_utf8(&raw).map_err(|e| {
                        qualify_err(
                            FreedomError::InvalidArgument(format!("trace CSV {e}")),
                            &file.label,
                        )
                    })?;
                    // Each file may carry its own header (line 0, per
                    // the streaming grammar); the concatenation only
                    // tolerates one at the top, so strip the others with
                    // the exact same header-detection rule.
                    if i > 0 {
                        let first = part.lines().next().unwrap_or("");
                        if !first.trim().is_empty() && matches!(parse_csv_row(first, 0), Ok(None)) {
                            part = match part.split_once('\n') {
                                Some((_, rest)) => rest,
                                None => "",
                            };
                        }
                    }
                    if !text.is_empty() && !text.ends_with('\n') {
                        text.push('\n');
                    }
                    text.push_str(part);
                }
                TraceSource::from_csv(&text)
            }
        }
    }
}

/// A resumable position in an [`EventStream`] — cheap to clone, `Send`,
/// and `O(functions)` (synthetic) or `O(open rows)` (CSV) in size.
#[derive(Debug, Clone)]
pub struct StreamCheckpoint {
    imp: CpImp,
}

impl StreamCheckpoint {
    /// Serializes the checkpoint into a crash-resume snapshot
    /// ([`crate::snapshot`]): per-function generator states and pending
    /// events for synthetic traces, the file index and decompressed
    /// byte offset plus open rows for CSV ones. [`StreamCheckpoint::load`]
    /// restores a checkpoint that [`StreamTrace::open_at`] resumes to
    /// the identical suffix.
    pub(crate) fn save(&self, w: &mut crate::snapshot::Wire) {
        match &self.imp {
            CpImp::Merge { cursors, pending } => {
                w.u8(0);
                w.len(cursors.len());
                for c in cursors {
                    c.save(w);
                }
                debug_assert_eq!(pending.len(), cursors.len());
                for p in pending {
                    match p {
                        None => w.u8(0),
                        Some(t) => {
                            w.u8(1);
                            w.f64(*t);
                        }
                    }
                }
            }
            CpImp::Csv(s) => {
                w.u8(1);
                w.u32(s.file);
                w.u64(s.offset);
                w.u64(s.lineno as u64);
                w.u64(s.m_max);
                w.bool(s.exhausted);
                w.len(s.rows.len());
                for row in &s.rows {
                    w.u64(row.next_bits);
                    w.u32(row.function);
                    w.u64(row.minute);
                    w.u32(row.count);
                    w.u32(row.j);
                }
            }
        }
    }

    /// Restores a checkpoint serialized with [`StreamCheckpoint::save`].
    pub(crate) fn load(r: &mut crate::snapshot::Unwire) -> Result<Self> {
        let imp = match r.u8()? {
            0 => {
                let n = r.len(GenCursor::MIN_WIRE_BYTES + 1)?;
                let mut cursors = Vec::with_capacity(n);
                for _ in 0..n {
                    cursors.push(GenCursor::load(r)?);
                }
                let mut pending = Vec::with_capacity(n);
                for _ in 0..n {
                    pending.push(match r.u8()? {
                        0 => None,
                        1 => Some(r.f64()?),
                        tag => {
                            return Err(FreedomError::InvalidArgument(format!(
                                "snapshot: invalid pending-event tag {tag}"
                            )))
                        }
                    });
                }
                CpImp::Merge { cursors, pending }
            }
            1 => {
                let file = r.u32()?;
                let offset = r.u64()?;
                let lineno = r.u64()? as usize;
                let m_max = r.u64()?;
                let exhausted = r.bool()?;
                let n = r.len(28)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(OpenRow {
                        next_bits: r.u64()?,
                        function: r.u32()?,
                        minute: r.u64()?,
                        count: r.u32()?,
                        j: r.u32()?,
                    });
                }
                CpImp::Csv(CsvState {
                    file,
                    offset,
                    lineno,
                    m_max,
                    rows,
                    exhausted,
                })
            }
            tag => {
                return Err(FreedomError::InvalidArgument(format!(
                    "snapshot: unknown stream-checkpoint tag {tag}"
                )))
            }
        };
        Ok(Self { imp })
    }
}

#[derive(Debug, Clone)]
enum CpImp {
    Merge {
        cursors: Vec<GenCursor>,
        pending: Vec<Option<f64>>,
    },
    Csv(CsvState),
}

/// The CSV reader's resumable state.
#[derive(Debug, Clone, Default)]
struct CsvState {
    /// Index of the file holding the first unread line.
    file: u32,
    /// Decompressed byte offset of that line within its file.
    offset: u64,
    /// 0-based index of that line within its file.
    lineno: usize,
    m_max: u64,
    rows: Vec<OpenRow>,
    exhausted: bool,
}

/// A lazily-merged view of one trace's events, in the materialized
/// order: time ascending, ties broken by lower function index.
pub struct EventStream<'a> {
    imp: StreamImp<'a>,
}

// One `EventStream` lives per replay, so the size spread between the
// generator merge and the CSV reader is irrelevant — boxing would only
// add a pointer hop to the per-event dispatch.
#[allow(clippy::large_enum_variant)]
enum StreamImp<'a> {
    Merge(MergeStream),
    Csv(CsvStream<'a>),
}

impl<'a> EventStream<'a> {
    /// The next event without consuming it. May read ahead (CSV rows,
    /// generator draws) but never emits.
    pub fn peek(&mut self) -> Option<TraceEvent> {
        match &mut self.imp {
            StreamImp::Merge(m) => m.peek(),
            StreamImp::Csv(c) => c.ready(),
        }
    }

    /// Consumes and returns the next event.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<TraceEvent> {
        match &mut self.imp {
            StreamImp::Merge(m) => m.next(),
            StreamImp::Csv(c) => c.next(),
        }
    }

    /// Captures the current position for [`StreamTrace::open_at`].
    pub fn checkpoint(&self) -> StreamCheckpoint {
        match &self.imp {
            StreamImp::Merge(m) => StreamCheckpoint {
                imp: CpImp::Merge {
                    cursors: m.cursors.clone(),
                    pending: m.pending.clone(),
                },
            },
            StreamImp::Csv(c) => StreamCheckpoint {
                imp: CpImp::Csv(CsvState {
                    file: c.reader.file_idx() as u32,
                    offset: c.reader.offset(),
                    lineno: c.reader.lineno(),
                    m_max: c.m_max,
                    rows: c.heap.iter().map(|Reverse(r)| *r).collect(),
                    exhausted: c.exhausted,
                }),
            },
        }
    }

    /// Draining iterator over the remaining events.
    pub fn events<'s>(&'s mut self) -> impl Iterator<Item = TraceEvent> + use<'s, 'a> {
        std::iter::from_fn(move || self.next())
    }

    /// Peak number of events this stream ever held resident: one pending
    /// arrival per cursor (synthetic) or the open rows of the lookahead
    /// window (CSV). The "cursor lookahead" term of the replay's
    /// peak-memory bound.
    pub fn peak_resident(&self) -> usize {
        match &self.imp {
            StreamImp::Merge(m) => m.cursors.len(),
            StreamImp::Csv(c) => c.peak_open,
        }
    }
}

/// K-way heap merge over per-function generator cursors — the lazy
/// equivalent of `Trace::from_streams`, with the identical
/// `(time bits, function index)` heap key and tie-break.
struct MergeStream {
    cursors: Vec<GenCursor>,
    /// Each cursor's generated-but-unconsumed arrival; mirrors the heap
    /// so checkpoints can capture it without draining.
    pending: Vec<Option<f64>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl MergeStream {
    fn new(cursors: Vec<GenCursor>, pending: Vec<Option<f64>>) -> Self {
        let heap = pending
            .iter()
            .enumerate()
            .filter_map(|(f, &t)| t.map(|t| Reverse((t.to_bits(), f))))
            .collect();
        Self {
            cursors,
            pending,
            heap,
        }
    }

    fn peek(&self) -> Option<TraceEvent> {
        self.heap.peek().map(|&Reverse((bits, f))| TraceEvent {
            at_secs: f64::from_bits(bits),
            function: f,
        })
    }

    fn next(&mut self) -> Option<TraceEvent> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((bits, f)) = *top;
        let refill = self.cursors[f].next_arrival();
        self.pending[f] = refill;
        // Replace-top + one sift instead of pop + push: the refilled
        // cursor usually stays near the front, so this halves the heap
        // work on the hot path.
        match refill {
            Some(t) => *top = Reverse((t.to_bits(), f)),
            None => {
                std::collections::binary_heap::PeekMut::pop(top);
            }
        }
        Some(TraceEvent {
            at_secs: f64::from_bits(bits),
            function: f,
        })
    }
}

/// One partially-emitted CSV row in the reader's lookahead window.
///
/// Ordering is by `(next event time bits, function, minute, count,
/// progress)` — the first two fields reproduce the merge tie-break;
/// the rest only make the order total (equal-keyed rows emit identical
/// events, so their relative order is unobservable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct OpenRow {
    next_bits: u64,
    function: u32,
    minute: u64,
    count: u32,
    j: u32,
}

/// Parses the trailing `,minute,count` of a scan-validated data row
/// without splitting, trimming, or revalidating the leading string
/// columns. Returns `None` when either field is not a plain unsigned
/// integer (header row, blank line) — the caller falls back to the
/// shared validating parser for those.
#[inline]
fn fast_minute_count(bytes: &[u8]) -> Option<(u64, u64)> {
    let mut last = None;
    let mut second = None;
    for i in (0..bytes.len()).rev() {
        if bytes[i] == b',' {
            match last {
                None => last = Some(i),
                Some(_) => {
                    second = Some(i);
                    break;
                }
            }
        }
    }
    let (m_start, c_start) = (second?, last?);
    let minute = parse_u64_trimmed(&bytes[m_start + 1..c_start])?;
    let count = parse_u64_trimmed(&bytes[c_start + 1..])?;
    if count > crate::trace::MAX_COUNT_PER_MINUTE {
        // Scan-validated rows never exceed the cap; route changed bytes
        // to the validating parser so they fail loudly.
        return None;
    }
    Some((minute, count))
}

/// `u64` from ASCII digits with surrounding spaces/tabs/CR allowed,
/// mirroring the `str::trim` + `parse` the validating parser applies
/// per column; `None` on anything else (including overflow).
#[inline]
fn parse_u64_trimmed(mut s: &[u8]) -> Option<u64> {
    while let [b' ' | b'\t' | b'\r', rest @ ..] = s {
        s = rest;
    }
    while let [rest @ .., b' ' | b'\t' | b'\r'] = s {
        s = rest;
    }
    if s.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &c in s {
        if !c.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
    }
    Some(v)
}

/// Line-by-line CSV event source with bounded minute lookahead.
struct CsvStream<'a> {
    reader: MultiFileLines<'a>,
    /// Dense per-file line → function tables from the scan pass: the
    /// replay resolves a row's function with one array load.
    row_fn: &'a [Vec<u32>],
    heap: BinaryHeap<Reverse<OpenRow>>,
    /// Highest minute seen so far (across file seams); events before
    /// `60·(m_max − lookahead)` can no longer be preempted by unread
    /// rows and are safe to emit.
    m_max: u64,
    exhausted: bool,
    peak_open: usize,
}

impl CsvStream<'_> {
    fn frontier_secs(&self) -> f64 {
        self.m_max.saturating_sub(CSV_LOOKAHEAD_MINUTES) as f64 * 60.0
    }

    /// Reads rows until the heap top is safe to emit (or input ends);
    /// returns it without consuming.
    fn ready(&mut self) -> Option<TraceEvent> {
        loop {
            if let Some(Reverse(top)) = self.heap.peek() {
                let t = f64::from_bits(top.next_bits);
                if self.exhausted || t < self.frontier_secs() {
                    return Some(TraceEvent {
                        at_secs: t,
                        function: top.function as usize,
                    });
                }
            } else if self.exhausted {
                return None;
            }
            self.read_row();
        }
    }

    fn next(&mut self) -> Option<TraceEvent> {
        let event = self.ready()?;
        let mut top = self.heap.peek_mut().expect("ready implies a top");
        let row = &mut top.0;
        row.j += 1;
        if row.j < row.count {
            // Re-key in place: dropping the guard sifts once, versus the
            // two full heap walks of a pop + push. Emission order cannot
            // change — the heap's order is total (ties only between
            // entries that would emit identical events), so the minimum
            // popped next is the same whichever way the tree rebalances.
            row.next_bits = minute_event(row.minute, row.j as u64, row.count as u64).to_bits();
        } else {
            std::collections::binary_heap::PeekMut::pop(top);
        }
        Some(event)
    }

    /// Reads one more row into the lookahead window. The scan pass
    /// already validated the whole input, so a failure here means the
    /// bytes changed between scan and replay — an environment error the
    /// replay cannot recover from mid-simulation.
    fn read_row(&mut self) {
        let line = self
            .reader
            .next_line()
            .expect("trace CSV changed between scan and replay");
        let Some((lineno, line)) = line else {
            self.exhausted = true;
            return;
        };
        // The replay only needs the numeric columns — the function index
        // comes from the scan's dense table — so parse `minute,count`
        // straight off the last two comma-separated fields. Anything the
        // fast path cannot read numerically (the header, blank lines)
        // goes through the shared validating parser, which classifies it
        // exactly as the scan pass did or panics on changed bytes.
        let (minute, count) = match fast_minute_count(line.as_bytes()) {
            Some(mc) => mc,
            None => {
                let Some(row) =
                    parse_csv_row(line, lineno).expect("trace CSV validated at scan time")
                else {
                    return;
                };
                (row.minute, row.count)
            }
        };
        assert!(
            minute.saturating_add(CSV_LOOKAHEAD_MINUTES) >= self.m_max,
            "trace CSV changed between scan and replay: line {} breaks the lookahead bound",
            lineno + 1
        );
        self.m_max = self.m_max.max(minute);
        if count == 0 {
            return;
        }
        let function = self.row_fn[self.reader.file_idx()][lineno];
        debug_assert_ne!(
            function,
            u32::MAX,
            "trace CSV validated at scan time: line {} is a data row",
            lineno + 1
        );
        self.heap.push(Reverse(OpenRow {
            next_bits: minute_event(minute, 0, count).to_bits(),
            function,
            minute,
            count: count as u32,
            j: 0,
        }));
        self.peak_open = self.peak_open.max(self.heap.len());
    }
}

/// Sequential line reader over a file list: drains one [`ChunkedLines`]
/// per file, advancing across seams transparently. Line numbers and
/// byte offsets are per-file, so checkpoints record `(file, offset,
/// lineno)` and errors attribute the exact file.
struct MultiFileLines<'a> {
    files: &'a [CsvFile],
    chunk: usize,
    file_idx: usize,
    cur: ChunkedLines,
}

impl<'a> MultiFileLines<'a> {
    fn open_at(
        files: &'a [CsvFile],
        file_idx: usize,
        offset: u64,
        lineno: usize,
        chunk: usize,
    ) -> Result<Self> {
        Ok(Self {
            files,
            chunk,
            file_idx,
            cur: ChunkedLines::open(&files[file_idx], offset, lineno, chunk)?,
        })
    }

    fn file_idx(&self) -> usize {
        self.file_idx
    }

    /// Decompressed byte offset of the next unread line in its file.
    fn offset(&self) -> u64 {
        self.cur.offset()
    }

    /// 0-based line number of the next unread line in its file.
    fn lineno(&self) -> usize {
        self.cur.lineno()
    }

    /// The next `(per-file lineno, line)` across all files, or `None`
    /// after the last line of the last file.
    fn next_line(&mut self) -> Result<Option<(usize, &str)>> {
        loop {
            if self.cur.fill_line()? {
                break;
            }
            if self.file_idx + 1 >= self.files.len() {
                return Ok(None);
            }
            self.file_idx += 1;
            self.cur = ChunkedLines::open(&self.files[self.file_idx], 0, 0, self.chunk)?;
        }
        self.cur.take_line().map(Some)
    }
}

/// The decompressed-byte feed behind a [`ChunkedLines`].
enum ChunkSrc {
    /// Plain bytes, read straight from the raw source.
    Plain(ByteSrc),
    /// Gzip decode, inline with line splitting. Boxed: the inflater's
    /// window dwarfs the other variant, and the feed is touched once
    /// per chunk, not per event.
    Gz(Box<GzFeed>),
}

/// Raw (possibly compressed) byte source: fills the buffer, returns the
/// bytes written, 0 at the end.
type ByteSrc = Box<dyn FnMut(&mut [u8]) -> std::result::Result<usize, String> + Send>;

/// The raw bytes of one input from byte `start` on. A start past the end
/// is an error, never a silent clamp.
fn raw_src(file: &CsvFile, start: u64) -> Result<ByteSrc> {
    let past_end = |len: u64| {
        FreedomError::InvalidArgument(format!(
            "{}: resume offset {start} is past the end of the input ({len} bytes)",
            csv_name(&file.label)
        ))
    };
    match &file.bytes {
        CsvBytes::Mem(data) => {
            if start > data.len() as u64 {
                return Err(past_end(data.len() as u64));
            }
            let data = Arc::clone(data);
            let mut read = start as usize;
            Ok(Box::new(move |buf: &mut [u8]| {
                let n = (data.len() - read).min(buf.len());
                buf[..n].copy_from_slice(&data[read..read + n]);
                read += n;
                Ok(n)
            }))
        }
        CsvBytes::File(path) => {
            let mut f = std::fs::File::open(path).map_err(|e| cannot_read(path, e))?;
            let len = f.metadata().map_err(|e| cannot_read(path, e))?.len();
            if start > len {
                return Err(past_end(len));
            }
            f.seek(SeekFrom::Start(start))
                .map_err(|e| cannot_read(path, e))?;
            Ok(Box::new(move |buf: &mut [u8]| {
                f.read(buf).map_err(|e| e.to_string())
            }))
        }
    }
}

struct GzFeed {
    reader: flate::GzReader<ByteSrc>,
    done: bool,
}

impl GzFeed {
    fn new(file: &CsvFile) -> Result<Self> {
        Ok(Self {
            reader: flate::GzReader::new(raw_src(file, 0)?),
            done: false,
        })
    }

    /// Decompresses and discards `offset` bytes (a checkpoint re-seek
    /// into the middle of a gzip member has to re-inflate its prefix);
    /// returns any decompressed bytes read past the offset.
    fn skip(&mut self, offset: u64, chunk: usize) -> std::result::Result<Vec<u8>, String> {
        let mut consumed = 0u64;
        let mut scratch = Vec::new();
        while consumed < offset {
            scratch.clear();
            let more = self
                .reader
                .read_chunk(&mut scratch, chunk)
                .map_err(|e| e.to_string())?;
            let got = scratch.len() as u64;
            if consumed + got > offset {
                let keep = (consumed + got - offset) as usize;
                return Ok(scratch.split_off(scratch.len() - keep));
            }
            consumed += got;
            if !more {
                self.done = true;
                if consumed < offset {
                    return Err(format!(
                        "resume offset {offset} is beyond the decompressed stream \
                         ({consumed} bytes)"
                    ));
                }
            }
        }
        Ok(Vec::new())
    }
}

/// Chunked line reader over in-memory, file-backed, or gzip'd bytes:
/// reads fixed-size chunks, assembles lines across chunk boundaries,
/// and tracks the (decompressed) byte offset and 0-based line number of
/// the next unread line so checkpoints can re-seek exactly. Lines are
/// borrowed from the internal buffer — the steady-state read path
/// allocates nothing per line.
struct ChunkedLines {
    src: ChunkSrc,
    /// Bytes read but not yet emitted as lines; `buf[..pos]` is
    /// consumed.
    buf: Vec<u8>,
    pos: usize,
    /// Absolute (decompressed) offset of `buf[pos]`.
    offset: u64,
    lineno: usize,
    chunk: usize,
    eof: bool,
    label: String,
    /// Located but unconsumed line: `(end, newline bytes to skip)`.
    ready: Option<(usize, usize)>,
}

impl ChunkedLines {
    fn open(file: &CsvFile, offset: u64, lineno: usize, chunk: usize) -> Result<Self> {
        let mut buf = Vec::new();
        let src = if file.gz {
            let mut feed = GzFeed::new(file)?;
            if offset > 0 {
                buf = feed.skip(offset, chunk.max(1)).map_err(|msg| {
                    FreedomError::InvalidArgument(format!(
                        "{}: {msg}",
                        csv_line_prefix(&file.label, lineno)
                    ))
                })?;
            }
            ChunkSrc::Gz(Box::new(feed))
        } else {
            ChunkSrc::Plain(raw_src(file, offset)?)
        };
        Ok(Self {
            src,
            buf,
            pos: 0,
            offset,
            lineno,
            chunk: chunk.max(1),
            eof: false,
            label: file.label.clone(),
            ready: None,
        })
    }

    /// (Decompressed) byte offset of the next unread line.
    fn offset(&self) -> u64 {
        self.offset
    }

    /// 0-based index of the next unread line.
    fn lineno(&self) -> usize {
        self.lineno
    }

    /// Locates the next line without consuming it; `false` at end of
    /// input. Idempotent until [`ChunkedLines::take_line`].
    fn fill_line(&mut self) -> Result<bool> {
        if self.ready.is_some() {
            return Ok(true);
        }
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                self.ready = Some((self.pos + nl, 1));
                return Ok(true);
            }
            if self.eof {
                if self.pos < self.buf.len() {
                    self.ready = Some((self.buf.len(), 0));
                    return Ok(true);
                }
                return Ok(false);
            }
            self.refill()?;
        }
    }

    /// Consumes the line located by [`ChunkedLines::fill_line`],
    /// borrowing it from the internal buffer (no per-line allocation).
    /// The final line may lack a trailing newline, exactly like
    /// `str::lines`; a `\r` before the newline is stripped.
    fn take_line(&mut self) -> Result<(usize, &str)> {
        let (end, skip) = self.ready.take().expect("fill_line located a line");
        let mut bytes = &self.buf[self.pos..end];
        if skip > 0 && bytes.last() == Some(&b'\r') {
            bytes = &bytes[..bytes.len() - 1];
        }
        let lineno = self.lineno;
        self.offset += (end + skip - self.pos) as u64;
        let start = self.pos;
        self.pos = end + skip;
        self.lineno += 1;
        let line = std::str::from_utf8(&self.buf[start..start + bytes.len()]).map_err(|e| {
            FreedomError::InvalidArgument(format!(
                "{}: invalid UTF-8: {e}",
                csv_line_prefix(&self.label, lineno)
            ))
        })?;
        Ok((lineno, line))
    }

    /// Convenience for scan loops: locate and consume in one call.
    fn next_line(&mut self) -> Result<Option<(usize, &str)>> {
        if !self.fill_line()? {
            return Ok(None);
        }
        self.take_line().map(Some)
    }

    fn gz_err(&self, msg: &str) -> FreedomError {
        FreedomError::InvalidArgument(format!(
            "{} near line {}: {msg}",
            csv_name(&self.label),
            self.lineno + 1
        ))
    }

    fn refill(&mut self) -> Result<()> {
        // Drop the consumed prefix before growing the carry.
        self.buf.drain(..self.pos);
        self.pos = 0;
        match &mut self.src {
            ChunkSrc::Plain(src) => {
                let start = self.buf.len();
                self.buf.resize(start + self.chunk, 0);
                let n = src(&mut self.buf[start..])
                    .map_err(|e| FreedomError::InvalidArgument(format!("trace CSV read: {e}")))?;
                self.buf.truncate(start + n);
                if n == 0 {
                    self.eof = true;
                }
            }
            ChunkSrc::Gz(feed) => {
                if feed.done {
                    self.eof = true;
                } else {
                    let before = self.buf.len();
                    let chunk = self.chunk;
                    let more = match feed.reader.read_chunk(&mut self.buf, chunk) {
                        Ok(more) => more,
                        Err(e) => {
                            let msg = e.to_string();
                            return Err(self.gz_err(&msg));
                        }
                    };
                    if !more {
                        feed.done = true;
                        if self.buf.len() == before {
                            self.eof = true;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Events per pipeline batch: large enough that the per-batch hand-off
/// (two channel operations) vanishes against the events' simulation
/// cost, small enough that the pool stays a few hundred KiB.
const BATCH_EVENTS: usize = 4096;

/// Batches in the pipeline's fixed pool: the ingest thread runs at most
/// `PIPELINE_DEPTH × BATCH_EVENTS` events ahead of the simulation.
const PIPELINE_DEPTH: usize = 4;

/// One filled batch: events in stream order, and — when the batch
/// closes an epoch — the stream checkpoint at that boundary, i.e. the
/// position right after the batch's last event.
struct Batch {
    events: Vec<TraceEvent>,
    checkpoint: Option<StreamCheckpoint>,
}

/// The simulation side of a pipelined replay: iterates the ingest
/// thread's batches in order and returns each drained buffer to the
/// pool.
pub(crate) struct Batches {
    full: Receiver<Batch>,
    free: SyncSender<Vec<TraceEvent>>,
    events: Vec<TraceEvent>,
    pos: usize,
    /// The checkpoint closing the current epoch, held until
    /// [`Batches::take_checkpoint`] so the epoch's iterator stops there.
    checkpoint: Option<StreamCheckpoint>,
    waits: u64,
}

impl Batches {
    /// The next event of the current epoch: `None` at an epoch boundary
    /// (until its checkpoint is taken) and once the stream is
    /// exhausted. With a live recorder (`R::ENABLED`), counts the
    /// batches that were not ready when the simulation asked for them;
    /// under `NoopRecorder` the count compiles away.
    pub(crate) fn next_event<R: freedom_telemetry::Recorder>(&mut self) -> Option<TraceEvent> {
        loop {
            if let Some(&e) = self.events.get(self.pos) {
                self.pos += 1;
                return Some(e);
            }
            if self.checkpoint.is_some() {
                return None;
            }
            let mut drained = std::mem::take(&mut self.events);
            self.pos = 0;
            if drained.capacity() > 0 {
                drained.clear();
                // Fails only once the ingest thread is gone.
                let _ = self.free.send(drained);
            }
            let batch = match self.full.try_recv() {
                Ok(batch) => batch,
                Err(TryRecvError::Empty) => {
                    if R::ENABLED {
                        self.waits += 1;
                    }
                    self.full.recv().ok()?
                }
                Err(TryRecvError::Disconnected) => return None,
            };
            self.events = batch.events;
            self.checkpoint = batch.checkpoint;
        }
    }

    /// The stream checkpoint of the epoch boundary the iterator stopped
    /// at; `None` when it stopped because the ingest thread ended.
    pub(crate) fn take_checkpoint(&mut self) -> Option<StreamCheckpoint> {
        debug_assert_eq!(self.pos, self.events.len(), "epoch drained first");
        self.checkpoint.take()
    }

    /// Batches the simulation had to wait for since the last call.
    pub(crate) fn take_waits(&mut self) -> u64 {
        std::mem::take(&mut self.waits)
    }
}

/// Runs `consume` against `stream` split into two stages: a scoped
/// ingest thread owns the stream (inflate, CSV parse, k-way merge) and
/// fills batches from a fixed, preallocated pool, while `consume` reads
/// them on the calling thread through [`Batches`]. Both directions are
/// bounded channels, so the steady state allocates nothing.
///
/// `boundaries` are ascending epoch boundaries in nanoseconds: before
/// the first event at or after each one — or at the end of the stream —
/// the ingest thread closes the current batch with the checkpoint of
/// that exact position, so an epoch with no events still gets one.
///
/// Returns `consume`'s result and the stream's peak resident events.
/// When `consume` returns early, dropping its end of the channels
/// unblocks the ingest thread, which the scope then joins. A panic on
/// the ingest thread (the trace changed between scan and replay) is
/// re-raised on the caller.
pub(crate) fn pipelined<T>(
    mut stream: EventStream<'_>,
    boundaries: impl Iterator<Item = u64> + Send,
    consume: impl FnOnce(&mut Batches) -> T,
) -> (T, usize) {
    let (full_tx, full_rx) = sync_channel::<Batch>(PIPELINE_DEPTH);
    let (free_tx, free_rx) = sync_channel::<Vec<TraceEvent>>(PIPELINE_DEPTH);
    for _ in 0..PIPELINE_DEPTH {
        free_tx
            .send(Vec::with_capacity(BATCH_EVENTS))
            .expect("the pool fits its channel");
    }
    std::thread::scope(|s| {
        let ingest = s.spawn(move || {
            let mut boundaries = boundaries.peekable();
            // `None` once the simulation side hung up.
            let emit = |events: Vec<TraceEvent>, checkpoint| {
                full_tx.send(Batch { events, checkpoint }).ok()?;
                free_rx.recv().ok()
            };
            let Ok(mut events) = free_rx.recv() else {
                return stream.peak_resident();
            };
            loop {
                // Peek only while a boundary is pending: its checkpoint
                // is the position before the first event at or after it.
                if let Some(&b) = boundaries.peek() {
                    if stream.peek().is_none_or(|e| event_nanos(e.at_secs) >= b) {
                        boundaries.next();
                        let Some(buf) = emit(events, Some(stream.checkpoint())) else {
                            break;
                        };
                        events = buf;
                        continue;
                    }
                }
                let Some(event) = stream.next() else {
                    if !events.is_empty() {
                        let _ = full_tx.send(Batch {
                            events,
                            checkpoint: None,
                        });
                    }
                    break;
                };
                events.push(event);
                if events.len() == BATCH_EVENTS {
                    let Some(buf) = emit(events, None) else {
                        break;
                    };
                    events = buf;
                }
            }
            stream.peak_resident()
        });
        let mut batches = Batches {
            full: full_rx,
            free: free_tx,
            events: Vec::new(),
            pos: 0,
            checkpoint: None,
            waits: 0,
        };
        let out = consume(&mut batches);
        drop(batches);
        match ingest.join() {
            Ok(peak) => (out, peak),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flate::{gzip_compress, CompressMode};

    const SOURCES: [TraceSource; 4] = [
        TraceSource::Poisson {
            rps_per_function: 0.8,
        },
        TraceSource::Bursty {
            calm_rps: 0.2,
            burst_rps: 4.0,
            mean_calm_secs: 40.0,
            mean_burst_secs: 5.0,
        },
        TraceSource::Diurnal {
            mean_rps: 0.8,
            peak_to_trough: 4.0,
            period_secs: 120.0,
        },
        TraceSource::HeavyTail {
            mean_rps: 0.8,
            alpha: 1.5,
        },
    ];

    const AZURE_FIXTURE: &str = include_str!("../testdata/azure_sample.csv");
    /// Golden gzip fixture: `azure_sample.csv` compressed with a
    /// reference implementation (dynamic-Huffman blocks) — known bytes
    /// that must decode to known rows.
    const AZURE_FIXTURE_GZ: &[u8] = include_bytes!("../testdata/azure_sample.csv.gz");

    fn drain(stream: &mut EventStream<'_>) -> Vec<TraceEvent> {
        stream.events().collect()
    }

    /// A single in-memory CSV input.
    fn csv(text: &str) -> Result<StreamTrace> {
        StreamTrace::from_csv_parts(&[text.as_bytes()])
    }

    fn csv_chunked(text: &str, chunk: usize) -> Result<StreamTrace> {
        StreamTrace::from_csv_parts_chunked(&[text.as_bytes()], chunk)
    }

    #[test]
    fn every_source_streams_the_materialized_events_bit_for_bit() {
        for source in SOURCES {
            let lazy = StreamTrace::generate(source, 10, 200.0, 7).unwrap();
            let full = lazy.materialize().unwrap();
            assert_eq!(lazy.n_functions(), full.n_functions(), "{source:?}");
            assert_eq!(lazy.len(), full.len(), "{source:?}");
            assert_eq!(
                lazy.horizon_nanos(),
                event_nanos(full.events().last().unwrap().at_secs),
                "{source:?}"
            );
            let events = drain(&mut lazy.open().unwrap());
            assert_eq!(events.as_slice(), full.events(), "{source:?}");
        }
    }

    #[test]
    fn checkpoints_replay_identical_suffixes() {
        let lazy = StreamTrace::generate(SOURCES[3], 6, 120.0, 3).unwrap();
        let mut stream = lazy.open().unwrap();
        let all = drain(&mut lazy.open().unwrap());
        for split in [0usize, 1, 7, all.len() - 1, all.len()] {
            let mut stream2 = lazy.open().unwrap();
            for _ in 0..split {
                stream2.next();
            }
            let cp = stream2.checkpoint();
            // Rewind twice: the checkpoint is reusable, not consumed.
            for _ in 0..2 {
                let suffix = drain(&mut lazy.open_at(&cp).unwrap());
                assert_eq!(suffix.as_slice(), &all[split..], "split at {split}");
            }
        }
        // A checkpoint taken after peeking is position-identical to one
        // taken before.
        stream.next();
        let before = stream.checkpoint();
        stream.peek();
        let after = stream.checkpoint();
        assert_eq!(
            drain(&mut lazy.open_at(&before).unwrap()),
            drain(&mut lazy.open_at(&after).unwrap()),
        );
    }

    #[test]
    fn csv_stream_matches_materialized_reader() {
        for chunk in [3usize, 17, 64 * 1024] {
            let lazy = csv_chunked(AZURE_FIXTURE, chunk).unwrap();
            let full = TraceSource::from_csv(AZURE_FIXTURE).unwrap();
            assert_eq!(lazy.n_functions(), 6);
            assert_eq!(lazy.len(), 113);
            assert_eq!(
                lazy.horizon_nanos(),
                event_nanos(full.events().last().unwrap().at_secs)
            );
            let events = drain(&mut lazy.open().unwrap());
            assert_eq!(events.as_slice(), full.events(), "chunk {chunk}");
            // Mid-stream checkpoints re-seek exactly, and the lookahead
            // stays bounded by the open rows.
            let mut stream = lazy.open().unwrap();
            for _ in 0..40 {
                stream.next();
            }
            let cp = stream.checkpoint();
            let suffix = drain(&mut lazy.open_at(&cp).unwrap());
            assert_eq!(suffix.as_slice(), &events[40..]);
            assert!(lazy.open().unwrap().peak_resident() <= AZURE_FIXTURE.lines().count());
        }
    }

    #[test]
    fn csv_negative_paths_report_accurate_line_numbers() {
        let err = |csv: &str, chunk: usize| match csv_chunked(csv, chunk) {
            Err(FreedomError::InvalidArgument(msg)) => msg,
            other => panic!("expected InvalidArgument, got {other:?}"),
        };
        // A truncated final line — the file ends mid-record, no trailing
        // newline — is a malformed row at its own line number, even when
        // the chunk boundary lands inside it.
        for chunk in [1usize, 4, 1 << 16] {
            let msg = err("a,f,0,3\nb,g,1,2\na,f,2", chunk);
            assert!(msg.contains("line 3"), "chunk {chunk}: {msg}");
            assert!(msg.contains("4 columns"), "chunk {chunk}: {msg}");
        }
        // A record split mid-field across a chunk boundary still parses
        // as one line; when malformed, the error names that line.
        for chunk in 1..12 {
            let msg = err("a,f,0,3\na,f,1,not-a-count\na,f,2,1\n", chunk);
            assert!(msg.contains("line 2"), "chunk {chunk}: {msg}");
        }
        // Functions interleaved out of minute order across chunk
        // boundaries stream fine within the lookahead bound...
        let ok = "a,f,9,1\nb,g,2,1\na,f,10,1\n";
        let lazy = csv_chunked(ok, 5).unwrap();
        let full = TraceSource::from_csv(ok).unwrap();
        assert_eq!(drain(&mut lazy.open().unwrap()).as_slice(), full.events());
        // ...but beyond it the scan rejects the file with the offending
        // line, while the materialized reader still accepts it.
        let disordered = "a,f,30,1\nb,g,2,1\n";
        let msg = err(disordered, 4);
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("lookahead"), "{msg}");
        assert!(TraceSource::from_csv(disordered).is_ok());
        // Scan-time grammar errors match the materialized reader's.
        assert!(csv("").is_err());
        assert!(csv("app,func,minute,count\n").is_err());
        assert!(csv("a,f,0,1000001\n").is_err());
        assert!(StreamTrace::from_csv_files(&["/nonexistent/trace.csv"]).is_err());
        assert!(StreamTrace::from_csv_parts(&[]).is_err());
    }

    #[test]
    fn csv_streaming_handles_headers_zero_counts_and_crlf() {
        // Header skipped, zero-count rows register their function, CRLF
        // endings tolerated — all matching the materialized reader.
        let text = "app,func,minute,count\r\na,f,0,3\r\nb,g,1,0\r\n";
        let lazy = csv(text).unwrap();
        assert_eq!(lazy.n_functions(), 2);
        assert_eq!(lazy.len(), 3);
        let full = TraceSource::from_csv(text).unwrap();
        assert_eq!(drain(&mut lazy.open().unwrap()).as_slice(), full.events());
        // An empty trace of registered functions is well-formed.
        let empty = csv("a,f,0,0\n").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.horizon_nanos(), 0);
        assert!(drain(&mut empty.open().unwrap()).is_empty());
    }

    #[test]
    fn file_backed_streams_checkpoint_and_reopen() {
        let dir = std::env::temp_dir().join(format!("freedom_stream_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("azure.csv");
        std::fs::write(&path, AZURE_FIXTURE).unwrap();
        let lazy = StreamTrace::from_csv_files(&[&path]).unwrap();
        let full = TraceSource::from_csv(AZURE_FIXTURE).unwrap();
        let events = drain(&mut lazy.open().unwrap());
        assert_eq!(events.as_slice(), full.events());
        let mut stream = lazy.open().unwrap();
        for _ in 0..25 {
            stream.next();
        }
        let cp = stream.checkpoint();
        assert_eq!(
            drain(&mut lazy.open_at(&cp).unwrap()).as_slice(),
            &events[25..]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_kind_mismatch_is_rejected() {
        let synthetic = StreamTrace::generate(SOURCES[0], 3, 30.0, 1).unwrap();
        let csv = csv("a,f,0,2\n").unwrap();
        let cp = synthetic.open().unwrap().checkpoint();
        assert!(csv.open_at(&cp).is_err());
        let cp = csv.open().unwrap().checkpoint();
        assert!(synthetic.open_at(&cp).is_err());
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_with_typed_errors() {
        let rejects =
            |trace: &StreamTrace, cp: &StreamCheckpoint, what: &str| match trace.open_at(cp) {
                Err(FreedomError::InvalidArgument(_)) => {}
                Err(other) => panic!("{what}: expected InvalidArgument, got {other:?}"),
                Ok(_) => panic!("{what}: corrupt checkpoint accepted"),
            };
        // Synthetic: one cursor per function, no more, no less.
        let synthetic = StreamTrace::generate(SOURCES[0], 3, 30.0, 1).unwrap();
        let good = synthetic.open().unwrap().checkpoint();
        assert!(synthetic.open_at(&good).is_ok());
        let CpImp::Merge { cursors, pending } = &good.imp else {
            unreachable!("synthetic traces checkpoint their cursors")
        };
        for n in [2, 4] {
            let cp = StreamCheckpoint {
                imp: CpImp::Merge {
                    cursors: cursors.iter().cycle().take(n).cloned().collect(),
                    pending: pending.iter().cycle().take(n).copied().collect(),
                },
            };
            rejects(&synthetic, &cp, &format!("{n} cursors"));
        }
        // CSV: a real mid-stream checkpoint with open rows, each field
        // corrupted in turn.
        let trace = csv_chunked(AZURE_FIXTURE, 17).unwrap();
        let mut stream = trace.open().unwrap();
        for _ in 0..40 {
            stream.next();
        }
        let good = stream.checkpoint();
        assert!(trace.open_at(&good).is_ok());
        let CpImp::Csv(state) = &good.imp else {
            unreachable!("CSV traces checkpoint their reader")
        };
        assert!(!state.rows.is_empty(), "the checkpoint holds open rows");
        let corrupt = |edit: &dyn Fn(&mut CsvState)| {
            let mut state = state.clone();
            edit(&mut state);
            StreamCheckpoint {
                imp: CpImp::Csv(state),
            }
        };
        let n = trace.n_functions() as u32;
        let lines = AZURE_FIXTURE.lines().count();
        let check = |what: &str, edit: &dyn Fn(&mut CsvState)| {
            rejects(&trace, &corrupt(edit), what);
        };
        check("unknown function", &|s| s.rows[0].function = n);
        check("zero count", &|s| {
            s.rows[0].count = 0;
            s.rows[0].j = 0;
        });
        check("exhausted row", &|s| s.rows[0].j = s.rows[0].count);
        check("line past the file", &|s| s.lineno = lines + 1);
        check("file past the list", &|s| s.file = 1);
        check("offset past the part", &|s| {
            s.offset = AZURE_FIXTURE.len() as u64 + 1
        });
        // The end of the input is a valid position, not a corruption.
        let at_end = corrupt(&|s| {
            s.offset = AZURE_FIXTURE.len() as u64;
            s.lineno = lines;
        });
        assert!(trace.open_at(&at_end).is_ok());
    }

    // ---- gzip and multi-file ingestion ------------------------------

    #[test]
    fn golden_gz_fixture_decodes_to_known_rows() {
        // Known bytes → known rows: the checked-in gzip fixture must
        // replay exactly like its plain-text source, through both the
        // file-backed and in-memory paths.
        let plain = csv(AZURE_FIXTURE).unwrap();
        let reference = drain(&mut plain.open().unwrap());
        let gz = StreamTrace::from_csv_parts(&[AZURE_FIXTURE_GZ]).unwrap();
        assert_eq!(gz.n_functions(), plain.n_functions());
        assert_eq!(gz.len(), plain.len());
        assert_eq!(gz.horizon_nanos(), plain.horizon_nanos());
        assert_eq!(drain(&mut gz.open().unwrap()), reference);
        let dir = std::env::temp_dir().join(format!("freedom_gz_golden_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("azure.csv.gz");
        std::fs::write(&path, AZURE_FIXTURE_GZ).unwrap();
        let from_file = StreamTrace::from_csv_files(&[&path]).unwrap();
        assert_eq!(from_file.len(), plain.len());
        assert_eq!(drain(&mut from_file.open().unwrap()), reference);
        // And the materialized oracle agrees.
        let full = from_file.materialize().unwrap();
        assert_eq!(reference.as_slice(), full.events());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gz_streams_match_plain_for_both_compress_modes() {
        for mode in [CompressMode::Stored, CompressMode::FixedHuffman] {
            let gz_bytes = gzip_compress(AZURE_FIXTURE.as_bytes(), mode);
            let gz = StreamTrace::from_csv_parts(&[&gz_bytes]).unwrap();
            let plain = csv(AZURE_FIXTURE).unwrap();
            let reference = drain(&mut plain.open().unwrap());
            assert_eq!(drain(&mut gz.open().unwrap()), reference, "{mode:?}");
            // Checkpoints into the middle of the gzip stream re-seek by
            // re-inflating the prefix.
            let mut stream = gz.open().unwrap();
            for _ in 0..50 {
                stream.next();
            }
            let cp = stream.checkpoint();
            assert_eq!(
                drain(&mut gz.open_at(&cp).unwrap()).as_slice(),
                &reference[50..],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn gz_negative_paths_are_file_qualified_and_line_accurate() {
        let gz = gzip_compress(AZURE_FIXTURE.as_bytes(), CompressMode::FixedHuffman);
        let err = |bytes: &[u8]| match StreamTrace::from_csv_parts(&[bytes]) {
            Err(FreedomError::InvalidArgument(msg)) => msg,
            other => panic!("expected InvalidArgument, got {other:?}"),
        };
        // The gzip magic followed by a garbage member header is a decode
        // error, never silently parsed as plain CSV.
        let mut bad_header = gz.clone();
        bad_header[2] = 7;
        let msg = err(&bad_header);
        assert!(msg.contains("unsupported gzip compression method"), "{msg}");
        assert!(msg.contains("near line 1"), "{msg}");
        // Truncated stream: decode dies mid-file with the line reached.
        let msg = err(&gz[..gz.len() / 2]);
        assert!(msg.contains("truncated gzip stream"), "{msg}");
        assert!(msg.contains("near line"), "{msg}");
        // Bad CRC: the trailer check fires after the last line.
        let mut bad_crc = gz.clone();
        let n = bad_crc.len();
        bad_crc[n - 6] ^= 0xff;
        let msg = err(&bad_crc);
        assert!(msg.contains("CRC mismatch"), "{msg}");
        // Corrupt block: an invalid symbol inside the deflate stream.
        let mut corrupt = gz.clone();
        for b in corrupt.iter_mut().skip(20).take(16) {
            *b = 0xff;
        }
        let res = StreamTrace::from_csv_parts(&[&corrupt]);
        assert!(res.is_err(), "corrupted block must not scan cleanly");
        // File-backed errors carry the path.
        let dir = std::env::temp_dir().join(format!("freedom_gz_neg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.csv.gz");
        std::fs::write(&path, &gz[..gz.len() - 3]).unwrap();
        match StreamTrace::from_csv_files(&[&path]) {
            Err(FreedomError::InvalidArgument(msg)) => {
                assert!(msg.contains("broken.csv.gz"), "{msg}");
                assert!(msg.contains("truncated gzip stream"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_file_parts_replay_like_the_concatenation() {
        // Three "daily" files, the middle one gzip'd with its own
        // header, split mid-minute — the logical trace is the row
        // concatenation.
        let part1 = "app,func,minute,count\na,f,0,3\nb,g,1,2\na,f,2,1\n";
        let part2_plain = "app,func,minute,count\na,f,2,2\nc,h,3,4\n";
        let part2 = gzip_compress(part2_plain.as_bytes(), CompressMode::FixedHuffman);
        let part3 = "b,g,4,1\na,f,5,2\n";
        let concat = "app,func,minute,count\na,f,0,3\nb,g,1,2\na,f,2,1\na,f,2,2\nc,h,3,4\n\
                      b,g,4,1\na,f,5,2\n";
        let reference_trace = csv(concat).unwrap();
        let reference = drain(&mut reference_trace.open().unwrap());
        for chunk in [3usize, 64 * 1024] {
            let multi = StreamTrace::from_csv_parts_chunked(
                &[part1.as_bytes(), &part2, part3.as_bytes()],
                chunk,
            )
            .unwrap();
            assert_eq!(multi.n_functions(), reference_trace.n_functions());
            assert_eq!(multi.len(), reference_trace.len());
            assert_eq!(multi.horizon_nanos(), reference_trace.horizon_nanos());
            assert_eq!(
                drain(&mut multi.open().unwrap()),
                reference,
                "chunk {chunk}"
            );
            // The materialized oracle strips the per-file headers and
            // agrees too.
            assert_eq!(
                drain(&mut multi.open().unwrap()).as_slice(),
                multi.materialize().unwrap().events(),
                "chunk {chunk}"
            );
            // Checkpoints landing inside any file re-seek exactly.
            for split in [0usize, 2, 5, reference.len() - 1, reference.len()] {
                let mut stream = multi.open().unwrap();
                for _ in 0..split {
                    stream.next();
                }
                let cp = stream.checkpoint();
                assert_eq!(
                    drain(&mut multi.open_at(&cp).unwrap()).as_slice(),
                    &reference[split..],
                    "chunk {chunk}, split {split}"
                );
            }
        }
    }

    #[test]
    fn file_seam_disorder_is_bounded_and_attributed() {
        // Within the lookahead bound, a later file may open behind the
        // carried maximum...
        let ok1 = "a,f,9,1\n";
        let ok2 = "b,g,2,1\na,f,10,1\n";
        let multi = StreamTrace::from_csv_parts(&[ok1.as_bytes(), ok2.as_bytes()]).unwrap();
        let concat = csv("a,f,9,1\nb,g,2,1\na,f,10,1\n").unwrap();
        assert_eq!(
            drain(&mut multi.open().unwrap()),
            drain(&mut concat.open().unwrap())
        );
        // ...beyond it, the scan rejects with exact file:line
        // attribution, even when the violating row is not the file's
        // first (it is a prefix-min within its file).
        let bad1 = "a,f,30,1\n";
        let bad2 = "x,y,29,1\nb,g,21,1\n";
        match StreamTrace::from_csv_parts(&[bad1.as_bytes(), bad2.as_bytes()]) {
            Err(FreedomError::InvalidArgument(msg)) => {
                assert!(msg.contains("part 2"), "{msg}");
                assert!(msg.contains("line 2"), "{msg}");
                assert!(msg.contains("file seam"), "{msg}");
                assert!(msg.contains("minute 21"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        // The materialized oracle accepts the same rows in any order.
        assert!(TraceSource::from_csv("a,f,30,1\nx,y,29,1\nb,g,2,1\n").is_ok());
        // In-file grammar errors name their part.
        let good = "a,f,0,1\n";
        let malformed = "a,f,1,1\nbroken-row\n";
        match StreamTrace::from_csv_parts(&[good.as_bytes(), malformed.as_bytes()]) {
            Err(FreedomError::InvalidArgument(msg)) => {
                assert!(msg.contains("part 2"), "{msg}");
                assert!(msg.contains("line 2"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    fn multi_file_key_assignment_matches_first_appearance() {
        // A function appearing in several files keeps the index of its
        // first appearance; new functions in later files extend the map.
        let part1 = "appA,f1,0,1\nappB,f2,0,1\n";
        let part2 = "appB,f2,1,1\nappC,f3,1,1\nappA,f1,1,1\n";
        let multi = StreamTrace::from_csv_parts(&[part1.as_bytes(), part2.as_bytes()]).unwrap();
        assert_eq!(multi.n_functions(), 3);
        let concat =
            csv("appA,f1,0,1\nappB,f2,0,1\nappB,f2,1,1\nappC,f3,1,1\nappA,f1,1,1\n").unwrap();
        assert_eq!(
            drain(&mut multi.open().unwrap()),
            drain(&mut concat.open().unwrap())
        );
        // The composite key disambiguates app/func boundaries:
        // ("ab","c") and ("a","bc") are distinct functions.
        let tricky = csv("ab,c,0,1\na,bc,0,1\n").unwrap();
        assert_eq!(tricky.n_functions(), 2);
    }

    #[test]
    fn file_backed_multi_file_gz_checkpoints_reopen() {
        let dir = std::env::temp_dir().join(format!("freedom_multi_gz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Day 1 plain, day 2 gz — mixed inputs on disk.
        let day1 = dir.join("day1.csv");
        let day2 = dir.join("day2.csv.gz");
        let half = AZURE_FIXTURE.lines().count() / 2;
        let part1: String = AZURE_FIXTURE
            .lines()
            .take(half)
            .map(|l| format!("{l}\n"))
            .collect();
        let part2: String = AZURE_FIXTURE
            .lines()
            .skip(half)
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&day1, &part1).unwrap();
        std::fs::write(
            &day2,
            gzip_compress(part2.as_bytes(), CompressMode::FixedHuffman),
        )
        .unwrap();
        let multi = StreamTrace::from_csv_files(&[&day1, &day2]).unwrap();
        let reference = drain(&mut csv(AZURE_FIXTURE).unwrap().open().unwrap());
        let events = drain(&mut multi.open().unwrap());
        assert_eq!(events, reference);
        // A checkpoint inside the gz'd second file reopens exactly
        // (exercising the decompress-and-skip resume path).
        let into_second = events.len() - 10;
        let mut stream = multi.open().unwrap();
        for _ in 0..into_second {
            stream.next();
        }
        let cp = stream.checkpoint();
        assert_eq!(
            drain(&mut multi.open_at(&cp).unwrap()).as_slice(),
            &reference[into_second..]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
