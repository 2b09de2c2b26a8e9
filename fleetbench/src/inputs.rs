//! Benchmark inputs: pure functions of the workload and the seed,
//! synthesized outside every timed region and cached on disk.
//!
//! Day files are `WeekTraceSpec` days (`app,func,minute,count` CSV, one
//! gzip member per day) compressed with the workload's block mode. The
//! cache directory name carries the whole spec, the mode and the seed,
//! so a second seed or a new scale synthesizes fresh files and a stale
//! file never stands in for another spec.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use flate::CompressMode;
use freedom_experiments::week_trace::WeekTraceSpec;

/// Marker written last into a complete cache directory.
const COMPLETE: &str = "complete";

fn mode_tag(mode: CompressMode) -> &'static str {
    match mode {
        CompressMode::Stored => "stored",
        CompressMode::FixedHuffman => "huffman",
    }
}

/// Paths of the spec's day files, in day order, synthesizing them into
/// `cache_root` first unless a complete cached copy exists.
pub fn day_files(
    cache_root: &Path,
    spec: &WeekTraceSpec,
    mode: CompressMode,
) -> io::Result<Vec<PathBuf>> {
    let dir = cache_root.join(format!(
        "{}-r{}-{}-s{}",
        spec.tag(),
        spec.row_every,
        mode_tag(mode),
        spec.seed
    ));
    let names: Vec<String> = (1..=spec.days)
        .map(|d| format!("day{d:02}.csv.gz"))
        .collect();
    if !dir.join(COMPLETE).exists() {
        // Build under a private name, then rename into place, so an
        // interrupted synthesis never leaves a half-written cache entry.
        let tmp = cache_root.join(format!(".tmp-{}", std::process::id()));
        if tmp.exists() {
            fs::remove_dir_all(&tmp)?;
        }
        fs::create_dir_all(&tmp)?;
        for (day, name) in names.iter().enumerate() {
            let csv = spec.day_csv(day as u32);
            fs::write(tmp.join(name), flate::gzip_compress(csv.as_bytes(), mode))?;
        }
        fs::write(tmp.join(COMPLETE), b"")?;
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::rename(&tmp, &dir)?;
    }
    Ok(names.iter().map(|n| dir.join(n)).collect())
}

/// Reads every file into memory.
pub fn read_all(paths: &[PathBuf]) -> io::Result<Vec<Vec<u8>>> {
    paths.iter().map(fs::read).collect()
}
