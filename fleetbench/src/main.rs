//! Fleet-replay benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload week_snapshots --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`week_snapshots`, `retry_storm`, `zone_control`)
//! in this process. `--trace 0` makes the untraced pass and prints the
//! end-to-end metrics; `--trace 1` makes the traced pass, prints the
//! per-layer metrics, and writes the benchmark's spans as Chrome-trace
//! JSON under `<work-dir>/trace/`. Either way the last line of standard
//! output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when any output check failed.
//!
//! `--work-dir PATH` moves the input cache, snapshot scratch and trace
//! output (default `.fleetbench`, relative to the working directory).

mod inputs;
mod outcome;
mod passes;
mod replay;
mod spans;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};

use outcome::{result_json, Ledger, Metrics};
use passes::Run;
use spans::Tracer;
use workloads::{Plan, Scale, Workload};

/// Parsed command line.
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    work_dir: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let value = |flag: &str| -> Option<&str> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
        };
        let number = |flag: &str, default: u64| -> Result<u64, String> {
            value(flag).map_or(Ok(default), |v| {
                v.parse()
                    .map_err(|_| format!("{flag} takes a whole number, got {v}"))
            })
        };
        let workload = value("--workload").ok_or("--workload is required")?;
        let workload = Workload::parse(workload).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {workload}; one of {}", names.join(", "))
        })?;
        let trace = match number("--trace", 0)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, got {other}")),
        };
        Ok(Opts {
            workload,
            seed: number("--seed", 1)?,
            seconds: number("--seconds", 10)? as f64,
            trace,
            scale: Scale::Full,
            work_dir: PathBuf::from(value("--work-dir").unwrap_or(".fleetbench")),
        })
    }
}

/// What one run produced.
struct Outcome {
    metrics: Metrics,
    ledger: Ledger,
    tracer: Tracer,
}

/// Runs the pass `opts` asks for, in a private scratch directory that
/// is removed afterwards.
fn bench(opts: &Opts) -> Result<Outcome, String> {
    let plan = Plan::new(opts.workload, opts.scale, opts.seed);
    let cache = opts.work_dir.join("cache");
    let scratch = opts.work_dir.join(format!("run-{}", std::process::id()));
    fs::create_dir_all(&cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut run = Run {
        plan: &plan,
        cache: &cache,
        scratch: &scratch,
        seconds: opts.seconds,
        tracer: Tracer::default(),
        ledger: Ledger::default(),
    };
    let metrics = if opts.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let _ = fs::remove_dir_all(&scratch);
    Ok(Outcome {
        metrics: metrics.map_err(|e| e.to_string())?,
        ledger: run.ledger,
        tracer: run.tracer,
    })
}

/// Writes the run's spans as Chrome-trace JSON; returns the path.
fn write_trace(opts: &Opts, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = opts.work_dir.join("trace");
    fs::create_dir_all(&dir)?;
    let name = format!("{}-s{}", opts.workload.name(), opts.seed);
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, tracer.chrome_trace(&format!("fleetbench {name}")))?;
    Ok(path)
}

fn print_report(opts: &Opts, out: &mut Outcome, trace_path: Option<&Path>) {
    println!(
        "fleetbench {} seed {} ({} pass)",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    for &(name, value, unit) in &out.metrics.0 {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    if let Some(path) = trace_path {
        println!("spans (self time = span minus its children):");
        println!(
            "  {:<40} {:>5} {:>10} {:>10}",
            "span", "count", "total_s", "self_s"
        );
        for (name, count, total, own) in out.tracer.totals() {
            println!("  {name:<40} {count:>5} {total:>10.4} {own:>10.4}");
        }
        println!("chrome trace: {}", path.display());
    }
    for failure in &out.ledger.failures {
        println!("CHECK FAILED: {failure}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match bench(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fleetbench: {} failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    };
    let trace_path = if opts.trace {
        match write_trace(&opts, &out.tracer) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("fleetbench: cannot write the Chrome trace: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let json = result_json(&out.metrics, &mut out.ledger);
    print_report(&opts, &mut out, trace_path.as_deref());
    println!("{json}");
    if out.ledger.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{key}\""))
            .expect("key in BENCHMARK.json");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("list closes")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// Every workload runs both passes at tiny scale, passes every
    /// check, and prints exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn every_workload_passes_at_tiny_scale() {
        let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.fleetbench/selftest");
        let workloads: Vec<String> = declared("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for workload in Workload::ALL {
            assert!(workloads.iter().any(|w| w == workload.name()));
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let opts = Opts {
                    workload,
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    scale: Scale::Tiny,
                    work_dir: work_dir.clone(),
                };
                let mut out = bench(&opts).expect("tiny run");
                let json = result_json(&out.metrics, &mut out.ledger);
                assert_eq!(out.ledger.failures, Vec::<String>::new(), "{json}");
                assert!(json.starts_with("{\"correct\": true"));
                let names: Vec<&str> = out.metrics.0.iter().map(|m| m.0).collect();
                assert_eq!(names, declared(key), "{} {key}", workload.name());
                if trace {
                    let path = write_trace(&opts, &out.tracer).expect("trace written");
                    let text = fs::read_to_string(path).expect("trace readable");
                    assert!(text.starts_with('[') && text.trim_end().ends_with(']'));
                }
            }
        }
    }
}
