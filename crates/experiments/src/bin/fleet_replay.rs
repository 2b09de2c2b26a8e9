//! Crash-resumable streaming fleet replay over the faulted three-zone
//! market: snapshots the replay at every epoch boundary, optionally
//! "crashes" at a chosen epoch, and resumes from the persisted snapshot.
//!
//! The scenario (fleet, trace, market, faults) is a pure function of the
//! shared experiment flags, so a killed run and its resumed continuation
//! reproduce the uninterrupted report bit for bit:
//!
//! ```text
//! fleet_replay --fast --kill-epoch 4        # dies at epoch 4, leaves a snapshot
//! fleet_replay --fast --resume              # finishes from the snapshot
//! ```
//!
//! Flags on top of the shared experiment set (`--fast`, `--seed N`,
//! `--threads N`): `--snapshot PATH` (default `target/fleet_replay.snap`),
//! `--snapshot-secs N` (epoch length, default 60), `--kill-epoch N`
//! (abort once the boundary of epoch N is reached), `--resume` (load the
//! snapshot and continue instead of starting fresh), `--telemetry PATH`
//! (per-epoch JSONL metric snapshots), `--trace-json PATH`
//! (Perfetto-loadable Chrome trace). Either telemetry flag also prints
//! the terminal summary; the report is bit-identical either way.

use freedom::fleet::{
    ControlConfig, ControllerConfig, FleetConfig, FleetReport, FleetSimulator, NoopRecorder,
    PidConfig, PlacementStrategy, StreamTrace, Telemetry, TraceSource,
};
use freedom::market::MarketConfig;
use freedom::snapshot::ReplaySnapshot;
use freedom_experiments as exp;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn summarize(report: &FleetReport) {
    println!(
        "invocations {}  cost ${:.4}  spot share {:.1}%  p95 inflation {:.3}",
        report.invocations,
        report.total_cost_usd,
        report.spot_share() * 100.0,
        report.p95_latency_inflation,
    );
    println!(
        "failure domain: notified {}  drained {}  migrated {}  demoted {}  rejected {}",
        report.notified, report.drained, report.migrated, report.spot_demoted, report.rejected,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = exp::ExperimentOpts::from_args();
    let snapshot_path =
        flag_value(&args, "--snapshot").unwrap_or_else(|| "target/fleet_replay.snap".to_string());
    let snapshot_secs: f64 = flag_value(&args, "--snapshot-secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);
    let kill_epoch: Option<u64> = flag_value(&args, "--kill-epoch").and_then(|v| v.parse().ok());
    let resume = args.iter().any(|a| a == "--resume");
    let telemetry_path = flag_value(&args, "--telemetry");
    let trace_json_path = flag_value(&args, "--trace-json");

    // The fixed scenario: the cheap synthetic fleet over a heavy-tail
    // trace on the tight three-zone market under the stormy fault plan.
    let (duration_secs, n_functions) = exp::fleet_simulation::fleet_scale(&opts);
    let duration_secs = if opts.opt_repeats <= 2 {
        duration_secs * 5.0
    } else {
        duration_secs
    };
    let threads = opts.effective_threads();
    let plans =
        exp::fleet_simulation::synthetic_plans(n_functions, 4).expect("synthetic fleet plans");
    let sim = FleetSimulator::new(plans).expect("fleet simulator");
    let trace = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        duration_secs,
        opts.seed,
        threads,
    )
    .expect("trace generation");
    let tight = exp::fleet_simulation::market_tightness()[2];
    let stormy = exp::fleet_zone_outage::fault_presets()[2];
    let config = FleetConfig {
        market: MarketConfig {
            zones: exp::fleet_zone_outage::zone_layout(),
            ..exp::fleet_simulation::market_config(&tight, freedom::fleet::AdmissionPolicy::Greedy)
        },
        control: ControlConfig {
            cadence_secs: 20.0,
            controller: ControllerConfig::HeadroomPid(PidConfig::default()),
        },
        faults: stormy.plan,
        ..FleetConfig::default()
    };

    let resume_from = if resume {
        match ReplaySnapshot::read_from(&snapshot_path) {
            Ok(snap) => {
                println!(
                    "resuming from {snapshot_path}: epoch {}, {} events consumed",
                    snap.epoch(),
                    snap.events_consumed()
                );
                Some(snap)
            }
            Err(e) => {
                eprintln!("cannot resume from {snapshot_path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let outcome = if telemetry_path.is_some() || trace_json_path.is_some() {
        let mut tel = Telemetry::new();
        trace.record_scan(&mut tel);
        let epoch_nanos = (snapshot_secs * 1e9) as u64;
        let mut jsonl = String::new();
        let out = sim.run_stream_resumable_traced(
            &trace,
            PlacementStrategy::IdleAware,
            &config,
            snapshot_secs,
            resume_from.as_ref(),
            &mut tel,
            |snap, rec| {
                snap.write_to(&snapshot_path)?;
                rec.jsonl_snapshot(
                    snap.epoch(),
                    snap.epoch().saturating_mul(epoch_nanos),
                    &mut jsonl,
                );
                if let Some(kill) = kill_epoch {
                    if snap.epoch() >= kill {
                        return Ok(false);
                    }
                }
                Ok(true)
            },
        );
        if let Some(path) = &telemetry_path {
            std::fs::write(path, &jsonl).expect("write telemetry JSONL");
            println!("telemetry: per-epoch JSONL -> {path}");
        }
        if let Some(path) = &trace_json_path {
            tel.write_chrome_trace(std::path::Path::new(path))
                .expect("write Chrome trace JSON");
            println!("telemetry: Chrome trace -> {path} (open in Perfetto or chrome://tracing)");
        }
        println!("{}", tel.summary());
        out
    } else {
        sim.run_stream_resumable_traced(
            &trace,
            PlacementStrategy::IdleAware,
            &config,
            snapshot_secs,
            resume_from.as_ref(),
            &mut NoopRecorder,
            |snap, _| {
                snap.write_to(&snapshot_path)?;
                if let Some(kill) = kill_epoch {
                    if snap.epoch() >= kill {
                        return Ok(false);
                    }
                }
                Ok(true)
            },
        )
    };
    match outcome {
        Ok(Some(report)) => {
            println!(
                "replay complete: {n_functions} functions, {duration_secs}s trace, \
                 {snapshot_secs}s epochs"
            );
            summarize(&report);
        }
        Ok(None) => {
            println!(
                "killed at epoch {} — snapshot persisted to {snapshot_path}; \
                 rerun with --resume to finish",
                kill_epoch.unwrap_or(0)
            );
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            std::process::exit(1);
        }
    }
}
