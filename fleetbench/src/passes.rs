//! The two passes a run makes. The untraced pass replays with a
//! `NoopRecorder` and yields the end-to-end metrics; the traced pass
//! attaches a live `Telemetry` recorder, times each layer on its own,
//! runs the output checks, and yields the per-layer metrics. The
//! benchmark's own spans sit at call boundaries only (tens per run) and
//! time both passes.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use freedom::fleet::{ControllerConfig, FleetConfig, FleetReport, Recorder, Telemetry};
use freedom::snapshot::ReplaySnapshot;
use freedom::telemetry::{Counter, Hist};
use freedom_experiments::fleet_retry_storm::policy_presets;

use crate::inputs;
use crate::outcome::{median, processed, ratio, Ledger, Metrics};
use crate::replay::{self, NoopRecorder};
use crate::spans::Tracer;
use crate::workloads::{Inputs, Plan, Setup, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fewest timed replays per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Repetitions of the inflate and snapshot-decode probes.
const PROBE_REPS: usize = 3;

/// One benchmark process: the workload plan, its scratch directory and
/// run length, and what it has recorded so far.
pub struct Run<'a> {
    pub plan: &'a Plan,
    pub cache: &'a Path,
    pub scratch: &'a Path,
    pub seconds: f64,
    pub tracer: Tracer,
    pub ledger: Ledger,
}

/// One replay of the workload's measured path.
struct MainReplay {
    report: FleetReport,
    wall: f64,
    /// `(bytes, write_to seconds)` of every snapshot the replay wrote.
    snapshots: Vec<(u64, f64)>,
    /// Seconds spent in `to_bytes` when the replay timed encoding.
    encode_s: f64,
}

impl Run<'_> {
    fn snap_path(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }

    /// `SETUP_REPS` set-ups; returns the last fleet and every set-up's
    /// timings.
    fn setups(&mut self, inputs: &Inputs) -> freedom::Result<(Setup, SetupTimes)> {
        let mut times = SetupTimes::default();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            // Drop the previous fleet first so set-ups do not stack up
            // in memory.
            drop(last.take());
            let s = self.plan.setup(inputs, &mut self.tracer)?;
            self.ledger.op();
            times.total.push(s.total_s);
            times.scan.push(s.scan_s);
            times.tune.push(s.tune_s);
            last = Some(s);
        }
        Ok((last.expect("SETUP_REPS > 0"), times))
    }

    /// The workload's measured replay: crash-resumable with a snapshot
    /// written per epoch on `week_snapshots`, one streaming replay
    /// elsewhere. `encode` additionally times `to_bytes` per snapshot.
    fn main_replay<R: Recorder>(
        &mut self,
        name: &'static str,
        setup: &Setup,
        rec: &mut R,
        encode: bool,
    ) -> freedom::Result<MainReplay> {
        let Some(epoch_secs) = self.plan.epoch_secs else {
            let (report, wall) = self.stream(name, setup, &setup.config, rec)?;
            return Ok(MainReplay {
                report,
                wall,
                snapshots: Vec::new(),
                encode_s: 0.0,
            });
        };
        let path = self.snap_path("epoch.snap");
        let mut sizes = Vec::new();
        let (out, id) = self.tracer.span(name, |t| {
            replay::resumable(&setup.fleet, &setup.config, epoch_secs, None, rec, |snap| {
                if encode {
                    t.span("snapshot.to_bytes", |_| black_box(snap.to_bytes().len()));
                }
                t.span("snapshot.write_to", |_| snap.write_to(&path)).0?;
                sizes.push(fs::metadata(&path).map_err(io_err)?.len());
                Ok(true)
            })
        });
        let report = out?.ok_or_else(|| {
            freedom::FreedomError::InvalidArgument("resumable replay stopped early".into())
        })?;
        self.ledger.op();
        let writes: Vec<f64> = self
            .tracer
            .children(id)
            .filter(|s| s.name == "snapshot.write_to")
            .map(|s| s.secs())
            .collect();
        let encode_s = self
            .tracer
            .children(id)
            .filter(|s| s.name == "snapshot.to_bytes")
            .fold(0.0, |sum, s| sum + s.secs());
        Ok(MainReplay {
            report,
            wall: self.tracer.secs(id),
            snapshots: sizes.into_iter().zip(writes).collect(),
            encode_s,
        })
    }

    /// One streaming replay under `config` inside span `name`; returns
    /// the report and its wall seconds.
    fn stream<R: Recorder>(
        &mut self,
        name: &'static str,
        setup: &Setup,
        config: &FleetConfig,
        rec: &mut R,
    ) -> freedom::Result<(FleetReport, f64)> {
        let (out, id) = self
            .tracer
            .span(name, |_| replay::stream(&setup.fleet, config, rec));
        let (report, _) = out?;
        self.ledger.op();
        Ok((report, self.tracer.secs(id)))
    }

    /// Bytes of the one snapshot a replay writes when it is stopped at
    /// its midpoint — the crash-recovery state of a workload whose
    /// measured replay writes none.
    fn mid_run_snapshot_bytes(&mut self, setup: &Setup) -> freedom::Result<u64> {
        let horizon = setup.fleet.trace.horizon_nanos();
        let epoch_secs = (horizon / 2 + 1) as f64 * 1e-9;
        let path = self.snap_path("mid.snap");
        let mut bytes = 0;
        let (out, _) = self.tracer.span("snapshot.mid_run_probe", |t| {
            replay::resumable(
                &setup.fleet,
                &setup.config,
                epoch_secs,
                None,
                &mut NoopRecorder,
                |snap| {
                    t.span("snapshot.write_to", |_| snap.write_to(&path)).0?;
                    bytes = fs::metadata(&path).map_err(io_err)?.len();
                    Ok(false)
                },
            )
        });
        self.ledger.op();
        self.ledger.check(out?.is_none() && bytes > 0, || {
            "mid-run probe wrote no snapshot".into()
        });
        Ok(bytes)
    }

    /// The untraced pass: set-up, a warm-up replay that is also the
    /// reference, then timed replays for `seconds`.
    pub fn end_to_end(&mut self) -> freedom::Result<Metrics> {
        let inputs = self.plan.inputs(self.cache).map_err(io_err)?;
        let (setup, setup_times) = self.setups(&inputs)?;
        let reference = self.main_replay("warmup", &setup, &mut NoopRecorder, false)?;
        self.ledger
            .check_report(&reference.report, setup.fleet.trace.len());
        let mut walls = Vec::new();
        let start = Instant::now();
        while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < self.seconds {
            let r = self.main_replay("replay", &setup, &mut NoopRecorder, false)?;
            self.ledger
                .check_same("repeated replay", &r.report, &reference.report);
            walls.push(r.wall);
        }
        let peak_rss_mb = peak_rss_mb();
        let trace = &setup.fleet.trace;
        let mut sorted = walls.clone();
        sorted.sort_by(f64::total_cmp);
        println!(
            "trace: {} events, {} functions, {:.1} h; {} timed replays, wall s min {:.4} \
             median {:.4} max {:.4}",
            trace.len(),
            trace.n_functions(),
            trace.horizon_nanos() as f64 / 3600e9,
            walls.len(),
            sorted[0],
            median(&walls),
            sorted[sorted.len() - 1],
        );
        let snapshot_bytes = match self.plan.epoch_secs {
            Some(_) => reference.snapshots.iter().map(|s| s.0).sum(),
            None => self.mid_run_snapshot_bytes(&setup)?,
        };
        let r = &reference.report;
        let mut m = Metrics::default();
        m.put("ns_per_event", median(&walls) * 1e9 / processed(r), "ns");
        m.put("setup_s", median(&setup_times.total), "s");
        m.put("peak_rss_mb", peak_rss_mb, "MB");
        m.put("snapshot_mb", snapshot_bytes as f64 / 1e6, "MB");
        m.put("cost_usd", r.total_cost_usd, "USD");
        m.put(
            "slo_violation_rate",
            ratio(r.slo_violations as f64, r.invocations as f64),
            "ratio",
        );
        m.put(
            "goodput",
            1.0 - ratio(r.dead_lettered as f64, r.invocations as f64),
            "ratio",
        );
        Ok(m)
    }

    /// The traced pass: every layer timed on its own, the telemetry
    /// counters of a traced replay, and the output checks.
    pub fn per_layer(&mut self) -> freedom::Result<Metrics> {
        let plan = self.plan;
        let inputs = plan.inputs(self.cache).map_err(io_err)?;
        let (setup, setup_times) = self.setups(&inputs)?;
        let config = setup.config;
        let trace_len = setup.fleet.trace.len();

        // flate: inflate the workload's gz inputs, and check each day
        // decodes back to the CSV it was synthesized from.
        let inflate_rates = {
            let read;
            let gz: Vec<&[u8]> = match &inputs {
                Inputs::Files(paths) => {
                    read = inputs::read_all(paths).map_err(io_err)?;
                    read.iter().map(Vec::as_slice).collect()
                }
                Inputs::Parts(parts) => parts.iter().map(Vec::as_slice).collect(),
                Inputs::Generated => Vec::new(),
            };
            let mut rates = Vec::new();
            let reps = if gz.is_empty() { 0 } else { PROBE_REPS };
            for rep in 0..reps {
                let (mut bytes, mut secs) = (0usize, 0.0);
                for (day, part) in gz.iter().enumerate() {
                    let (out, id) = self.tracer.span("flate.gunzip", |_| flate::gunzip(part));
                    let out = out.map_err(|e| {
                        freedom::FreedomError::InvalidArgument(format!("day {day}: {e:?}"))
                    })?;
                    self.ledger.op();
                    if rep == 0 {
                        let csv = plan.week.day_csv(day as u32);
                        self.ledger.check(out == csv.as_bytes(), || {
                            format!("day {day} does not gunzip back to its CSV")
                        });
                    }
                    bytes += out.len();
                    secs += self.tracer.secs(id);
                }
                rates.push(bytes as f64 / 1e6 / secs);
            }
            rates
        };

        // Rounds of timed replays: drain, untraced, traced, and each A/B
        // baseline the workload has, once per round until `seconds` have
        // passed. Every difference below is taken within one round, so
        // its two sides ran moments apart on the same machine state.
        let open_loop = FleetConfig {
            control: freedom::fleet::ControlConfig {
                controller: ControllerConfig::Static,
                ..config.control
            },
            ..config
        };
        let has_controller = !matches!(config.control.controller, ControllerConfig::Static);
        let no_retry = FleetConfig {
            retry: policy_presets()[0].policy,
            ..config
        };
        let mut rounds = Rounds::default();
        let mut peak_resident = 0;
        let mut tel = Telemetry::new();
        let mut reference: Option<FleetReport> = None;
        let mut last_resumable = None;
        let start = Instant::now();
        while rounds.plain.len() < MIN_REPS || start.elapsed().as_secs_f64() < self.seconds {
            // stream: open + next to exhaustion, no simulation.
            let (out, id) = self.tracer.span("stream.drain", |_| {
                let mut stream = setup.fleet.trace.open()?;
                let mut n = 0usize;
                while stream.next().is_some() {
                    n += 1;
                }
                Ok::<_, freedom::FreedomError>((n, stream.peak_resident()))
            });
            let (n, resident) = out?;
            self.ledger.op();
            self.ledger.check(n == trace_len, || {
                format!("drain yielded {n} of {trace_len} events")
            });
            peak_resident = resident;
            let drain = self.tracer.secs(id);

            // fleet + telemetry.
            let (report, plain) =
                self.stream("fleet.run_stream", &setup, &config, &mut NoopRecorder)?;
            tel = Telemetry::new();
            let (traced_report, traced) =
                self.stream("telemetry.run_stream_traced", &setup, &config, &mut tel)?;
            self.ledger
                .check_same("traced replay", &traced_report, &report);
            let reference = match &reference {
                Some(first) => {
                    self.ledger.check_same("repeated replay", &report, first);
                    first
                }
                None => {
                    self.ledger.check_report(&report, trace_len);
                    reference.insert(report)
                }
            };
            rounds.drain.push(drain);
            rounds.plain.push(plain);
            rounds.self_s.push(plain - drain);
            rounds.overhead.push(traced / plain);

            // controller: the same replay with the open-loop controller.
            if has_controller {
                let (_, open) = self.stream(
                    "controller.static_baseline",
                    &setup,
                    &open_loop,
                    &mut NoopRecorder,
                )?;
                rounds.controller.push(plain - open);
            }
            // retry: the same replay with retries off (faults still fire).
            if reference.retried > 0 {
                let (_, bare) = self.stream(
                    "retry.no_retry_baseline",
                    &setup,
                    &no_retry,
                    &mut NoopRecorder,
                )?;
                rounds.retry.push(plain - bare);
            }
            // snapshot: the measured resumable replay, less its snapshot
            // callbacks and the plain replay, is the capture cost.
            if plan.epoch_secs.is_some() {
                let r = self.main_replay(
                    "fleet.run_stream_resumable",
                    &setup,
                    &mut NoopRecorder,
                    false,
                )?;
                self.ledger
                    .check_same("resumable replay", &r.report, reference);
                let callbacks = r.snapshots.iter().fold(0.0, |sum, s| sum + s.1);
                rounds.write.push(callbacks);
                rounds.capture.push(r.wall - callbacks - plain);
                last_resumable = Some(r);
            }
        }
        let reference = reference.expect("MIN_REPS > 0");
        let events = processed(&reference);

        // snapshot: one traced resumable replay that also times encoding,
        // then a kill at the middle epoch and a resume from disk.
        let mut snap = SnapshotLayer::default();
        let mut counters_tel = tel;
        if let (Some(epoch_secs), Some(last)) = (plan.epoch_secs, last_resumable) {
            let mut tel = Telemetry::new();
            let traced = self.main_replay(
                "telemetry.run_stream_resumable_traced",
                &setup,
                &mut tel,
                true,
            )?;
            self.ledger
                .check_same("traced resumable replay", &traced.report, &reference);
            counters_tel = tel;

            let sizes: Vec<f64> = last.snapshots.iter().map(|s| s.0 as f64).collect();
            let writes: Vec<f64> = last.snapshots.iter().map(|s| s.1).collect();
            snap.epochs = sizes.len() as f64;
            snap.bytes_max = sizes.iter().copied().fold(0.0, f64::max);
            snap.last_over_first = ratio(
                sizes.last().copied().unwrap_or(0.0),
                sizes.first().copied().unwrap_or(0.0),
            );
            snap.write_s = median(&rounds.write);
            snap.write_p50 = median(&writes);
            snap.write_max = writes.iter().copied().fold(0.0, f64::max);
            snap.encode_s = traced.encode_s;
            snap.capture_ns = median(&rounds.capture) * 1e9 / events;
            let (decode_s, resume_s) = self.kill_and_resume(&setup, epoch_secs, &reference)?;
            snap.decode_s = decode_s;
            snap.resume_s = resume_s;
        }

        let tel = &counters_tel;
        self.ledger.check(
            tel.counter(Counter::Arrivals) == reference.invocations as u64,
            || {
                format!(
                    "telemetry saw {} arrivals for {} invocations",
                    tel.counter(Counter::Arrivals),
                    reference.invocations
                )
            },
        );
        self.check_spans();

        let mut m = Metrics::default();
        m.put("stream.scan_s", median(&setup_times.scan), "s");
        m.put(
            "stream.drain_ns_per_event",
            median(&rounds.drain) * 1e9 / trace_len as f64,
            "ns/event",
        );
        m.put("stream.peak_resident_events", peak_resident as f64, "count");
        m.put("flate.inflate_mb_per_s", median(&inflate_rates), "MB/s");
        m.put(
            "fleet.self_ns_per_event",
            median(&rounds.self_s) * 1e9 / events,
            "ns/event",
        );
        let c = |counter| tel.counter(counter) as f64;
        for (name, counter) in FLEET_COUNTERS {
            m.put(name, c(counter), "count");
        }
        m.put(
            "fleet.spot_admit_ratio",
            ratio(c(Counter::SpotAdmitted), c(Counter::Arrivals)),
            "ratio",
        );
        m.put(
            "fleet.ghost_ratio",
            ratio(
                c(Counter::GhostCompletions),
                c(Counter::Completions) + c(Counter::GhostCompletions),
            ),
            "ratio",
        );
        let admission = tel.hist(Hist::AdmissionNanos);
        m.put(
            "fleet.admission_ns_p50",
            admission.quantile(0.5) as f64,
            "ns",
        );
        m.put(
            "fleet.admission_ns_p99",
            admission.quantile(0.99) as f64,
            "ns",
        );
        m.put("fleet.admission_samples", admission.count() as f64, "count");
        let depth = tel.hist(Hist::InflightDepth);
        m.put(
            "fleet.inflight_depth_p50",
            depth.quantile(0.5) as f64,
            "count",
        );
        m.put(
            "fleet.inflight_depth_p99",
            depth.quantile(0.99) as f64,
            "count",
        );
        let r = &reference;
        m.put("retry.activations", r.retried as f64, "count");
        m.put("retry.hedge_wins", r.hedge_wins as f64, "count");
        m.put("retry.dead_lettered", r.dead_lettered as f64, "count");
        m.put("retry.shed", r.shed_retries as f64, "count");
        m.put(
            "retry.dead_letter_per_retry",
            ratio(r.dead_lettered as f64, r.retried as f64),
            "ratio",
        );
        let backoff = tel.hist(Hist::RetryBackoffNanos);
        m.put(
            "retry.backoff_ms_p50",
            backoff.quantile(0.5) as f64 / 1e6,
            "ms",
        );
        m.put(
            "retry.backoff_ms_p99",
            backoff.quantile(0.99) as f64 / 1e6,
            "ms",
        );
        m.put(
            "retry.extra_ns_per_event",
            median(&rounds.retry) * 1e9 / events,
            "ns/event",
        );
        m.put("controller.ticks", c(Counter::ControllerTicks), "count");
        m.put("controller.replans", c(Counter::Replans), "count");
        m.put(
            "controller.extra_ns_per_event",
            median(&rounds.controller) * 1e9 / events,
            "ns/event",
        );
        m.put("snapshot.epochs", snap.epochs, "count");
        m.put("snapshot.bytes_max", snap.bytes_max, "B");
        m.put(
            "snapshot.bytes_last_over_first",
            snap.last_over_first,
            "ratio",
        );
        m.put("snapshot.write_s", snap.write_s, "s");
        m.put("snapshot.write_s_p50", snap.write_p50, "s");
        m.put("snapshot.write_s_max", snap.write_max, "s");
        m.put("snapshot.write_count", snap.epochs, "count");
        m.put("snapshot.encode_s", snap.encode_s, "s");
        m.put("snapshot.capture_ns_per_event", snap.capture_ns, "ns/event");
        m.put("snapshot.decode_s", snap.decode_s, "s");
        m.put("snapshot.resume_s", snap.resume_s, "s");
        m.put("optimizer.tune_s", median(&setup_times.tune), "s");
        m.put(
            "telemetry.overhead_ratio",
            median(&rounds.overhead),
            "ratio",
        );
        Ok(m)
    }

    /// Kills a resumable replay at its middle epoch, decodes the
    /// snapshot it left on disk, resumes from it, and checks the result
    /// against the uninterrupted replay. Returns the decode and resume
    /// seconds.
    fn kill_and_resume(
        &mut self,
        setup: &Setup,
        epoch_secs: f64,
        reference: &FleetReport,
    ) -> freedom::Result<(f64, f64)> {
        let horizon_secs = setup.fleet.trace.horizon_nanos() as f64 * 1e-9;
        let kill_epoch = ((horizon_secs / epoch_secs) as u64 / 2).max(1);
        let path = self.snap_path("kill.snap");
        let (out, _) = self.tracer.span("snapshot.kill_run", |t| {
            replay::resumable(
                &setup.fleet,
                &setup.config,
                epoch_secs,
                None,
                &mut NoopRecorder,
                |snap| {
                    t.span("snapshot.write_to", |_| snap.write_to(&path)).0?;
                    Ok(snap.epoch() < kill_epoch)
                },
            )
        });
        self.ledger.op();
        self.ledger.check(out?.is_none(), || {
            format!("replay ran past kill epoch {kill_epoch}")
        });
        let mut decodes = Vec::new();
        let mut snapshot = None;
        for _ in 0..PROBE_REPS {
            let (snap, id) = self
                .tracer
                .span("snapshot.read_from", |_| ReplaySnapshot::read_from(&path));
            snapshot = Some(snap?);
            self.ledger.op();
            decodes.push(self.tracer.secs(id));
        }
        let snapshot = snapshot.expect("PROBE_REPS > 0");
        self.ledger.check(snapshot.epoch() == kill_epoch, || {
            format!(
                "snapshot on disk is epoch {}, not {kill_epoch}",
                snapshot.epoch()
            )
        });
        let (resumed, id) = self.tracer.span("snapshot.resume", |_| {
            replay::resumable(
                &setup.fleet,
                &setup.config,
                epoch_secs,
                Some(&snapshot),
                &mut NoopRecorder,
                |_| Ok(true),
            )
        });
        self.ledger.op();
        match resumed? {
            Some(report) => self.ledger.check_same("kill + resume", &report, reference),
            None => self
                .ledger
                .check(false, || "resumed replay stopped early".into()),
        }
        Ok((median(&decodes), self.tracer.secs(id)))
    }

    /// Checks that the trace holds a span for every layer this
    /// workload exercises.
    fn check_spans(&mut self) {
        let mut want = vec![
            "stream.scan",
            "stream.drain",
            "fleet.new",
            "fleet.run_stream",
            "telemetry.run_stream_traced",
        ];
        match self.plan.workload {
            Workload::WeekSnapshots => want.extend([
                "flate.gunzip",
                "plans.synthetic",
                "controller.static_baseline",
                "fleet.run_stream_resumable",
                "telemetry.run_stream_resumable_traced",
                "snapshot.to_bytes",
                "snapshot.write_to",
                "snapshot.kill_run",
                "snapshot.read_from",
                "snapshot.resume",
            ]),
            Workload::RetryStorm => {
                want.extend(["flate.gunzip", "plans.synthetic", "retry.no_retry_baseline"])
            }
            Workload::ZoneControl => want.extend(["optimizer.tune", "controller.static_baseline"]),
        }
        for name in want {
            let present = self.tracer.names().any(|n| n == name);
            self.ledger
                .check(present, || format!("trace has no {name} span"));
        }
    }
}

/// Telemetry counters reported as `fleet.*` counts.
const FLEET_COUNTERS: [(&str, Counter); 12] = [
    ("fleet.arrivals", Counter::Arrivals),
    ("fleet.spot_admitted", Counter::SpotAdmitted),
    ("fleet.policy_rejected", Counter::PolicyRejected),
    ("fleet.capacity_missed", Counter::CapacityMissed),
    ("fleet.completions", Counter::Completions),
    ("fleet.ghost_completions", Counter::GhostCompletions),
    ("fleet.spot_demoted", Counter::SpotDemoted),
    ("fleet.drained", Counter::Drained),
    ("fleet.migrated", Counter::Migrated),
    ("fleet.notified", Counter::Notified),
    ("fleet.supply_steps", Counter::SupplySteps),
    ("fleet.notices_fired", Counter::NoticesFired),
];

/// Per-round timings of the traced pass, in seconds (`overhead` is a
/// ratio). A series stays empty where the workload has no such replay.
#[derive(Default)]
struct Rounds {
    drain: Vec<f64>,
    plain: Vec<f64>,
    /// `run_stream` less the drain: the simulation's own time.
    self_s: Vec<f64>,
    /// Traced over untraced `run_stream`.
    overhead: Vec<f64>,
    /// `run_stream` less the open-loop-controller replay.
    controller: Vec<f64>,
    /// `run_stream` less the retries-off replay.
    retry: Vec<f64>,
    /// Snapshot callbacks of the resumable replay.
    write: Vec<f64>,
    /// Resumable replay less callbacks less `run_stream`.
    capture: Vec<f64>,
}

/// Seconds of each set-up: in total, in the scan, in tuning.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    scan: Vec<f64>,
    tune: Vec<f64>,
}

/// The snapshot layer's figures; all zero where the measured replay
/// writes no snapshots.
#[derive(Default)]
struct SnapshotLayer {
    epochs: f64,
    bytes_max: f64,
    last_over_first: f64,
    write_s: f64,
    write_p50: f64,
    write_max: f64,
    encode_s: f64,
    capture_ns: f64,
    decode_s: f64,
    resume_s: f64,
}

/// An I/O failure of the benchmark's own files, as the simulator's error
/// type so snapshot callbacks can return it.
fn io_err(e: std::io::Error) -> freedom::FreedomError {
    freedom::FreedomError::InvalidArgument(format!("I/O: {e}"))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
