//! The three workloads: their inputs, their set-up, and the market each
//! one replays on. Set-up is what a user pays between having the input
//! and being ready to replay: the trace scan (or generator scan), the
//! function plans (tuning included), and `FleetSimulator::new`.

use std::io;
use std::path::Path;

use flate::CompressMode;
use freedom::fleet::{
    AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetSimulator, PidConfig,
    RightSizerConfig, StreamTrace, TraceSource,
};
use freedom::market::MarketConfig;
use freedom_experiments::fleet_retry_storm::{policy_presets, transient_presets};
use freedom_experiments::fleet_simulation::{
    market_config, market_tightness, synthetic_plans, tuned_base_plans,
};
use freedom_experiments::fleet_zone_outage::{fault_presets, zone_layout};
use freedom_experiments::week_trace::WeekTraceSpec;
use freedom_experiments::ExperimentOpts;

use crate::inputs;
use crate::replay::Fleet;
use crate::spans::Tracer;

/// Snapshot epoch of `week_snapshots`, as `fleet_week_replay` runs it.
const WEEK_EPOCH_SECS: f64 = 6.0 * 3600.0;

/// Seed of `synthetic_plans`, as `fleet_week_replay` uses it.
const PLAN_SEED: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fleet_week_replay`'s path: stored-block gz day files on disk,
    /// PID market, crash-resumable replay writing a snapshot per epoch.
    WeekSnapshots,
    /// Huffman-coded day parts in memory under a transient-fault storm
    /// with retries and hedging; no snapshots.
    RetryStorm,
    /// Generated diurnal trace on tuned plans, 3-zone market with
    /// outages, surrogate right-sizer control.
    ZoneControl,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WeekSnapshots,
        Workload::RetryStorm,
        Workload::ZoneControl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WeekSnapshots => "week_snapshots",
            Workload::RetryStorm => "retry_storm",
            Workload::ZoneControl => "zone_control",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the measured benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Everything a workload replays, fixed by workload, scale and seed.
pub struct Plan {
    pub workload: Workload,
    /// Day-file shape (`week_snapshots`, `retry_storm`).
    pub week: WeekTraceSpec,
    /// Generated-trace shape (`zone_control`): functions, seconds and
    /// mean arrivals per second per function.
    pub generated: (usize, f64, f64),
    /// Snapshot epoch of the measured replay, if it snapshots.
    pub epoch_secs: Option<f64>,
    pub seed: u64,
}

impl Plan {
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let week = match scale {
            Scale::Full => WeekTraceSpec {
                days: 4,
                functions: 4_000,
                row_every: 60,
                seed,
            },
            Scale::Tiny => WeekTraceSpec {
                days: 1,
                functions: 60,
                row_every: 30,
                seed,
            },
        };
        let generated = match scale {
            Scale::Full => (1_200, 6.0 * 3600.0, 0.05),
            Scale::Tiny => (12, 900.0, 0.5),
        };
        let epoch_secs = (workload == Workload::WeekSnapshots).then_some(match scale {
            Scale::Full => WEEK_EPOCH_SECS,
            Scale::Tiny => 7200.0,
        });
        Plan {
            workload,
            week,
            generated,
            epoch_secs,
            seed,
        }
    }

    /// Synthesizes (or loads from the cache) the workload's inputs.
    pub fn inputs(&self, cache_root: &Path) -> io::Result<Inputs> {
        Ok(match self.workload {
            Workload::WeekSnapshots => Inputs::Files(inputs::day_files(
                cache_root,
                &self.week,
                CompressMode::Stored,
            )?),
            Workload::RetryStorm => Inputs::Parts(inputs::read_all(&inputs::day_files(
                cache_root,
                &self.week,
                CompressMode::FixedHuffman,
            )?)?),
            Workload::ZoneControl => Inputs::Generated,
        })
    }

    /// The fleet configuration each replay of this workload runs.
    /// `headroom` is the planner's admission policy (tuned plans only).
    fn config(&self, headroom: AdmissionPolicy) -> FleetConfig {
        let [_, medium, tight] = market_tightness();
        match self.workload {
            Workload::WeekSnapshots => FleetConfig {
                market: market_config(&tight, AdmissionPolicy::Greedy),
                control: ControlConfig {
                    cadence_secs: 30.0,
                    controller: ControllerConfig::HeadroomPid(PidConfig::default()),
                },
                ..FleetConfig::default()
            },
            Workload::RetryStorm => FleetConfig {
                market: market_config(&tight, AdmissionPolicy::Greedy),
                control: ControlConfig {
                    cadence_secs: 20.0,
                    controller: ControllerConfig::Static,
                },
                faults: transient_presets()[2].plan,
                retry: policy_presets()[2].policy,
                ..FleetConfig::default()
            },
            Workload::ZoneControl => FleetConfig {
                market: MarketConfig {
                    zones: zone_layout(),
                    ..market_config(&medium, headroom)
                },
                control: ControlConfig {
                    cadence_secs: 20.0,
                    controller: ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
                },
                faults: fault_presets()[2].plan,
                ..FleetConfig::default()
            },
        }
    }

    /// One set-up from generated inputs to a replay-ready fleet, with a
    /// span around each layer call.
    pub fn setup(&self, inputs: &Inputs, tracer: &mut Tracer) -> freedom::Result<Setup> {
        let (built, root) = tracer.span("setup", |t| {
            let trace = t
                .span("stream.scan", |_| match inputs {
                    Inputs::Files(paths) => StreamTrace::from_csv_files(paths),
                    Inputs::Parts(parts) => {
                        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
                        StreamTrace::from_csv_parts(&refs)
                    }
                    Inputs::Generated => StreamTrace::generate(
                        TraceSource::Diurnal {
                            mean_rps: self.generated.2,
                            peak_to_trough: 4.0,
                            period_secs: self.generated.1,
                        },
                        self.generated.0,
                        self.generated.1,
                        self.seed,
                    ),
                })
                .0?;
            let functions = trace.n_functions();
            let (plans, headroom) = match inputs {
                Inputs::Generated => {
                    t.span("optimizer.tune", |_| {
                        // One tuning worker: the benchmark keeps its load
                        // to the replay thread plus, at most, one helper.
                        let opts = ExperimentOpts::fast().with_threads(1);
                        let (base, planner) = tuned_base_plans(&opts)?;
                        let plans = (0..functions).map(|i| base[i % base.len()].clone());
                        Ok::<_, freedom::FreedomError>((
                            plans.collect(),
                            planner.admission_policy(),
                        ))
                    })
                    .0?
                }
                _ => (
                    t.span("plans.synthetic", |_| synthetic_plans(functions, PLAN_SEED))
                        .0?,
                    AdmissionPolicy::Greedy,
                ),
            };
            let sim = t.span("fleet.new", |_| FleetSimulator::new(plans)).0?;
            Ok::<_, freedom::FreedomError>((trace, sim, self.config(headroom)))
        });
        let (trace, sim, config) = built?;
        let time_of = |name: &str| -> f64 {
            tracer
                .children(root)
                .filter(|s| s.name == name)
                .fold(0.0, |sum, s| sum + s.secs())
        };
        Ok(Setup {
            scan_s: time_of("stream.scan"),
            tune_s: time_of("optimizer.tune"),
            total_s: tracer.secs(root),
            fleet: Fleet { trace, sim },
            config,
        })
    }
}

/// The synthesized inputs the program receives.
pub enum Inputs {
    /// gz day files on disk, replayed file-backed.
    Files(Vec<std::path::PathBuf>),
    /// gz day parts held in memory.
    Parts(Vec<Vec<u8>>),
    /// Nothing on disk: the trace is generated from the plan's seed
    /// during set-up.
    Generated,
}

/// A replay-ready fleet and how long it took to get there.
pub struct Setup {
    pub fleet: Fleet,
    pub config: FleetConfig,
    pub scan_s: f64,
    pub tune_s: f64,
    pub total_s: f64,
}
