//! Closed-loop control-plane sweep: what feedback buys the provider.
//!
//! The fleet sweep ([`crate::fleet_simulation`]) scores *static*
//! admission policies; this experiment closes the loop. Every cell
//! replays one trace under one market tightness with one controller
//! revising the provider's decisions online at the control cadence:
//!
//! - `static_greedy` / `static_headroom` — the open-loop baselines
//!   (today's fixed `ProviderPlan`s);
//! - `pid` — [`HeadroomPid`](freedom::controller::HeadroomPid)
//!   feedback from the observed demotion rate to the admission
//!   utilization ceiling;
//! - `right_sizer` —
//!   [`SurrogateRightSizer`](freedom::controller::SurrogateRightSizer)
//!   re-planning per-function placements from the latencies production
//!   traffic actually observed, through warm-start surrogate refits and
//!   the idle-capacity planner's guardrail.
//!
//! Reported per cell: provider savings vs. the best-config-only
//! baseline, spot share, demotions, rejections, SLO violations, the
//! ceiling's settling time (how long the feedback loop takes to reach
//! its final operating point), and how many placement revisions the
//! controller issued.

use freedom::fleet::{
    AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetReport, FleetSimulator,
    PidConfig, PlacementStrategy, ReplayStats, RightSizerConfig, StreamTrace, Telemetry,
};

use crate::context::{par_map, ExperimentOpts};
use crate::fleet_simulation::{
    fleet_scale, market_config, market_tightness, trace_sources, tuned_base_plans,
};
use crate::report::{fmt_f, TextTable};

/// Controller tick cadence: three revisions per supply step of the
/// fleet sweep's markets (60 s), so feedback reacts between drops.
pub const CADENCE_SECS: f64 = 20.0;

/// Ceiling tolerance of the settling-time metric.
const SETTLE_EPS: f64 = 0.02;

/// One controller preset of the sweep: the control configuration plus
/// the static admission policy the market starts from.
#[derive(Debug, Clone, Copy)]
pub struct ControllerPreset {
    /// Row label.
    pub label: &'static str,
    /// The control loop (cadence + controller).
    pub control: ControlConfig,
    /// Admission policy configured into the market (the PID overrides it
    /// from its own initial ceiling).
    pub admission: AdmissionPolicy,
}

/// The four presets: both open-loop baselines, then the two feedback
/// controllers. `headroom` is the static utilization-ceiling policy the
/// non-greedy presets start from — the sweep passes the planner-emitted
/// one, so the baseline matches the fleet sweep's "headroom" cells.
pub fn controller_presets(headroom: AdmissionPolicy) -> [ControllerPreset; 4] {
    let static_loop = |controller| ControlConfig {
        cadence_secs: CADENCE_SECS,
        controller,
    };
    [
        ControllerPreset {
            label: "static_greedy",
            control: static_loop(ControllerConfig::Static),
            admission: AdmissionPolicy::Greedy,
        },
        ControllerPreset {
            label: "static_headroom",
            control: static_loop(ControllerConfig::Static),
            admission: headroom,
        },
        ControllerPreset {
            label: "pid",
            control: static_loop(ControllerConfig::HeadroomPid(PidConfig::default())),
            admission: AdmissionPolicy::Greedy,
        },
        ControllerPreset {
            label: "right_sizer",
            control: static_loop(ControllerConfig::SurrogateRightSizer(
                RightSizerConfig::default(),
            )),
            admission: headroom,
        },
    ]
}

/// One sweep data point.
///
/// `Debug` deliberately covers only the *result* fields: `stats` and
/// `telemetry` are replay diagnostics (the digest carries sampled
/// wall-clock timings), so they are excluded from the bit-equality
/// surface the determinism tests compare.
#[derive(Clone)]
pub struct ControlRow {
    /// Workload shape label.
    pub source: &'static str,
    /// Market tightness preset label.
    pub tightness: &'static str,
    /// Controller preset label.
    pub controller: &'static str,
    /// Best-config-only baseline cost of this (source, tightness) cell.
    pub baseline_cost_usd: f64,
    /// The closed-loop idle-aware replay.
    pub report: FleetReport,
    /// Simulated seconds until the admission ceiling settled within
    /// ±0.02 of its final value (0 when it never moved).
    pub settling_secs: f64,
    /// Admission ceiling after the last tick (∞ = greedy).
    pub final_ceiling: f64,
    /// Placement revisions the controller issued over the trace.
    pub replans: u32,
    /// Peak-memory stats of the closed-loop replay (peak in-flight and
    /// cursor residency).
    pub stats: ReplayStats,
    /// One-line telemetry counter digest of the replay
    /// ([`Telemetry::brief`]).
    pub telemetry: String,
}

impl std::fmt::Debug for ControlRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlRow")
            .field("source", &self.source)
            .field("tightness", &self.tightness)
            .field("controller", &self.controller)
            .field("baseline_cost_usd", &self.baseline_cost_usd)
            .field("report", &self.report)
            .field("settling_secs", &self.settling_secs)
            .field("final_ceiling", &self.final_ceiling)
            .field("replans", &self.replans)
            .finish_non_exhaustive()
    }
}

impl ControlRow {
    /// Provider savings vs. the best-config-only baseline.
    pub fn savings(&self) -> f64 {
        1.0 - self.report.total_cost_usd / self.baseline_cost_usd
    }
}

/// Settling time of a ceiling trajectory: the first tick after which the
/// ceiling stays within [`SETTLE_EPS`] of its final value, in simulated
/// seconds. A trajectory that never moved settles at 0.
fn settling_secs(report: &FleetReport) -> f64 {
    let Some(last) = report.control.last() else {
        return 0.0;
    };
    let settled = |c: f64| {
        (c.is_infinite() && last.ceiling.is_infinite()) || (c - last.ceiling).abs() <= SETTLE_EPS
    };
    let mut at = 0.0;
    for s in &report.control {
        if !settled(s.ceiling) {
            at = f64::NAN; // moved outside the band: settling restarts
        } else if at.is_nan() {
            at = s.at_secs;
        }
    }
    if at.is_nan() {
        report.control.last().map_or(0.0, |s| s.at_secs)
    } else {
        at
    }
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct ControlLoopResult {
    /// Functions in the simulated fleet.
    pub n_functions: usize,
    /// Trace length in seconds.
    pub duration_secs: f64,
    /// Controller tick cadence in seconds.
    pub cadence_secs: f64,
    /// Rows, grouped by trace source, then tightness (loosest first),
    /// then controller preset.
    pub rows: Vec<ControlRow>,
}

impl ControlLoopResult {
    /// The row of one sweep cell.
    pub fn cell(&self, source: &str, tightness: &str, controller: &str) -> Option<&ControlRow> {
        self.rows
            .iter()
            .find(|r| r.source == source && r.tightness == tightness && r.controller == controller)
    }

    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "trace",
            "market",
            "controller",
            "savings",
            "spot share",
            "demoted",
            "rejected",
            "violations",
            "settle (s)",
            "ceiling",
            "replans",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.source.to_string(),
                r.tightness.to_string(),
                r.controller.to_string(),
                format!("{}%", fmt_f(r.savings() * 100.0, 1)),
                format!("{}%", fmt_f(r.report.spot_share() * 100.0, 1)),
                r.report.spot_demoted.to_string(),
                r.report.rejected.to_string(),
                r.report.slo_violations.to_string(),
                fmt_f(r.settling_secs, 0),
                if r.final_ceiling.is_infinite() {
                    "greedy".to_string()
                } else {
                    fmt_f(r.final_ceiling, 2)
                },
                r.replans.to_string(),
            ]);
        }
        format!(
            "Fleet control loop (feedback admission + online right-sizing): \
             {} functions, {}s per trace, {}s cadence\n{}",
            self.n_functions,
            fmt_f(self.duration_secs, 0),
            fmt_f(self.cadence_secs, 0),
            t.render()
        )
    }

    /// Writes the CSV artifact.
    pub fn write_csv(&self) -> std::io::Result<std::path::PathBuf> {
        let mut t = TextTable::new(vec![
            "trace_source",
            "market_tightness",
            "controller",
            "invocations",
            "baseline_cost_usd",
            "cost_usd",
            "savings",
            "spot_share",
            "spot_admitted",
            "spot_demoted",
            "policy_rejections",
            "capacity_misses",
            "slo_violations",
            "p95_latency_inflation",
            "control_ticks",
            "settling_secs",
            "final_ceiling",
            "replans",
            "peak_inflight",
            "peak_resident_events",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.source.to_string(),
                r.tightness.to_string(),
                r.controller.to_string(),
                r.report.invocations.to_string(),
                r.baseline_cost_usd.to_string(),
                r.report.total_cost_usd.to_string(),
                r.savings().to_string(),
                r.report.spot_share().to_string(),
                r.report.spot_admitted.to_string(),
                r.report.spot_demoted.to_string(),
                r.report.policy_rejections.to_string(),
                r.report.capacity_misses.to_string(),
                r.report.slo_violations.to_string(),
                r.report.p95_latency_inflation.to_string(),
                r.report.control.len().to_string(),
                r.settling_secs.to_string(),
                r.final_ceiling.to_string(),
                r.replans.to_string(),
                r.stats.peak_inflight.to_string(),
                r.stats.peak_resident_events().to_string(),
            ]);
        }
        t.write_csv("fleet_control_loop.csv")
    }
}

/// Runs the sweep: every trace source × market tightness × controller
/// preset, the cells fanned out across `opts.effective_threads()`
/// workers.
pub fn run(opts: &ExperimentOpts) -> freedom::Result<ControlLoopResult> {
    let (base_plans, planner) = tuned_base_plans(opts)?;
    let (duration_secs, n_functions) = fleet_scale(opts);
    // Feedback needs epochs to react across: the `--fast` fleet sweep's
    // two-minute traces see a single supply step, so this sweep runs
    // five times longer at the same reduced fleet size.
    let duration_secs = if opts.opt_repeats <= 2 {
        duration_secs * 5.0
    } else {
        duration_secs
    };
    let plans = (0..n_functions)
        .map(|i| base_plans[i % base_plans.len()].clone())
        .collect();
    let sim = FleetSimulator::new(plans)?;

    // Traces stay lazy: each cell's replay pulls events straight from
    // the generator cursors (constant memory), re-producing the stream
    // per replay instead of holding the merged view for the whole sweep.
    let sources = trace_sources(duration_secs);
    let traces = sources
        .iter()
        .map(|(_, source)| StreamTrace::generate(*source, n_functions, duration_secs, opts.seed))
        .collect::<freedom::Result<Vec<_>>>()?;
    let tightness = market_tightness();
    let presets = controller_presets(planner.admission_policy());

    // Every cell replays with a live per-cell recorder: the stats and
    // counter digest ride along in the row while the report itself stays
    // bit-identical to the untraced replay (the determinism lattice pins
    // this).
    let replay = |trace: &StreamTrace, strategy, config: &FleetConfig| {
        let mut tel = Telemetry::with_capacity(4096);
        let (report, stats) = sim.run_stream_traced(trace, strategy, config, &mut tel)?;
        Ok::<_, freedom::FreedomError>((report, stats, tel.brief()))
    };

    // Baselines: one best-config-only replay per (source, tightness) —
    // the baseline never touches the market, so the controller is
    // irrelevant to it.
    let base_points: Vec<(usize, usize)> = (0..sources.len())
        .flat_map(|s| (0..tightness.len()).map(move |t| (s, t)))
        .collect();
    let baselines = par_map(opts, &base_points, |&(s, t)| {
        let config = FleetConfig {
            market: market_config(&tightness[t], AdmissionPolicy::Greedy),
            ..FleetConfig::default()
        };
        Ok(
            replay(&traces[s], PlacementStrategy::BestConfigOnly, &config)?
                .0
                .total_cost_usd,
        )
    })
    .into_iter()
    .collect::<freedom::Result<Vec<f64>>>()?;

    let points: Vec<(usize, usize, usize)> = (0..sources.len())
        .flat_map(|s| {
            (0..tightness.len()).flat_map(move |t| (0..presets.len()).map(move |c| (s, t, c)))
        })
        .collect();
    let rows = par_map(opts, &points, |&(s, t, c)| {
        let preset = &presets[c];
        let config = FleetConfig {
            market: market_config(&tightness[t], preset.admission),
            control: preset.control,
            ..FleetConfig::default()
        };
        let (report, stats, telemetry) = replay(&traces[s], PlacementStrategy::IdleAware, &config)?;
        Ok(ControlRow {
            source: sources[s].0,
            tightness: tightness[t].label,
            controller: preset.label,
            baseline_cost_usd: baselines[s * tightness.len() + t],
            settling_secs: settling_secs(&report),
            final_ceiling: report
                .control
                .last()
                .map_or(f64::INFINITY, |smp| smp.ceiling),
            replans: report.control.iter().map(|smp| smp.replanned).sum(),
            report,
            stats,
            telemetry,
        })
    })
    .into_iter()
    .collect::<freedom::Result<Vec<_>>>()?;
    Ok(ControlLoopResult {
        n_functions,
        duration_secs,
        cadence_secs: CADENCE_SECS,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_beats_the_open_loop_where_it_matters() {
        let result = run(&ExperimentOpts::fast()).unwrap();
        assert_eq!(result.rows.len(), 4 * 3 * 4);
        for r in &result.rows {
            assert!(r.report.invocations > 0);
            assert_eq!(
                r.report.spot_admitted + r.report.spot_demoted + r.report.rejected,
                r.report.invocations,
                "{}/{}/{}",
                r.source,
                r.tightness,
                r.controller
            );
            assert!(!r.report.control.is_empty(), "every cell must tick");
        }

        // The acceptance claim: on the tight-market heavy-tail cell the
        // PID cuts demotions vs. the static greedy baseline without
        // adding SLO violations.
        let open = result.cell("heavy_tail", "tight", "static_greedy").unwrap();
        let pid = result.cell("heavy_tail", "tight", "pid").unwrap();
        assert!(
            open.report.spot_demoted > 0,
            "tight volatile market must demote under greedy admission"
        );
        assert!(
            pid.report.spot_demoted < open.report.spot_demoted,
            "pid must reduce demotions: {} vs {}",
            pid.report.spot_demoted,
            open.report.spot_demoted
        );
        assert!(
            pid.report.slo_violations <= open.report.slo_violations,
            "pid must not add violations: {} vs {}",
            pid.report.slo_violations,
            open.report.slo_violations
        );
        // The loop actually moved and the trajectory metrics see it.
        assert!(pid.final_ceiling < 1.0);
        assert!(pid.settling_secs >= 0.0);

        // Static rows never revise placements; the right-sizer does.
        for r in &result.rows {
            if r.controller.starts_with("static") {
                assert_eq!(r.replans, 0, "{}/{}", r.source, r.tightness);
                assert_eq!(r.settling_secs, 0.0);
            }
        }
        assert!(
            result
                .rows
                .iter()
                .filter(|r| r.controller == "right_sizer")
                .map(|r| r.replans)
                .sum::<u32>()
                > 0,
            "observed latencies must trigger replans somewhere"
        );
        assert!(result.render().contains("control loop"));
    }
}
