//! Retry-storm sweep: what invocation-level failure semantics cost and
//! buy when functions themselves fail, not just the market under them.
//!
//! Every cell replays one heavy-tail trace over the tight spot market
//! under one transient-fault preset and one retry policy:
//!
//! - fault presets escalate from `calm` (no transients) through `flaky`
//!   (occasional crash-on-start, mid-flight aborts, stragglers) to
//!   `storm` (heavy transients plus 6x stragglers);
//! - policies escalate from `no_retry` (failures dead-letter on the
//!   spot) through `retry` (seeded exponential backoff under a
//!   per-family token budget) and `hedge` (plus hedged re-issue against
//!   stragglers) to `full` (plus retry-budget brownout with
//!   hysteresis).
//!
//! Reported per cell: goodput (invocations that actually completed),
//! the retry ledger (retries, hedge wins, dead letters, brownout
//! sheds), and the cost of reliability — how much the re-executions
//! inflate spend over the `no_retry` cell of the same preset.
//!
//! On top of the sweep, [`run`] replays the stormiest cell under two
//! fault seeds through a mid-storm kill/resume cycle and records
//! whether the resumed report stayed bit-identical to the
//! uninterrupted one — the chaos check CI pins.

use freedom::fleet::{
    BrownoutConfig, ControlConfig, ControllerConfig, FaultPlan, FleetConfig, FleetReport,
    FleetSimulator, NoopRecorder, PlacementStrategy, RetryPolicy, StreamTrace, TraceSource,
};
use freedom::snapshot::ReplaySnapshot;

use crate::context::{par_map, ExperimentOpts};
use crate::fleet_simulation::{fleet_scale, market_config, market_tightness, tuned_base_plans};
use crate::report::{fmt_f, TextTable};

/// Controller tick cadence: brownout pressure is measured per control
/// epoch, so the storm needs epochs to toggle in.
const CADENCE_SECS: f64 = 20.0;

/// Snapshot cadence of the kill/resume chaos check.
const SNAPSHOT_SECS: f64 = 30.0;

/// One transient-fault preset of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct TransientPreset {
    /// Row label (`calm`, `flaky`, `storm`).
    pub label: &'static str,
    /// The injected plan (transients only; the market itself is healthy
    /// so the ledger isolates invocation-level failures).
    pub plan: FaultPlan,
}

/// The escalation ladder, calmest first.
pub fn transient_presets() -> [TransientPreset; 3] {
    [
        TransientPreset {
            label: "calm",
            plan: FaultPlan::NONE,
        },
        TransientPreset {
            label: "flaky",
            plan: FaultPlan {
                seed: 29,
                crash_prob: 0.04,
                abort_prob: 0.03,
                straggler_prob: 0.05,
                straggler_factor: 4.0,
                ..FaultPlan::NONE
            },
        },
        TransientPreset {
            label: "storm",
            plan: FaultPlan {
                seed: 29,
                crash_prob: 0.12,
                abort_prob: 0.10,
                straggler_prob: 0.15,
                straggler_factor: 6.0,
                ..FaultPlan::NONE
            },
        },
    ]
}

/// One retry-policy preset of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct PolicyPreset {
    /// Column label (`no_retry`, `retry`, `hedge`, `full`).
    pub label: &'static str,
    /// The policy.
    pub policy: RetryPolicy,
}

/// The policy ladder, barest first.
pub fn policy_presets() -> [PolicyPreset; 4] {
    let retry = RetryPolicy {
        max_attempts: 4,
        backoff_base_secs: 0.5,
        backoff_cap_secs: 8.0,
        budget_per_sec: 2.0,
        budget_burst: 8.0,
        ..RetryPolicy::DEFAULT
    };
    [
        PolicyPreset {
            label: "no_retry",
            policy: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::DEFAULT
            },
        },
        PolicyPreset {
            label: "retry",
            policy: retry,
        },
        PolicyPreset {
            label: "hedge",
            policy: RetryPolicy {
                hedge_delay_secs: 1.0,
                ..retry
            },
        },
        PolicyPreset {
            label: "full",
            policy: RetryPolicy {
                hedge_delay_secs: 1.0,
                brownout: Some(BrownoutConfig {
                    enter_pressure: 0.15,
                    exit_pressure: 0.05,
                    utilization_ceiling: 0.8,
                }),
                ..retry
            },
        },
    ]
}

/// One sweep data point.
#[derive(Debug, Clone)]
pub struct StormRow {
    /// Transient preset label.
    pub faults: &'static str,
    /// Retry-policy preset label.
    pub policy: &'static str,
    /// Cost of the `no_retry` cell under the same preset.
    pub no_retry_cost_usd: f64,
    /// The idle-aware replay.
    pub report: FleetReport,
}

impl StormRow {
    /// Share of invocations that actually completed: a dead letter is
    /// the one terminal class whose work never ran to completion.
    pub fn goodput(&self) -> f64 {
        if self.report.invocations == 0 {
            return 1.0;
        }
        1.0 - self.report.dead_lettered as f64 / self.report.invocations as f64
    }

    /// Cost of reliability: spend inflation over the `no_retry` cell of
    /// the same fault preset (0.0 for that cell itself).
    pub fn cost_of_reliability(&self) -> f64 {
        self.report.total_cost_usd / self.no_retry_cost_usd - 1.0
    }
}

/// One kill/resume chaos check of the stormiest cell.
#[derive(Debug, Clone)]
pub struct ResumeCheck {
    /// Fault seed the storm replayed under.
    pub fault_seed: u64,
    /// Snapshot epoch the replay was killed at.
    pub killed_at_epoch: u64,
    /// Whether the resumed report matched the uninterrupted one bit
    /// for bit.
    pub bit_identical: bool,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct RetryStormResult {
    /// Functions in the simulated fleet.
    pub n_functions: usize,
    /// Trace length in seconds.
    pub duration_secs: f64,
    /// Rows, grouped by fault preset (calmest first), then policy.
    pub rows: Vec<StormRow>,
    /// Mid-storm kill/resume checks, one per fault seed.
    pub resume_checks: Vec<ResumeCheck>,
}

impl RetryStormResult {
    /// The row of one sweep cell.
    pub fn cell(&self, faults: &str, policy: &str) -> Option<&StormRow> {
        self.rows
            .iter()
            .find(|r| r.faults == faults && r.policy == policy)
    }

    /// Whether every kill/resume check reproduced the uninterrupted
    /// report bit for bit.
    pub fn resume_bit_identical(&self) -> bool {
        !self.resume_checks.is_empty() && self.resume_checks.iter().all(|c| c.bit_identical)
    }

    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "faults",
            "policy",
            "goodput",
            "cost of rel.",
            "retried",
            "hedge wins",
            "dead letters",
            "shed",
            "p95 inflation",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.faults.to_string(),
                r.policy.to_string(),
                format!("{}%", fmt_f(r.goodput() * 100.0, 2)),
                format!("{}%", fmt_f(r.cost_of_reliability() * 100.0, 1)),
                r.report.retried.to_string(),
                r.report.hedge_wins.to_string(),
                r.report.dead_lettered.to_string(),
                r.report.shed_retries.to_string(),
                fmt_f(r.report.p95_latency_inflation, 3),
            ]);
        }
        let checks = self
            .resume_checks
            .iter()
            .map(|c| {
                format!(
                    "seed {} killed at epoch {}: {}",
                    c.fault_seed,
                    c.killed_at_epoch,
                    if c.bit_identical {
                        "bit-identical"
                    } else {
                        "DIVERGED"
                    }
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        format!(
            "Fleet retry storm (transient faults x retry policies): \
             {} functions, {}s per trace\n{}\nkill/resume mid-storm: {}",
            self.n_functions,
            fmt_f(self.duration_secs, 0),
            t.render(),
            checks
        )
    }

    /// Writes the CSV artifact.
    pub fn write_csv(&self) -> std::io::Result<std::path::PathBuf> {
        let mut t = TextTable::new(vec![
            "faults",
            "policy",
            "invocations",
            "goodput",
            "cost_usd",
            "no_retry_cost_usd",
            "cost_of_reliability",
            "spot_share",
            "retried",
            "hedge_wins",
            "dead_lettered",
            "shed_retries",
            "rejected",
            "slo_violations",
            "p95_latency_inflation",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.faults.to_string(),
                r.policy.to_string(),
                r.report.invocations.to_string(),
                r.goodput().to_string(),
                r.report.total_cost_usd.to_string(),
                r.no_retry_cost_usd.to_string(),
                r.cost_of_reliability().to_string(),
                r.report.spot_share().to_string(),
                r.report.retried.to_string(),
                r.report.hedge_wins.to_string(),
                r.report.dead_lettered.to_string(),
                r.report.shed_retries.to_string(),
                r.report.rejected.to_string(),
                r.report.slo_violations.to_string(),
                r.report.p95_latency_inflation.to_string(),
            ]);
        }
        t.write_csv("fleet_retry_storm.csv")
    }
}

/// Runs the sweep: every transient preset × retry policy over one
/// heavy-tail trace on the tight market, the cells fanned out across
/// `opts.effective_threads()` workers, then the mid-storm kill/resume
/// chaos check under two fault seeds.
pub fn run(opts: &ExperimentOpts) -> freedom::Result<RetryStormResult> {
    let (base_plans, planner) = tuned_base_plans(opts)?;
    let (duration_secs, n_functions) = fleet_scale(opts);
    // Backoff ladders and brownout hysteresis need control epochs to
    // play out in: stretch the `--fast` trace like the other sweeps.
    let duration_secs = if opts.opt_repeats <= 2 {
        duration_secs * 5.0
    } else {
        duration_secs
    };
    let plans = (0..n_functions)
        .map(|i| base_plans[i % base_plans.len()].clone())
        .collect();
    let sim = FleetSimulator::new(plans)?;

    let trace = StreamTrace::generate(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        duration_secs,
        opts.seed,
    )?;

    // The tight preset: scarce enough that retries compete with first
    // attempts for capacity instead of vanishing into headroom.
    let tight = market_tightness()[2];
    let market = market_config(&tight, planner.admission_policy());
    let config_of = |plan: FaultPlan, policy: RetryPolicy| FleetConfig {
        market,
        control: ControlConfig {
            cadence_secs: CADENCE_SECS,
            controller: ControllerConfig::Static,
        },
        faults: plan,
        retry: policy,
        ..FleetConfig::default()
    };
    let replay = |config: &FleetConfig| {
        sim.run_stream_traced(
            &trace,
            PlacementStrategy::IdleAware,
            config,
            &mut NoopRecorder,
        )
        .map(|(report, _)| report)
    };
    let resumable = |config: &FleetConfig,
                     resume: Option<&ReplaySnapshot>,
                     on_snapshot: &mut dyn FnMut(&ReplaySnapshot) -> bool| {
        sim.run_stream_resumable_traced(
            &trace,
            PlacementStrategy::IdleAware,
            config,
            SNAPSHOT_SECS,
            resume,
            &mut NoopRecorder,
            |s, _| Ok(on_snapshot(s)),
        )
    };

    let faults = transient_presets();
    let policies = policy_presets();
    let points: Vec<(usize, usize)> = (0..faults.len())
        .flat_map(|f| (0..policies.len()).map(move |p| (f, p)))
        .collect();
    let reports = par_map(opts, &points, |&(f, p)| {
        replay(&config_of(faults[f].plan, policies[p].policy))
    })
    .into_iter()
    .collect::<freedom::Result<Vec<FleetReport>>>()?;
    let rows = points
        .iter()
        .zip(reports)
        .map(|(&(f, p), report)| StormRow {
            faults: faults[f].label,
            policy: policies[p].label,
            // no_retry is column 0 of each preset's row group.
            no_retry_cost_usd: 0.0,
            report,
        })
        .collect::<Vec<_>>();
    let rows = rows
        .iter()
        .map(|r| StormRow {
            no_retry_cost_usd: rows
                .iter()
                .find(|b| b.faults == r.faults && b.policy == "no_retry")
                .map(|b| b.report.total_cost_usd)
                .unwrap_or(r.report.total_cost_usd),
            ..r.clone()
        })
        .collect();

    // The chaos check: kill the stormiest cell mid-storm at a middle
    // snapshot boundary, resume, and compare bit for bit — once per
    // fault seed so a seed-dependent heap or budget bug still trips it.
    let storm = faults[2];
    let full = policies[3];
    let mut resume_checks = Vec::new();
    for seed_bump in [0, 2] {
        let config = config_of(
            FaultPlan {
                seed: storm.plan.seed + seed_bump,
                ..storm.plan
            },
            full.policy,
        );
        let reference = replay(&config)?;
        let mut epochs = Vec::new();
        let uninterrupted = resumable(&config, None, &mut |s| {
            epochs.push(s.epoch());
            true
        })?;
        let uninterrupted = uninterrupted.ok_or_else(|| {
            freedom::FreedomError::InvalidArgument("uninterrupted run was aborted".into())
        })?;
        let kill_at = epochs[epochs.len() / 2];
        let mut snap = None;
        let crashed = resumable(&config, None, &mut |s| {
            snap = Some(s.clone());
            s.epoch() < kill_at
        })?;
        let snap = snap.ok_or_else(|| {
            freedom::FreedomError::InvalidArgument("no snapshot reached the kill point".into())
        })?;
        let resumed = resumable(&config, Some(&snap), &mut |_| true)?;
        let resumed = resumed.ok_or_else(|| {
            freedom::FreedomError::InvalidArgument("resumed run was aborted".into())
        })?;
        resume_checks.push(ResumeCheck {
            fault_seed: storm.plan.seed + seed_bump,
            killed_at_epoch: kill_at,
            bit_identical: crashed.is_none()
                && format!("{reference:?}") == format!("{uninterrupted:?}")
                && format!("{reference:?}") == format!("{resumed:?}"),
        });
    }

    Ok(RetryStormResult {
        n_functions,
        duration_secs,
        rows,
        resume_checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_buy_goodput_and_cost_real_money() {
        let result = run(&ExperimentOpts::fast()).unwrap();
        assert_eq!(result.rows.len(), 3 * 4);
        for r in &result.rows {
            assert!(r.report.invocations > 0);
            assert_eq!(
                r.report.spot_admitted
                    + r.report.drained
                    + r.report.migrated
                    + r.report.spot_demoted
                    + r.report.rejected
                    + r.report.dead_lettered,
                r.report.invocations + r.report.retried,
                "{}/{}: retry accounting leaked",
                r.faults,
                r.policy
            );
            if r.faults == "calm" {
                assert_eq!(r.report.retried, 0, "calm cells must not retry");
                assert_eq!(r.report.dead_lettered, 0);
            }
        }
        // The retry machinery must actually fire under transients.
        let total = |f: fn(&StormRow) -> usize| result.rows.iter().map(f).sum::<usize>();
        assert!(total(|r| r.report.retried) > 0, "nothing retried");
        assert!(
            total(|r| r.report.dead_lettered) > 0,
            "nothing dead-lettered"
        );
        // Retrying recovers goodput the bare policy loses to transients.
        let bare = result.cell("storm", "no_retry").unwrap();
        let retry = result.cell("storm", "retry").unwrap();
        assert!(
            retry.goodput() > bare.goodput(),
            "retries must lift goodput: {} vs {}",
            retry.goodput(),
            bare.goodput()
        );
        // The mid-storm kill/resume cycle must reproduce the report.
        assert_eq!(result.resume_checks.len(), 2);
        assert!(
            result.resume_bit_identical(),
            "kill/resume diverged: {:?}",
            result.resume_checks
        );
        assert!(result.render().contains("retry storm"));
    }
}
