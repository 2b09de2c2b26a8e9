//! Trace-driven fleet simulation over a shared spot market (extension of
//! §6.2).
//!
//! Figure 15 scores the planner's per-family decisions one function at a
//! time. A provider, though, operates a *fleet*: invocations arrive
//! concurrently, warm capacity is finite, **shared across every
//! function**, and fluctuates as the provider's own load moves. This
//! module closes that loop with a discrete-event simulation:
//!
//! - an arrival trace over `N` functions, read through a
//!   [`StreamTrace`] (the [`TraceSource`] Poisson / bursty / diurnal /
//!   heavy-tail generators, or Azure-style CSV files);
//! - a provider-wide [spot market](crate::market): per-family warm VM
//!   slots whose supply follows a seeded [`SupplyProcess`], an
//!   [`AdmissionPolicy`] gating spot requests on market utilization, and
//!   demand-dependent pricing
//!   ([`SpotPricing::demand_fraction`](freedom_pricing::SpotPricing::demand_fraction));
//! - two [`PlacementStrategy`]s: always-best-config (baseline, pure
//!   on-demand) and idle-aware (try θ-guardrailed alternate families on
//!   the shared market, fall back to on-demand);
//! - a [`FleetReport`] with provider cost, latency inflation, SLO
//!   violations, and the admission ledger (admitted / demoted /
//!   rejected).
//!
//! # One replay engine and determinism
//!
//! The shared ledger couples every function, so the replay is one
//! sequential pass over the merged event stream: every arrival, completion,
//! supply step, notice, retry and controller tick fires in one global time
//! order. There are three entry points over that single engine:
//!
//! - [`run`](FleetSimulator::run) replays a materialized [`Trace`]
//!   ([`StreamTrace::materialize`]) — the oracle the tests compare
//!   against and the simulation-only reference, not a production input;
//! - [`run_stream_traced`](FleetSimulator::run_stream_traced) replays a
//!   lazy [`StreamTrace`] with peak memory O(functions + in-flight
//!   placements) instead of O(total arrivals), under any telemetry
//!   [`Recorder`] ([`NoopRecorder`] compiles the instrumentation away);
//! - [`run_stream_resumable_traced`](FleetSimulator::run_stream_resumable_traced)
//!   cuts the same pass into epochs and, at each boundary, hands out a
//!   crash-resume [`ReplaySnapshot`] carrying the exact in-flight,
//!   retry, and controller state.
//!
//! The two streaming entry points are thin shells over one private
//! epoch loop (an uninterrupted replay is one unbounded epoch) and pull
//! their events from an ingest thread (the stream module's pipelined
//! hand-off), so trace decoding overlaps the simulation; the simulation
//! itself stays on the calling thread.
//!
//! All three are bit-identical for the same trace, whatever the recorder
//! and wherever a resumable run was killed and resumed (guarded by
//! `tests/determinism.rs` and `tests/crash_resume.rs`). See
//! `crates/core/README.md` for the full contract.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use freedom_faas::PerfTable;
use freedom_linalg::stats;
use freedom_optimizer::SearchSpace;
use freedom_telemetry as tel;
use freedom_workloads::FunctionKind;

use crate::controller::{
    admission_ceiling, update_brownout, ControlSample, ControlScratch, ControlState, Controller,
    FunctionView, ObsAccum, Observation, MAX_TICKS,
};
pub use crate::faults::FaultPlan;
use crate::faults::TransientFault;
use crate::market::{
    family_index, Fnv64, InFlight, MarketConfig, SpotLedger, SupplySchedule, N_MARKET_FAMILIES,
    RUN_ABORT, RUN_HEDGE, RUN_NORMAL,
};
use crate::provider::PlannedPlacement;
use crate::retry::{PendingRetry, RetryBudget, KIND_HEDGE, KIND_RETRY};
use crate::snapshot::{ReplaySnapshot, Unwire, Wire, SNAPSHOT_VERSION};
use crate::trace::{event_nanos, MAX_WINDOWS};
use crate::{FreedomError, Result};

pub use crate::controller::{ControlConfig, ControllerConfig, PidConfig, RightSizerConfig};
pub use crate::market::{AdmissionPolicy, SupplyProcess, ZoneConfig};
pub use crate::retry::{BrownoutConfig, RetryPolicy};
pub use crate::snapshot::SNAPSHOT_VERSION as REPLAY_SNAPSHOT_VERSION;
use crate::stream::pipelined;
pub use crate::stream::{EventStream, StreamCheckpoint, StreamTrace};
pub use crate::trace::{Trace, TraceEvent, TraceSource};
pub use freedom_telemetry::{NoopRecorder, Recorder, Telemetry};

/// How the provider places each invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Always run the tuned best configuration on the on-demand pool.
    BestConfigOnly,
    /// Request a spot placement on a θ-accepted alternate family from the
    /// shared market; fall back to the on-demand best configuration when
    /// admission is denied or nothing fits.
    IdleAware,
}

impl PlacementStrategy {
    /// Both strategies, baseline first.
    pub const ALL: [PlacementStrategy; 2] = [
        PlacementStrategy::BestConfigOnly,
        PlacementStrategy::IdleAware,
    ];
}

/// Everything the simulator needs to place one function.
#[derive(Debug, Clone)]
pub struct FunctionPlan {
    /// The function this plan serves.
    pub function: FunctionKind,
    /// The tuned best configuration (on-demand fallback).
    pub best_config: freedom_faas::ResourceConfig,
    /// Planner output: per-family predicted-best placements; only
    /// `accepted` ones are used, in the given order.
    pub alternates: Vec<PlannedPlacement>,
    /// Ground truth used to look up execution outcomes.
    pub table: PerfTable,
}

/// Fleet-simulation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// The shared spot market every function contends for.
    pub market: MarketConfig,
    /// SLO guardrail: an invocation whose latency inflation exceeds
    /// `1 + slo_theta` counts as a violation (paper: θ = 0.10).
    pub slo_theta: f64,
    /// The closed-loop control plane: tick cadence plus the feedback
    /// controller revising admission and placements during the replay.
    /// Defaults to [`ControllerConfig::Static`] — the open-loop engine.
    pub control: ControlConfig,
    /// Seeded fault injection: zone outages, supply-shock bursts, and
    /// dropped preemption-notice deliveries, all expanded into
    /// simulated-time events the supply schedule composes. Defaults to
    /// [`FaultPlan::NONE`] — nothing injected.
    pub faults: FaultPlan,
    /// How the platform absorbs the per-invocation transient faults a
    /// [`FaultPlan`] injects: backoff/attempt caps, per-family retry
    /// budgets, hedged re-issue of stragglers, and the brownout
    /// thresholds. Inert unless `faults` draws transient faults (or
    /// hedging is enabled).
    pub retry: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            market: MarketConfig::default(),
            slo_theta: 0.10,
            control: ControlConfig::default(),
            faults: FaultPlan::NONE,
            retry: RetryPolicy::DEFAULT,
        }
    }
}

/// Aggregate outcome of one simulated trace.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Strategy simulated.
    pub strategy: PlacementStrategy,
    /// Invocations served.
    pub invocations: usize,
    /// Total provider cost in USD (spot admissions at the
    /// demand-dependent discount, demotions re-billed at list price,
    /// everything else on-demand).
    pub total_cost_usd: f64,
    /// Mean latency inflation vs. each function's best configuration
    /// (1.0 = every invocation ran at best-config speed).
    pub mean_latency_inflation: f64,
    /// 95th-percentile latency inflation.
    pub p95_latency_inflation: f64,
    /// Invocations admitted to the spot market that ran there to
    /// completion undisturbed (never notified, migrated, or demoted).
    pub spot_admitted: usize,
    /// Spot placements that completed on a slot *under a preemption
    /// notice* — the notice's drain window saved them from the
    /// withdrawal. Billed like an undisturbed admission.
    pub drained: usize,
    /// Spot placements migrated to another zone when their slot was
    /// withdrawn (re-billed at
    /// [`ZoneConfig::migration_rebill`](crate::market::ZoneConfig) ×
    /// list price).
    pub migrated: usize,
    /// Spot placements force-demoted mid-flight when a supply drop
    /// withdrew their VM and no other zone could absorb them
    /// (live-migrated to on-demand, re-billed at list price).
    pub spot_demoted: usize,
    /// In-flight placements that received a preemption notice.
    /// Telemetry, not an outcome class: a notified placement still ends
    /// up drained, migrated, or demoted (or admitted, if the engine
    /// never reached its withdrawal).
    pub notified: usize,
    /// Invocations served on-demand: the baseline strategy, plans with
    /// no accepted alternates, admission-policy denials, and capacity
    /// misses. Every invocation is exactly one of admitted / drained /
    /// migrated / demoted / rejected.
    pub rejected: usize,
    /// Rejections where the admission controller denied the request
    /// outright (utilization above the policy ceiling).
    pub policy_rejections: usize,
    /// Rejections where the policy admitted but no warm slot fit the
    /// request.
    pub capacity_misses: usize,
    /// Retry activations: every time a pending retry reached its fire
    /// instant — or was dead-lettered at scheduling time (attempt cap,
    /// past-horizon backoff). Each activation lands in exactly one
    /// outcome class, extending the accounting partition to
    /// `invocations + retried` records.
    pub retried: usize,
    /// Hedged re-issues that beat their straggler to completion (the
    /// hedge defines the invocation's latency). Hedges are extra racing
    /// copies, not activations: they carry cost but no outcome class.
    pub hedge_wins: usize,
    /// Retry activations abandoned without re-execution: attempt cap or
    /// horizon reached, family retry budget dry, or shed by brownout.
    /// The invocation never completed.
    pub dead_lettered: usize,
    /// The subset of `dead_lettered` dropped by brownout mode (retry
    /// pressure shedding), telemetry for the degradation experiments.
    pub shed_retries: usize,
    /// Invocations whose latency inflation exceeded `1 + slo_theta`.
    pub slo_violations: usize,
    /// Label of the controller that ran the control loop.
    pub controller: &'static str,
    /// Per-tick control-plane telemetry, in tick order: what the
    /// controller observed and how it moved the admission ceiling and
    /// placement orders. Empty when the trace is shorter than one
    /// control cadence.
    pub control: Vec<ControlSample>,
}

impl FleetReport {
    /// Fraction of invocations that started on the spot market
    /// (admitted + drained + migrated + demoted).
    pub fn spot_share(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            (self.spot_admitted + self.drained + self.migrated + self.spot_demoted) as f64
                / self.invocations as f64
        }
    }
}

/// Outcome class of one invocation, recorded per arrival and final once
/// the invocation is folded ([`Metering::adjust`]): demotions and
/// migrations overwrite the admission record (class and cost), a drain
/// annotates the class only — and only while the record still reads
/// `ADMITTED`, so a migrated placement that later drains keeps its
/// migration bill.
const CLASS_ON_DEMAND: u8 = 0;
const CLASS_CAPACITY_MISS: u8 = 1;
const CLASS_ADMITTED: u8 = 2;
const CLASS_DEMOTED: u8 = 3;
const CLASS_POLICY_REJECT: u8 = 4;
const CLASS_MIGRATED: u8 = 5;
const CLASS_DRAINED: u8 = 6;
/// A retry activation abandoned without re-execution (attempt cap,
/// past-horizon backoff, dry budget, or brownout shed). Only retry
/// records carry this class — a first attempt always lands in one of
/// the classes above.
const CLASS_DEAD_LETTERED: u8 = 7;
/// Number of outcome-class codes.
const N_CLASSES: usize = 8;

/// [`RetryRecord`] flag bit: the activation was shed by brownout mode.
const RETRY_FLAG_SHED: u8 = 1;

/// An accepted alternate placement resolved to plain numbers, so the hot
/// loop does no table lookups or config math.
#[derive(Debug, Clone, Copy)]
struct ResolvedAlternate {
    /// Index of the alternate's family in the market.
    family: usize,
    milli_vcpus: u32,
    memory_mib: u32,
    duration_nanos: u64,
    /// Undiscounted list-price execution cost (demand pricing and
    /// demotion re-billing both start from this).
    list_cost_usd: f64,
    inflation: f64,
}

/// Everything a window simulation reads: immutable for the whole replay.
struct ReplayCtx {
    /// Per-function list-price cost of the best configuration.
    best_costs: Vec<f64>,
    /// All accepted alternates across every function in one flat array:
    /// function `f` owns `alts[alt_offsets[f]..alt_offsets[f + 1]]`, in
    /// planner order. One contiguous table instead of a `Vec` per
    /// function keeps the 10k-function arrival path free of per-plan
    /// pointer chases.
    alts: Vec<ResolvedAlternate>,
    alt_offsets: Vec<u32>,
    /// Per-function encoded configurations and actual inflations — what
    /// the control plane's right-sizer learns from.
    views: Vec<FunctionView>,
    schedule: SupplySchedule,
    market: MarketConfig,
    /// The control loop: immutable controller configuration (state lives
    /// in the carry), tick cadence in integer nanoseconds, and the trace
    /// horizon ticks are capped at — like supply steps, no tick fires
    /// after the last arrival, so an unbounded replay (which never
    /// advances past it) and an epoch-chained resumable one (whose last
    /// epoch does) agree on the tick sequence.
    controller: Box<dyn Controller>,
    controller_label: &'static str,
    cadence_nanos: u64,
    horizon_nanos: u64,
    /// Flattened-counter offsets of the per-(function, placement)
    /// observation accumulator: function `f` owns
    /// `obs_offsets[f]..obs_offsets[f + 1]`, one slot per accepted
    /// alternate plus a trailing on-demand slot.
    obs_offsets: Vec<u32>,
    /// The fault plan, kept past schedule generation for the
    /// per-invocation transient draws ([`FaultPlan::fault_for`]).
    faults: FaultPlan,
    /// The retry policy in force.
    retry: RetryPolicy,
    /// Whether any transient-fault probability is non-zero — hoisted so
    /// the no-fault arrival path skips the draw entirely and stays
    /// byte-identical to the pre-retry engine.
    transient_active: bool,
    /// Per-function best-config execution time in nanoseconds — the
    /// denominator of every end-to-end (queueing-inclusive) inflation a
    /// retry chain records.
    best_duration_nanos: Vec<u64>,
    /// `retry.hedge_delay_secs` in integer nanoseconds (0 = disabled).
    hedge_delay_nanos: u64,
}

/// One retry activation's outcome, recorded at the instant the
/// activation resolved (fire or immediate dead-letter). Retry records
/// extend the per-invocation accounting: every activation lands in
/// exactly one outcome class, and its inflation — always end-to-end,
/// `(completion − arrival) / best_duration` — overrides the
/// invocation's earlier (placeholder) inflation when the invocation is
/// folded, last record wins.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryRecord {
    /// Global arrival index of the invocation retried.
    idx: u32,
    /// 1-based attempt number the activation started (>= 2).
    attempt: u8,
    /// Outcome class (same encoding as per-invocation classes, plus
    /// [`CLASS_DEAD_LETTERED`]). Supply steps may re-bill it through an
    /// adjustment keyed by `(idx, attempt)`, like a first attempt.
    class: u8,
    /// [`RETRY_FLAG_SHED`] when brownout dropped the activation.
    flags: u8,
    /// What the activation billed (spot price when placed, on-demand
    /// fallback otherwise, 0 for dead letters).
    cost_usd: f64,
    /// End-to-end latency inflation as of this activation's resolution.
    inflation: f64,
}

/// One hedged re-issue: an extra copy racing a straggler. Hedges carry
/// cost (the race's loser still billed) but no outcome class — the
/// invocation's class stays with the straggling attempt — and a winning
/// hedge overrides the invocation's latency inflation when the
/// invocation is folded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HedgeRecord {
    /// Global arrival index of the invocation hedged.
    idx: u32,
    /// Whether the hedge finishes before the straggler it races.
    won: bool,
    /// Spot cost of the hedged copy.
    cost_usd: f64,
    /// End-to-end inflation if the hedge defines the latency.
    inflation_if_won: f64,
}

/// Floor of the unfolded-tail size at which [`simulate_window`] folds
/// behind the in-flight watermark: it folds once the tail doubles past
/// its post-fold size, and never below this many records.
const FOLD_FLOOR: usize = 1 << 16;

/// Xor-shift-multiply hasher for the inflation value table's `f64`
/// bit-pattern keys. Inflations like `1.0` or `1.25` have all-zero low
/// mantissa bits, so the key's high half is folded down before the
/// multiply and the product's well-mixed high half folded back into the
/// low bits the table indexes with.
#[derive(Clone, Copy, Default)]
struct MulShift(u64);

impl Hasher for MulShift {
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

/// The replay's metering, threaded through every window of one replay.
///
/// An invocation's records are *final* once its arrival index is below
/// every live index — the completion heap's entries and the pending
/// retry/hedge events — because every adjustment (drain, migrate,
/// demote), retry record, and hedge record is produced while its
/// invocation sits in one of those two sets. Final invocations are
/// folded, in arrival order, into running accumulators that reproduce
/// a whole-history reduction bit for bit: the cost sum and the
/// inflation sum accumulate in the same sequence (so the partition into
/// epochs and fold points cannot move a bit), and the p95 comes from an
/// exact counted table of final inflation values. Only the tail from
/// the watermark on stays per-invocation, so memory and snapshots are
/// O(in-flight span + retries), not O(history).
///
/// Retry and hedge records keep their lists to the end: the report's
/// cost adds Σ retries and then Σ hedges after the per-invocation sum,
/// and a retry attempt can be re-billed by a later withdrawal.
#[derive(Debug, Clone)]
pub(crate) struct Metering {
    /// Invocations `0..folded` are folded into the accumulators below.
    folded: u32,
    /// Σ final first-attempt costs, in arrival order from `+0.0`.
    cost_sum: f64,
    /// Σ final inflations, in arrival order from `-0.0` — exactly
    /// `Iterator::sum`'s fold, so the mean matches `stats::mean`.
    inflation_sum: f64,
    /// Final first-attempt outcome classes of the folded invocations.
    by_class: [u64; N_CLASSES],
    /// Final inflation of every folded invocation, counted by `f64` bit
    /// pattern. Plan-driven runs have a handful of distinct values;
    /// stragglers and retries add one per affected invocation.
    values: HashMap<u64, u64, BuildHasherDefault<MulShift>>,
    /// The unfolded tail, invocations `folded..`, in arrival order:
    /// billed cost, inflation, and class, with attempt-1 adjustments
    /// applied as they happen.
    costs: Vec<f64>,
    inflations: Vec<f64>,
    classes: Vec<u8>,
    /// Inflation overrides of unfolded invocations not yet applied, in
    /// record order: one per retry record, one per won hedge. The fold
    /// applies a final invocation's retry overrides before its hedge
    /// ones — the chain's last activation defines the latency unless a
    /// hedge beat the straggler.
    retry_overrides: Vec<(u32, f64)>,
    hedge_overrides: Vec<(u32, f64)>,
    /// `(global index, attempt, new class, re-billed cost)` of outcome
    /// changes to retry attempts (attempt >= 2), applied to the
    /// matching [`RetryRecord`] at [`reduce`]; a drain's cost field is
    /// ignored.
    retry_adjustments: Vec<(u32, u8, u8, f64)>,
    /// Retry activations, in resolution order.
    retries: Vec<RetryRecord>,
    /// Hedged re-issues, in placement order.
    hedges: Vec<HedgeRecord>,
    samples: Vec<ControlSample>,
    /// In-flight placements notified (telemetry sum).
    notified: u32,
}

impl Default for Metering {
    fn default() -> Self {
        Self {
            folded: 0,
            cost_sum: 0.0,
            inflation_sum: -0.0,
            by_class: [0; N_CLASSES],
            values: HashMap::default(),
            costs: Vec::new(),
            inflations: Vec::new(),
            classes: Vec::new(),
            retry_overrides: Vec::new(),
            hedge_overrides: Vec::new(),
            retry_adjustments: Vec::new(),
            retries: Vec::new(),
            hedges: Vec::new(),
            samples: Vec::new(),
            notified: 0,
        }
    }
}

impl Metering {
    /// Invocations folded into the accumulators.
    pub(crate) fn folded(&self) -> u64 {
        u64::from(self.folded)
    }

    /// Control samples recorded so far (one per controller tick).
    pub(crate) fn control_samples(&self) -> usize {
        self.samples.len()
    }

    /// Records in the unfolded tail.
    fn tail_len(&self) -> usize {
        self.costs.len()
    }

    /// Appends the next arrival's first-attempt outcome.
    #[inline]
    fn record(&mut self, cost: f64, inflation: f64, class: u8) {
        self.costs.push(cost);
        self.inflations.push(inflation);
        self.classes.push(class);
    }

    /// Applies an outcome change of attempt `attempt` of invocation
    /// `idx`: migrations and demotions overwrite class and cost, a drain
    /// annotates the class only — and only while it still reads
    /// `ADMITTED`, so a migrated placement that later drains keeps its
    /// migration bill. The invocation is live, so its record is in the
    /// tail.
    fn adjust(&mut self, idx: u32, attempt: u8, class: u8, cost: f64) {
        if attempt > 1 {
            self.retry_adjustments.push((idx, attempt, class, cost));
            return;
        }
        let i = (idx - self.folded) as usize;
        if class == CLASS_DRAINED {
            if self.classes[i] == CLASS_ADMITTED {
                self.classes[i] = CLASS_DRAINED;
            }
        } else {
            self.costs[i] = cost;
            self.classes[i] = class;
        }
    }

    fn record_retry(&mut self, r: RetryRecord) {
        self.retry_overrides.push((r.idx, r.inflation));
        self.retries.push(r);
    }

    fn record_hedge(&mut self, h: HedgeRecord) {
        if h.won {
            self.hedge_overrides.push((h.idx, h.inflation_if_won));
        }
        self.hedges.push(h);
    }

    /// Folds invocations `folded..upto` — all final — into the
    /// accumulators, in arrival order.
    fn fold(&mut self, upto: u32) {
        let base = self.folded;
        let k = (upto - base) as usize;
        if k == 0 {
            return;
        }
        let inflations = &mut self.inflations;
        for overrides in [&mut self.retry_overrides, &mut self.hedge_overrides] {
            overrides.retain(|&(idx, inflation)| {
                let fin = idx < upto;
                if fin {
                    inflations[(idx - base) as usize] = inflation;
                }
                !fin
            });
        }
        let tail = self.costs[..k]
            .iter()
            .zip(&self.inflations[..k])
            .zip(&self.classes[..k]);
        for ((&cost, &inflation), &class) in tail {
            self.cost_sum += cost;
            self.inflation_sum += inflation;
            self.by_class[usize::from(class)] += 1;
            *self.values.entry(inflation.to_bits()).or_insert(0) += 1;
        }
        self.costs.drain(..k);
        self.inflations.drain(..k);
        self.classes.drain(..k);
        self.folded = upto;
    }

    /// Serializes the metering into a crash-resume snapshot: the folded
    /// accumulators (value table in key order), the unfolded tail, the
    /// retry/hedge records, and the control samples, floats as bit
    /// patterns. Snapshots are taken right after a fold, so the pending
    /// overrides are exactly the retry and won-hedge records of the tail
    /// and [`Metering::load`] rebuilds them instead of storing them.
    pub(crate) fn save(&self, w: &mut Wire) {
        w.u64(self.folded());
        w.f64(self.cost_sum);
        w.f64(self.inflation_sum);
        for &c in &self.by_class {
            w.u64(c);
        }
        let mut values: Vec<(u64, u64)> = self.values.iter().map(|(&b, &c)| (b, c)).collect();
        values.sort_unstable();
        w.len(values.len());
        for (bits, count) in values {
            w.u64(bits);
            w.u64(count);
        }
        w.len(self.costs.len());
        for &c in &self.costs {
            w.f64(c);
        }
        for &i in &self.inflations {
            w.f64(i);
        }
        for &c in &self.classes {
            w.u8(c);
        }
        w.len(self.retry_adjustments.len());
        for &(idx, attempt, class, cost) in &self.retry_adjustments {
            w.u32(idx);
            w.u8(attempt);
            w.u8(class);
            w.f64(cost);
        }
        w.len(self.retries.len());
        for r in &self.retries {
            w.u32(r.idx);
            w.u8(r.attempt);
            w.u8(r.class);
            w.u8(r.flags);
            w.f64(r.cost_usd);
            w.f64(r.inflation);
        }
        w.len(self.hedges.len());
        for h in &self.hedges {
            w.u32(h.idx);
            w.u8(u8::from(h.won));
            w.f64(h.cost_usd);
            w.f64(h.inflation_if_won);
        }
        w.len(self.samples.len());
        for s in &self.samples {
            s.save(w);
        }
        w.u32(self.notified);
    }

    /// Restores metering serialized with [`Metering::save`] for a prefix
    /// of `events_consumed` arrivals, rejecting state no replay could
    /// have produced with [`FreedomError::InvalidArgument`]: folded plus
    /// tail invocations must equal `events_consumed`, the folded class
    /// counts and value-table counts must each sum to the folded
    /// invocations, the value table must be canonical (ascending keys,
    /// non-zero counts), every class must be a valid code, and every
    /// retry or hedge record must name a consumed invocation.
    pub(crate) fn load(r: &mut Unwire, events_consumed: u64) -> Result<Self> {
        let invalid = |what: &str| {
            Err(FreedomError::InvalidArgument(format!(
                "snapshot: inconsistent metering ({what})"
            )))
        };
        let folded = r.u64()?;
        let cost_sum = r.f64()?;
        let inflation_sum = r.f64()?;
        let mut by_class = [0u64; N_CLASSES];
        for c in &mut by_class {
            *c = r.u64()?;
        }
        let n_values = r.len(16)?;
        let mut values = HashMap::with_capacity_and_hasher(n_values, Default::default());
        let mut prev_bits = None;
        for _ in 0..n_values {
            let (bits, count) = (r.u64()?, r.u64()?);
            // `save` writes each value once, in key order, with a
            // non-zero count.
            if prev_bits.is_some_and(|p| p >= bits) || count == 0 {
                return invalid("value table not in canonical order");
            }
            prev_bits = Some(bits);
            values.insert(bits, count);
        }
        let n = r.len(17)?;
        let mut costs = Vec::with_capacity(n);
        for _ in 0..n {
            costs.push(r.f64()?);
        }
        let mut inflations = Vec::with_capacity(n);
        for _ in 0..n {
            inflations.push(r.f64()?);
        }
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            classes.push(r.u8()?);
        }
        let n_adj = r.len(14)?;
        let mut retry_adjustments = Vec::with_capacity(n_adj);
        for _ in 0..n_adj {
            retry_adjustments.push((r.u32()?, r.u8()?, r.u8()?, r.f64()?));
        }
        let n_retries = r.len(23)?;
        let mut retries = Vec::with_capacity(n_retries);
        for _ in 0..n_retries {
            retries.push(RetryRecord {
                idx: r.u32()?,
                attempt: r.u8()?,
                class: r.u8()?,
                flags: r.u8()?,
                cost_usd: r.f64()?,
                inflation: r.f64()?,
            });
        }
        let n_hedges = r.len(21)?;
        let mut hedges = Vec::with_capacity(n_hedges);
        for _ in 0..n_hedges {
            hedges.push(HedgeRecord {
                idx: r.u32()?,
                won: r.u8()? != 0,
                cost_usd: r.f64()?,
                inflation_if_won: r.f64()?,
            });
        }
        let n_samples = r.len(ControlSample::WIRE_BYTES)?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            samples.push(ControlSample::load(r)?);
        }
        let notified = r.u32()?;

        if folded.checked_add(n as u64) != Some(events_consumed) {
            return invalid("folded + tail invocations != events consumed");
        }
        let Ok(folded) = u32::try_from(folded) else {
            return invalid("folded invocations overflow the arrival index");
        };
        // Summed wide, so crafted counts cannot wrap into a match.
        if by_class.iter().map(|&c| u128::from(c)).sum::<u128>() != u128::from(folded) {
            return invalid("class counts do not sum to the folded invocations");
        }
        if values.values().map(|&c| u128::from(c)).sum::<u128>() != u128::from(folded) {
            return invalid("value-table counts do not sum to the folded invocations");
        }
        if by_class[usize::from(CLASS_DEAD_LETTERED)] != 0
            || classes.iter().any(|&c| c >= CLASS_DEAD_LETTERED)
        {
            return invalid("first-attempt class out of range");
        }
        if retries.iter().any(|r| usize::from(r.class) >= N_CLASSES)
            || retry_adjustments
                .iter()
                .any(|a| usize::from(a.2) >= N_CLASSES)
        {
            return invalid("retry class out of range");
        }
        if retries
            .iter()
            .map(|r| r.idx)
            .chain(hedges.iter().map(|h| h.idx))
            .any(|i| u64::from(i) >= events_consumed)
        {
            return invalid("retry or hedge record of an unconsumed invocation");
        }
        let retry_overrides = retries
            .iter()
            .filter(|r| r.idx >= folded)
            .map(|r| (r.idx, r.inflation))
            .collect();
        let hedge_overrides = hedges
            .iter()
            .filter(|h| h.won && h.idx >= folded)
            .map(|h| (h.idx, h.inflation_if_won))
            .collect();
        Ok(Self {
            folded,
            cost_sum,
            inflation_sum,
            by_class,
            values,
            costs,
            inflations,
            classes,
            retry_overrides,
            hedge_overrides,
            retry_adjustments,
            retries,
            hedges,
            samples,
            notified,
        })
    }
}

/// Everything that crosses a window boundary: the canonical
/// (completion-ordered) in-flight ledger state, pending retries, retry
/// budgets, the controller state, and the partial observation epoch.
/// Resumable replays chain it exactly from one epoch to the next and
/// persist it in every snapshot — see `crates/core/README.md`.
#[derive(Debug, Clone)]
pub(crate) struct Carry {
    inflight: Vec<InFlight>,
    /// Pending retry/hedge events firing in a later window, in
    /// [`PendingRetry::key`] order.
    retries: Vec<PendingRetry>,
    /// Per-family retry token buckets (balance + last refill instant).
    budget: RetryBudget,
    control: ControlState,
    accum: ObsAccum,
}

impl Carry {
    /// The exact state entering window 0: empty market, full retry
    /// budgets, the controller's initial state, a zeroed epoch.
    fn initial(ctx: &ReplayCtx) -> Self {
        Self {
            inflight: Vec::new(),
            retries: Vec::new(),
            budget: RetryBudget::new(&ctx.retry, N_MARKET_FAMILIES),
            control: ctx
                .controller
                .init(ctx.market.admission, ctx.best_costs.len()),
            accum: ObsAccum::zero(*ctx.obs_offsets.last().expect("offsets") as usize),
        }
    }

    /// Serializes the carried state into a crash-resume snapshot:
    /// in-flight entries field-for-field (costs as bit patterns), the
    /// pending retries and budget buckets, then the controller state
    /// and partial observation epoch.
    pub(crate) fn save(&self, w: &mut Wire) {
        w.len(self.inflight.len());
        for e in &self.inflight {
            w.u64(e.completion_nanos);
            w.u32(e.slot);
            w.u32(e.idx);
            w.u32(e.epoch);
            w.u32(e.milli);
            w.u32(e.mib);
            w.u32(e.meta);
            w.f64(e.list_cost_usd);
        }
        w.len(self.retries.len());
        for p in &self.retries {
            w.u64(p.at_nanos);
            w.u32(p.idx);
            w.u32(p.function);
            w.u8(p.attempt);
            w.u8(p.kind);
            w.u8(p.family);
            w.u64(p.arrival_nanos);
            w.u64(p.orig_completion_nanos);
        }
        w.len(self.budget.tokens.len());
        for &t in &self.budget.tokens {
            w.u64(t);
        }
        for &t in &self.budget.last_refill {
            w.u64(t);
        }
        self.control.save(w);
        self.accum.save(w);
    }

    /// Restores a carry serialized with [`Carry::save`], field for field.
    pub(crate) fn load(r: &mut Unwire) -> Result<Self> {
        let n = r.len(40)?;
        let mut inflight = Vec::with_capacity(n);
        for _ in 0..n {
            inflight.push(InFlight {
                completion_nanos: r.u64()?,
                slot: r.u32()?,
                idx: r.u32()?,
                epoch: r.u32()?,
                milli: r.u32()?,
                mib: r.u32()?,
                meta: r.u32()?,
                list_cost_usd: r.f64()?,
            });
        }
        let n_retries = r.len(35)?;
        let mut retries = Vec::with_capacity(n_retries);
        for _ in 0..n_retries {
            retries.push(PendingRetry {
                at_nanos: r.u64()?,
                idx: r.u32()?,
                function: r.u32()?,
                attempt: r.u8()?,
                kind: r.u8()?,
                family: r.u8()?,
                arrival_nanos: r.u64()?,
                orig_completion_nanos: r.u64()?,
            });
        }
        let n_families = r.len(16)?;
        let mut tokens = Vec::with_capacity(n_families);
        for _ in 0..n_families {
            tokens.push(r.u64()?);
        }
        let mut last_refill = Vec::with_capacity(n_families);
        for _ in 0..n_families {
            last_refill.push(r.u64()?);
        }
        Ok(Self {
            inflight,
            retries,
            budget: RetryBudget {
                tokens,
                last_refill,
            },
            control: ControlState::load(r)?,
            accum: ObsAccum::load(r)?,
        })
    }

    /// Arrival indices of everything live across the boundary: in-flight
    /// placements and pending retry/hedge events.
    pub(crate) fn live_indices(&self) -> impl Iterator<Item = u32> + '_ {
        let inflight = self.inflight.iter().map(|e| e.idx);
        inflight.chain(self.retries.iter().map(|p| p.idx))
    }
}

/// A window's result: the carried state crossing into the next window.
struct WindowOutcome {
    carry_out: Carry,
    /// Most in-flight placements the completion heap ever held.
    peak_inflight: usize,
}

/// Peak-memory telemetry of one streaming replay
/// ([`FleetSimulator::run_stream_traced`]): evidence that resident
/// state is bounded by in-flight placements plus cursor lookahead, never
/// by total arrivals.
#[derive(Debug, Clone, Copy)]
pub struct ReplayStats {
    /// Arrivals replayed (streamed through, never resident).
    pub events: usize,
    /// Peak size of the in-flight completion queue.
    pub peak_inflight: usize,
    /// Peak events the trace cursors held: one pending arrival per
    /// function (synthetic) or the open rows of the CSV lookahead
    /// window.
    pub peak_cursor_resident: usize,
}

impl ReplayStats {
    /// Peak resident events: in-flight placements + cursor lookahead.
    pub fn peak_resident_events(&self) -> usize {
        self.peak_inflight + self.peak_cursor_resident
    }
}

/// The fleet simulator: a shared spot market plus elastic on-demand.
pub struct FleetSimulator {
    plans: Vec<FunctionPlan>,
}

impl FleetSimulator {
    /// Creates a simulator serving `plans[i]` for trace function index
    /// `i`.
    ///
    /// The pairing is **positional**: the simulator never inspects
    /// `FunctionPlan::function`, it drives `plans[i]` with the trace's
    /// stream `i`. Each invocation is metered against the plan that
    /// served it, so any ordering is self-consistent — but callers
    /// pairing a fleet with a six-function trace meant as the benchmark
    /// functions ([`StreamTrace::generate`] over
    /// `FunctionKind::ALL.len()` functions, or its materialized oracle
    /// [`Trace::poisson`]) should push plans in `FunctionKind::ALL`
    /// order, as the tests and experiments do.
    ///
    /// Returns [`FreedomError::InvalidArgument`] when `plans` is empty.
    pub fn new(plans: Vec<FunctionPlan>) -> Result<Self> {
        if plans.is_empty() {
            return Err(FreedomError::InvalidArgument(
                "fleet needs at least one function plan".into(),
            ));
        }
        Ok(Self { plans })
    }

    /// Replays a materialized trace under a strategy: one simulation
    /// window spanning the whole trace, no carry-over. This is the
    /// reference the streaming entry points are compared against; the
    /// engine pulls events through the same iterator interface, which
    /// here happens to walk a slice.
    pub fn run(
        &self,
        trace: &Trace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
    ) -> Result<FleetReport> {
        let horizon = trace
            .events()
            .last()
            .map(|e| event_nanos(e.at_secs))
            .unwrap_or(0);
        let ctx = self.prepare(trace.n_functions(), horizon, strategy, config)?;
        let events = trace.events();
        let mut metering = Metering::default();
        simulate_window(
            &ctx,
            events.iter().copied(),
            0,
            &Carry::initial(&ctx),
            0,
            u64::MAX,
            &mut NoopRecorder,
            &mut metering,
        );
        Ok(reduce(
            strategy,
            config.slo_theta,
            events.len(),
            metering,
            ctx.controller_label,
        ))
    }

    /// Replays a [`StreamTrace`], producing events lazily and consuming
    /// each exactly once: peak memory is O(functions + in-flight
    /// placements) instead of O(total arrivals). Bit-identical to
    /// [`FleetSimulator::run`] on the materialized equivalent
    /// ([`StreamTrace::materialize`]).
    ///
    /// `rec` observes the replay. Telemetry is strictly observational:
    /// the report is bit-identical for every recorder, and with
    /// [`NoopRecorder`] the instrumentation monomorphizes away. The
    /// [`ReplayStats`] are measurement, not output, so they stay out of
    /// the [`FleetReport`].
    pub fn run_stream_traced<R: Recorder>(
        &self,
        trace: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
        rec: &mut R,
    ) -> Result<(FleetReport, ReplayStats)> {
        let ctx = self.prepare(trace.n_functions(), trace.horizon_nanos(), strategy, config)?;
        // One unbounded epoch: no boundaries, so no snapshots.
        let (metering, stats) =
            replay_epochs(&ctx, trace, u64::MAX, 0, None, rec, |_, _| Ok(true))?
                .expect("a replay without boundaries runs to the end");
        let label = ctx.controller_label;
        let report = reduce(strategy, config.slo_theta, trace.len(), metering, label);
        Ok((report, stats))
    }

    /// Crash-resumable streaming replay: chains exact-carry windows of
    /// `snapshot_secs` sequentially and, at every window (epoch)
    /// boundary, hands `on_snapshot` a versioned [`ReplaySnapshot`] —
    /// the stream checkpoint, the carried state, and the metering folded
    /// behind the boundary's in-flight watermark — together with the
    /// recorder, which is the natural hook for emitting per-epoch JSONL
    /// metric snapshots
    /// ([`freedom_telemetry::Telemetry::jsonl_snapshot`]). Feeding a
    /// persisted snapshot back as `resume` replays only the remaining
    /// windows; the resulting report is **bit-identical** to
    /// [`FleetSimulator::run_stream_traced`] (and the whole determinism
    /// lattice) no matter where the run was killed, and for every
    /// recorder.
    ///
    /// `on_snapshot` returns `Ok(true)` to continue or `Ok(false)` to
    /// stop (the simulated crash of the kill/resume tests); a stopped
    /// run yields `Ok(None)`. Snapshots are rejected with
    /// [`FreedomError::InvalidArgument`] when their fingerprint —
    /// strategy, config, fleet, the trace's shape and input identity,
    /// snapshot cadence — does not match this replay, so a stale file
    /// cannot silently resume a different simulation.
    #[allow(clippy::too_many_arguments)]
    pub fn run_stream_resumable_traced<R: Recorder>(
        &self,
        trace: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
        snapshot_secs: f64,
        resume: Option<&ReplaySnapshot>,
        rec: &mut R,
        on_snapshot: impl FnMut(&ReplaySnapshot, &mut R) -> Result<bool>,
    ) -> Result<Option<FleetReport>> {
        let horizon = trace.horizon_nanos();
        let window_nanos = validate_window(horizon, snapshot_secs)?;
        let ctx = self.prepare(trace.n_functions(), horizon, strategy, config)?;
        let fingerprint = replay_fingerprint(&ctx, strategy, config, trace, window_nanos);
        let replayed = replay_epochs(
            &ctx,
            trace,
            window_nanos,
            fingerprint,
            resume,
            rec,
            on_snapshot,
        )?;
        Ok(replayed.map(|(metering, _)| {
            let label = ctx.controller_label;
            reduce(strategy, config.slo_theta, trace.len(), metering, label)
        }))
    }

    /// Validates inputs and resolves plans, supply schedule, and market
    /// settings into the immutable replay context. Takes the trace's
    /// shape — stream count and horizon (last arrival in nanoseconds) —
    /// rather than the trace itself, so materialized and streaming
    /// replays prepare identically.
    fn prepare(
        &self,
        n_functions: usize,
        horizon: u64,
        strategy: PlacementStrategy,
        config: &FleetConfig,
    ) -> Result<ReplayCtx> {
        if n_functions != self.plans.len() {
            return Err(FreedomError::InvalidArgument(format!(
                "trace has {} function streams but the fleet has {} plans",
                n_functions,
                self.plans.len()
            )));
        }
        if !config.slo_theta.is_finite() || config.slo_theta < 0.0 {
            return Err(FreedomError::InvalidArgument(format!(
                "SLO theta must be non-negative, got {}",
                config.slo_theta
            )));
        }
        config.control.validate()?;
        config.retry.validate()?;
        let cadence_nanos = ((config.control.cadence_secs * 1e9) as u64).max(1);
        if horizon / cadence_nanos >= MAX_TICKS {
            return Err(FreedomError::InvalidArgument(format!(
                "a {}s control cadence fires more than {MAX_TICKS} ticks over this trace",
                config.control.cadence_secs
            )));
        }
        let schedule = SupplySchedule::generate(&config.market, &config.faults, horizon)?;
        let mut best_costs = Vec::with_capacity(self.plans.len());
        let mut alts = Vec::new();
        let mut alt_offsets = Vec::with_capacity(self.plans.len() + 1);
        alt_offsets.push(0u32);
        let mut views = Vec::with_capacity(self.plans.len());
        let mut obs_offsets = Vec::with_capacity(self.plans.len() + 1);
        obs_offsets.push(0u32);
        let mut best_duration_nanos = Vec::with_capacity(self.plans.len());
        for (f, plan) in self.plans.iter().enumerate() {
            // Control state and placement orders index accepted
            // alternates as `u8`.
            let accepted = plan.alternates.iter().filter(|a| a.accepted).count();
            if accepted > usize::from(u8::MAX) {
                return Err(FreedomError::InvalidArgument(format!(
                    "plan {f} has {accepted} accepted alternates, more than the {} a fleet supports",
                    u8::MAX
                )));
            }
            let best = plan.table.lookup(&plan.best_config).ok_or_else(|| {
                FreedomError::InsufficientData("best config missing in table".into())
            })?;
            let mut alt_encodings = Vec::new();
            let mut alt_inflations = Vec::new();
            if strategy == PlacementStrategy::IdleAware {
                for alt in plan.alternates.iter().filter(|a| a.accepted) {
                    let cfg = alt.config;
                    let point = plan.table.lookup(&cfg).ok_or_else(|| {
                        FreedomError::InsufficientData("alternate config missing in table".into())
                    })?;
                    let family = family_index(cfg.family()).ok_or_else(|| {
                        FreedomError::InvalidArgument(format!(
                            "family {} is not backed by market capacity",
                            cfg.family()
                        ))
                    })?;
                    let inflation = point.exec_time_secs / best.exec_time_secs;
                    alts.push(ResolvedAlternate {
                        family,
                        milli_vcpus: (cfg.cpu_share() * 1000.0).round() as u32,
                        memory_mib: cfg.memory_mib(),
                        duration_nanos: (point.exec_time_secs * 1e9) as u64,
                        list_cost_usd: point.exec_cost_usd,
                        inflation,
                    });
                    alt_encodings.push(SearchSpace::encode(&cfg));
                    alt_inflations.push(inflation);
                }
            }
            // One observation slot per accepted alternate plus the
            // trailing on-demand slot.
            let n_alts = alts.len() as u32 - alt_offsets.last().expect("non-empty");
            alt_offsets.push(alts.len() as u32);
            let next = obs_offsets.last().expect("non-empty") + n_alts + 1;
            obs_offsets.push(next);
            best_costs.push(best.exec_cost_usd);
            best_duration_nanos.push(((best.exec_time_secs * 1e9) as u64).max(1));
            views.push(FunctionView {
                best_encoding: SearchSpace::encode(&plan.best_config),
                alt_encodings,
                alt_inflations,
            });
        }
        let controller = config.control.controller.build();
        Ok(ReplayCtx {
            best_costs,
            alts,
            alt_offsets,
            views,
            schedule,
            market: config.market,
            controller_label: controller.name(),
            controller,
            cadence_nanos,
            horizon_nanos: horizon,
            obs_offsets,
            faults: config.faults,
            retry: config.retry,
            transient_active: config.faults.has_transient(),
            best_duration_nanos,
            hedge_delay_nanos: (config.retry.hedge_delay_secs * 1e9) as u64,
        })
    }
}

/// One window's live simulation state: the market ledger and completion
/// queue, the supply and tick cursors, the controller state it carries
/// forward, and the epoch accumulator feeding the next tick.
struct WindowSim<'a, R: Recorder> {
    ctx: &'a ReplayCtx,
    /// The replay's telemetry sink. Strictly observational — nothing in
    /// the simulation reads it back.
    rec: &'a mut R,
    /// Simulated instant of the previous arrival ([`u64::MAX`] before
    /// the first), feeding the arrival-gap histogram.
    prev_arrival: u64,
    ledger: SpotLedger,
    /// In-flight completions, earliest `(completion, slot, idx, meta)`
    /// first.
    queue: BinaryHeap<Reverse<InFlight>>,
    /// Most entries the completion queue ever held — the in-flight term
    /// of the replay's peak-memory bound ([`ReplayStats`]).
    peak_inflight: usize,
    supply_cursor: usize,
    /// Index of the next preemption notice to fire.
    notice_cursor: usize,
    /// Index of the next controller tick to fire (tick `k` fires at
    /// `k · cadence`, `k ≥ 1`, capped at the trace horizon).
    next_tick: u64,
    /// Instant of the next structural break — the earliest pending
    /// supply step, preemption notice, retry/hedge event, or controller
    /// tick (`u64::MAX` when all are exhausted). At fleet scale the
    /// event loop is
    /// dominated by arrivals that advance time *between* breaks;
    /// caching the minimum lets [`WindowSim::advance`] drain due
    /// completions on a three-instruction guard instead of re-deriving
    /// all three cursors per arrival. Every break-firing path
    /// recomputes it.
    next_break: u64,
    /// Pending retry and hedge events, ordered by
    /// [`PendingRetry::key`]. Scheduling always happens at admission
    /// time (an arrival or a firing retry), never at a completion pop —
    /// the reference engine never pops completions after the last
    /// arrival, so completion-time scheduling would diverge the two.
    retries: BinaryHeap<Reverse<PendingRetry>>,
    /// Per-family retry token buckets, charged at fire time.
    budget: RetryBudget,
    control: ControlState,
    accum: ObsAccum,
    scratch: ControlScratch,
    /// The replay's running metering, threaded through every window.
    m: &'a mut Metering,
}

impl<R: Recorder> WindowSim<'_, R> {
    /// The next pending tick instant, if any remains before the horizon.
    fn next_tick_at(&self) -> Option<u64> {
        let at = self.next_tick.checked_mul(self.ctx.cadence_nanos)?;
        (at <= self.ctx.horizon_nanos).then_some(at)
    }

    /// Advances the market through every completion, supply step,
    /// preemption notice, and controller tick due at or before
    /// `to_nanos`, in time order. At one instant completions release
    /// capacity first (so a finishing invocation is never spuriously
    /// demoted by a simultaneous supply drop), then supply steps
    /// withdraw and resolve their displaced residents, then notices
    /// mark slots, then retries and hedges re-enter admission (seeing
    /// the capacity the same-instant completions just released), then
    /// the controller ticks — observing the epoch *including* anything
    /// a same-instant step or retry just caused.
    ///
    /// Ghost completions — entries whose slot was withdrawn since
    /// placement — pop silently: their fate (migrated or demoted) was
    /// already decided and metered at the withdrawal step.
    #[inline]
    fn advance(&mut self, to_nanos: u64) {
        if to_nanos < self.next_break {
            // Fast path: no supply step, notice, or tick falls in
            // `(now, to_nanos]`, so the only work is draining due
            // completions — and the completion-scan cap at the next
            // step is vacuous because `to_nanos` is already below it.
            while let Some(e) = self.pop_due(to_nanos) {
                self.complete(e);
            }
            return;
        }
        self.advance_through_breaks(to_nanos);
    }

    /// The general advance: interleaves completions with the structural
    /// breaks due at or before `to_nanos`, re-deriving the break
    /// cursors each iteration (firing a break can move them).
    #[cold]
    fn advance_through_breaks(&mut self, to_nanos: u64) {
        loop {
            let step_at = self
                .ctx
                .schedule
                .steps
                .get(self.supply_cursor)
                .map_or(u64::MAX, |s| s.at_nanos);
            let retry_at = self.retries.peek().map_or(u64::MAX, |r| r.0.at_nanos);
            let completion = self.queue.peek().map_or(u64::MAX, |r| r.0.completion_nanos);
            let notice_at = self
                .ctx
                .schedule
                .notices
                .get(self.notice_cursor)
                .map_or(u64::MAX, |n| n.at_nanos);
            let tick_at = self.next_tick_at().unwrap_or(u64::MAX);
            // `u64::MAX` stands in for "exhausted": the same-instant
            // priority below (completion < step < notice < retry <
            // tick) is a chain of equality checks against the minimum,
            // so the sentinel never wins unless everything is spent.
            let now = completion
                .min(step_at)
                .min(notice_at)
                .min(retry_at)
                .min(tick_at);
            if now > to_nanos {
                break;
            }
            if completion == now {
                let Reverse(e) = self.queue.pop().expect("completion head exists");
                self.complete(e);
            } else if step_at == now {
                self.supply_step();
            } else if notice_at == now {
                self.fire_notice();
            } else if retry_at == now {
                let Reverse(p) = self.retries.pop().expect("retry head exists");
                if p.kind == KIND_RETRY {
                    self.fire_retry(p);
                } else {
                    self.fire_hedge(p);
                }
            } else {
                self.fire_tick(now);
            }
        }
        self.next_break = self.compute_next_break();
    }

    /// Pops the earliest in-flight completion if it is due at or before
    /// `limit`.
    #[inline]
    fn pop_due(&mut self, limit: u64) -> Option<InFlight> {
        if self.queue.peek()?.0.completion_nanos > limit {
            return None;
        }
        self.queue.pop().map(|Reverse(e)| e)
    }

    /// Recomputes the cached next-break instant from the four break
    /// cursors.
    fn compute_next_break(&self) -> u64 {
        let step = self
            .ctx
            .schedule
            .steps
            .get(self.supply_cursor)
            .map_or(u64::MAX, |s| s.at_nanos);
        let notice = self
            .ctx
            .schedule
            .notices
            .get(self.notice_cursor)
            .map_or(u64::MAX, |n| n.at_nanos);
        let retry = self.retries.peek().map_or(u64::MAX, |r| r.0.at_nanos);
        step.min(notice)
            .min(retry)
            .min(self.next_tick_at().unwrap_or(u64::MAX))
    }

    /// Retires one popped completion: live entries release their market
    /// slot (noting a drain-window save when the slot was under
    /// notice); ghost entries — their slot withdrawn since placement —
    /// pop silently, their fate already decided and metered at the
    /// withdrawal step.
    #[inline]
    fn complete(&mut self, e: InFlight) {
        if self.ledger.is_live(&e) {
            self.rec.add(tel::Counter::Completions, 1);
            // A hedge pop just releases its slot: the invocation's
            // outcome class stays with the attempt it raced, and the
            // race was decided at placement. An abort pop is the fault
            // surfacing, not a successful run — no drain annotation
            // (the scheduled retry carries the invocation onward).
            if e.run_kind() == RUN_NORMAL && self.ledger.is_notified(e.slot) {
                // Completed under notice: the drain window saved it
                // from the announced withdrawal.
                self.rec.add(tel::Counter::Drained, 1);
                self.m.adjust(e.idx, e.attempt(), CLASS_DRAINED, 0.0);
            }
            self.ledger.release(&e);
        } else {
            self.rec.add(tel::Counter::GhostCompletions, 1);
        }
    }

    /// Fires the supply step at `supply_cursor`: withdraws the dropped
    /// slots and resolves every displaced resident *at the step* —
    /// migrate to another zone when one fits (same family, re-billed at
    /// the migration fraction of list), force-demote otherwise.
    fn supply_step(&mut self) {
        let ctx = self.ctx;
        let step = &ctx.schedule.steps[self.supply_cursor];
        for e in self.ledger.withdraw(&step.caps) {
            // A withdrawn hedge drops silently: it was a speculative
            // extra copy, the invocation's outcome stays with the
            // attempt it raced, and its (already recorded) bill stands.
            if e.run_kind() == RUN_HEDGE {
                continue;
            }
            match self.ledger.migrate_target(e.slot, e.milli, e.mib) {
                Some(slot) => {
                    let moved = InFlight {
                        slot,
                        epoch: self.ledger.epoch(slot),
                        ..e
                    };
                    self.ledger.place(&moved);
                    self.queue.push(Reverse(moved));
                    self.peak_inflight = self.peak_inflight.max(self.queue.len());
                    self.accum.migrated += 1;
                    self.rec.add(tel::Counter::Migrated, 1);
                    self.m.adjust(
                        e.idx,
                        e.attempt(),
                        CLASS_MIGRATED,
                        e.list_cost_usd * ctx.market.zones.migration_rebill,
                    );
                }
                None => {
                    self.accum.spot_demoted += 1;
                    self.rec.add(tel::Counter::SpotDemoted, 1);
                    self.m
                        .adjust(e.idx, e.attempt(), CLASS_DEMOTED, e.list_cost_usd);
                }
            }
        }
        self.rec.add(tel::Counter::SupplySteps, 1);
        self.rec.span_sim(
            tel::Span::SupplyStep,
            step.at_nanos,
            step.at_nanos,
            self.supply_cursor as u64,
        );
        self.supply_cursor += 1;
    }

    /// Fires the preemption notice at `notice_cursor`: marks every slot
    /// the announced step will withdraw, so they stop admitting and
    /// their residents get a drain window.
    fn fire_notice(&mut self) {
        let ctx = self.ctx;
        let announced = ctx.schedule.notices[self.notice_cursor];
        let hit = self
            .ledger
            .mark_notified(&ctx.schedule.steps[announced.step as usize].caps);
        self.accum.notified += hit;
        self.m.notified += hit;
        self.rec.add(tel::Counter::NoticesFired, 1);
        self.rec.add(tel::Counter::Notified, u64::from(hit));
        self.rec.span_sim(
            tel::Span::Notice,
            announced.at_nanos,
            announced.at_nanos,
            u64::from(hit),
        );
        self.notice_cursor += 1;
    }

    /// Fires controller tick `self.next_tick`: hands the controller the
    /// closed epoch's observation, records the telemetry sample, and
    /// opens the next epoch.
    fn fire_tick(&mut self, at: u64) {
        let started = if R::ENABLED { self.rec.now_nanos() } else { 0 };
        let utilization = self.ledger.utilization();
        let obs = Observation {
            tick: self.next_tick as u32,
            at_nanos: at,
            utilization,
            accum: &self.accum,
            offsets: &self.ctx.obs_offsets,
        };
        let replanned =
            self.ctx
                .controller
                .tick(&mut self.control, &mut self.scratch, &obs, &self.ctx.views);
        // Brownout is re-evaluated each tick from the closing epoch's
        // retry pressure, after the controller has seen the epoch (the
        // sample records the post-update mode).
        if let Some(b) = &self.ctx.retry.brownout {
            update_brownout(&mut self.control, &self.accum, b);
        }
        self.m.samples.push(ControlSample {
            at_secs: at as f64 / 1e9,
            utilization,
            ceiling: admission_ceiling(&self.control.admission),
            arrivals: self.accum.arrivals,
            spot_admitted: self.accum.spot_admitted,
            spot_demoted: self.accum.spot_demoted,
            migrated: self.accum.migrated,
            rejected: self.accum.policy_rejected + self.accum.capacity_missed,
            replanned,
            retried: self.accum.retried,
            brownout: self.control.brownout,
        });
        if R::ENABLED {
            self.rec.add(tel::Counter::ControllerTicks, 1);
            self.rec.add(tel::Counter::Replans, u64::from(replanned));
            self.rec.observe(
                tel::Hist::UtilizationPpm,
                (utilization.clamp(0.0, 1.0) * 1e6) as u64,
            );
            self.rec.span_sim(
                tel::Span::ControllerTick,
                at.saturating_sub(self.ctx.cadence_nanos),
                at,
                self.next_tick,
            );
            self.rec
                .span_wall(tel::Span::TickWork, started, u64::from(replanned));
        }
        self.accum.reset();
        self.next_tick += 1;
    }

    /// Places one arrival: the admission policy currently in force gates
    /// the market, and the placement order is the controller's revision
    /// when one exists, the planner's order otherwise.
    fn arrival(&mut self, function: usize, idx: u32, at: u64) {
        // Telemetry on the hot path: counter and histogram updates are
        // array writes into preallocated storage; the only clock read
        // is the 1-in-64 sampled wall timing. `R::ENABLED` is a
        // monomorphization constant, so the noop build carries none of
        // this.
        if R::ENABLED {
            self.rec.add(tel::Counter::Arrivals, 1);
            self.rec
                .observe(tel::Hist::InflightDepth, self.queue.len() as u64);
            if self.prev_arrival != u64::MAX {
                self.rec
                    .observe(tel::Hist::ArrivalGapNanos, at - self.prev_arrival);
            }
            self.prev_arrival = at;
        }
        let t0 = if R::ENABLED && self.rec.should_sample() {
            self.rec.now_nanos()
        } else {
            0
        };
        self.accum.arrivals += 1;
        let a0 = self.ctx.alt_offsets[function] as usize;
        let a1 = self.ctx.alt_offsets[function + 1] as usize;
        let alternates = &self.ctx.alts[a0..a1];
        let best_cost_usd = self.ctx.best_costs[function];
        let off = self.ctx.obs_offsets[function] as usize;
        let n_alts = alternates.len();
        let order = self.control.order_for(function);
        // A revised-empty order means the controller retired every
        // alternate: the function runs on-demand, like a plan that never
        // had accepted alternates.
        let no_candidates = n_alts == 0 || order.is_some_and(|o| o.is_empty());
        let (class, cost, inflation) = if no_candidates {
            self.accum.per_function[off + n_alts] += 1;
            (CLASS_ON_DEMAND, best_cost_usd, 1.0)
        } else {
            let utilization = self.ledger.utilization();
            // Brownout tightens fresh-arrival admission: while the mode
            // is active, arrivals are additionally rejected whenever
            // utilization is at or above the brownout ceiling.
            let brownout_block = self.control.brownout
                && self
                    .ctx
                    .retry
                    .brownout
                    .is_some_and(|b| utilization >= b.utilization_ceiling);
            if !self.control.admission.admits(utilization) || brownout_block {
                self.accum.policy_rejected += 1;
                self.accum.per_function[off + n_alts] += 1;
                (CLASS_POLICY_REJECT, best_cost_usd, 1.0)
            } else {
                // Try the active alternates in order, best-fit within
                // each family's available slots.
                let fit = |ai: usize| {
                    let alt = &alternates[ai];
                    self.ledger
                        .best_fit(alt.family, alt.milli_vcpus, alt.memory_mib)
                        .map(|slot| (ai, slot))
                };
                let placed = match order {
                    Some(order) => order.iter().find_map(|&ai| fit(ai as usize)),
                    None => (0..n_alts).find_map(fit),
                };
                match placed {
                    Some((ai, slot)) => {
                        let (cost, rel_inflation, _) =
                            self.place_attempt(function, idx, at, at, 1, ai, slot, utilization);
                        self.accum.spot_admitted += 1;
                        self.accum.per_function[off + ai] += 1;
                        (CLASS_ADMITTED, cost, rel_inflation)
                    }
                    None => {
                        self.accum.capacity_missed += 1;
                        self.accum.per_function[off + n_alts] += 1;
                        (CLASS_CAPACITY_MISS, best_cost_usd, 1.0)
                    }
                }
            }
        };
        if R::ENABLED {
            self.rec.add(
                match class {
                    CLASS_ON_DEMAND => tel::Counter::OnDemand,
                    CLASS_POLICY_REJECT => tel::Counter::PolicyRejected,
                    CLASS_CAPACITY_MISS => tel::Counter::CapacityMissed,
                    _ => tel::Counter::SpotAdmitted,
                },
                1,
            );
            if t0 != 0 {
                let dt = self.rec.now_nanos().saturating_sub(t0);
                self.rec.observe(tel::Hist::AdmissionNanos, dt);
            }
        }
        self.m.record(cost, inflation, class);
    }

    /// Executes one placed attempt: draws the attempt's transient fault,
    /// places the (possibly faulted) run on `slot`, and schedules the
    /// follow-up the fault calls for — all at admission time, never at a
    /// completion pop (the reference engine never pops completions after
    /// the last arrival, so completion-time scheduling would diverge the
    /// engines). Returns `(billed cost, relative inflation of the run,
    /// run end instant)`; a crash-on-start bills nothing, occupies no
    /// slot, and "ends" at `at`.
    #[allow(clippy::too_many_arguments)]
    fn place_attempt(
        &mut self,
        function: usize,
        idx: u32,
        at: u64,
        arrival_nanos: u64,
        attempt: u8,
        ai: usize,
        slot: u32,
        utilization: f64,
    ) -> (f64, f64, u64) {
        let ctx = self.ctx;
        let alt = &ctx.alts[ctx.alt_offsets[function] as usize + ai];
        let fault = if ctx.transient_active {
            ctx.faults.fault_for(function as u32, idx, attempt)
        } else {
            None
        };
        if R::ENABLED && fault.is_some() {
            self.rec.add(tel::Counter::TransientFaults, 1);
        }
        let family = alt.family as u8;
        if matches!(fault, Some(TransientFault::CrashOnStart)) {
            // Crashed before starting: no slot consumed, nothing
            // billed; the retry re-enters admission after backoff. The
            // relative inflation is a placeholder — the retry chain's
            // final record overrides it when the invocation is folded.
            self.schedule_or_deadletter(
                at,
                idx,
                function as u32,
                arrival_nanos,
                attempt + 1,
                family,
            );
            return (0.0, alt.inflation, at);
        }
        let (kind, duration, rel_inflation) = match fault {
            Some(TransientFault::MidFlightAbort { at_fraction }) => (
                RUN_ABORT,
                (((alt.duration_nanos as f64) * at_fraction) as u64).max(1),
                // Placeholder, overridden by the retry chain.
                alt.inflation,
            ),
            Some(TransientFault::Straggler { factor }) => (
                RUN_NORMAL,
                ((alt.duration_nanos as f64) * factor) as u64,
                alt.inflation * factor,
            ),
            _ => (RUN_NORMAL, alt.duration_nanos, alt.inflation),
        };
        let entry = InFlight {
            completion_nanos: at + duration,
            slot,
            idx,
            epoch: self.ledger.epoch(slot),
            milli: alt.milli_vcpus,
            mib: alt.memory_mib,
            meta: InFlight::meta_of(kind, attempt),
            list_cost_usd: alt.list_cost_usd,
        };
        self.ledger.place(&entry);
        self.queue.push(Reverse(entry));
        self.peak_inflight = self.peak_inflight.max(self.queue.len());
        if kind == RUN_ABORT {
            // The retry is scheduled now, to fire at the abort's
            // surfacing instant plus backoff. A later migration or
            // demotion of the aborting run does not cancel it: the
            // fault is a property of the attempt, not of the slot it
            // happens to occupy.
            self.schedule_or_deadletter(
                at + duration,
                idx,
                function as u32,
                arrival_nanos,
                attempt + 1,
                family,
            );
        } else if matches!(fault, Some(TransientFault::Straggler { .. })) {
            self.maybe_schedule_hedge(
                idx,
                function as u32,
                arrival_nanos,
                attempt,
                family,
                at,
                at + duration,
            );
        }
        let price = ctx.market.spot.demand_fraction(utilization);
        (alt.list_cost_usd * price, rel_inflation, at + duration)
    }

    /// Schedules attempt `next_attempt` of invocation `idx` to re-enter
    /// admission after backoff — or dead-letters it immediately when
    /// the attempt cap is spent or the backoff lands past the horizon
    /// (the reference engine never advances there, so a past-horizon
    /// retry must resolve *now* to keep the engines identical).
    fn schedule_or_deadletter(
        &mut self,
        base_nanos: u64,
        idx: u32,
        function: u32,
        arrival_nanos: u64,
        next_attempt: u8,
        family: u8,
    ) {
        let policy = &self.ctx.retry;
        let at = base_nanos.saturating_add(policy.backoff_nanos(idx, next_attempt));
        if next_attempt > policy.max_attempts || at > self.ctx.horizon_nanos {
            let best_d = self.ctx.best_duration_nanos[function as usize] as f64;
            let inflation = ((base_nanos.saturating_sub(arrival_nanos)) as f64 / best_d).max(1.0);
            self.push_retry_record(RetryRecord {
                idx,
                attempt: next_attempt,
                class: CLASS_DEAD_LETTERED,
                flags: 0,
                cost_usd: 0.0,
                inflation,
            });
            return;
        }
        if R::ENABLED {
            self.rec
                .observe(tel::Hist::RetryBackoffNanos, at - base_nanos);
        }
        self.retries.push(Reverse(PendingRetry {
            at_nanos: at,
            idx,
            function,
            attempt: next_attempt,
            kind: KIND_RETRY,
            family,
            arrival_nanos,
            orig_completion_nanos: 0,
        }));
        self.next_break = self.next_break.min(at);
    }

    /// Schedules a hedged re-issue of a straggling attempt, if hedging
    /// is on and the hedge can still fire before both the straggler's
    /// completion and the horizon. A hedge that cannot race is dropped
    /// silently — hedges have no accounting presence until placed.
    #[allow(clippy::too_many_arguments)]
    fn maybe_schedule_hedge(
        &mut self,
        idx: u32,
        function: u32,
        arrival_nanos: u64,
        attempt: u8,
        family: u8,
        at: u64,
        straggle_completion: u64,
    ) {
        let delay = self.ctx.hedge_delay_nanos;
        if delay == 0 {
            return;
        }
        let t_h = at.saturating_add(delay);
        if t_h >= straggle_completion || t_h > self.ctx.horizon_nanos {
            return;
        }
        self.retries.push(Reverse(PendingRetry {
            at_nanos: t_h,
            idx,
            function,
            attempt,
            kind: KIND_HEDGE,
            family,
            arrival_nanos,
            orig_completion_nanos: straggle_completion,
        }));
        self.next_break = self.next_break.min(t_h);
    }

    /// Fires one pending retry: the activation re-enters admission as a
    /// first-class event. Brownout sheds it first (retries yield to
    /// fresh arrivals under overload), then the family budget is
    /// charged, then the full admission pass re-runs — policy gate,
    /// controller-ordered best-fit, fresh fault draw — exactly as a
    /// fresh arrival would. The activation's outcome lands in one
    /// [`RetryRecord`]; terminal fallbacks record end-to-end inflation
    /// (queueing included) against the function's best-config time.
    fn fire_retry(&mut self, p: PendingRetry) {
        let now = p.at_nanos;
        let function = p.function as usize;
        let best_dur = self.ctx.best_duration_nanos[function];
        let best_d = best_dur as f64;
        let end_to_end = move |end: u64| (end.saturating_sub(p.arrival_nanos)) as f64 / best_d;
        if self.control.brownout {
            self.push_retry_record(RetryRecord {
                idx: p.idx,
                attempt: p.attempt,
                class: CLASS_DEAD_LETTERED,
                flags: RETRY_FLAG_SHED,
                cost_usd: 0.0,
                inflation: end_to_end(now).max(1.0),
            });
            return;
        }
        if !self
            .budget
            .try_spend(p.family as usize, now, &self.ctx.retry)
        {
            self.push_retry_record(RetryRecord {
                idx: p.idx,
                attempt: p.attempt,
                class: CLASS_DEAD_LETTERED,
                flags: 0,
                cost_usd: 0.0,
                inflation: end_to_end(now).max(1.0),
            });
            return;
        }
        let a0 = self.ctx.alt_offsets[function] as usize;
        let a1 = self.ctx.alt_offsets[function + 1] as usize;
        let alternates = &self.ctx.alts[a0..a1];
        let n_alts = alternates.len();
        let off = self.ctx.obs_offsets[function] as usize;
        let best_cost_usd = self.ctx.best_costs[function];
        let order = self.control.order_for(function);
        let no_candidates = n_alts == 0 || order.is_some_and(|o| o.is_empty());
        let (class, cost, inflation) = if no_candidates {
            self.accum.per_function[off + n_alts] += 1;
            (CLASS_ON_DEMAND, best_cost_usd, end_to_end(now + best_dur))
        } else {
            let utilization = self.ledger.utilization();
            if !self.control.admission.admits(utilization) {
                self.accum.policy_rejected += 1;
                self.accum.per_function[off + n_alts] += 1;
                (
                    CLASS_POLICY_REJECT,
                    best_cost_usd,
                    end_to_end(now + best_dur),
                )
            } else {
                let fit = |ai: usize| {
                    let alt = &alternates[ai];
                    self.ledger
                        .best_fit(alt.family, alt.milli_vcpus, alt.memory_mib)
                        .map(|slot| (ai, slot))
                };
                let placed = match order {
                    Some(order) => order.iter().find_map(|&ai| fit(ai as usize)),
                    None => (0..n_alts).find_map(fit),
                };
                match placed {
                    Some((ai, slot)) => {
                        let (cost, _, end) = self.place_attempt(
                            function,
                            p.idx,
                            now,
                            p.arrival_nanos,
                            p.attempt,
                            ai,
                            slot,
                            utilization,
                        );
                        self.accum.spot_admitted += 1;
                        self.accum.per_function[off + ai] += 1;
                        (CLASS_ADMITTED, cost, end_to_end(end))
                    }
                    None => {
                        self.accum.capacity_missed += 1;
                        self.accum.per_function[off + n_alts] += 1;
                        (
                            CLASS_CAPACITY_MISS,
                            best_cost_usd,
                            end_to_end(now + best_dur),
                        )
                    }
                }
            }
        };
        if R::ENABLED {
            self.rec.add(
                match class {
                    CLASS_ON_DEMAND => tel::Counter::OnDemand,
                    CLASS_POLICY_REJECT => tel::Counter::PolicyRejected,
                    CLASS_CAPACITY_MISS => tel::Counter::CapacityMissed,
                    _ => tel::Counter::SpotAdmitted,
                },
                1,
            );
        }
        self.push_retry_record(RetryRecord {
            idx: p.idx,
            attempt: p.attempt,
            class,
            flags: 0,
            cost_usd: cost,
            inflation,
        });
    }

    /// Fires one pending hedge: re-issues the straggling invocation's
    /// work as an extra racing copy. Hedges spend no retry budget,
    /// never fault, and have no outcome class — a placed hedge records
    /// its bill and whether it beats the straggler (decided at
    /// placement, since both completion instants are fixed there); an
    /// unplaceable hedge (brownout, policy denial, no fit) drops
    /// silently.
    fn fire_hedge(&mut self, p: PendingRetry) {
        if self.control.brownout {
            return;
        }
        let function = p.function as usize;
        let ctx = self.ctx;
        let a0 = ctx.alt_offsets[function] as usize;
        let a1 = ctx.alt_offsets[function + 1] as usize;
        let alternates = &ctx.alts[a0..a1];
        let n_alts = alternates.len();
        let order = self.control.order_for(function);
        if n_alts == 0 || order.is_some_and(|o| o.is_empty()) {
            return;
        }
        let utilization = self.ledger.utilization();
        if !self.control.admission.admits(utilization) {
            return;
        }
        let fit = |ai: usize| {
            let alt = &alternates[ai];
            self.ledger
                .best_fit(alt.family, alt.milli_vcpus, alt.memory_mib)
                .map(|slot| (ai, slot))
        };
        let placed = match order {
            Some(order) => order.iter().find_map(|&ai| fit(ai as usize)),
            None => (0..n_alts).find_map(fit),
        };
        let Some((ai, slot)) = placed else {
            return;
        };
        let alt = &alternates[ai];
        let completion = p.at_nanos + alt.duration_nanos;
        let entry = InFlight {
            completion_nanos: completion,
            slot,
            idx: p.idx,
            epoch: self.ledger.epoch(slot),
            milli: alt.milli_vcpus,
            mib: alt.memory_mib,
            meta: InFlight::meta_of(RUN_HEDGE, p.attempt),
            list_cost_usd: alt.list_cost_usd,
        };
        self.ledger.place(&entry);
        self.queue.push(Reverse(entry));
        self.peak_inflight = self.peak_inflight.max(self.queue.len());
        let won = completion < p.orig_completion_nanos;
        if R::ENABLED && won {
            self.rec.add(tel::Counter::HedgeWins, 1);
        }
        let best_d = ctx.best_duration_nanos[function] as f64;
        self.m.record_hedge(HedgeRecord {
            idx: p.idx,
            won,
            cost_usd: alt.list_cost_usd * ctx.market.spot.demand_fraction(utilization),
            inflation_if_won: (completion.saturating_sub(p.arrival_nanos)) as f64 / best_d,
        });
    }

    /// Appends one retry record — the single accounting slot of one
    /// retry activation. `accum.retried` (the brownout-pressure
    /// numerator) counts exactly these.
    fn push_retry_record(&mut self, r: RetryRecord) {
        self.accum.retried += 1;
        if R::ENABLED {
            self.rec.add(tel::Counter::Retried, 1);
            if r.class == CLASS_DEAD_LETTERED {
                self.rec.add(tel::Counter::DeadLettered, 1);
            }
            if r.flags & RETRY_FLAG_SHED != 0 {
                self.rec.add(tel::Counter::ShedRetries, 1);
            }
        }
        self.m.record_retry(r);
    }

    /// The lowest arrival index still live — in the completion heap or
    /// a pending retry/hedge event — or `next_idx` when nothing is:
    /// every invocation below it is final.
    fn watermark(&self, next_idx: u32) -> u32 {
        let inflight = self.queue.iter().map(|e| e.0.idx);
        inflight
            .chain(self.retries.iter().map(|p| p.0.idx))
            .fold(next_idx, u32::min)
    }
}

/// Validates a resumable replay's epoch length; returns it in integer
/// nanoseconds.
fn validate_window(horizon_nanos: u64, window_secs: f64) -> Result<u64> {
    if !window_secs.is_finite() || window_secs <= 0.0 {
        return Err(FreedomError::InvalidArgument(format!(
            "window must be positive, got {window_secs}s"
        )));
    }
    let window_nanos = ((window_secs * 1e9) as u64).max(1);
    if horizon_nanos / window_nanos >= MAX_WINDOWS {
        return Err(FreedomError::InvalidArgument(format!(
            "{window_secs}s windows split this trace into {} windows (max {MAX_WINDOWS})",
            horizon_nanos / window_nanos + 1
        )));
    }
    Ok(window_nanos)
}

/// The simulated-time span `[k·w, (k+1)·w)` of window `k`.
fn window_span(k: usize, window_nanos: u64) -> (u64, u64) {
    (
        k as u64 * window_nanos,
        (k as u64 + 1).saturating_mul(window_nanos),
    )
}

/// Fingerprint of a resumable replay's identity: strategy and config
/// (via their `Debug` forms — both are plain data), the resolved fleet
/// shape, the trace shape and input digest ([`StreamTrace::digest`]),
/// and the snapshot cadence. A [`ReplaySnapshot`] carries it so a resume
/// under any different setup is rejected instead of silently producing
/// a frankenstein report.
fn replay_fingerprint(
    ctx: &ReplayCtx,
    strategy: PlacementStrategy,
    config: &FleetConfig,
    trace: &StreamTrace,
    window_nanos: u64,
) -> u64 {
    let mut h = Fnv64::new();
    for b in format!("{strategy:?}|{config:?}").bytes() {
        h.write(u64::from(b));
    }
    h.write(ctx.best_costs.len() as u64);
    for (f, cost) in ctx.best_costs.iter().enumerate() {
        h.write(cost.to_bits());
        h.write(u64::from(ctx.alt_offsets[f + 1] - ctx.alt_offsets[f]));
    }
    h.write(trace.len() as u64);
    h.write(ctx.horizon_nanos);
    h.write(trace.digest());
    h.write(window_nanos);
    h.finish()
}

/// The one streaming replay body behind both streaming entry points:
/// cuts the trace into epochs of `window_nanos` (`u64::MAX`: one
/// unbounded epoch, no boundaries), opens the stream at the start or at
/// `resume`'s checkpoint, runs it through the pipelined ingest thread,
/// and hands `on_snapshot` a snapshot stamped with `fingerprint` at every
/// boundary. Returns the replay's metering and stats, or `None` when
/// `on_snapshot` stopped the run.
fn replay_epochs<R: Recorder>(
    ctx: &ReplayCtx,
    trace: &StreamTrace,
    window_nanos: u64,
    fingerprint: u64,
    resume: Option<&ReplaySnapshot>,
    rec: &mut R,
    mut on_snapshot: impl FnMut(&ReplaySnapshot, &mut R) -> Result<bool>,
) -> Result<Option<(Metering, ReplayStats)>> {
    // An unbounded epoch has no boundary, whatever the horizon.
    let n = match window_nanos {
        u64::MAX => 1,
        w => (ctx.horizon_nanos / w) as usize + 1,
    };
    let (mut k, mut carry, stream, mut metering, mut consumed) = match resume {
        Some(snap) => {
            if snap.fingerprint != fingerprint {
                return Err(FreedomError::InvalidArgument(
                    "snapshot fingerprint does not match this replay \
                     (different strategy, config, trace, or snapshot cadence)"
                        .into(),
                ));
            }
            if snap.epoch == 0 || snap.epoch as usize >= n {
                return Err(FreedomError::InvalidArgument(format!(
                    "snapshot epoch {} is outside this replay's 1..{n} boundaries",
                    snap.epoch
                )));
            }
            (
                snap.epoch as usize,
                snap.carry.clone(),
                trace.open_at(&snap.checkpoint)?,
                snap.metering.clone(),
                snap.events_consumed,
            )
        }
        None => (
            0,
            Carry::initial(ctx),
            trace.open()?,
            Metering::default(),
            0,
        ),
    };
    let mut peak_inflight = 0;
    // The ingest thread closes every epoch with the stream checkpoint
    // taken at its boundary, so each snapshot resumes exactly where
    // this thread stopped consuming.
    let boundaries = (k + 1..n).map(move |b| b as u64 * window_nanos);
    let (finished, peak_cursor_resident) =
        pipelined(stream, boundaries, |batches| -> Result<bool> {
            while k < n {
                let (start, end) = window_span(k, window_nanos);
                let mut count = 0u64;
                let events = std::iter::from_fn(|| {
                    let event = batches.next_event::<R>();
                    count += u64::from(event.is_some());
                    event
                });
                let outcome = simulate_window(
                    ctx,
                    events,
                    consumed as u32,
                    &carry,
                    start,
                    end,
                    rec,
                    &mut metering,
                );
                rec.add(tel::Counter::WindowsSimulated, 1);
                rec.add(tel::Counter::IngestWaits, batches.take_waits());
                consumed += count;
                carry = outcome.carry_out;
                peak_inflight = peak_inflight.max(outcome.peak_inflight);
                k += 1;
                if k < n {
                    // No checkpoint means the ingest thread died mid-epoch;
                    // `pipelined` re-raises its panic.
                    let Some(checkpoint) = batches.take_checkpoint() else {
                        return Ok(false);
                    };
                    // Fold everything behind the boundary's watermark, so
                    // the snapshot carries accumulators plus the in-flight
                    // tail rather than the history; lend the metering to
                    // the snapshot instead of cloning it.
                    metering.fold(carry.live_indices().fold(consumed as u32, u32::min));
                    let snap = ReplaySnapshot {
                        version: SNAPSHOT_VERSION,
                        fingerprint,
                        epoch: k as u64,
                        window_nanos,
                        events_consumed: consumed,
                        checkpoint,
                        carry: carry.clone(),
                        metering: std::mem::take(&mut metering),
                    };
                    let boundary = k as u64 * window_nanos;
                    rec.span_sim(tel::Span::SnapshotEpoch, boundary, boundary, k as u64);
                    rec.add(tel::Counter::SnapshotsWritten, 1);
                    let snap_wall = rec.now_nanos();
                    let keep_going = on_snapshot(&snap, rec)?;
                    rec.span_wall(tel::Span::SnapshotEpoch, snap_wall, k as u64);
                    metering = snap.metering;
                    if !keep_going {
                        return Ok(false);
                    }
                }
            }
            Ok(true)
        });
    if !finished? {
        return Ok(None);
    }
    if consumed != trace.len() as u64 {
        return Err(FreedomError::InvalidArgument(format!(
            "the replay consumed {consumed} events of a {}-event trace: the resumed \
             position or the input does not match the trace's scan",
            trace.len()
        )));
    }
    let stats = ReplayStats {
        events: trace.len(),
        peak_inflight,
        peak_cursor_resident,
    };
    Ok(Some((metering, stats)))
}

/// Simulates one time window `[start_nanos, end_nanos)` of the merged
/// event stream against the shared market, starting from the carried
/// state (in-flight ledger, controller, partial epoch). Events arrive
/// through an iterator and are consumed exactly once — a materialized
/// slice and a lazy cursor merge replay identically. Outcomes land in
/// the replay's running metering `m`, which the window folds behind the
/// in-flight watermark whenever its unfolded tail doubles, so memory is
/// bounded by the in-flight span rather than the window's length. An
/// uninterrupted replay is the degenerate call: all events, the initial
/// carry, an unbounded window.
#[allow(clippy::too_many_arguments)]
fn simulate_window<R: Recorder>(
    ctx: &ReplayCtx,
    events: impl Iterator<Item = TraceEvent>,
    base_idx: u32,
    carry_in: &Carry,
    start_nanos: u64,
    end_nanos: u64,
    rec: &mut R,
    m: &mut Metering,
) -> WindowOutcome {
    let window_wall = rec.now_nanos();
    let start = ctx.schedule.start_state(start_nanos);
    let mut ledger = SpotLedger::new(&ctx.market, start.caps);
    // A notice that fired before this window for a step still ahead:
    // re-mark its slots so the window starts under the same pending
    // notice the sequential engine would be carrying (the notified
    // placements were already counted when the notice fired).
    if let Some(next_caps) = start.notified_next {
        ledger.mark_notified(next_caps);
    }
    let mut queue = BinaryHeap::with_capacity(carry_in.inflight.len() + 64);
    for entry in &carry_in.inflight {
        let mut e = *entry;
        e.epoch = ledger.epoch(e.slot);
        ledger.restore(&e);
        queue.push(Reverse(e));
    }
    let mut sim = WindowSim {
        ctx,
        rec,
        prev_arrival: u64::MAX,
        peak_inflight: queue.len(),
        ledger,
        queue,
        supply_cursor: start.cursor,
        notice_cursor: start.notice_cursor,
        // Ticks strictly before the window start already fired in a
        // predecessor; a tick exactly at the start belongs to this
        // window (its predecessor only advanced to `start − 1`).
        next_tick: start_nanos.div_ceil(ctx.cadence_nanos).max(1),
        next_break: 0,
        retries: carry_in.retries.iter().map(|&p| Reverse(p)).collect(),
        budget: carry_in.budget.clone(),
        control: carry_in.control.clone(),
        accum: carry_in.accum.clone(),
        scratch: ControlScratch::default(),
        m,
    };
    sim.next_break = sim.compute_next_break();

    let mut fold_at = (2 * sim.m.tail_len()).max(FOLD_FLOOR);
    for (i, event) in events.enumerate() {
        let at = event_nanos(event.at_secs);
        sim.advance(at);
        let idx = base_idx + i as u32;
        sim.arrival(event.function, idx, at);
        if sim.m.tail_len() >= fold_at {
            let watermark = sim.watermark(idx + 1);
            sim.m.fold(watermark);
            fold_at = (2 * sim.m.tail_len()).max(FOLD_FLOOR);
        }
    }

    // Close the window: completions, supply steps, and ticks strictly
    // before the boundary still belong to it (the reference engine's
    // unbounded window skips this — no steps or ticks outlive the last
    // arrival).
    if end_nanos != u64::MAX {
        sim.advance(end_nanos - 1);
    }

    // Drain: live entries become the canonical carry-over, in ascending
    // `(completion, slot, idx, meta)` order. Ghost entries — their slot
    // withdrawn since placement — drop silently: their fate was resolved
    // and metered at the withdrawal step.
    let ledger = &sim.ledger;
    let mut inflight: Vec<InFlight> = sim
        .queue
        .into_vec()
        .into_iter()
        .map(|Reverse(e)| e)
        .filter(|e| ledger.is_live(e))
        .map(|e| InFlight { epoch: 0, ..e })
        .collect();
    inflight.sort_unstable();
    let sim_end = if end_nanos == u64::MAX {
        ctx.horizon_nanos
    } else {
        end_nanos.min(ctx.horizon_nanos.max(start_nanos))
    };
    sim.rec
        .span_sim(tel::Span::Window, start_nanos, sim_end, u64::from(base_idx));
    sim.rec
        .span_wall(tel::Span::WindowSim, window_wall, u64::from(base_idx));
    // Pending retries outliving the window carry over in key order
    // (every entry fires at or after `end_nanos` — the close advanced
    // through `end_nanos − 1`).
    let mut pending: Vec<PendingRetry> = sim.retries.into_iter().map(|Reverse(p)| p).collect();
    pending.sort();
    WindowOutcome {
        carry_out: Carry {
            inflight,
            retries: pending,
            budget: sim.budget,
            control: sim.control,
            accum: sim.accum,
        },
        peak_inflight: sim.peak_inflight,
    }
}

/// Reduces a replay's metering into the fleet report: folds the rest of
/// the tail (every invocation is final once the replay ends), re-bills
/// retry records by their adjustments, then adds Σ retries and Σ hedges
/// onto the arrival-order cost sum in record order. The fold's order
/// never depends on how many epochs or fold points produced it, which is
/// what makes every entry point bit-identical.
fn reduce(
    strategy: PlacementStrategy,
    slo_theta: f64,
    invocations: usize,
    mut metering: Metering,
    controller: &'static str,
) -> FleetReport {
    debug_assert_eq!(
        metering.folded() as usize + metering.tail_len(),
        invocations
    );
    metering.fold(invocations as u32);
    let Metering {
        cost_sum,
        inflation_sum,
        mut by_class,
        values,
        retry_adjustments,
        mut retries,
        hedges,
        samples: control,
        notified,
        ..
    } = metering;
    // Adjustments on attempts >= 2 target the matching retry record (a
    // later window may re-bill a retry placed in an earlier one).
    let retry_pos: HashMap<(u32, u8), usize> = retries
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.idx, r.attempt), i))
        .collect();
    for &(idx, attempt, class, cost) in &retry_adjustments {
        if let Some(&at) = retry_pos.get(&(idx, attempt)) {
            let r = &mut retries[at];
            if class == CLASS_DRAINED {
                if r.class == CLASS_ADMITTED {
                    r.class = CLASS_DRAINED;
                }
            } else {
                r.cost_usd = cost;
                r.class = class;
            }
        }
    }
    // Retry records extend the partition: every activation contributes
    // exactly one class, so the by-class sum is `invocations + retried`.
    let mut total_cost = cost_sum;
    for r in &retries {
        total_cost += r.cost_usd;
        by_class[usize::from(r.class)] += 1;
    }
    for h in &hedges {
        total_cost += h.cost_usd;
    }
    let mut values: Vec<(f64, u64)> = values
        .into_iter()
        .map(|(bits, count)| (f64::from_bits(bits), count))
        .collect();
    values.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let threshold = 1.0 + slo_theta;
    let slo_violations: u64 = values
        .iter()
        .filter(|&&(x, _)| x > threshold)
        .map(|&(_, count)| count)
        .sum();
    let mean_latency_inflation = if invocations == 0 {
        1.0
    } else {
        inflation_sum / invocations as f64
    };
    let p95_latency_inflation = stats::quantile_counted(&values, 0.95).unwrap_or(1.0);
    let count = |class: u8| by_class[usize::from(class)] as usize;
    FleetReport {
        strategy,
        invocations,
        total_cost_usd: total_cost,
        mean_latency_inflation,
        p95_latency_inflation,
        spot_admitted: count(CLASS_ADMITTED),
        drained: count(CLASS_DRAINED),
        migrated: count(CLASS_MIGRATED),
        spot_demoted: count(CLASS_DEMOTED),
        notified: notified as usize,
        rejected: count(CLASS_ON_DEMAND) + count(CLASS_CAPACITY_MISS) + count(CLASS_POLICY_REJECT),
        retried: retries.len(),
        hedge_wins: hedges.iter().filter(|h| h.won).count(),
        dead_lettered: count(CLASS_DEAD_LETTERED),
        shed_retries: retries
            .iter()
            .filter(|r| r.flags & RETRY_FLAG_SHED != 0)
            .count(),
        policy_rejections: count(CLASS_POLICY_REJECT),
        capacity_misses: count(CLASS_CAPACITY_MISS),
        slo_violations: slo_violations as usize,
        controller,
        control,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::IdleCapacityPlanner;
    use crate::Autotuner;
    use freedom_faas::collect_ground_truth;
    use freedom_optimizer::{Objective, SearchSpace};
    use freedom_surrogates::SurrogateKind;

    fn make_plans(seed: u64) -> Vec<FunctionPlan> {
        let planner = IdleCapacityPlanner::default();
        let space = SearchSpace::table1();
        FunctionKind::ALL
            .into_iter()
            .map(|function| {
                let input = function.default_input();
                let table =
                    collect_ground_truth(function, &input, space.configs(), 2, seed).unwrap();
                let outcome = Autotuner::new(SurrogateKind::Gp)
                    .tune_offline(function, &input, Objective::ExecutionTime, seed)
                    .unwrap();
                let plan = planner.plan(&outcome, &table, &space).unwrap();
                FunctionPlan {
                    function,
                    best_config: outcome.recommended().unwrap(),
                    alternates: plan.placements,
                    table,
                }
            })
            .collect()
    }

    fn accounting_is_total(report: &FleetReport) {
        // Every execution — first attempts plus retry activations —
        // lands in exactly one terminal class; hedges are excluded as
        // pure duplicates of an attempt already accounted for.
        assert_eq!(
            report.spot_admitted
                + report.drained
                + report.migrated
                + report.spot_demoted
                + report.rejected
                + report.dead_lettered,
            report.invocations + report.retried
        );
        assert!(report.policy_rejections + report.capacity_misses <= report.rejected);
        // Shed activations are retry records, so the shed count can
        // never exceed the retry count.
        assert!(report.shed_retries <= report.retried);
    }

    /// [`FleetSimulator::run_stream_traced`] without telemetry.
    fn stream(
        sim: &FleetSimulator,
        lazy: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
    ) -> Result<FleetReport> {
        Ok(sim
            .run_stream_traced(lazy, strategy, config, &mut NoopRecorder)?
            .0)
    }

    /// An uninterrupted resumable replay in epochs of `epoch_secs`: exact
    /// carries chained across every epoch boundary.
    fn chained(
        sim: &FleetSimulator,
        lazy: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
        epoch_secs: f64,
    ) -> Result<FleetReport> {
        let out = sim.run_stream_resumable_traced(
            lazy,
            strategy,
            config,
            epoch_secs,
            None,
            &mut NoopRecorder,
            |_, _| Ok(true),
        )?;
        Ok(out.expect("an uninterrupted run returns a report"))
    }

    /// The whole-history reduction the watermark fold replaces: every
    /// record kept to the end, adjustments applied by index, retry
    /// overrides then won-hedge overrides, floats summed in arrival
    /// order, an exact sorted quantile.
    fn reduce_whole_history(
        slo_theta: f64,
        mut costs: Vec<f64>,
        mut inflations: Vec<f64>,
        mut classes: Vec<u8>,
        adjustments: &[(u32, u8, u8, f64)],
        mut retries: Vec<RetryRecord>,
        hedges: &[HedgeRecord],
    ) -> FleetReport {
        let apply = |class: &mut u8, cost: &mut f64, new_class: u8, new_cost: f64| {
            if new_class == CLASS_DRAINED {
                if *class == CLASS_ADMITTED {
                    *class = CLASS_DRAINED;
                }
            } else {
                *cost = new_cost;
                *class = new_class;
            }
        };
        for &(idx, attempt, class, cost) in adjustments {
            if attempt <= 1 {
                let i = idx as usize;
                apply(&mut classes[i], &mut costs[i], class, cost);
            } else if let Some(r) = retries
                .iter_mut()
                .find(|r| (r.idx, r.attempt) == (idx, attempt))
            {
                apply(&mut r.class, &mut r.cost_usd, class, cost);
            }
        }
        for r in &retries {
            inflations[r.idx as usize] = r.inflation;
        }
        for h in hedges.iter().filter(|h| h.won) {
            inflations[h.idx as usize] = h.inflation_if_won;
        }
        let mut total_cost = 0.0;
        for c in costs.iter().chain(retries.iter().map(|r| &r.cost_usd)) {
            total_cost += c;
        }
        for h in hedges {
            total_cost += h.cost_usd;
        }
        let mut by_class = [0usize; N_CLASSES];
        for c in classes.iter().chain(retries.iter().map(|r| &r.class)) {
            by_class[usize::from(*c)] += 1;
        }
        FleetReport {
            strategy: PlacementStrategy::IdleAware,
            invocations: costs.len(),
            total_cost_usd: total_cost,
            mean_latency_inflation: stats::mean(&inflations).unwrap_or(1.0),
            p95_latency_inflation: stats::quantile(&inflations, 0.95).unwrap_or(1.0),
            spot_admitted: by_class[usize::from(CLASS_ADMITTED)],
            drained: by_class[usize::from(CLASS_DRAINED)],
            migrated: by_class[usize::from(CLASS_MIGRATED)],
            spot_demoted: by_class[usize::from(CLASS_DEMOTED)],
            notified: 0,
            rejected: by_class[usize::from(CLASS_ON_DEMAND)]
                + by_class[usize::from(CLASS_CAPACITY_MISS)]
                + by_class[usize::from(CLASS_POLICY_REJECT)],
            retried: retries.len(),
            hedge_wins: hedges.iter().filter(|h| h.won).count(),
            dead_lettered: by_class[usize::from(CLASS_DEAD_LETTERED)],
            shed_retries: retries
                .iter()
                .filter(|r| r.flags & RETRY_FLAG_SHED != 0)
                .count(),
            policy_rejections: by_class[usize::from(CLASS_POLICY_REJECT)],
            capacity_misses: by_class[usize::from(CLASS_CAPACITY_MISS)],
            slo_violations: inflations.iter().filter(|&&x| x > 1.0 + slo_theta).count(),
            controller: "static",
            control: Vec::new(),
        }
    }

    /// Seeded random metering — adjustments, retry and hedge records
    /// landing on invocations in any order while they are live — folded
    /// at random watermarks and round-tripped through the snapshot wire
    /// format at some of them, must reduce bit-identically to the
    /// whole-history reduction.
    #[test]
    fn watermark_fold_matches_whole_history_reduction() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rand = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        const LAG: u32 = 12;
        let mut m = Metering::default();
        let (mut costs, mut inflations, mut classes) = (Vec::new(), Vec::new(), Vec::new());
        let mut adjustments = Vec::new();
        let mut retries: Vec<RetryRecord> = Vec::new();
        let mut hedges = Vec::new();
        let mut attempts: Vec<u8> = Vec::new();
        for i in 0..4000u32 {
            // Inflations from a small value set (plan-driven) plus
            // continuous stragglers, costs at arbitrary bit patterns.
            let inflation = if rand(8) == 0 {
                1.0 + rand(1000) as f64 / 997.0
            } else {
                [1.0, 1.05, 1.12, 1.3][rand(4) as usize]
            };
            let (cost, class) = (rand(1 << 20) as f64 * 1e-9, rand(7) as u8);
            m.record(cost, inflation, class);
            costs.push(cost);
            inflations.push(inflation);
            classes.push(class);
            attempts.push(1);
            for _ in 0..rand(4) {
                let lo = m.folded.max(i.saturating_sub(LAG));
                let j = lo + rand(u64::from(i - lo + 1)) as u32;
                let a = &mut attempts[j as usize];
                match rand(4) {
                    0 => {
                        let adj = (
                            j,
                            1 + rand(u64::from(*a)) as u8,
                            [CLASS_MIGRATED, CLASS_DEMOTED, CLASS_DRAINED][rand(3) as usize],
                            rand(1 << 20) as f64 * 1e-9,
                        );
                        m.adjust(adj.0, adj.1, adj.2, adj.3);
                        adjustments.push(adj);
                    }
                    1 | 2 => {
                        *a += 1;
                        let r = RetryRecord {
                            idx: j,
                            attempt: *a,
                            class: [CLASS_ADMITTED, CLASS_ON_DEMAND, CLASS_DEAD_LETTERED]
                                [rand(3) as usize],
                            flags: rand(2) as u8,
                            cost_usd: rand(1 << 20) as f64 * 1e-9,
                            inflation: 1.0 + rand(5000) as f64 / 1009.0,
                        };
                        m.record_retry(r);
                        retries.push(r);
                    }
                    _ => {
                        let h = HedgeRecord {
                            idx: j,
                            won: rand(2) == 0,
                            cost_usd: rand(1 << 20) as f64 * 1e-9,
                            inflation_if_won: 1.0 + rand(5000) as f64 / 1013.0,
                        };
                        m.record_hedge(h);
                        hedges.push(h);
                    }
                }
            }
            if rand(50) == 0 {
                let lo = m.folded.max(i.saturating_sub(LAG));
                m.fold(lo + rand(u64::from(i + 1 - lo) + 1) as u32);
                if rand(2) == 0 {
                    let mut w = Wire::new();
                    m.save(&mut w);
                    let bytes = w.into_bytes();
                    let mut r = Unwire::new(&bytes);
                    m = Metering::load(&mut r, u64::from(i) + 1).unwrap();
                    r.finish().unwrap();
                }
            }
        }
        let n = costs.len();
        let want = reduce_whole_history(
            0.1,
            costs,
            inflations,
            classes,
            &adjustments,
            retries,
            &hedges,
        );
        let got = reduce(PlacementStrategy::IdleAware, 0.1, n, m, "static");
        assert!(want.retried > 1000 && want.hedge_wins > 500, "{want:?}");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn poisson_trace_shape() {
        let trace = Trace::poisson(100.0, 0.5, 7).unwrap();
        // ~0.5 rps × 6 functions × 100 s = ~300 arrivals.
        assert!((150..=450).contains(&trace.len()), "{}", trace.len());
        assert!(!trace.is_empty());
        assert_eq!(trace.n_functions(), FunctionKind::ALL.len());
        // Sorted by time, all within the window.
        for w in trace.events().windows(2) {
            assert!(w[0].at_secs <= w[1].at_secs);
        }
        assert!(trace.events().iter().all(|e| e.at_secs < 100.0));
        // Deterministic per seed.
        let again = Trace::poisson(100.0, 0.5, 7).unwrap();
        assert_eq!(trace.events(), again.events());
        assert!(Trace::poisson(-1.0, 0.5, 7).is_err());
        assert!(Trace::poisson(10.0, 0.0, 7).is_err());
    }

    #[test]
    fn idle_aware_strategy_cuts_cost_within_latency_budget() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig::default();
        let trace = Trace::poisson(120.0, 0.3, 5).unwrap();

        let baseline = sim
            .run(&trace, PlacementStrategy::BestConfigOnly, &config)
            .unwrap();
        let idle_aware = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();

        assert_eq!(baseline.invocations, idle_aware.invocations);
        assert_eq!(baseline.spot_admitted, 0);
        assert_eq!(baseline.rejected, baseline.invocations);
        assert!((baseline.mean_latency_inflation - 1.0).abs() < 1e-12);
        accounting_is_total(&baseline);
        accounting_is_total(&idle_aware);

        // The idle-aware fleet serves a meaningful share from spot and
        // pays less overall: the default market is loose, so demand
        // pricing stays near the full discount.
        assert!(idle_aware.spot_share() > 0.2, "{}", idle_aware.spot_share());
        assert!(
            idle_aware.total_cost_usd < baseline.total_cost_usd,
            "{} vs {}",
            idle_aware.total_cost_usd,
            baseline.total_cost_usd
        );
        // Latency inflation stays near the θ=10% guardrail on average.
        assert!(
            idle_aware.mean_latency_inflation < 1.25,
            "{}",
            idle_aware.mean_latency_inflation
        );
    }

    #[test]
    fn contended_market_forces_on_demand_fallbacks() {
        let plans = make_plans(5);
        // A starved shared market under a hot trace must miss sometimes:
        // one VM per family for the whole fleet.
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 1,
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let trace = TraceSource::Poisson {
            rps_per_function: 8.0,
        }
        .generate(FunctionKind::ALL.len(), 60.0, 5)
        .unwrap();
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&report);
        assert!(report.spot_admitted > 0);
        assert!(report.capacity_misses > 0, "expected misses under pressure");
    }

    #[test]
    fn supply_drops_demote_and_rebill() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let volatile = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 2.0,
                    min_fraction: 0.0,
                    seed: 3,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let steady = FleetConfig::default();
        let trace = TraceSource::Poisson {
            rps_per_function: 4.0,
        }
        .generate(FunctionKind::ALL.len(), 60.0, 5)
        .unwrap();
        let volatile_report = sim
            .run(&trace, PlacementStrategy::IdleAware, &volatile)
            .unwrap();
        let steady_report = sim
            .run(&trace, PlacementStrategy::IdleAware, &steady)
            .unwrap();
        accounting_is_total(&volatile_report);
        assert!(
            volatile_report.spot_demoted > 0,
            "an all-or-nothing supply must reclaim in-flight work"
        );
        assert_eq!(steady_report.spot_demoted, 0, "steady supply never demotes");
        // Demotions re-bill at list price, so the volatile market saves
        // less per spot placement than the steady one.
        assert!(volatile_report.total_cost_usd > 0.0);
    }

    fn zoned_config(n_zones: usize, notice_secs: f64) -> FleetConfig {
        FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 5.0,
                    min_fraction: 0.0,
                    seed: 3,
                },
                zones: ZoneConfig {
                    n_zones,
                    notice_secs,
                    shock: 0.5,
                    migration_rebill: 0.5,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn preemption_notices_migrate_and_drain_across_zones() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = TraceSource::Poisson {
            rps_per_function: 4.0,
        }
        .generate(FunctionKind::ALL.len(), 60.0, 5)
        .unwrap();
        let noticed = sim
            .run(&trace, PlacementStrategy::IdleAware, &zoned_config(3, 3.0))
            .unwrap();
        let abrupt = sim
            .run(&trace, PlacementStrategy::IdleAware, &zoned_config(3, 0.0))
            .unwrap();
        accounting_is_total(&noticed);
        accounting_is_total(&abrupt);
        // Volatile zones must announce their drops and save in-flight
        // work: drains complete under notice, migrations re-place the
        // rest in a surviving zone instead of force-demoting it.
        assert!(noticed.notified > 0, "{noticed:?}");
        assert!(noticed.drained > 0, "{noticed:?}");
        assert!(noticed.migrated > 0, "{noticed:?}");
        // Without a notice lead nothing ever drains, but cross-zone
        // failover still absorbs displacements at the step itself.
        assert_eq!(abrupt.notified, 0);
        assert_eq!(abrupt.drained, 0);
        assert!(abrupt.migrated > 0, "{abrupt:?}");
        // Single-zone markets have nowhere to fail over: the legacy
        // counters stay dark no matter how violent the supply is.
        let single = sim
            .run(&trace, PlacementStrategy::IdleAware, &zoned_config(1, 0.0))
            .unwrap();
        accounting_is_total(&single);
        assert_eq!(single.notified + single.drained + single.migrated, 0);
        // Migrations re-bill at a fraction of list while demotions pay
        // full list, so failover is never more expensive than the
        // single-zone market at equal scale — and the drain window can
        // only shrink the demoted count further.
        assert!(
            noticed.spot_demoted <= abrupt.spot_demoted,
            "{noticed:?} vs {abrupt:?}"
        );
    }

    #[test]
    fn fault_plans_perturb_the_market_reproducibly() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let lazy = StreamTrace::generate(
            TraceSource::Poisson {
                rps_per_function: 4.0,
            },
            FunctionKind::ALL.len(),
            60.0,
            5,
        )
        .unwrap();
        let trace = lazy.materialize().unwrap();
        let calm = zoned_config(3, 3.0);
        let faulted = FleetConfig {
            faults: FaultPlan {
                seed: 17,
                outage_rate_per_hour: 120.0,
                mean_outage_secs: 15.0,
                notice_drop_fraction: 0.25,
                burst_rate_per_hour: 90.0,
                mean_burst_secs: 10.0,
                burst_severity: 0.6,
                ..FaultPlan::NONE
            },
            ..calm
        };
        let base = sim
            .run(&trace, PlacementStrategy::IdleAware, &calm)
            .unwrap();
        let hit = sim
            .run(&trace, PlacementStrategy::IdleAware, &faulted)
            .unwrap();
        accounting_is_total(&hit);
        // Outages and shock bursts must actually bite: the faulted
        // market reclaims or displaces more work than the calm one.
        assert!(
            hit.spot_demoted + hit.migrated + hit.drained
                > base.spot_demoted + base.migrated + base.drained,
            "{hit:?} vs {base:?}"
        );
        // The plan is a pure function of its seed: an identical rerun
        // reproduces the report bit for bit, a different seed does not.
        let again = sim
            .run(&trace, PlacementStrategy::IdleAware, &faulted)
            .unwrap();
        assert_eq!(format!("{hit:?}"), format!("{again:?}"));
        let reseeded = FleetConfig {
            faults: FaultPlan {
                seed: 18,
                ..faulted.faults
            },
            ..faulted
        };
        let other = sim
            .run(&trace, PlacementStrategy::IdleAware, &reseeded)
            .unwrap();
        assert_ne!(format!("{hit:?}"), format!("{other:?}"));
        // The determinism lattice holds with faults enabled: an
        // epoch-chained replay of the faulted market stays bit-identical.
        for epoch_secs in [3.0, 17.0] {
            let epochs = chained(
                &sim,
                &lazy,
                PlacementStrategy::IdleAware,
                &faulted,
                epoch_secs,
            )
            .unwrap();
            assert_eq!(format!("{hit:?}"), format!("{epochs:?}"));
        }
    }

    #[test]
    fn window_boundary_tie_breaks_are_pinned() {
        // Pin the event order at one instant — completion < step <
        // notice < tick — by aligning every recurring instant on the
        // same lattice: supply steps every 5 s, notices 5 s ahead (so
        // each notice clamps onto the previous step), controller ticks
        // every 5 s, and epoch boundaries at 5 s and 2.5 s. Every step,
        // notice, and tick lands exactly ON an epoch boundary, so each
        // must be owned by exactly one epoch; any double-count or
        // ordering drift breaks bit-identity with the uninterrupted
        // reference.
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 5.0,
                    min_fraction: 0.0,
                    seed: 3,
                },
                zones: ZoneConfig {
                    n_zones: 2,
                    notice_secs: 5.0,
                    shock: 0.5,
                    migration_rebill: 0.5,
                },
                ..MarketConfig::default()
            },
            control: ControlConfig {
                cadence_secs: 5.0,
                controller: ControllerConfig::HeadroomPid(PidConfig::default()),
            },
            ..FleetConfig::default()
        };
        let lazy = StreamTrace::generate(
            TraceSource::Poisson {
                rps_per_function: 4.0,
            },
            FunctionKind::ALL.len(),
            60.0,
            5,
        )
        .unwrap();
        let reference = sim
            .run(
                &lazy.materialize().unwrap(),
                PlacementStrategy::IdleAware,
                &config,
            )
            .unwrap();
        accounting_is_total(&reference);
        assert!(reference.notified > 0, "{reference:?}");
        for epoch_secs in [2.5, 5.0] {
            let epochs = chained(
                &sim,
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                epoch_secs,
            )
            .unwrap();
            assert_eq!(
                format!("{reference:?}"),
                format!("{epochs:?}"),
                "epoch={epoch_secs}"
            );
        }
    }

    #[test]
    fn crash_resume_restores_the_replay_bit_identically() {
        use crate::snapshot::ReplaySnapshot;
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            faults: FaultPlan {
                seed: 17,
                outage_rate_per_hour: 60.0,
                mean_outage_secs: 20.0,
                notice_drop_fraction: 0.25,
                burst_rate_per_hour: 45.0,
                mean_burst_secs: 10.0,
                burst_severity: 0.6,
                ..FaultPlan::NONE
            },
            control: ControlConfig {
                cadence_secs: 10.0,
                controller: ControllerConfig::HeadroomPid(PidConfig::default()),
            },
            ..zoned_config(3, 3.0)
        };
        let lazy = StreamTrace::generate(
            TraceSource::Bursty {
                calm_rps: 1.0,
                burst_rps: 8.0,
                mean_calm_secs: 20.0,
                mean_burst_secs: 10.0,
            },
            FunctionKind::ALL.len(),
            120.0,
            11,
        )
        .unwrap();
        let reference = stream(&sim, &lazy, PlacementStrategy::IdleAware, &config).unwrap();
        let resumable =
            |cadence: f64,
             config: &FleetConfig,
             resume: Option<&ReplaySnapshot>,
             on_snapshot: &mut dyn FnMut(&ReplaySnapshot) -> bool| {
                sim.run_stream_resumable_traced(
                    &lazy,
                    PlacementStrategy::IdleAware,
                    config,
                    cadence,
                    resume,
                    &mut NoopRecorder,
                    |s, _| Ok(on_snapshot(s)),
                )
            };
        // A full pass with snapshots enabled is the plain sequential
        // chain: same report, and one snapshot per interior boundary.
        let mut snaps: Vec<ReplaySnapshot> = Vec::new();
        let full = resumable(15.0, &config, None, &mut |s| {
            snaps.push(s.clone());
            true
        })
        .unwrap()
        .expect("an uninterrupted run returns a report");
        assert_eq!(format!("{reference:?}"), format!("{full:?}"));
        assert!(
            snaps.len() >= 4,
            "expected several epochs, got {}",
            snaps.len()
        );
        // Kill at every epoch: resuming from the serialized snapshot —
        // round-tripped through the wire format like a real restart —
        // reproduces the uninterrupted report bit for bit.
        for snap in &snaps {
            let kill_at = snap.epoch();
            let resumed_from = ReplaySnapshot::from_bytes(&snap.to_bytes()).unwrap();
            let crashed = resumable(15.0, &config, None, &mut |s| s.epoch() < kill_at).unwrap();
            assert!(
                crashed.is_none(),
                "epoch {kill_at}: the kill must abort the run"
            );
            let resumed = resumable(15.0, &config, Some(&resumed_from), &mut |_| true)
                .unwrap()
                .expect("a resumed run finishes");
            assert_eq!(
                format!("{reference:?}"),
                format!("{resumed:?}"),
                "resume from epoch {kill_at} diverged"
            );
        }
        // A snapshot from a different replay is rejected, not replayed:
        // the fingerprint covers strategy, config, trace, and cadence.
        let other = FleetConfig {
            slo_theta: config.slo_theta + 0.01,
            ..config
        };
        let err = resumable(15.0, &other, Some(&snaps[0]), &mut |_| true);
        assert!(
            err.is_err(),
            "a reconfigured replay must reject the snapshot"
        );
        // And so is a snapshot taken at a different cadence.
        let err = resumable(30.0, &config, Some(&snaps[0]), &mut |_| true);
        assert!(
            err.is_err(),
            "a re-cadenced replay must reject the snapshot"
        );
    }

    #[test]
    fn admission_policy_gates_the_market() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(60.0, 1.0, 9).unwrap();
        // A zero-headroom policy rejects every request before it touches
        // the ledger.
        let closed = FleetConfig {
            market: MarketConfig {
                admission: AdmissionPolicy::Headroom {
                    max_utilization: 0.0,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &closed)
            .unwrap();
        accounting_is_total(&report);
        assert_eq!(report.spot_admitted + report.spot_demoted, 0);
        assert_eq!(report.policy_rejections, report.invocations);
        // Greedy on the same trace admits plenty.
        let open = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &FleetConfig::default(),
            )
            .unwrap();
        assert!(open.spot_admitted > 0);
        assert_eq!(open.policy_rejections, 0);
    }

    #[test]
    fn epoch_chained_replay_is_bit_identical_to_sequential() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        // A fluctuating, tightish market exercises demotion and carried
        // in-flight state, not just an empty market at every boundary.
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 7.0,
                    min_fraction: 0.3,
                    seed: 11,
                },
                admission: AdmissionPolicy::Headroom {
                    max_utilization: 0.9,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let lazy = StreamTrace::generate(
            TraceSource::Bursty {
                calm_rps: 0.2,
                burst_rps: 3.0,
                mean_calm_secs: 30.0,
                mean_burst_secs: 6.0,
            },
            FunctionKind::ALL.len(),
            120.0,
            5,
        )
        .unwrap();
        let trace = lazy.materialize().unwrap();
        for strategy in PlacementStrategy::ALL {
            let seq = sim.run(&trace, strategy, &config).unwrap();
            for epoch_secs in [3.0, 17.0, 120.0] {
                let epochs = chained(&sim, &lazy, strategy, &config, epoch_secs).unwrap();
                assert_eq!(
                    format!("{seq:?}"),
                    format!("{epochs:?}"),
                    "{strategy:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
    }

    /// A scarce, volatile market under sustained traffic: the regime
    /// where demotions happen and feedback has something to do.
    fn volatile_config(controller: ControllerConfig) -> FleetConfig {
        FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 20.0,
                    min_fraction: 0.0,
                    seed: 3,
                },
                ..MarketConfig::default()
            },
            control: ControlConfig {
                cadence_secs: 10.0,
                controller,
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn static_controller_reproduces_the_open_loop_engine() {
        // The Static controller ticking at any cadence must not perturb
        // the metering: same costs, classes, and violations as the
        // pre-controller engine (cadence so long it never ticks).
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(120.0, 0.8, 7).unwrap();
        let never = FleetConfig {
            control: ControlConfig {
                cadence_secs: 1e6,
                controller: ControllerConfig::Static,
            },
            ..volatile_config(ControllerConfig::Static)
        };
        let ticking = volatile_config(ControllerConfig::Static);
        let a = sim
            .run(&trace, PlacementStrategy::IdleAware, &never)
            .unwrap();
        let b = sim
            .run(&trace, PlacementStrategy::IdleAware, &ticking)
            .unwrap();
        assert!(a.control.is_empty(), "1e6s cadence must never tick");
        assert!(!b.control.is_empty(), "10s cadence must tick");
        assert_eq!(a.total_cost_usd.to_bits(), b.total_cost_usd.to_bits());
        assert_eq!(a.spot_admitted, b.spot_admitted);
        assert_eq!(a.spot_demoted, b.spot_demoted);
        assert_eq!(a.slo_violations, b.slo_violations);
        assert_eq!(b.controller, "static");
        // Static telemetry still observes the market.
        assert!(b.control.iter().map(|s| s.arrivals as usize).sum::<usize>() <= b.invocations);
        assert!(b.control.iter().all(|s| s.ceiling == f64::INFINITY));
    }

    #[test]
    fn pid_controller_trades_spot_share_for_fewer_demotions() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = TraceSource::HeavyTail {
            mean_rps: 2.0,
            alpha: 1.5,
        }
        .generate(FunctionKind::ALL.len(), 300.0, 5)
        .unwrap();
        let open = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &volatile_config(ControllerConfig::Static),
            )
            .unwrap();
        let closed = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &volatile_config(ControllerConfig::HeadroomPid(PidConfig::default())),
            )
            .unwrap();
        assert_eq!(open.invocations, closed.invocations);
        accounting_is_total(&closed);
        assert!(open.spot_demoted > 0, "volatile market must demote");
        assert!(
            closed.spot_demoted < open.spot_demoted,
            "feedback must reduce demotions: {} vs {}",
            closed.spot_demoted,
            open.spot_demoted
        );
        assert!(
            closed.slo_violations <= open.slo_violations,
            "tightening must not add violations: {} vs {}",
            closed.slo_violations,
            open.slo_violations
        );
        // The loop actually moved the ceiling below the greedy cap.
        assert_eq!(closed.controller, "pid");
        assert!(closed.control.iter().any(|s| s.ceiling < 1.0));
        assert!(closed
            .control
            .iter()
            .all(|s| (PidConfig::default().min_ceiling..=1.0).contains(&s.ceiling)));
    }

    #[test]
    fn right_sizer_retires_guardrail_breaking_alternates() {
        // Force plans whose *first-tried* alternates actually break the
        // θ = 10% guardrail: every family stays accepted and the order
        // puts the slowest first — the worst case of an offline model
        // that mispredicted. The right-sizer must learn the actual
        // latencies and stop using the breakers, cutting violations.
        let mut plans = make_plans(5);
        for plan in &mut plans {
            for a in &mut plan.alternates {
                a.accepted = true;
            }
            plan.alternates
                .sort_by(|a, b| b.norm_exec_time.total_cmp(&a.norm_exec_time));
        }
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(240.0, 0.8, 11).unwrap();
        let steady = |controller| FleetConfig {
            control: ControlConfig {
                cadence_secs: 15.0,
                controller,
            },
            ..FleetConfig::default()
        };
        let open = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &steady(ControllerConfig::Static),
            )
            .unwrap();
        let sized = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &steady(ControllerConfig::SurrogateRightSizer(
                    RightSizerConfig::default(),
                )),
            )
            .unwrap();
        accounting_is_total(&sized);
        assert_eq!(sized.controller, "right_sizer");
        assert!(
            sized.control.iter().map(|s| s.replanned).sum::<u32>() > 0,
            "observations must trigger at least one replan"
        );
        assert!(
            open.slo_violations > 0,
            "forced-in breakers must violate under the open loop"
        );
        assert!(
            sized.slo_violations < open.slo_violations,
            "retiring observed breakers must cut violations: {} vs {}",
            sized.slo_violations,
            open.slo_violations
        );
    }

    #[test]
    fn every_controller_is_epoch_chain_bit_identical() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let lazy = StreamTrace::generate(
            TraceSource::Bursty {
                calm_rps: 0.3,
                burst_rps: 3.0,
                mean_calm_secs: 25.0,
                mean_burst_secs: 6.0,
            },
            FunctionKind::ALL.len(),
            180.0,
            9,
        )
        .unwrap();
        let trace = lazy.materialize().unwrap();
        for controller in [
            ControllerConfig::Static,
            ControllerConfig::HeadroomPid(PidConfig::default()),
            ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
        ] {
            let config = volatile_config(controller);
            let seq = sim
                .run(&trace, PlacementStrategy::IdleAware, &config)
                .unwrap();
            // 7 s epochs split every 10 s control epoch across
            // boundaries, so carried accumulators and controller state
            // really get exercised.
            for epoch_secs in [7.0, 45.0] {
                let epochs = chained(
                    &sim,
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                )
                .unwrap();
                assert_eq!(
                    format!("{seq:?}"),
                    format!("{epochs:?}"),
                    "{controller:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
    }

    #[test]
    fn streaming_replay_matches_materialized_with_bounded_residency() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 7.0,
                    min_fraction: 0.3,
                    seed: 11,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let source = TraceSource::HeavyTail {
            mean_rps: 1.2,
            alpha: 1.5,
        };
        let lazy = StreamTrace::generate(source, FunctionKind::ALL.len(), 180.0, 5).unwrap();
        let full = lazy.materialize().unwrap();
        for strategy in PlacementStrategy::ALL {
            let reference = sim.run(&full, strategy, &config).unwrap();
            let (streamed, stats) = sim
                .run_stream_traced(&lazy, strategy, &config, &mut NoopRecorder)
                .unwrap();
            assert_eq!(
                format!("{reference:?}"),
                format!("{streamed:?}"),
                "{strategy:?} diverged between materialized and streaming"
            );
            // Peak resident state is in-flight + cursor lookahead, far
            // below total arrivals.
            assert_eq!(stats.events, full.len());
            assert_eq!(stats.peak_cursor_resident, FunctionKind::ALL.len());
            assert!(
                stats.peak_resident_events() < full.len() / 2,
                "peak {} should be far below {} arrivals",
                stats.peak_resident_events(),
                full.len()
            );
        }
        // Resumable replays reject degenerate epochs: empty ones, and
        // ones so short they would cut the trace into more than
        // MAX_WINDOWS epochs.
        for epoch_secs in [0.0, 1e-9] {
            assert!(chained(
                &sim,
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                epoch_secs
            )
            .is_err());
        }
        // A mis-sized fleet is rejected.
        let small = StreamTrace::generate(source, 3, 30.0, 1).unwrap();
        assert!(stream(&sim, &small, PlacementStrategy::IdleAware, &config).is_err());
    }

    #[test]
    fn an_empty_trace_reports_identically_through_every_entry_point() {
        let sim = FleetSimulator::new(make_plans(2)).unwrap();
        let config = volatile_config(ControllerConfig::HeadroomPid(PidConfig::default()));
        // Six registered functions, not one arrival.
        let rows: String = (0..FunctionKind::ALL.len())
            .map(|f| format!("app,fn{f},0,0\n"))
            .collect();
        let lazy = StreamTrace::from_csv_parts(&[rows.as_bytes()]).unwrap();
        assert!(lazy.is_empty());
        let full = lazy.materialize().unwrap();
        for strategy in PlacementStrategy::ALL {
            let reference = sim.run(&full, strategy, &config).unwrap();
            assert_eq!(reference.invocations, 0);
            let streamed = stream(&sim, &lazy, strategy, &config).unwrap();
            let resumable = chained(&sim, &lazy, strategy, &config, 60.0).unwrap();
            assert_eq!(format!("{reference:?}"), format!("{streamed:?}"));
            assert_eq!(format!("{reference:?}"), format!("{resumable:?}"));
        }
    }

    #[test]
    fn plans_with_more_than_255_accepted_alternates_are_rejected() {
        let mut plans = make_plans(1);
        let accepted: Vec<_> = plans[0]
            .alternates
            .iter()
            .filter(|a| a.accepted)
            .cloned()
            .collect();
        assert!(!accepted.is_empty());
        let trace = Trace::poisson(10.0, 0.5, 1).unwrap();
        let config = FleetConfig::default();
        for (n, ok) in [(255, true), (256, false), (300, false)] {
            plans[0].alternates = accepted.iter().cycle().take(n).cloned().collect();
            let sim = FleetSimulator::new(plans.clone()).unwrap();
            for strategy in PlacementStrategy::ALL {
                let result = sim.run(&trace, strategy, &config);
                if ok {
                    assert!(result.is_ok(), "{n} alternates: {result:?}");
                } else {
                    assert!(
                        matches!(result, Err(FreedomError::InvalidArgument(_))),
                        "{n} alternates must be rejected"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_fleet_and_invalid_inputs_are_rejected() {
        assert!(matches!(
            FleetSimulator::new(Vec::new()),
            Err(FreedomError::InvalidArgument(_))
        ));
        let plans = make_plans(1);
        let sim = FleetSimulator::new(plans).unwrap();
        // A 4-function trace cannot drive a 6-function fleet.
        let trace = TraceSource::Poisson {
            rps_per_function: 0.5,
        }
        .generate(4, 30.0, 1)
        .unwrap();
        assert!(matches!(
            sim.run(
                &trace,
                PlacementStrategy::IdleAware,
                &FleetConfig::default()
            ),
            Err(FreedomError::InvalidArgument(_))
        ));
        let ok = Trace::poisson(10.0, 0.5, 1).unwrap();
        // Bad SLO theta and market parameters.
        assert!(sim
            .run(
                &ok,
                PlacementStrategy::IdleAware,
                &FleetConfig {
                    slo_theta: f64::NAN,
                    ..FleetConfig::default()
                }
            )
            .is_err());
        assert!(sim
            .run(
                &ok,
                PlacementStrategy::IdleAware,
                &FleetConfig {
                    market: MarketConfig {
                        vms_per_family: 0,
                        ..MarketConfig::default()
                    },
                    ..FleetConfig::default()
                }
            )
            .is_err());
        // Degenerate control cadences are rejected up front: zero/NaN,
        // and one so short the trace would tick millions of times.
        for cadence_secs in [0.0, f64::NAN, 1e-9] {
            assert!(sim
                .run(
                    &ok,
                    PlacementStrategy::IdleAware,
                    &FleetConfig {
                        control: ControlConfig {
                            cadence_secs,
                            ..ControlConfig::default()
                        },
                        ..FleetConfig::default()
                    }
                )
                .is_err());
        }
    }

    /// A volatile market plus per-invocation transients and a plain
    /// backoff policy (no hedging, no brownout).
    fn flaky_config() -> FleetConfig {
        FleetConfig {
            faults: FaultPlan {
                seed: 17,
                crash_prob: 0.10,
                abort_prob: 0.08,
                straggler_prob: 0.12,
                straggler_factor: 4.0,
                ..FaultPlan::NONE
            },
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base_secs: 0.5,
                backoff_cap_secs: 8.0,
                budget_per_sec: 2.0,
                budget_burst: 8.0,
                ..RetryPolicy::DEFAULT
            },
            ..volatile_config(ControllerConfig::Static)
        }
    }

    #[test]
    fn transient_faults_drive_retries_into_the_ledger() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(180.0, 0.8, 7).unwrap();
        let config = flaky_config();
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&report);
        assert!(report.retried > 0, "transients must retry: {report:?}");
        assert!(
            report.hedge_wins == 0 && report.shed_retries == 0,
            "no hedging or brownout configured: {report:?}"
        );
        // The same seeds replay bit-identically; a different retry seed
        // moves the jittered backoffs and diverges.
        let again = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
        let reseeded = FleetConfig {
            retry: RetryPolicy {
                seed: config.retry.seed + 1,
                ..config.retry
            },
            ..config
        };
        let moved = sim
            .run(&trace, PlacementStrategy::IdleAware, &reseeded)
            .unwrap();
        assert_ne!(
            format!("{report:?}"),
            format!("{moved:?}"),
            "the retry seed must matter"
        );
        // Without transients the whole retry layer is inert: no retry
        // records, no dead letters, and the report matches a run under
        // the default policy bit for bit.
        let calm = FleetConfig {
            faults: FaultPlan::NONE,
            ..config
        };
        let quiet = sim
            .run(&trace, PlacementStrategy::IdleAware, &calm)
            .unwrap();
        assert_eq!(quiet.retried, 0);
        assert_eq!(quiet.dead_lettered, 0);
        let default_policy = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &FleetConfig {
                    retry: RetryPolicy::DEFAULT,
                    ..calm
                },
            )
            .unwrap();
        assert_eq!(format!("{quiet:?}"), format!("{default_policy:?}"));
    }

    #[test]
    fn attempt_cap_dead_letters_what_it_cannot_retry() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(180.0, 0.8, 7).unwrap();
        // max_attempts = 1 means a transient failure has no second
        // chance: every crash or abort dead-letters immediately.
        let config = FleetConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..flaky_config().retry
            },
            ..flaky_config()
        };
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&report);
        assert!(report.dead_lettered > 0, "cap must bite: {report:?}");
        assert_eq!(
            report.retried, report.dead_lettered,
            "with a cap of one every retry record is a dead letter"
        );
        // A generous cap re-executes instead: strictly fewer dead
        // letters under the same fault plan.
        let generous = sim
            .run(&trace, PlacementStrategy::IdleAware, &flaky_config())
            .unwrap();
        assert!(
            generous.dead_lettered < report.dead_lettered,
            "{} vs {}",
            generous.dead_lettered,
            report.dead_lettered
        );
    }

    #[test]
    fn hedges_race_stragglers_and_win_some() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(180.0, 0.8, 7).unwrap();
        // Stragglers only — a hedge fired shortly after the slowdown is
        // detected beats a 6x-inflated original often.
        let config = FleetConfig {
            faults: FaultPlan {
                seed: 17,
                straggler_prob: 0.25,
                straggler_factor: 6.0,
                ..FaultPlan::NONE
            },
            retry: RetryPolicy {
                hedge_delay_secs: 0.5,
                ..RetryPolicy::DEFAULT
            },
            ..volatile_config(ControllerConfig::Static)
        };
        let hedged = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&hedged);
        assert!(hedged.hedge_wins > 0, "hedges must win races: {hedged:?}");
        // Hedging is pure duplication: it changes no terminal class, so
        // the admission ledger matches the unhedged run exactly, and the
        // won races can only shorten observed latency.
        let unhedged = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &FleetConfig {
                    retry: RetryPolicy {
                        hedge_delay_secs: 0.0,
                        ..config.retry
                    },
                    ..config
                },
            )
            .unwrap();
        assert_eq!(unhedged.hedge_wins, 0);
        assert!(
            hedged.mean_latency_inflation <= unhedged.mean_latency_inflation,
            "{} vs {}",
            hedged.mean_latency_inflation,
            unhedged.mean_latency_inflation
        );
    }

    #[test]
    fn brownout_sheds_retries_under_pressure() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(180.0, 1.2, 7).unwrap();
        // Aggressive transients against a sensitive brownout: retry
        // pressure crosses the enter threshold and activations get shed.
        let base = flaky_config();
        let config = FleetConfig {
            faults: FaultPlan {
                crash_prob: 0.25,
                abort_prob: 0.20,
                ..base.faults
            },
            retry: RetryPolicy {
                brownout: Some(BrownoutConfig {
                    enter_pressure: 0.05,
                    exit_pressure: 0.01,
                    utilization_ceiling: 0.6,
                }),
                ..base.retry
            },
            ..base
        };
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&report);
        assert!(report.shed_retries > 0, "brownout must shed: {report:?}");
        assert!(
            report.shed_retries <= report.dead_lettered,
            "shed activations are dead letters: {report:?}"
        );
        // The control telemetry records the mode flipping on.
        assert!(
            report.control.iter().any(|s| s.brownout),
            "no control sample saw brownout: {report:?}"
        );
    }
}
