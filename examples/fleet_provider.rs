//! Fleet-level provider economics: replay a traffic trace against the
//! shared spot market.
//!
//! ```text
//! cargo run --release --example fleet_provider
//! ```
//!
//! Extends §6.2 beyond single placements: all six benchmark functions
//! receive Poisson traffic for five minutes and contend for one
//! provider-wide pool of warm VMs whose supply fluctuates. The
//! idle-aware policy steers invocations onto θ-guardrailed alternate
//! families while the planner-emitted admission controller lets them in,
//! falling back to on-demand otherwise; supply drops demote in-flight
//! spot work back to list price. Compare the provider's bill and the
//! users' latency against the always-best-config baseline.

use faas_freedom::core::fleet::{
    ControlConfig, ControllerConfig, FleetConfig, FleetSimulator, FunctionPlan, NoopRecorder,
    PidConfig, PlacementStrategy, StreamTrace, SupplyProcess, TraceSource,
};
use faas_freedom::core::market::MarketConfig;
use faas_freedom::optimizer::SearchSpace;
use faas_freedom::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Tune every function once and plan its alternate families; the
    //    planner also emits the market's admission policy.
    let planner = IdleCapacityPlanner::default();
    let space = SearchSpace::table1();
    let mut plans = Vec::new();
    for function in FunctionKind::ALL {
        let input = function.default_input();
        let table = collect_ground_truth(function, &input, space.configs(), 3, 42)?;
        let outcome = Autotuner::new(SurrogateKind::Gp).tune_offline(
            function,
            &input,
            Objective::ExecutionTime,
            42,
        )?;
        let plan = planner.plan(&outcome, &table, &space)?;
        println!(
            "{function:<11} best {} | {} alternate families accepted",
            outcome.recommended().expect("tuned"),
            plan.placements.iter().filter(|a| a.accepted).count(),
        );
        plans.push(FunctionPlan {
            function,
            best_config: outcome.recommended().expect("tuned"),
            alternates: plan.placements,
            table,
        });
    }

    // 2. Five minutes of Poisson traffic at 0.5 rps per function, one
    //    lazily generated stream per function, in plan order.
    let poisson = TraceSource::Poisson {
        rps_per_function: 0.5,
    };
    let trace = StreamTrace::generate(poisson, FunctionKind::ALL.len(), 300.0, 42)?;
    println!("\nreplaying {} invocations...", trace.len());

    // 3. Both policies on the same trace, fleet, and fluctuating
    //    market, each replayed in one sequential pass.
    let sim = FleetSimulator::new(plans)?;
    let replay = |strategy, config: &FleetConfig| {
        sim.run_stream_traced(&trace, strategy, config, &mut NoopRecorder)
            .map(|(report, _)| report)
    };
    let config = FleetConfig {
        market: MarketConfig {
            vms_per_family: 2,
            supply: SupplyProcess {
                step_secs: 30.0,
                min_fraction: 0.0,
                seed: 42,
            },
            admission: planner.admission_policy(),
            ..MarketConfig::default()
        },
        ..FleetConfig::default()
    };
    let baseline = replay(PlacementStrategy::BestConfigOnly, &config)?;
    let idle_aware = replay(PlacementStrategy::IdleAware, &config)?;

    println!(
        "\nbaseline  : ${:.4} total, latency inflation 1.000 (by definition)",
        baseline.total_cost_usd
    );
    println!(
        "idle-aware: ${:.4} total ({:.0}% cheaper), {:.0}% from spot, \
         mean latency inflation {:.3}, p95 {:.3}",
        idle_aware.total_cost_usd,
        (1.0 - idle_aware.total_cost_usd / baseline.total_cost_usd) * 100.0,
        idle_aware.spot_share() * 100.0,
        idle_aware.mean_latency_inflation,
        idle_aware.p95_latency_inflation,
    );
    println!(
        "admissions: {} admitted, {} demoted by supply drops, \
         {} rejected ({} policy, {} capacity), {} SLO violations",
        idle_aware.spot_admitted,
        idle_aware.spot_demoted,
        idle_aware.rejected,
        idle_aware.policy_rejections,
        idle_aware.capacity_misses,
        idle_aware.slo_violations,
    );
    assert!(idle_aware.total_cost_usd < baseline.total_cost_usd);

    // 4. Close the loop: a PID controller watches the demotion rate
    //    every 15 s and moves the admission ceiling itself.
    let closed_config = FleetConfig {
        control: ControlConfig {
            cadence_secs: 15.0,
            controller: ControllerConfig::HeadroomPid(PidConfig::default()),
        },
        ..config
    };
    let closed = replay(PlacementStrategy::IdleAware, &closed_config)?;
    let final_ceiling = closed
        .control
        .last()
        .map_or(f64::INFINITY, |sample| sample.ceiling);
    println!(
        "\nclosed loop ({} ticks of pid): ${:.4} total, {} demoted (open loop: {}), \
         {} SLO violations (open loop: {}), final admission ceiling {:.2}",
        closed.control.len(),
        closed.total_cost_usd,
        closed.spot_demoted,
        idle_aware.spot_demoted,
        closed.slo_violations,
        idle_aware.slo_violations,
        final_ceiling,
    );
    Ok(())
}
