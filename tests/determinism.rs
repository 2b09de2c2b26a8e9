//! Determinism across the whole stack: identical seeds replay identically,
//! different seeds diverge. Reproducibility is what makes the experiment
//! harness trustworthy.

use faas_freedom::core::fleet::{
    AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetReport, FleetSimulator,
    NoopRecorder, PidConfig, PlacementStrategy, RightSizerConfig, StreamTrace, SupplyProcess,
};
use faas_freedom::core::market::MarketConfig;
use faas_freedom::core::snapshot::ReplaySnapshot;
use faas_freedom::optimizer::SearchSpace;
use faas_freedom::prelude::*;

#[test]
fn ground_truth_replays_identically() {
    let function = FunctionKind::Transcode;
    let input = function.default_input();
    let configs = SearchSpace::table1();
    let a = collect_ground_truth(function, &input, configs.configs(), 3, 77).unwrap();
    let b = collect_ground_truth(function, &input, configs.configs(), 3, 77).unwrap();
    assert_eq!(a.points(), b.points());
    let c = collect_ground_truth(function, &input, configs.configs(), 3, 78).unwrap();
    assert_ne!(a.points(), c.points());
}

#[test]
fn full_autotune_replays_identically() {
    let run = |seed| {
        Autotuner::new(SurrogateKind::Gp)
            .tune_offline(
                FunctionKind::Linpack,
                &FunctionKind::Linpack.default_input(),
                Objective::ExecutionCost,
                seed,
            )
            .unwrap()
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(a.run.trials, b.run.trials);
    assert_eq!(a.recommended(), b.recommended());
    let c = run(124);
    assert_ne!(a.run.trials, c.run.trials);
}

#[test]
fn every_surrogate_kind_replays_identically() {
    let function = FunctionKind::S3;
    let table = collect_ground_truth(
        function,
        &function.default_input(),
        SearchSpace::table1().configs(),
        3,
        5,
    )
    .unwrap();
    for kind in SurrogateKind::ALL {
        let run_once = || {
            let mut evaluator = TableEvaluator::new(&table);
            BayesianOptimizer::new(
                kind,
                BoConfig {
                    seed: 9,
                    ..BoConfig::default()
                },
            )
            .optimize(
                &SearchSpace::table1(),
                &mut evaluator,
                Objective::ExecutionTime,
            )
            .unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.trials, b.trials, "{kind} diverged across replays");
    }
}

/// Every fig* experiment must produce bit-identical output whether its
/// repetitions run sequentially (threads = 1) or fanned out across cores.
/// `{:?}` formatting round-trips `f64`s exactly, so string equality is bit
/// equality of every number in the result.
#[test]
fn every_experiment_is_bit_identical_parallel_vs_sequential() {
    use freedom_experiments as exp;
    use freedom_experiments::ExperimentOpts;

    let sequential = ExperimentOpts::fast().with_threads(1);
    let parallel = ExperimentOpts::fast().with_threads(8);
    let objectives = [Objective::ExecutionTime, Objective::ExecutionCost];

    macro_rules! check {
        ($name:literal, $run:expr) => {{
            let run = $run;
            let a = format!("{:?}", run(&sequential));
            let b = format!("{:?}", run(&parallel));
            assert_eq!(a, b, "{} diverged between sequential and parallel", $name);
        }};
    }

    check!("fig01", |o: &ExperimentOpts| exp::fig01_config_spread::run(
        o
    )
    .unwrap());
    check!("fig03", |o: &ExperimentOpts| exp::fig03_strategies::run(o)
        .unwrap());
    check!("table3", |o: &ExperimentOpts| {
        exp::table3_alternatives::run(o).unwrap()
    });
    check!("fig04", |o: &ExperimentOpts| {
        exp::fig04_sampling_vs_bo::run(o).unwrap()
    });
    for objective in objectives {
        check!("fig05/06", |o: &ExperimentOpts| {
            exp::fig05_convergence::run(o, objective).unwrap()
        });
    }
    check!("fig07", |o: &ExperimentOpts| {
        exp::fig07_input_specific::run(o).unwrap()
    });
    check!("fig08", |o: &ExperimentOpts| {
        exp::fig08_online_violations::run(o).unwrap()
    });
    for scenario in [
        exp::fig09_mape::Scenario::WholeSpace,
        exp::fig09_mape::Scenario::PerFamilyBest,
    ] {
        check!("fig09/10", |o: &ExperimentOpts| exp::fig09_mape::run(
            o, scenario
        )
        .unwrap());
    }
    check!("fig12", |o: &ExperimentOpts| {
        exp::fig12_pareto_distance::run(o).unwrap()
    });
    check!("fig13", |o: &ExperimentOpts| exp::fig13_weighted_mo::run(o)
        .unwrap());
    check!("fig14", |o: &ExperimentOpts| exp::fig14_hierarchical::run(
        o
    )
    .unwrap());
    check!("fig15", |o: &ExperimentOpts| {
        exp::fig15_provider_savings::run(o).unwrap()
    });
    check!("ablation", |o: &ExperimentOpts| exp::ablation_study::run(o)
        .unwrap());
    check!("fleet", |o: &ExperimentOpts| exp::fleet_simulation::run(o)
        .unwrap());
    check!("control_loop", |o: &ExperimentOpts| {
        exp::fleet_control_loop::run(o).unwrap()
    });
}

// ---------------------------------------------------------------------
// The fleet determinism lattice. Every row replays one scenario through
// every entry point of the single replay engine — the materialized
// `run` reference, the streaming `run_stream_traced`, an epoch-chained
// `run_stream_resumable_traced`, and a resume from every epoch
// boundary's snapshot — and demands the same `FleetReport`, bit for bit.
// `{:?}` formatting round-trips `f64`s exactly, so string equality is
// bit equality of every number in the report.
// ---------------------------------------------------------------------

/// Epoch length of the lattice's dense epoch chain: it slices every
/// 15 s control epoch and most in-flight placements across boundaries,
/// so carried ledger, retry, and controller state all get exercised.
const DENSE_EPOCH_SECS: f64 = 1.0;

/// Epoch length of the lattice's kill-and-resume sweep.
const RESUME_EPOCH_SECS: f64 = 60.0;

/// The fewest refits a right-sizer tick fans out over threads (the
/// private `FANOUT_MIN_REFITS` in `crates/core/src/controller.rs`). A
/// tick's `replanned` count never exceeds its refits, so a tick that
/// replans at least this many functions fanned out.
const RIGHT_SIZER_FANOUT_MIN: u32 = 4;

/// The three controllers every row crosses with.
fn controllers() -> [ControllerConfig; 3] {
    [
        ControllerConfig::Static,
        ControllerConfig::HeadroomPid(PidConfig::default()),
        ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
    ]
}

/// A scarce, fluctuating market under admission control and `controller`
/// ticking every 15 s: carried in-flight state, demotions, policy
/// rejections, and controller state all cross epoch boundaries.
fn lattice_config(controller: ControllerConfig) -> FleetConfig {
    FleetConfig {
        market: MarketConfig {
            vms_per_family: 3,
            supply: SupplyProcess {
                step_secs: 15.0,
                min_fraction: 0.3,
                seed: 21,
            },
            admission: AdmissionPolicy::Headroom {
                max_utilization: 0.85,
            },
            ..MarketConfig::default()
        },
        control: ControlConfig {
            cadence_secs: 15.0,
            controller,
        },
        ..FleetConfig::default()
    }
}

/// An uninterrupted resumable replay in epochs of `epoch_secs`; every
/// boundary's snapshot is handed to `on_snapshot`.
fn epoch_chained(
    sim: &FleetSimulator,
    lazy: &StreamTrace,
    strategy: PlacementStrategy,
    config: &FleetConfig,
    epoch_secs: f64,
    mut on_snapshot: impl FnMut(&ReplaySnapshot),
) -> FleetReport {
    sim.run_stream_resumable_traced(
        lazy,
        strategy,
        config,
        epoch_secs,
        None,
        &mut NoopRecorder,
        |snap, _| {
            on_snapshot(snap);
            Ok(true)
        },
    )
    .unwrap()
    .expect("an uninterrupted run returns a report")
}

/// Asserts one lattice row: `lazy` replayed by the streaming engine, by
/// a dense epoch chain, and killed-and-resumed at every
/// [`RESUME_EPOCH_SECS`] boundary (each snapshot round-tripped through
/// its wire format, like a restart) reproduces `reference` bit for bit.
fn assert_lattice(
    sim: &FleetSimulator,
    lazy: &StreamTrace,
    strategy: PlacementStrategy,
    config: &FleetConfig,
    reference: &FleetReport,
    label: &str,
) {
    let reference = format!("{reference:?}");
    let (streamed, stats) = sim
        .run_stream_traced(lazy, strategy, config, &mut NoopRecorder)
        .unwrap();
    assert_eq!(
        reference,
        format!("{streamed:?}"),
        "{label}: streaming diverged from materialized"
    );
    assert_eq!(stats.events, lazy.len(), "{label}: stream miscounted");
    let dense = epoch_chained(sim, lazy, strategy, config, DENSE_EPOCH_SECS, |_| {});
    assert_eq!(
        reference,
        format!("{dense:?}"),
        "{label}: {DENSE_EPOCH_SECS}s epoch chain diverged"
    );
    let mut snapshots = Vec::new();
    let chained = epoch_chained(sim, lazy, strategy, config, RESUME_EPOCH_SECS, |snap| {
        snapshots.push(snap.to_bytes())
    });
    assert_eq!(
        reference,
        format!("{chained:?}"),
        "{label}: {RESUME_EPOCH_SECS}s epoch chain diverged"
    );
    assert!(
        !snapshots.is_empty(),
        "{label}: no epoch boundary to resume"
    );
    for bytes in &snapshots {
        let snap = ReplaySnapshot::from_bytes(bytes).unwrap();
        let resumed = sim
            .run_stream_resumable_traced(
                lazy,
                strategy,
                config,
                RESUME_EPOCH_SECS,
                Some(&snap),
                &mut NoopRecorder,
                |_, _| Ok(true),
            )
            .unwrap()
            .expect("a resumed run finishes");
        assert_eq!(
            reference,
            format!("{resumed:?}"),
            "{label}: resume from epoch {} diverged",
            snap.epoch()
        );
    }
}

/// The streaming pipeline's acceptance row: for every trace source —
/// the four synthetic generators on the 120-function fleet plus the
/// Azure CSV fixture streamed through the chunked reader — every
/// controller, and every placement strategy, the lattice holds against
/// the materialized reference. The streamed generator events — scanned
/// on every core — must equal the materialized generator's, and so must
/// the scan's event count and horizon.
#[test]
fn streaming_replay_is_bit_identical_for_every_source_and_controller() {
    use freedom_experiments::fleet_simulation::{synthetic_plans, trace_sources, AZURE_FIXTURE};

    let n_functions = 120;
    let duration = 300.0;
    let mut traces: Vec<(&str, StreamTrace)> = Vec::new();
    for (name, source) in trace_sources(duration) {
        let lazy = StreamTrace::generate(source, n_functions, duration, 11).unwrap();
        let materialized = source.generate(n_functions, duration, 11).unwrap();
        assert_eq!(
            materialized.events(),
            lazy.open().unwrap().events().collect::<Vec<_>>().as_slice(),
            "{name}: streamed generation diverged from the materialized trace"
        );
        assert_eq!(lazy.len(), materialized.len(), "{name}");
        let last = materialized.events().last().unwrap().at_secs;
        assert_eq!(lazy.horizon_nanos(), (last * 1e9) as u64, "{name}");
        traces.push((name, lazy));
    }
    traces.push((
        "azure",
        StreamTrace::from_csv_parts(&[AZURE_FIXTURE.as_bytes()]).unwrap(),
    ));

    let mut fanned_out_ticks = 0;
    for (name, lazy) in &traces {
        let sim = FleetSimulator::new(synthetic_plans(lazy.n_functions(), 4).unwrap()).unwrap();
        let full = lazy.materialize().unwrap();
        assert_eq!(lazy.len(), full.len(), "{name} scan miscounted");
        for controller in controllers() {
            let config = lattice_config(controller);
            for strategy in PlacementStrategy::ALL {
                let reference = sim.run(&full, strategy, &config).unwrap();
                if strategy == PlacementStrategy::IdleAware {
                    assert!(
                        !reference.control.is_empty(),
                        "{name}/{controller:?} must tick over the trace"
                    );
                }
                if matches!(controller, ControllerConfig::SurrogateRightSizer(_)) {
                    fanned_out_ticks += reference
                        .control
                        .iter()
                        .filter(|s| s.replanned >= RIGHT_SIZER_FANOUT_MIN)
                        .count();
                }
                assert_lattice(
                    &sim,
                    lazy,
                    strategy,
                    &config,
                    &reference,
                    &format!("{name}/{controller:?}/{strategy:?}"),
                );
            }
        }
    }
    assert!(
        fanned_out_ticks > 0,
        "no right-sizer tick refit enough functions to fan out"
    );
}

/// The failure-domain acceptance row: with fault injection enabled —
/// zone outages, supply-shock bursts, and dropped notice deliveries over
/// a three-zone market with preemption notices — the lattice must keep
/// holding for two fault seeds and every controller. Faults are
/// precomputed simulated-time events, so nothing about injection may
/// depend on which entry point or epoch boundary observes it.
#[test]
fn fault_injection_preserves_the_determinism_lattice() {
    use faas_freedom::core::fleet::{FaultPlan, TraceSource, ZoneConfig};
    use freedom_experiments::fleet_simulation::synthetic_plans;

    let n_functions = 120;
    let lazy = StreamTrace::generate(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        300.0,
        11,
    )
    .unwrap();
    let full = lazy.materialize().unwrap();
    let sim = FleetSimulator::new(synthetic_plans(n_functions, 4).unwrap()).unwrap();

    for fault_seed in [29, 31] {
        for controller in controllers() {
            let base = lattice_config(controller);
            let config = FleetConfig {
                market: MarketConfig {
                    zones: ZoneConfig {
                        n_zones: 3,
                        notice_secs: 5.0,
                        shock: 0.5,
                        migration_rebill: 0.5,
                    },
                    ..base.market
                },
                faults: FaultPlan {
                    seed: fault_seed,
                    outage_rate_per_hour: 24.0,
                    mean_outage_secs: 30.0,
                    notice_drop_fraction: 0.25,
                    burst_rate_per_hour: 18.0,
                    mean_burst_secs: 15.0,
                    burst_severity: 0.5,
                    ..FaultPlan::NONE
                },
                ..base
            };
            let reference = sim
                .run(&full, PlacementStrategy::IdleAware, &config)
                .unwrap();
            // The faults must actually land on this trace, or the row
            // degenerates into the fault-free lattice already covered.
            assert!(
                reference.notified > 0
                    && reference.migrated + reference.drained + reference.spot_demoted > 0,
                "seed {fault_seed}/{controller:?}: inert fault plan: {reference:?}"
            );
            assert_lattice(
                &sim,
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                &reference,
                &format!("seed {fault_seed}/{controller:?}"),
            );
        }
    }
}

/// The retry acceptance row: with per-invocation transient faults
/// (crash-on-start, mid-flight aborts, stragglers) and the full retry
/// stack — seeded backoff, hedged re-issue, per-family budgets,
/// brownout — layered on top of the zone-outage fault plan, the lattice
/// must keep holding for two fault seeds and every controller. Retries
/// are ordinary simulated-time events (`completion < step < notice <
/// retry < tick`), and pending ones travel in the carry, so nothing
/// about scheduling a backoff, racing a hedge, or draining a budget may
/// depend on which entry point or epoch boundary observes it.
#[test]
fn retries_and_hedging_preserve_the_determinism_lattice() {
    use faas_freedom::core::fleet::{
        BrownoutConfig, FaultPlan, RetryPolicy, TraceSource, ZoneConfig,
    };
    use freedom_experiments::fleet_simulation::synthetic_plans;

    let n_functions = 120;
    let lazy = StreamTrace::generate(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        300.0,
        11,
    )
    .unwrap();
    let full = lazy.materialize().unwrap();
    let sim = FleetSimulator::new(synthetic_plans(n_functions, 4).unwrap()).unwrap();

    for fault_seed in [29, 31] {
        for controller in controllers() {
            let base = lattice_config(controller);
            let config = FleetConfig {
                market: MarketConfig {
                    zones: ZoneConfig {
                        n_zones: 3,
                        notice_secs: 5.0,
                        shock: 0.5,
                        migration_rebill: 0.5,
                    },
                    ..base.market
                },
                faults: FaultPlan {
                    seed: fault_seed,
                    outage_rate_per_hour: 24.0,
                    mean_outage_secs: 30.0,
                    notice_drop_fraction: 0.25,
                    crash_prob: 0.06,
                    abort_prob: 0.05,
                    straggler_prob: 0.08,
                    straggler_factor: 4.0,
                    ..FaultPlan::NONE
                },
                retry: RetryPolicy {
                    max_attempts: 4,
                    backoff_base_secs: 0.5,
                    backoff_cap_secs: 8.0,
                    hedge_delay_secs: 2.0,
                    budget_per_sec: 1.0,
                    budget_burst: 4.0,
                    brownout: Some(BrownoutConfig {
                        enter_pressure: 0.2,
                        exit_pressure: 0.05,
                        utilization_ceiling: 0.7,
                    }),
                    ..RetryPolicy::DEFAULT
                },
                ..base
            };
            let reference = sim
                .run(&full, PlacementStrategy::IdleAware, &config)
                .unwrap();
            // The transients must actually bite on this trace, or the
            // row degenerates into the fault lattice already covered.
            assert!(
                reference.retried > 0,
                "seed {fault_seed}/{controller:?}: inert retry plan: {reference:?}"
            );
            assert_lattice(
                &sim,
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                &reference,
                &format!("seed {fault_seed}/{controller:?}"),
            );
        }
    }
}

/// The GP's batched predictor must agree with per-point prediction bit for
/// bit, and the warm-start update loop must replay identically.
#[test]
fn gp_batched_and_incremental_paths_are_deterministic() {
    use faas_freedom::surrogates::{GaussianProcess, GpConfig, Surrogate};

    let x: Vec<Vec<f64>> = (0..18).map(|i| vec![i as f64 / 17.0]).collect();
    let y: Vec<f64> = x.iter().map(|r| (3.0 * r[0]).sin() + 2.0).collect();

    let mut gp = GaussianProcess::new(GpConfig::default(), 11);
    gp.fit(&x, &y).unwrap();
    let queries: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
    let batch = gp.predict_batch(&queries).unwrap();
    for (q, b) in queries.iter().zip(&batch) {
        let single = gp.predict(q).unwrap();
        assert_eq!(single.mean.to_bits(), b.mean.to_bits());
        assert_eq!(single.std.to_bits(), b.std.to_bits());
    }

    // Replaying the same sequence of incremental updates is deterministic.
    let run_updates = || {
        let mut gp = GaussianProcess::new(GpConfig::default(), 11);
        gp.fit(&x[..10], &y[..10]).unwrap();
        for k in 11..=18 {
            gp.fit_update(&x[..k], &y[..k], 100 + k as u64).unwrap();
        }
        let preds = gp.predict_batch(&queries).unwrap();
        preds
            .iter()
            .flat_map(|p| [p.mean.to_bits(), p.std.to_bits()])
            .collect::<Vec<u64>>()
    };
    assert_eq!(run_updates(), run_updates());
}

#[test]
fn interfaces_replay_identically() {
    use faas_freedom::core::interfaces::pareto_interface;
    let a = pareto_interface(
        FunctionKind::Faceblur,
        &FunctionKind::Faceblur.default_input(),
        SurrogateKind::Gp,
        55,
    )
    .unwrap();
    let b = pareto_interface(
        FunctionKind::Faceblur,
        &FunctionKind::Faceblur.default_input(),
        SurrogateKind::Gp,
        55,
    )
    .unwrap();
    assert_eq!(a, b);
}

/// The ingestion acceptance row: one trace served three ways — the
/// materialized reference, a single plain CSV, and gzip'd multi-file
/// parts split mid-minute with bounded seam disorder — must hold the
/// lattice for every controller, crash/resume over the gz multi-file
/// stream included. This is the lattice the week-scale bench leans on:
/// streaming-over-gz ≡ streaming-over-plain ≡ materialized, regardless
/// of how the bytes were sliced into files.
#[test]
fn gz_multi_file_ingestion_preserves_the_determinism_lattice() {
    use freedom_experiments::fleet_simulation::synthetic_plans;

    // A 30-minute, 40-function trace with seeded counts; every function
    // appears in minute 0 so later seam disorder cannot reorder the
    // first-seen key assignment.
    const HEADER: &str = "app,func,minute,count\n";
    let n_functions = 40usize;
    let minutes = 30u64;
    let mut rows: Vec<String> = Vec::new();
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for minute in 0..minutes {
        for f in 0..n_functions {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let count = 1 + (state >> 59); // 1..=32, never a skipped row
            rows.push(format!("app{},f{f},{minute},{count}\n", f % 7));
        }
    }

    // The single-file plain reference.
    let single = format!("{HEADER}{}", rows.concat());
    let plain = StreamTrace::from_csv_parts(&[single.as_bytes()]).unwrap();

    // Three files cut mid-minute (the row counts per file are not
    // multiples of the per-minute row count), each with its own header
    // — like per-day exports — then bounded disorder at both interior
    // seams: the last pre-seam row trades places with the first
    // post-seam row, so each file's tail reaches one minute into its
    // neighbour. That is well inside the CSV_LOOKAHEAD_MINUTES contract
    // and must be invisible to replay.
    let cut1 = 17 * n_functions + 11;
    let cut2 = 24 * n_functions + 29;
    let mut parts = [
        rows[..cut1].to_vec(),
        rows[cut1..cut2].to_vec(),
        rows[cut2..].to_vec(),
    ];
    for seam in [0usize, 1] {
        let tail = parts[seam].pop().unwrap();
        let head = parts[seam + 1].remove(0);
        parts[seam].push(head);
        parts[seam + 1].insert(0, tail);
    }
    let gz_parts: Vec<Vec<u8>> = parts
        .iter()
        .enumerate()
        .map(|(i, lines)| {
            let csv = format!("{HEADER}{}", lines.concat());
            let mode = if i % 2 == 0 {
                flate::CompressMode::FixedHuffman
            } else {
                flate::CompressMode::Stored
            };
            flate::gzip_compress(csv.as_bytes(), mode)
        })
        .collect();
    let refs: Vec<&[u8]> = gz_parts.iter().map(|p| p.as_slice()).collect();
    let gz = StreamTrace::from_csv_parts(&refs).unwrap();

    assert_eq!(plain.len(), gz.len(), "multi-file scan miscounted");
    assert_eq!(plain.n_functions(), gz.n_functions());
    let full = plain.materialize().unwrap();

    let sim = FleetSimulator::new(synthetic_plans(plain.n_functions(), 4).unwrap()).unwrap();
    for controller in controllers() {
        let config = lattice_config(controller);
        let reference = sim
            .run(&full, PlacementStrategy::IdleAware, &config)
            .unwrap();
        for (label, lazy) in [("plain", &plain), ("gz-multi", &gz)] {
            assert_lattice(
                &sim,
                lazy,
                PlacementStrategy::IdleAware,
                &config,
                &reference,
                &format!("{label}/{controller:?}"),
            );
        }
    }
}

/// The observability acceptance row: attaching a live telemetry
/// recorder must not move a single bit of the replay. For every
/// controller, the streaming and the epoch-chained resumable entry
/// points replay with `Telemetry` attached and the `FleetReport` must
/// be bit-identical to the recorder-free run — telemetry is strictly
/// observational. On top of the report identity, the counters the
/// recorder collected are cross-checked against the report's own
/// ledger (arrivals, policy rejections, capacity misses) and against
/// the epoch structure (windows simulated, snapshots written).
#[test]
fn telemetry_recording_preserves_the_determinism_lattice() {
    use faas_freedom::core::fleet::{Telemetry, TraceSource};
    use faas_freedom::core::telemetry::Counter;
    use freedom_experiments::fleet_simulation::synthetic_plans;

    let n_functions = 120;
    let lazy = StreamTrace::generate(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        300.0,
        11,
    )
    .unwrap();
    let sim = FleetSimulator::new(synthetic_plans(n_functions, 4).unwrap()).unwrap();

    for controller in controllers() {
        let config = lattice_config(controller);

        // Streaming entry point: telemetry-off vs telemetry-on.
        let (off, _) = sim
            .run_stream_traced(
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                &mut NoopRecorder,
            )
            .unwrap();
        let mut tel = Telemetry::new();
        let (on, stats) = sim
            .run_stream_traced(&lazy, PlacementStrategy::IdleAware, &config, &mut tel)
            .unwrap();
        assert_eq!(
            format!("{off:?}"),
            format!("{on:?}"),
            "{controller:?}: a live recorder moved the streaming report"
        );
        assert_eq!(stats.events, lazy.len());
        // The recorder's ledger must agree with the report's.
        assert_eq!(tel.counter(Counter::Arrivals), on.invocations as u64);
        assert_eq!(
            tel.counter(Counter::PolicyRejected),
            on.policy_rejections as u64
        );
        assert_eq!(
            tel.counter(Counter::CapacityMissed),
            on.capacity_misses as u64
        );
        assert!(tel.counter(Counter::SupplySteps) > 0, "no supply steps");
        assert!(
            tel.counter(Counter::ControllerTicks) > 0,
            "no controller ticks"
        );
        assert_eq!(tel.counter(Counter::WindowsSimulated), 1);

        // Resumable entry point with a live recorder at both lattice
        // epoch lengths.
        for epoch_secs in [DENSE_EPOCH_SECS, RESUME_EPOCH_SECS] {
            let mut etel = Telemetry::new();
            let mut boundaries = 0u64;
            let traced = sim
                .run_stream_resumable_traced(
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                    None,
                    &mut etel,
                    |_, _| {
                        boundaries += 1;
                        Ok(true)
                    },
                )
                .unwrap()
                .expect("an uninterrupted run returns a report");
            assert_eq!(
                format!("{off:?}"),
                format!("{traced:?}"),
                "{controller:?}: a live recorder moved the {epoch_secs}s epoch chain"
            );
            assert_eq!(etel.counter(Counter::Arrivals), traced.invocations as u64);
            assert_eq!(etel.counter(Counter::SnapshotsWritten), boundaries);
            assert_eq!(etel.counter(Counter::WindowsSimulated), boundaries + 1);
        }
    }
}
