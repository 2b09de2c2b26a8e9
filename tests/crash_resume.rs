//! Crash-resumable replay: a streaming fleet replay killed at an
//! arbitrary epoch boundary and restarted from its persisted snapshot
//! must reproduce the uninterrupted report bit for bit — through a real
//! trip to disk, under fault injection, over a multi-zone market with
//! preemption notices.

use faas_freedom::core::fleet::{
    AdmissionPolicy, BrownoutConfig, ControlConfig, ControllerConfig, FaultPlan, FleetConfig,
    FleetReport, FleetSimulator, NoopRecorder, PidConfig, PlacementStrategy, RetryPolicy,
    StreamTrace, SupplyProcess, TraceSource, ZoneConfig,
};
use faas_freedom::core::market::MarketConfig;
use faas_freedom::core::snapshot::ReplaySnapshot;
use faas_freedom::prelude::FunctionKind;

/// The uninterrupted streaming replay every resumed run must match.
fn replay(sim: &FleetSimulator, lazy: &StreamTrace, config: &FleetConfig) -> FleetReport {
    sim.run_stream_traced(
        lazy,
        PlacementStrategy::IdleAware,
        config,
        &mut NoopRecorder,
    )
    .unwrap()
    .0
}

/// A crash-resumable replay in epochs of `epoch_secs`: `on_snapshot`
/// sees every boundary's snapshot and returns `Ok(false)` to kill the
/// run there.
fn resumable(
    sim: &FleetSimulator,
    lazy: &StreamTrace,
    config: &FleetConfig,
    epoch_secs: f64,
    resume: Option<&ReplaySnapshot>,
    mut on_snapshot: impl FnMut(&ReplaySnapshot) -> faas_freedom::core::Result<bool>,
) -> faas_freedom::core::Result<Option<FleetReport>> {
    sim.run_stream_resumable_traced(
        lazy,
        PlacementStrategy::IdleAware,
        config,
        epoch_secs,
        resume,
        &mut NoopRecorder,
        |s, _| on_snapshot(s),
    )
}

fn faulted_config() -> FleetConfig {
    FleetConfig {
        market: MarketConfig {
            vms_per_family: 2,
            supply: SupplyProcess {
                step_secs: 10.0,
                min_fraction: 0.2,
                seed: 21,
            },
            zones: ZoneConfig {
                n_zones: 3,
                notice_secs: 4.0,
                shock: 0.5,
                migration_rebill: 0.5,
            },
            admission: AdmissionPolicy::Headroom {
                max_utilization: 0.9,
            },
            ..MarketConfig::default()
        },
        control: ControlConfig {
            cadence_secs: 15.0,
            controller: ControllerConfig::HeadroomPid(PidConfig::default()),
        },
        faults: FaultPlan {
            seed: 29,
            outage_rate_per_hour: 36.0,
            mean_outage_secs: 25.0,
            notice_drop_fraction: 0.25,
            burst_rate_per_hour: 24.0,
            mean_burst_secs: 12.0,
            burst_severity: 0.5,
            ..FaultPlan::NONE
        },
        ..FleetConfig::default()
    }
}

/// The faulted scenario plus per-invocation transient faults and a full
/// retry policy — backoff, hedging, per-family budgets, brownout — so a
/// kill lands with backoff timers armed and the budget partially drained.
fn stormy_config() -> FleetConfig {
    let mut config = faulted_config();
    config.faults = FaultPlan {
        crash_prob: 0.08,
        abort_prob: 0.06,
        straggler_prob: 0.10,
        straggler_factor: 4.0,
        ..config.faults
    };
    config.retry = RetryPolicy {
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
    };
    config
}

fn hot_stream() -> StreamTrace {
    StreamTrace::generate(
        TraceSource::Bursty {
            calm_rps: 1.0,
            burst_rps: 6.0,
            mean_calm_secs: 25.0,
            mean_burst_secs: 12.0,
        },
        FunctionKind::ALL.len(),
        240.0,
        11,
    )
    .unwrap()
}

/// Kill the replay at a pseudo-randomly chosen epoch (seeded, so the
/// test replays identically), persist the snapshot the way a real
/// supervisor would — bytes to a file, re-read on restart — and resume.
/// The resumed report must match the uninterrupted run bit for bit.
#[test]
fn kill_at_random_epoch_resumes_bit_identically() {
    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = faulted_config();
    let lazy = hot_stream();
    let snapshot_secs = 20.0;

    let reference = replay(&sim, &lazy, &config);
    assert!(
        reference.notified > 0 && reference.migrated + reference.drained > 0,
        "the scenario must exercise the failure domain: {reference:?}"
    );

    // Count the epochs once so the kill points can span the whole run.
    let mut epochs: Vec<u64> = Vec::new();
    let full = resumable(&sim, &lazy, &config, snapshot_secs, None, |s| {
        epochs.push(s.epoch());
        Ok(true)
    })
    .unwrap()
    .expect("uninterrupted run completes");
    assert_eq!(format!("{reference:?}"), format!("{full:?}"));
    assert!(epochs.len() >= 5, "want several boundaries, got {epochs:?}");

    // Three seeded pseudo-random kill epochs plus both edges.
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut kill_epochs = vec![epochs[0], *epochs.last().unwrap()];
    for _ in 0..3 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        kill_epochs.push(epochs[(lcg >> 33) as usize % epochs.len()]);
    }

    let dir = std::env::temp_dir().join(format!("freedom-crash-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, &kill_at) in kill_epochs.iter().enumerate() {
        // The "crashing" process: persists every snapshot, then dies at
        // the chosen boundary (the callback's Ok(false) is the kill).
        let path = dir.join(format!("kill-{i}.snap"));
        let crashed = resumable(&sim, &lazy, &config, snapshot_secs, None, |s| {
            s.write_to(&path)?;
            Ok(s.epoch() < kill_at)
        })
        .unwrap();
        assert!(
            crashed.is_none(),
            "epoch {kill_at}: kill must abort the run"
        );

        // The restarted process: reads the snapshot back from disk and
        // picks up where the dead one stopped.
        let snap = ReplaySnapshot::read_from(&path).unwrap();
        assert_eq!(snap.epoch(), kill_at);
        assert_eq!(snap.window_nanos(), 20_000_000_000);
        let resumed = resumable(&sim, &lazy, &config, snapshot_secs, Some(&snap), |_| {
            Ok(true)
        })
        .unwrap()
        .expect("resumed run completes");
        assert_eq!(
            format!("{reference:?}"),
            format!("{resumed:?}"),
            "resume from epoch {kill_at} diverged from the uninterrupted replay"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshot size is bounded by live state, not by history: apart from
/// the control samples (one fixed-size record per controller tick),
/// every boundary's snapshot stays within a fixed slack of the first
/// one while the replay keeps folding invocations behind the in-flight
/// watermark.
#[test]
fn snapshot_size_does_not_grow_with_history() {
    /// Room for the unfolded tail to vary between boundaries: it spans
    /// the arrivals behind the longest-running live placement (~50 s of
    /// transcoding here), 17 B each, plus the carry's in-flight entries.
    const SLACK: usize = 16 * 1024;
    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = faulted_config();
    // Twenty minutes of steady arrivals, so the in-flight span — and
    // with it the unfolded tail — has the same shape at every boundary.
    let lazy = StreamTrace::generate(
        TraceSource::Poisson {
            rps_per_function: 2.0,
        },
        FunctionKind::ALL.len(),
        1200.0,
        11,
    )
    .unwrap();

    // (epoch, encoded bytes minus the control-sample section, events).
    let mut sizes: Vec<(u64, usize, u64)> = Vec::new();
    resumable(&sim, &lazy, &config, 60.0, None, |s| {
        let bytes = s.to_bytes().len() - s.control_sample_bytes();
        sizes.push((s.epoch(), bytes, s.events_consumed()));
        Ok(true)
    })
    .unwrap()
    .expect("uninterrupted run completes");
    assert!(sizes.len() >= 5, "want several boundaries, got {sizes:?}");
    let (_, first, first_events) = sizes[0];
    let (_, _, last_events) = *sizes.last().unwrap();
    // Keeping a 17 B record per replayed invocation would outgrow the
    // slack several times over.
    assert!(
        17 * (last_events - first_events) > 4 * SLACK as u64,
        "too few events between boundaries to tell: {sizes:?}"
    );
    for &(epoch, bytes, _) in &sizes {
        assert!(
            bytes.abs_diff(first) <= SLACK,
            "epoch {epoch}: {bytes} B without control samples vs {first} B at the \
             first boundary — the snapshot grows with history: {sizes:?}"
        );
    }
}

/// A snapshot is only valid for the replay that produced it: a different
/// controller, fault seed, or snapshot cadence must be rejected up
/// front, and a truncated snapshot file must fail to decode instead of
/// resuming a corrupt position.
#[test]
fn foreign_and_corrupt_snapshots_are_rejected() {
    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = faulted_config();
    let lazy = hot_stream();

    let mut first: Option<ReplaySnapshot> = None;
    resumable(&sim, &lazy, &config, 20.0, None, |s| {
        first = Some(s.clone());
        Ok(false)
    })
    .unwrap();
    let snap = first.expect("at least one boundary");

    let reseeded = FleetConfig {
        faults: FaultPlan {
            seed: config.faults.seed + 1,
            ..config.faults
        },
        ..config
    };
    assert!(
        resumable(&sim, &lazy, &reseeded, 20.0, Some(&snap), |_| Ok(true),).is_err(),
        "a different fault seed must invalidate the snapshot"
    );
    assert!(
        resumable(&sim, &lazy, &config, 40.0, Some(&snap), |_| Ok(true),).is_err(),
        "a different snapshot cadence must invalidate the snapshot"
    );

    let bytes = snap.to_bytes();
    assert!(ReplaySnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    assert!(ReplaySnapshot::from_bytes(&bytes[1..]).is_err());
    // Single-bit payload corruption at seeded pseudo-random offsets must
    // fail the integrity checksum, never decode into a skewed resume.
    let mut lcg: u64 = 0xa076_1d64_78bd_642f;
    for _ in 0..32 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let byte = (lcg >> 33) as usize % bytes.len();
        let bit = (lcg >> 29) as u8 % 8;
        let mut flipped = bytes.clone();
        flipped[byte] ^= 1 << bit;
        assert!(
            ReplaySnapshot::from_bytes(&flipped).is_err(),
            "bit flip at byte {byte} bit {bit} decoded anyway"
        );
    }
    let roundtrip = ReplaySnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(roundtrip.epoch(), snap.epoch());
    assert_eq!(roundtrip.fingerprint(), snap.fingerprint());
}

/// Kill the replay in the middle of a retry storm — pending backoff
/// timers in the heap, hedges armed against stragglers, the per-family
/// budget partially drained, brownout toggling — and resume from disk.
/// The carried retry state must survive the round-trip: the resumed
/// report matches the uninterrupted one bit for bit at every boundary.
#[test]
fn kill_mid_retry_storm_resumes_bit_identically() {
    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = stormy_config();
    let lazy = hot_stream();
    let snapshot_secs = 20.0;

    let reference = replay(&sim, &lazy, &config);
    assert!(
        reference.retried > 0,
        "the storm must actually retry: {reference:?}"
    );
    assert!(
        reference.retried + reference.dead_lettered > 4,
        "want a real storm, got {reference:?}"
    );

    let mut epochs: Vec<u64> = Vec::new();
    let full = resumable(&sim, &lazy, &config, snapshot_secs, None, |s| {
        epochs.push(s.epoch());
        Ok(true)
    })
    .unwrap()
    .expect("uninterrupted run completes");
    assert_eq!(format!("{reference:?}"), format!("{full:?}"));
    assert!(epochs.len() >= 5, "want several boundaries, got {epochs:?}");

    // Kill at every boundary: a retry heap or budget bug that only
    // bites at one particular epoch still fails the sweep.
    let dir = std::env::temp_dir().join(format!("freedom-retry-storm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for &kill_at in &epochs {
        let path = dir.join(format!("storm-{kill_at}.snap"));
        let crashed = resumable(&sim, &lazy, &config, snapshot_secs, None, |s| {
            s.write_to(&path)?;
            Ok(s.epoch() < kill_at)
        })
        .unwrap();
        assert!(crashed.is_none(), "epoch {kill_at}: kill must abort");

        let snap = ReplaySnapshot::read_from(&path).unwrap();
        let resumed = resumable(&sim, &lazy, &config, snapshot_secs, Some(&snap), |_| {
            Ok(true)
        })
        .unwrap()
        .expect("resumed run completes");
        assert_eq!(
            format!("{reference:?}"),
            format!("{resumed:?}"),
            "resume from epoch {kill_at} diverged mid-retry-storm"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay ingests on a second thread, but a trace file that changed
/// after the scan must still fail the replay on the caller's thread —
/// with a typed error naming the file and line — for both streaming
/// entry points, rather than hang, panic, or surface as a truncated
/// report.
#[test]
fn changed_csv_fails_with_a_typed_error_instead_of_hanging() {
    let dir = std::env::temp_dir().join(format!("freedom-changed-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.csv");
    let row = |minute: u32, f: usize| format!("app{f},fn{f},{minute},3\n");
    let mut csv = String::from("app,func,minute,count\n");
    for minute in 0..20 {
        for f in 0..FunctionKind::ALL.len() {
            csv.push_str(&row(minute, f));
        }
    }
    std::fs::write(&path, &csv).unwrap();
    let lazy = StreamTrace::from_csv_files(&[&path]).unwrap();

    // Same length, but minute 19 now opens the file: the minute-0 rows
    // behind it break the lookahead bound the scan validated.
    let mut changed = String::from("app,func,minute,count\n");
    changed.push_str(&row(19, 0));
    changed.push_str(&csv["app,func,minute,count\n".len()..csv.len() - row(19, 0).len()]);
    assert_eq!(changed.len(), csv.len());
    std::fs::write(&path, &changed).unwrap();

    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = faulted_config();
    let streaming = sim
        .run_stream_traced(
            &lazy,
            PlacementStrategy::IdleAware,
            &config,
            &mut NoopRecorder,
        )
        .map(|_| ());
    let resumable = resumable(&sim, &lazy, &config, 60.0, None, |_| Ok(true)).map(|_| ());
    std::fs::remove_dir_all(&dir).ok();
    for (label, outcome) in [("streaming", streaming), ("resumable", resumable)] {
        let msg = outcome.expect_err(label).to_string();
        assert!(
            msg.contains("trace CSV changed between scan and replay"),
            "{label}: {msg}"
        );
        // Line 2 now holds minute 19; line 3's minute 0 falls behind it.
        assert!(
            msg.contains("line 3 breaks the lookahead bound"),
            "{label}: {msg}"
        );
    }
}

/// Killing a file-backed multi-file gz replay at its first boundary
/// returns `Ok(None)` at once: the ingest thread stops within its batch
/// pool's reach of the kill. The last day file is deleted after the
/// scan, so an ingest thread that kept reading would fail on it — as
/// the uninterrupted replay of the same trace does, with a typed error
/// naming the file.
#[test]
fn killed_gz_multi_file_replay_stops_ingest_promptly() {
    let dir = std::env::temp_dir().join(format!("freedom-gz-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Three 10-minute day files of 4 000 arrivals per minute: the kill
    // lands at minute 1, and the ingest thread's reach (its batch pool
    // plus the CSV lookahead window) ends well before minute 20.
    let n_functions = 40;
    let paths: Vec<std::path::PathBuf> = (0..3)
        .map(|day| {
            let mut csv = String::from("app,func,minute,count\n");
            for minute in 10 * day..10 * (day + 1) {
                for f in 0..n_functions {
                    csv.push_str(&format!("app{},fn{f},{minute},100\n", f % 7));
                }
            }
            let path = dir.join(format!("day{day}.csv.gz"));
            let gz = flate::gzip_compress(csv.as_bytes(), flate::CompressMode::FixedHuffman);
            std::fs::write(&path, gz).unwrap();
            path
        })
        .collect();
    let lazy = StreamTrace::from_csv_files(&paths).unwrap();
    std::fs::remove_file(&paths[2]).unwrap();

    let plans = freedom_experiments::fleet_simulation::synthetic_plans(n_functions, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = FleetConfig::default();
    let mut epochs = Vec::new();
    let killed = resumable(&sim, &lazy, &config, 60.0, None, |s| {
        epochs.push(s.epoch());
        Ok(false)
    })
    .unwrap();
    assert!(killed.is_none(), "the kill must abort the run");
    assert_eq!(epochs, [1]);

    let full = resumable(&sim, &lazy, &config, 60.0, None, |_| Ok(true));
    std::fs::remove_dir_all(&dir).ok();
    let msg = full
        .expect_err("reading the deleted day file must fail")
        .to_string();
    assert!(
        msg.contains("trace CSV changed between scan and replay"),
        "{msg}"
    );
    assert!(msg.contains("day2.csv.gz"), "{msg}");
}

/// An arrival gap several epochs long leaves epochs with no events; the
/// ingest thread still closes each of them with its own checkpoint. A
/// kill at every boundary — empty epochs included — resumes bit
/// identically, with the controller ticking and supply stepping through
/// the gap.
#[test]
fn kill_in_an_arrival_gap_resumes_bit_identically() {
    let mut csv = String::from("app,func,minute,count\n");
    for minute in (0..3).chain(9..12) {
        for f in 0..FunctionKind::ALL.len() {
            csv.push_str(&format!("app{f},fn{f},{minute},{}\n", 2 + f));
        }
    }
    let lazy = StreamTrace::from_csv_parts(&[csv.as_bytes()]).unwrap();
    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = faulted_config();
    let epoch_secs = 60.0;

    let reference = replay(&sim, &lazy, &config);
    let mut boundaries: Vec<(u64, u64)> = Vec::new();
    let full = resumable(&sim, &lazy, &config, epoch_secs, None, |s| {
        boundaries.push((s.epoch(), s.events_consumed()));
        Ok(true)
    })
    .unwrap()
    .expect("uninterrupted run completes");
    assert_eq!(format!("{reference:?}"), format!("{full:?}"));
    // Every boundary of the 12-minute trace is delivered, and the gap's
    // epochs (minutes 3..9) consume no events.
    let epochs: Vec<u64> = boundaries.iter().map(|&(e, _)| e).collect();
    assert_eq!(epochs, (1..12).collect::<Vec<u64>>());
    let at_gap = boundaries[2].1;
    assert!(
        boundaries[3..9].iter().all(|&(_, n)| n == at_gap),
        "{boundaries:?}"
    );

    for &(kill_at, _) in &boundaries {
        let mut snap = None;
        let crashed = resumable(&sim, &lazy, &config, epoch_secs, None, |s| {
            if s.epoch() == kill_at {
                snap = Some(s.to_bytes());
            }
            Ok(s.epoch() < kill_at)
        })
        .unwrap();
        assert!(crashed.is_none(), "epoch {kill_at}: kill must abort");
        let snap = ReplaySnapshot::from_bytes(&snap.unwrap()).unwrap();
        let resumed = resumable(&sim, &lazy, &config, epoch_secs, Some(&snap), |_| Ok(true))
            .unwrap()
            .expect("resumed run completes");
        assert_eq!(
            format!("{reference:?}"),
            format!("{resumed:?}"),
            "resume from epoch {kill_at} diverged"
        );
    }
}

/// A snapshot names the trace it was cut from, not just its shape: two
/// CSV traces with the same event count, horizon and function count but
/// different rows must not resume from each other's snapshots. The
/// resume fails up front with a typed error instead of replaying
/// another trace's reader position, whose open rows name lines and
/// functions this trace does not have.
#[test]
fn snapshot_of_another_trace_with_the_same_shape_is_rejected() {
    use faas_freedom::core::FreedomError;

    // A: one arrival per minute 0..=10, then one at minute 20.
    let mut a: String = (0..=10).map(|m| format!("a,f,{m},1\n")).collect();
    a.push_str("b,g,20,1\n");
    // B: the same 12 arrivals and horizon, eleven of them in minute 10,
    // under a long app name (A's reader position lies inside B's bytes)
    // or a short one (it lies past them).
    let trace_a = StreamTrace::from_csv_parts(&[a.as_bytes()]).unwrap();
    let traces_b: Vec<StreamTrace> = ["a".repeat(120), "a".into()]
        .iter()
        .map(|app| {
            let b = format!("{app},f,10,11\nb,g,20,1\n");
            StreamTrace::from_csv_parts(&[b.as_bytes()]).unwrap()
        })
        .collect();
    for trace_b in &traces_b {
        assert_eq!(trace_a.len(), trace_b.len());
        assert_eq!(trace_a.horizon_nanos(), trace_b.horizon_nanos());
        assert_eq!(trace_a.n_functions(), trace_b.n_functions());
    }

    let sim =
        FleetSimulator::new(freedom_experiments::fleet_simulation::synthetic_plans(2, 4).unwrap())
            .unwrap();
    let config = FleetConfig::default();
    let mut snap = None;
    let killed = resumable(&sim, &trace_a, &config, 60.0, None, |s| {
        snap = Some(s.clone());
        Ok(false)
    })
    .unwrap();
    assert!(killed.is_none(), "the kill must abort the run");
    let snap = snap.expect("a boundary at epoch 1");
    assert_eq!(snap.epoch(), 1);

    for trace_b in &traces_b {
        match resumable(&sim, trace_b, &config, 60.0, Some(&snap), |_| Ok(true)) {
            Err(FreedomError::InvalidArgument(msg)) => {
                assert!(msg.contains("fingerprint"), "{msg}")
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }
    // The snapshot still resumes its own trace, bit-identically.
    let resumed = resumable(&sim, &trace_a, &config, 60.0, Some(&snap), |_| Ok(true))
        .unwrap()
        .expect("resumed run completes");
    assert_eq!(
        format!("{:?}", replay(&sim, &trace_a, &config)),
        format!("{resumed:?}")
    );
}

/// A CSV file whose counts change after the scan — same bytes per line,
/// so the reader keeps its bounds — yields more events than the scan
/// counted. Both streaming entry points fail with a typed error before
/// reducing the report instead of metering a trace they never scanned.
#[test]
fn csv_counts_changed_after_the_scan_fail_with_a_typed_error() {
    use faas_freedom::core::FreedomError;

    let dir = std::env::temp_dir().join(format!("freedom-recount-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.csv");
    std::fs::write(&path, "a,f,0,3\nb,g,1,3\n").unwrap();
    let lazy = StreamTrace::from_csv_files(&[&path]).unwrap();
    assert_eq!(lazy.len(), 6);
    std::fs::write(&path, "a,f,0,4\nb,g,1,3\n").unwrap();

    let sim =
        FleetSimulator::new(freedom_experiments::fleet_simulation::synthetic_plans(2, 4).unwrap())
            .unwrap();
    let config = FleetConfig::default();
    let streaming = sim
        .run_stream_traced(
            &lazy,
            PlacementStrategy::IdleAware,
            &config,
            &mut NoopRecorder,
        )
        .map(|_| ());
    let resumable = resumable(&sim, &lazy, &config, 60.0, None, |_| Ok(true)).map(|_| ());
    std::fs::remove_dir_all(&dir).ok();
    for (label, outcome) in [("streaming", streaming), ("resumable", resumable)] {
        match outcome {
            Err(FreedomError::InvalidArgument(msg)) => {
                assert!(
                    msg.contains("7 events of a 6-event trace"),
                    "{label}: {msg}"
                )
            }
            other => panic!("{label}: expected InvalidArgument, got {other:?}"),
        }
    }
}
