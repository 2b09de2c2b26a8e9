//! Pins the replay hot loop's allocation discipline: replaying more
//! events must not allocate more. Every per-event path — CSV row parse
//! into the scratch key, event-queue push/pop, ledger
//! place/release, metering pushes into exact-capacity vectors — is
//! allocation-free; only per-run and per-window structures (context,
//! metering headers, the event queue, the carry itself) allocate,
//! and their *count* is independent of the event count.
//!
//! The guard compares whole-run allocation counts between a small and an
//! 8× larger trace over the same horizon (same ticks, same supply
//! steps): the marginal allocations per added event must be zero, up to
//! a small slack for amortized growth of event-count-logarithmic
//! structures (e.g. the adjustments list).
//!
//! Allocations are counted **process-wide**: a streaming replay runs
//! its ingest stage (CSV parse, merge, event batches) on a second
//! thread, and those allocations must count too. libtest runs the tests
//! in this file concurrently, so each one holds [`SERIAL`] for its whole
//! body — otherwise a test would be charged with the others'
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use faas_freedom::core::fleet::{
    FleetConfig, FleetSimulator, NoopRecorder, PlacementStrategy, StreamTrace,
};
use freedom_experiments::fleet_simulation::synthetic_plans;

/// Counts every allocation event (alloc, alloc_zeroed, realloc) of the
/// process without changing behavior. Counting events rather than
/// bytes is deliberate: a `with_capacity` reserve is one event
/// regardless of size, so the count isolates *how often* the replay
/// touches the allocator.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

fn count_alloc() {
    ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests of this file: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a failed (poisoned) sibling test must not fail
/// this one too.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A CSV trace with `per_minute` arrivals per function per minute over a
/// fixed 20-minute horizon: scaling `per_minute` scales the event count
/// while keeping the control-tick and supply-step schedules identical.
fn csv_trace(per_minute: u32) -> StreamTrace {
    let mut s = String::from("app,func,minute,count\n");
    for minute in 0..20 {
        for f in 0..12 {
            writeln!(s, "app{f},fn{f},{minute},{per_minute}").unwrap();
        }
    }
    StreamTrace::from_csv_parts(&[s.as_bytes()]).unwrap()
}

/// Allocation events of the process so far.
fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Allocation growth must be bounded by logarithmic amortized growth,
/// never by the event count. 64 events of slack
/// absorbs vector-doubling tails; the small/large runs differ by
/// thousands of events.
const SLACK: u64 = 64;

#[test]
fn steady_state_replay_allocations_are_event_count_independent() {
    let _serial = serial();
    let small = csv_trace(2);
    let large = csv_trace(16);
    assert!(
        large.len() >= 8 * small.len(),
        "{} vs {}",
        large.len(),
        small.len()
    );
    let plans = synthetic_plans(12, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = FleetConfig::default();
    let run = |trace: &StreamTrace| {
        sim.run_stream_traced(
            trace,
            PlacementStrategy::IdleAware,
            &config,
            &mut NoopRecorder,
        )
        .unwrap()
        .0
    };

    // Warm-up on the large trace: one-time lazy initialization stays out
    // of the measured runs.
    let warm = run(&large);

    let before_small = alloc_events();
    let small_report = run(&small);
    let small_cost = alloc_events() - before_small;

    let before_large = alloc_events();
    let large_report = run(&large);
    let large_cost = alloc_events() - before_large;

    // The replays must have actually replayed (and differ in scale).
    assert_eq!(warm.invocations, large_report.invocations);
    assert!(large_report.invocations >= 8 * small_report.invocations);

    assert!(
        large_cost <= small_cost + SLACK,
        "replaying {} events allocated {} times, but {} events allocated \
         {} times: the event loop is allocating per event",
        large_report.invocations,
        large_cost,
        small_report.invocations,
        small_cost,
    );

    // The resumable replay chains one window per 60 s epoch (20 here):
    // two identical warm runs must allocate the same number of times
    // (the work is deterministic, so any drift would mean per-window
    // state leaks or grows across runs).
    let epochs = |trace: &StreamTrace| {
        sim.run_stream_resumable_traced(
            trace,
            PlacementStrategy::IdleAware,
            &config,
            60.0,
            None,
            &mut NoopRecorder,
            |_, _| Ok(true),
        )
        .unwrap()
        .expect("an uninterrupted run returns a report")
    };
    let warm_epochs = epochs(&large);
    let before_first = alloc_events();
    let first = epochs(&large);
    let first_cost = alloc_events() - before_first;
    let before_second = alloc_events();
    let second = epochs(&large);
    let second_cost = alloc_events() - before_second;
    assert_eq!(format!("{warm_epochs:?}"), format!("{first:?}"));
    assert_eq!(format!("{first:?}"), format!("{large_report:?}"));
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert!(
        second_cost <= first_cost + SLACK / 8,
        "identical warm epoch-chained runs allocated {first_cost} then \
         {second_cost} times: per-window state is not being released"
    );
}

/// The resumable path's allocation discipline: at a fixed epoch count
/// (5 × 240 s), replaying 8× the events through
/// `run_stream_resumable_traced` — folding behind the watermark and
/// encoding a snapshot at every boundary — must not allocate more. The
/// running metering's tail reuses its capacity across epochs instead of
/// growing with history. Each epoch rebuilds its ledger and event
/// heap from the carry, which costs O(log in-flight) allocations per
/// epoch — denser traces hold more placements in flight — so the epoch
/// count is kept small enough for that term to stay inside `SLACK`.
#[test]
fn resumable_replay_allocations_are_event_count_independent() {
    let _serial = serial();
    let small = csv_trace(2);
    let large = csv_trace(16);
    let plans = synthetic_plans(12, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = FleetConfig::default();
    let mut snapshots = 0usize;
    let mut run = |trace: &StreamTrace| {
        sim.run_stream_resumable_traced(
            trace,
            PlacementStrategy::IdleAware,
            &config,
            240.0,
            None,
            &mut NoopRecorder,
            |snap, _| {
                snapshots += 1;
                std::hint::black_box(snap.to_bytes());
                Ok(true)
            },
        )
        .unwrap()
        .expect("an uninterrupted run returns a report")
    };

    let warm = run(&large);

    let before_small = alloc_events();
    let small_report = run(&small);
    let small_cost = alloc_events() - before_small;

    let before_large = alloc_events();
    let large_report = run(&large);
    let large_cost = alloc_events() - before_large;

    assert_eq!(format!("{warm:?}"), format!("{large_report:?}"));
    assert!(large_report.invocations >= 8 * small_report.invocations);
    assert_eq!(snapshots, 3 * 4, "every run snapshots at all 4 boundaries");

    assert!(
        large_cost <= small_cost + SLACK,
        "resumable replay of {} events allocated {} times, but {} events \
         allocated {} times: the resumable path is allocating per event",
        large_report.invocations,
        large_cost,
        small_report.invocations,
        small_cost,
    );
}

/// The telemetry layer's zero-allocation claim, enforced with a *live*
/// recorder: counters, histograms, sampled wall timing, and the span
/// ring are all preallocated at `Telemetry` construction, so a traced
/// replay's steady-state allocation count must be as event-count
/// independent as the recorder-free one. The recorders are built
/// outside the measured region; everything the hot loop touches —
/// `add`, `observe`, `span_sim`, `span_wall`, the ring overwrite path —
/// must stay off the allocator entirely.
#[test]
fn telemetry_recording_allocates_nothing_in_steady_state() {
    let _serial = serial();
    use faas_freedom::core::fleet::Telemetry;

    let small = csv_trace(2);
    let large = csv_trace(16);
    let plans = synthetic_plans(12, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = FleetConfig::default();
    let run = |trace: &StreamTrace, tel: &mut Telemetry| {
        sim.run_stream_traced(trace, PlacementStrategy::IdleAware, &config, tel)
            .unwrap()
            .0
    };

    // Preallocate every recorder up front: the ring is sized to
    // overflow on the large trace, so the overwrite-oldest path is
    // inside the measured region too.
    let mut warm_tel = Telemetry::with_capacity(8);
    let mut small_tel = Telemetry::with_capacity(8);
    let mut large_tel = Telemetry::with_capacity(8);

    let warm = run(&large, &mut warm_tel);

    let before_small = alloc_events();
    let small_report = run(&small, &mut small_tel);
    let small_cost = alloc_events() - before_small;

    let before_large = alloc_events();
    let large_report = run(&large, &mut large_tel);
    let large_cost = alloc_events() - before_large;

    assert_eq!(warm.invocations, large_report.invocations);
    assert!(large_report.invocations >= 8 * small_report.invocations);
    // The recorder saw the replay, and the ring really did wrap.
    assert_eq!(
        large_tel.counter(faas_freedom::core::telemetry::Counter::Arrivals),
        large_report.invocations as u64
    );
    assert!(
        large_tel.dropped_spans() > 0,
        "ring sized to overflow must overflow"
    );

    assert!(
        large_cost <= small_cost + SLACK,
        "with a live recorder, replaying {} events allocated {} times, \
         but {} events allocated {} times: telemetry is allocating per \
         event",
        large_report.invocations,
        large_cost,
        small_report.invocations,
        small_cost,
    );
}
