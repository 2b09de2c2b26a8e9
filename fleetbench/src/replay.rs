//! The one call site of every fleet replay the benchmark makes.
//!
//! Every replay goes through [`stream`] or [`resumable`], which use only
//! the entry points meant to survive the engine collapse:
//! `run_stream_traced` and `run_stream_resumable_traced` (their plain
//! variants are these with a [`NoopRecorder`]). When the simulator's
//! entry points change, this file is the only one to edit.

use freedom::fleet::{
    FleetConfig, FleetReport, FleetSimulator, PlacementStrategy, Recorder, ReplayStats, StreamTrace,
};
use freedom::snapshot::ReplaySnapshot;

pub use freedom::fleet::NoopRecorder;

/// The placement strategy every workload replays.
const STRATEGY: PlacementStrategy = PlacementStrategy::IdleAware;

/// A replay-ready fleet: the scanned trace and the simulator serving it.
pub struct Fleet {
    pub trace: StreamTrace,
    pub sim: FleetSimulator,
}

/// One uninterrupted streaming replay with recorder `rec`
/// ([`NoopRecorder`] for the untraced pass).
pub fn stream<R: Recorder>(
    fleet: &Fleet,
    config: &FleetConfig,
    rec: &mut R,
) -> freedom::Result<(FleetReport, ReplayStats)> {
    fleet
        .sim
        .run_stream_traced(&fleet.trace, STRATEGY, config, rec)
}

/// One crash-resumable replay in epochs of `epoch_secs`, optionally
/// resumed from `resume`. `on_snapshot` sees every epoch's snapshot and
/// returns `Ok(false)` to stop the replay there (a simulated kill), in
/// which case the result is `Ok(None)`.
pub fn resumable<R: Recorder>(
    fleet: &Fleet,
    config: &FleetConfig,
    epoch_secs: f64,
    resume: Option<&ReplaySnapshot>,
    rec: &mut R,
    mut on_snapshot: impl FnMut(&ReplaySnapshot) -> freedom::Result<bool>,
) -> freedom::Result<Option<FleetReport>> {
    fleet.sim.run_stream_resumable_traced(
        &fleet.trace,
        STRATEGY,
        config,
        epoch_secs,
        resume,
        rec,
        |snap, _rec| on_snapshot(snap),
    )
}
