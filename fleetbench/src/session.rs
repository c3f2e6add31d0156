//! One live session driven through the public deployment path:
//! `Deployment::builder()` → `LiveSession::new(spec)` → `run_epoch()` ×
//! (warm-up + measured) → `finish()`, closed loop with one client.

use std::time::Instant;

use jarvis_core::deploy::ExactnessDigest;
use jarvis_core::live::LiveSession;
use jarvis_core::runtime::{Phase, TraceState};
use jarvis_core::stepwise::ProfileEstimates;

use crate::trace::Tracer;
use crate::workload::{nproc, GenClock, Workload, MEASURED_EPOCHS, WARMUP_EPOCHS};

/// What one session measured and produced.
pub struct SessionRun {
    /// `build()`: planning + plancheck, s.
    pub build_s: f64,
    /// `LiveSession::new`, s.
    pub session_s: f64,
    /// Warm-up epochs, net of generation, s.
    pub warmup_s: f64,
    /// Every epoch's wall time net of generation, ms (warm-up first).
    pub epoch_ms: Vec<f64>,
    /// Input rows of the measured epochs.
    pub measured_rows: u64,
    /// `finish()`, s.
    pub finish_s: f64,
    /// Generation time over the whole session, ns.
    pub gen_ns: u64,
    /// Rows generated over the whole session.
    pub gen_rows: u64,
    /// Epochs that returned an error, plus the ones never reached after it.
    pub failed: u64,
    /// The merged results' digest (`None` when the session failed).
    pub digest: Option<ExactnessDigest>,
    /// Source → SP uplink bytes (`LiveOutcome::drained_bytes`).
    pub drained_bytes: f64,
    /// Rows drained to the SP.
    pub drained_rows: u64,
    /// SP cross-node netwire bytes (Σ `LiveOutcome::node_wire_bytes`).
    pub link_bytes: u64,
    /// Rows the fleet generated (`LiveOutcome::input_records`).
    pub input_rows: u64,
    /// Input rows routed into each SP shard.
    pub shard_rows: Vec<u64>,
    /// Adaptation episodes over all sources, as `(trigger, stable)`.
    pub episodes: Vec<(u64, u64)>,
    /// Source 0's phase and traced state in every epoch.
    pub phases: Vec<(Phase, TraceState)>,
    /// Whether every source closed an adaptation episode in warm-up.
    pub warm: bool,
    /// Load factors in force during each epoch, per source (recorded only
    /// when asked: `factors[epoch][source]`).
    pub factors: Vec<Vec<Vec<f64>>>,
    /// Source 0's latest profile estimates.
    pub estimates: Option<ProfileEstimates>,
    /// Effective executor workers.
    pub rt_workers: u32,
    /// Effective async channel capacity.
    pub channel_capacity: u32,
}

impl SessionRun {
    /// Measured epoch samples, ms.
    pub fn measured_ms(&self) -> &[f64] {
        self.epoch_ms.get(WARMUP_EPOCHS as usize..).unwrap_or(&[])
    }
}

/// Total epochs one session runs.
pub const SESSION_EPOCHS: u64 = WARMUP_EPOCHS + MEASURED_EPOCHS;

/// Runs one session with `rt_workers` pinned to [`nproc`]. Spans go to
/// `tracer` (a no-op unless tracing); `record_factors` snapshots every
/// source's load factors before each epoch for the layer replay.
///
/// Refuses to run when the session ends up with more executor workers
/// than cores (the `JARVIS_RT_SEED` override may change the count): that
/// would measure the OS scheduler, not the system.
pub fn run_session(
    workload: Workload,
    seed: u64,
    tracer: &Tracer,
    record_factors: bool,
) -> Result<SessionRun, String> {
    let nproc = nproc();
    let clock = GenClock::default();
    let t = Instant::now();
    let deployment = {
        let _span = tracer.span("build");
        workload
            .builder(seed, SESSION_EPOCHS, &clock, tracer)
            .build()
            .expect("benchmark deployments are valid")
    };
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut session = {
        let _span = tracer.span("LiveSession::new");
        LiveSession::new(deployment.spec()).expect("in-process sessions build")
    };
    let session_s = t.elapsed().as_secs_f64();
    if session.rt_workers() > nproc {
        return Err(format!(
            "the session runs {} executor workers on {nproc} cores",
            session.rt_workers()
        ));
    }

    let n = workload.sources() as usize;
    let mut epoch_ms = Vec::with_capacity(SESSION_EPOCHS as usize);
    let mut factors = Vec::new();
    let mut measured_rows = 0;
    let mut failed = 0;
    for epoch in 0..SESSION_EPOCHS {
        if record_factors {
            factors.push((0..n).map(|i| session.load_factors(i)).collect());
        }
        tracer.set_epoch(Some(epoch));
        let rows_before = session.input_records();
        let gen_before = clock.ns();
        let t = Instant::now();
        let result = {
            let _span = tracer.span("run_epoch");
            session.run_epoch()
        };
        let wall_ns = t.elapsed().as_nanos() as u64;
        tracer.set_epoch(None);
        if result.is_err() {
            failed = SESSION_EPOCHS - epoch;
            break;
        }
        epoch_ms.push((wall_ns - (clock.ns() - gen_before)) as f64 / 1e6);
        if epoch >= WARMUP_EPOCHS {
            measured_rows += session.input_records() - rows_before;
        }
    }
    let warmup_s = epoch_ms.iter().take(WARMUP_EPOCHS as usize).sum::<f64>() / 1e3;

    let mut episodes = Vec::new();
    let mut warm = true;
    for i in 0..n {
        let eps = session.runtime(i).episodes();
        warm &= eps
            .first()
            .is_some_and(|&(_, stable)| stable < WARMUP_EPOCHS);
        episodes.extend_from_slice(eps);
    }
    let runtime0 = session.runtime(0);
    let phases = runtime0
        .trace()
        .iter()
        .map(|t| (t.phase, t.trace))
        .collect();
    let estimates = runtime0.estimates().cloned();
    let rt_workers = session.rt_workers();
    let channel_capacity = session.channel_capacity();

    let t = Instant::now();
    let outcome = if failed == 0 {
        let _span = tracer.span("finish");
        session.try_finish().ok()
    } else {
        None
    };
    let finish_s = t.elapsed().as_secs_f64();
    if outcome.is_none() && failed == 0 {
        // A failed finish loses the whole session's results.
        failed = SESSION_EPOCHS;
    }
    let o = outcome.as_ref();
    Ok(SessionRun {
        build_s,
        session_s,
        warmup_s,
        epoch_ms,
        measured_rows,
        finish_s,
        gen_ns: clock.ns(),
        gen_rows: clock.rows(),
        failed,
        digest: o.map(|o| ExactnessDigest::of_rows(&o.results)),
        drained_bytes: o.map_or(0.0, |o| o.drained_bytes),
        drained_rows: o.map_or(0, |o| o.drained_records),
        link_bytes: o.map_or(0, |o| o.node_wire_bytes.iter().sum()),
        input_rows: o.map_or(0, |o| o.input_records),
        shard_rows: o.map_or_else(Vec::new, |o| o.shard_drained_records.clone()),
        episodes,
        phases,
        warm,
        factors,
        estimates,
        rt_workers,
        channel_capacity,
    })
}
