//! The benchmark's three workloads and the timing wrapper that keeps input
//! generation out of the system's time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jarvis_core::calibration::Scale;
use jarvis_core::deploy::{CustomWorkload, ExactnessDigest};
use jarvis_core::engine::block::{EpochSource, NetworkModel};
use jarvis_core::experiment::{ResourceEvent, ScenarioSpec};
use jarvis_core::{BackendKind, Deployment, DeploymentBuilder, StrategyKind};
use streamkit::batch::Batch;

use crate::trace::Tracer;

/// CPU budget every workload starts from (core fraction per source).
pub const CPU_BUDGET: f64 = 0.6;
/// Virtual shards on the SP ring.
pub const SP_SHARDS: u32 = 4;
/// SP nodes dividing the ring.
pub const SP_NODES: u32 = 2;
/// Epochs of warm-up per session. They cover the first Startup → Probe →
/// Profile → Adapt episode on every workload (it closes by epoch 6).
pub const WARMUP_EPOCHS: u64 = 8;
/// Measured epochs per session: two whole 10-epoch windows.
pub const MEASURED_EPOCHS: u64 = 20;
/// `t2t-fanin` swings the budget between these every 10 epochs.
const T2T_BUDGET_SWING: (f64, f64) = (0.1, CPU_BUDGET);

/// Executor workers every session runs with: the host's available
/// parallelism.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// S2SProbe at 10× over 8 sources: a large (srcIp, dstIp) group-by
    /// whose SP-bound rows are sharded and cross node links.
    S2sGroupby,
    /// LogAnalytics at 10× over 4 sources: string kernels at the sources,
    /// only partial state crosses.
    LogParse,
    /// T2TProbe (table 500) at 1× over 512 sources with budget swings:
    /// task fan-in, joins and repeated adaptation.
    T2tFanin,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::S2sGroupby, Workload::LogParse, Workload::T2tFanin];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::S2sGroupby => "s2s-groupby",
            Workload::LogParse => "log-parse",
            Workload::T2tFanin => "t2t-fanin",
        }
    }

    /// The system's own scenario, seeded from the benchmark's seed. The
    /// seed moves up 16 bits: the log generator XORs the source index into
    /// the low bits, so adjacent seeds would otherwise hand the same
    /// per-source streams to permuted sources and repeat the results.
    pub fn scenario(self, seed: u64) -> ScenarioSpec {
        let mut spec = match self {
            Workload::S2sGroupby => ScenarioSpec::pingmesh_s2s(Scale::X10),
            Workload::LogParse => ScenarioSpec::log_analytics(Scale::X10),
            Workload::T2tFanin => ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        };
        spec.seed = seed << 16;
        spec
    }

    /// Data sources in the fleet.
    pub fn sources(self) -> u32 {
        match self {
            Workload::S2sGroupby => 8,
            Workload::LogParse => 4,
            Workload::T2tFanin => 512,
        }
    }

    /// Scheduled resource changes: `t2t-fanin` drops the budget to 0.1 at
    /// epoch 10 and restores 0.6 at epoch 20, and so on every 10 epochs.
    pub fn events(self, epochs: u64) -> Vec<ResourceEvent> {
        if self != Workload::T2tFanin {
            return Vec::new();
        }
        (1..=epochs / 10)
            .map(|k| ResourceEvent {
                epoch: k * 10,
                cpu_budget: Some(if k % 2 == 1 {
                    T2T_BUDGET_SWING.0
                } else {
                    T2T_BUDGET_SWING.1
                }),
                table_size: None,
            })
            .collect()
    }

    /// Rough wall time of one measured epoch on a 2-core x86-64 host,
    /// generation included, ms. Only sizes the run (sessions per
    /// `--seconds`); it is never reported.
    pub fn nominal_epoch_ms(self) -> f64 {
        match self {
            Workload::S2sGroupby => 230.0,
            Workload::LogParse => 290.0,
            Workload::T2tFanin => 170.0,
        }
    }

    /// Sessions a run of `seconds` makes: enough measured epochs to fill
    /// the time at the nominal epoch cost, at least three so set-up time is
    /// a median. Depends on `seconds` alone, so counts repeat exactly.
    pub fn sessions(self, seconds: u64) -> u64 {
        let per_session_s = MEASURED_EPOCHS as f64 * self.nominal_epoch_ms() / 1e3;
        ((seconds as f64 / per_session_s).round() as u64).max(3)
    }

    /// The deployment builder for one session with `rt_workers` =
    /// [`nproc`], every source generator wrapped in a [`TimedSource`]
    /// reporting into `clock`.
    pub fn builder(
        self,
        seed: u64,
        epochs: u64,
        clock: &GenClock,
        tracer: &Tracer,
    ) -> DeploymentBuilder {
        let scenario = self.scenario(seed);
        let n = self.sources();
        let generators: Vec<Box<dyn EpochSource>> = (0..n)
            .map(|i| {
                Box::new(TimedSource {
                    inner: scenario.generator(i, n),
                    clock: clock.clone(),
                    tracer: tracer.clone(),
                }) as Box<dyn EpochSource>
            })
            .collect();
        let workload = CustomWorkload::new(
            scenario.name(),
            scenario.logical_plan(),
            scenario.costs(),
            generators,
        )
        .with_input_mbps(scenario.input_mbps());
        Deployment::builder()
            .workload(workload)
            .strategy(StrategyKind::Jarvis)
            .sources(n)
            .cpu_budget(CPU_BUDGET)
            .sp_shards(SP_SHARDS)
            .sp_nodes(SP_NODES)
            .events(&self.events(epochs))
            .backend(BackendKind::Live)
            .collect_results(true)
            .seed(scenario.seed)
            .rt_workers(nproc())
    }

    /// The correctness oracle: the digest of `epochs` epochs of the same
    /// seeded inputs on the emulated backend under All-SP, which runs
    /// every source's rows through one unsharded SP chain on one thread.
    /// The uplink is unbounded so the emulator sheds nothing.
    pub fn reference(self, seed: u64, epochs: u64) -> ExactnessDigest {
        Deployment::builder()
            .workload(self.scenario(seed))
            .strategy(StrategyKind::AllSp)
            .sources(self.sources())
            .network(NetworkModel::PerSource { bps: f64::MAX })
            .backend(BackendKind::Emulated)
            .collect_results(true)
            .build()
            .expect("benchmark deployments are valid")
            .run(epochs)
            .expect("emulated runs do not fail")
            .exactness
            .expect("results are collected")
    }
}

/// Generation time and rows, summed over every source of a session.
#[derive(Clone, Default)]
pub struct GenClock {
    ns: Arc<AtomicU64>,
    rows: Arc<AtomicU64>,
}

impl GenClock {
    /// Nanoseconds spent generating so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Rows generated so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Times one generator call and counts its rows.
    pub fn time(&self, f: impl FnOnce() -> Batch) -> Batch {
        let t = Instant::now();
        let batch = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rows.fetch_add(batch.len() as u64, Ordering::Relaxed);
        batch
    }
}

/// A system generator behind a stopwatch. The live session calls every
/// generator on its coordinating thread before an epoch's tasks spawn, so
/// nothing else runs while the clock ticks and subtracting it is exact.
pub struct TimedSource {
    inner: Box<dyn EpochSource>,
    clock: GenClock,
    tracer: Tracer,
}

impl EpochSource for TimedSource {
    fn generate_epoch_batch(&mut self, epoch_start: i64, epoch_secs: f64) -> Batch {
        let _span = self.tracer.span("gen");
        let inner = &mut self.inner;
        self.clock
            .time(|| inner.generate_epoch_batch(epoch_start, epoch_secs))
    }
}
