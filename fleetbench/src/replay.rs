//! Single-threaded replay of a session's seeded inputs.
//!
//! [`layer_replay`] re-executes a live session's data path one public layer
//! call at a time, under the live run's recorded load factors — proxy
//! split, source operators, SP prefix, shard partitioner, netwire codec for
//! cross-node hops, shard pipelines and state merge — with a span around
//! each call. It is also the single-threaded baseline the live session's
//! speed-up is measured against.

use std::collections::BTreeMap;
use std::time::Instant;

use jarvis_core::calibration::{DRAINED_THRES, EPOCH_SECS, EXEC_QUANTUM, IDLE_THRES};
use jarvis_core::deploy::ExactnessDigest;
use jarvis_core::engine::block::EpochSource;
use jarvis_core::engine::netwire::{decode_shard_payload_with, encode_shard_payload_with};
use jarvis_core::engine::NetPayload;
use jarvis_core::planner::{plan_query, PlannedQuery, RuleConfig};
use jarvis_core::ControlProxy;
use streamkit::batch::{Batch, DictRegistry, DictVersions};
use streamkit::ops::{AggRole, GroupPartialEntry, OpKind, Operator, StatePartial};
use streamkit::physical::{build_pipeline, drain_windows_rows, CostProfile};
use streamkit::record::Record;
use streamkit::schema::SchemaRef;
use streamkit::shard::{node_of_shard, shard_of_values};
use streamkit::time::{Ts, TS_MAX};

use crate::trace::Tracer;
use crate::workload::{GenClock, Workload, SP_NODES, SP_SHARDS};

/// Rows per drained message, as the live session chunks them.
const CHUNK: usize = 256;

fn plan(workload: Workload, seed: u64) -> (PlannedQuery, CostProfile, Vec<Box<dyn EpochSource>>) {
    let scenario = workload.scenario(seed);
    let planned = plan_query(scenario.logical_plan(), &RuleConfig::default())
        .expect("the paper's queries plan");
    let n = workload.sources();
    let generators = (0..n).map(|i| scenario.generator(i, n)).collect();
    (planned, scenario.costs(), generators)
}

fn epoch_start(epoch: u64) -> Ts {
    (epoch as f64 * EPOCH_SECS * 1e6) as Ts
}

/// Rows into and out of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowCount {
    /// Rows (or state entries) handed to the layer.
    pub rows_in: u64,
    /// Rows (or state entries) it passed on.
    pub rows_out: u64,
}

/// What the layer replay measured.
pub struct ReplayRun {
    /// Digest of the merged results; must equal the reference.
    pub digest: ExactnessDigest,
    /// Wall time of every epoch net of generation, ms.
    pub epoch_ms: Vec<f64>,
    /// Rows in and out per span name.
    pub rows: BTreeMap<&'static str, RowCount>,
    /// Bytes the cross-node hops encoded.
    pub wire_bytes: u64,
    /// Cross-node frames encoded.
    pub wire_frames: u64,
    /// Most live groups held by the SP's final aggregations at an epoch
    /// end or just before the final window close.
    pub peak_groups: u64,
}

/// Span name of an operator by kind and side.
fn op_span(kind: OpKind, role: AggRole) -> &'static str {
    match (kind, role) {
        (OpKind::Window, _) => "ops.window",
        (OpKind::Filter, _) => "ops.filter",
        (OpKind::Map, _) => "ops.map",
        (OpKind::Project, _) => "ops.project",
        (OpKind::Join, _) => "ops.join",
        (OpKind::GroupAggregate, AggRole::Partial) => "ops.group_partial",
        (OpKind::GroupAggregate, AggRole::Final) => "ops.group_final",
    }
}

/// Messages a source hands the SP, as in the live session.
enum Msg {
    Drained { stage: usize, batch: Batch },
    State { stage: usize, delta: StatePartial },
}

struct Source {
    generator: Box<dyn EpochSource>,
    ops: Vec<Box<dyn Operator>>,
    proxies: Vec<ControlProxy>,
    /// The SP replica's stateless prefix for this source.
    prefix: Vec<Box<dyn Operator>>,
}

/// The SP side: ring geometry, shard pipelines, per-link codec state.
struct Sp {
    n_shards: usize,
    n_nodes: usize,
    shard_keys: Vec<usize>,
    suffix_schemas: Vec<SchemaRef>,
    /// `shards[shard][source]`: the keyed chain from the boundary down.
    shards: Vec<Vec<Vec<Box<dyn Operator>>>>,
    dict_sync: Vec<DictVersions>,
    registry: Vec<DictRegistry>,
    results: Vec<Record>,
    wire_bytes: u64,
    wire_frames: u64,
}

struct Replay<'a> {
    tracer: &'a Tracer,
    rows: BTreeMap<&'static str, RowCount>,
}

impl Replay<'_> {
    fn count(&mut self, name: &'static str, rows_in: usize, rows_out: usize) {
        let c = self.rows.entry(name).or_default();
        c.rows_in += rows_in as u64;
        c.rows_out += rows_out as u64;
    }

    /// Runs `batches` through `ops`, one span per operator.
    fn chain(&mut self, ops: &mut [Box<dyn Operator>], role: AggRole, batch: Batch) -> Vec<Batch> {
        let mut batches = vec![batch];
        for op in ops {
            let name = op_span(op.kind(), role);
            let _span = self.tracer.span(name);
            let rows_in: usize = batches.iter().map(Batch::len).sum();
            let mut next = Vec::new();
            for b in batches.drain(..) {
                op.process_batch(b, &mut next);
            }
            self.count(name, rows_in, next.iter().map(Batch::len).sum());
            batches = next;
        }
        batches
    }

    /// The source side of one epoch, mirroring the live worker: proxy split
    /// then operator per stage, drained rows in `CHUNK`-row messages,
    /// partial state last.
    fn source_epoch(&mut self, src: &mut Source, input: Batch) -> Vec<Msg> {
        let mut msgs = Vec::new();
        let drain = |stage: usize, batch: Batch, msgs: &mut Vec<Msg>| {
            if !batch.is_empty() {
                msgs.extend(
                    batch
                        .chunks(CHUNK)
                        .map(|batch| Msg::Drained { stage, batch }),
                );
            }
        };
        let mut batches = vec![input];
        for (stage, (proxy, op)) in src.proxies.iter_mut().zip(&mut src.ops).enumerate() {
            let mut forwarded = Vec::new();
            {
                let _span = self.tracer.span("proxy.split");
                let rows_in: usize = batches.iter().map(Batch::len).sum();
                let mut rows_out = 0;
                for batch in batches.drain(..) {
                    let (fwd, drained) = proxy.split_batch(batch);
                    if let Some(drained) = drained {
                        drain(stage, drained, &mut msgs);
                    }
                    if let Some(fwd) = fwd {
                        rows_out += fwd.len();
                        forwarded.push(fwd);
                    }
                }
                self.count("proxy.split", rows_in, rows_out);
            }
            let name = op_span(op.kind(), AggRole::Partial);
            let _span = self.tracer.span(name);
            let rows_in: usize = forwarded.iter().map(Batch::len).sum();
            for fwd in forwarded {
                for sub in fwd.chunks(EXEC_QUANTUM) {
                    op.process_batch(sub, &mut batches);
                }
            }
            self.count(name, rows_in, batches.iter().map(Batch::len).sum());
        }
        let m = src.ops.len();
        for batch in batches {
            drain(m, batch, &mut msgs);
        }
        for (stage, op) in src.ops.iter_mut().enumerate() {
            let name = op_span(op.kind(), AggRole::Partial);
            let _span = self.tracer.span(name);
            if let Some(delta) = op.take_state_delta() {
                self.count(name, 0, delta.entry_count());
                msgs.push(Msg::State { stage, delta });
            }
        }
        msgs
    }

    /// Sends one shard payload to its owner: in place when the owner is
    /// the source's ingress node, through the netwire codec otherwise.
    fn ship(&mut self, sp: &mut Sp, source: usize, shard: usize, payload: NetPayload) {
        let owner = node_of_shard(shard, sp.n_shards, sp.n_nodes);
        let payload = if owner == source % sp.n_nodes {
            payload
        } else {
            let wire = {
                let _span = self.tracer.span("wire.encode");
                encode_shard_payload_with(&payload, &mut sp.dict_sync[owner])
            };
            sp.wire_bytes += wire.len() as u64;
            sp.wire_frames += 1;
            let _span = self.tracer.span("wire.decode");
            decode_shard_payload_with(wire, &sp.suffix_schemas, &mut sp.registry[owner])
                .expect("frames encoded here decode")
        };
        match payload {
            NetPayload::ShardBatch {
                shard, rel, batch, ..
            } => {
                let ops = &mut sp.shards[shard as usize][source];
                let rel = rel as usize;
                let out = if rel >= ops.len() {
                    vec![batch]
                } else {
                    self.chain(&mut ops[rel..], AggRole::Final, batch)
                };
                for b in out {
                    sp.results.extend(b.to_records());
                }
            }
            NetPayload::ShardState {
                shard, rel, delta, ..
            } => {
                let _span = self.tracer.span("state.merge");
                self.count("state.merge", delta.entry_count(), 0);
                sp.shards[shard as usize][source][rel as usize].merge_state(delta);
            }
            _ => unreachable!("the replay ships shard payloads only"),
        }
    }

    fn dispatch_batch(&mut self, sp: &mut Sp, source: usize, rel: usize, batch: Batch, epoch: u64) {
        if batch.is_empty() {
            return;
        }
        if rel == 0 && sp.n_shards > 1 && !sp.shard_keys.is_empty() {
            let parts = {
                let _span = self.tracer.span("shard.partition");
                self.count("shard.partition", batch.len(), batch.len());
                batch.shard_by_key(&sp.shard_keys, sp.n_shards)
            };
            for (shard, part) in parts.into_iter().enumerate() {
                if !part.is_empty() {
                    let payload = NetPayload::ShardBatch {
                        shard: shard as u32,
                        epoch,
                        source: source as u32,
                        rel: 0,
                        batch: part,
                    };
                    self.ship(sp, source, shard, payload);
                }
            }
        } else {
            let payload = NetPayload::ShardBatch {
                shard: 0,
                epoch,
                source: source as u32,
                rel: rel as u32,
                batch,
            };
            self.ship(sp, source, 0, payload);
        }
    }

    /// The dispatcher side for one source's messages.
    fn sp_epoch(
        &mut self,
        sp: &mut Sp,
        src: &mut Source,
        source: usize,
        msgs: Vec<Msg>,
        epoch: u64,
    ) {
        let boundary = src.prefix.len();
        for msg in msgs {
            match msg {
                Msg::Drained { stage, batch } if stage >= boundary => {
                    self.dispatch_batch(sp, source, stage - boundary, batch, epoch);
                }
                Msg::Drained { stage, batch } => {
                    for b in self.chain(&mut src.prefix[stage..], AggRole::Final, batch) {
                        self.dispatch_batch(sp, source, 0, b, epoch);
                    }
                }
                Msg::State { stage, delta } if stage < boundary => {
                    src.prefix[stage].merge_state(delta);
                }
                Msg::State { stage, delta } => {
                    for (shard, part) in split_by_shard(delta, sp.n_shards) {
                        let payload = NetPayload::ShardState {
                            shard: shard as u32,
                            epoch,
                            source: source as u32,
                            rel: (stage - boundary) as u32,
                            delta: StatePartial::Group(part),
                        };
                        self.ship(sp, source, shard, payload);
                    }
                }
            }
        }
    }
}

/// Splits a state delta's entries by the shard owning their key.
fn split_by_shard(delta: StatePartial, n_shards: usize) -> Vec<(usize, Vec<GroupPartialEntry>)> {
    let StatePartial::Group(entries) = delta;
    let mut per_shard: Vec<Vec<GroupPartialEntry>> = (0..n_shards).map(|_| Vec::new()).collect();
    for entry in entries {
        per_shard[shard_of_values(&entry.key, n_shards)].push(entry);
    }
    per_shard
        .into_iter()
        .enumerate()
        .filter(|(_, part)| !part.is_empty())
        .collect()
}

fn live_groups(sp: &Sp) -> u64 {
    sp.shards
        .iter()
        .flatten()
        .flatten()
        .filter(|op| op.kind() == OpKind::GroupAggregate)
        .map(|op| op.state_size() as u64)
        .sum()
}

/// Replays `factors.len()` epochs of `workload` at `seed` single-threaded,
/// installing `factors[epoch][source]` before each epoch. Generation is
/// timed into `clock` and traced as `gen` spans.
pub fn layer_replay(
    workload: Workload,
    seed: u64,
    factors: &[Vec<Vec<f64>>],
    tracer: &Tracer,
    clock: &GenClock,
) -> ReplayRun {
    let (planned, costs, generators) = plan(workload, seed);
    let plan = &planned.plan;
    let schemas = plan.edge_schemas().expect("validated plan");
    let (boundary, shard_keys) = plan.shard_boundary().unwrap_or((plan.len(), Vec::new()));
    let (n_shards, n_nodes) = if shard_keys.is_empty() {
        (1, 1)
    } else {
        (SP_SHARDS as usize, SP_NODES.min(SP_SHARDS) as usize)
    };
    let pipeline = |role| build_pipeline(plan, &costs, role).expect("validated plan");
    let n = generators.len();
    let mut sources: Vec<Source> = generators
        .into_iter()
        .enumerate()
        .map(|(i, generator)| {
            let mut ops = pipeline(AggRole::Partial);
            ops.truncate(planned.source_ops);
            let proxies = factors[0][i]
                .iter()
                .map(|&p| ControlProxy::new(p, DRAINED_THRES, IDLE_THRES))
                .collect();
            let mut prefix = pipeline(AggRole::Final);
            prefix.truncate(boundary);
            Source {
                generator,
                ops,
                proxies,
                prefix,
            }
        })
        .collect();
    let mut sp = Sp {
        n_shards,
        n_nodes,
        shard_keys,
        suffix_schemas: schemas[boundary..].to_vec(),
        shards: (0..n_shards)
            .map(|_| {
                (0..n)
                    .map(|_| pipeline(AggRole::Final).split_off(boundary))
                    .collect()
            })
            .collect(),
        dict_sync: vec![DictVersions::new(); n_nodes],
        registry: (0..n_nodes).map(|_| DictRegistry::default()).collect(),
        results: Vec::new(),
        wire_bytes: 0,
        wire_frames: 0,
    };
    let mut replay = Replay {
        tracer,
        rows: BTreeMap::new(),
    };

    let mut epoch_ms = Vec::with_capacity(factors.len());
    let mut peak_groups = 0;
    for (epoch, epoch_factors) in factors.iter().enumerate() {
        let epoch = epoch as u64;
        tracer.set_epoch(Some(epoch));
        let gen_before = clock.ns();
        let t = Instant::now();
        {
            let _span = tracer.span("epoch");
            for (i, src) in sources.iter_mut().enumerate() {
                for (proxy, &p) in src.proxies.iter_mut().zip(&epoch_factors[i]) {
                    if proxy.load_factor() != p {
                        proxy.set_load_factor(p);
                    }
                    proxy.begin_epoch();
                }
                let mut input = {
                    let _span = tracer.span("gen");
                    let generator = &mut src.generator;
                    clock.time(|| generator.generate_epoch_batch(epoch_start(epoch), EPOCH_SECS))
                };
                input.relabel(&schemas[0]);
                let msgs = {
                    let _span = tracer.span("source");
                    replay.source_epoch(src, input)
                };
                let _span = tracer.span("sp");
                replay.sp_epoch(&mut sp, src, i, msgs, epoch);
            }
        }
        let wall_ns = t.elapsed().as_nanos() as u64;
        epoch_ms.push((wall_ns - (clock.ns() - gen_before)) as f64 / 1e6);
        peak_groups = peak_groups.max(live_groups(&sp));
    }
    tracer.set_epoch(None);

    {
        let _span = tracer.span("finish");
        // Residual source state merges straight into its owning shard, as
        // in `LiveSession::finish`.
        for (source, src) in sources.iter_mut().enumerate() {
            for (stage, op) in src.ops.iter_mut().enumerate() {
                let Some(delta) = op.take_state_delta() else {
                    continue;
                };
                if stage < boundary {
                    src.prefix[stage].merge_state(delta);
                    continue;
                }
                for (shard, part) in split_by_shard(delta, n_shards) {
                    sp.shards[shard][source][stage - boundary]
                        .merge_state(StatePartial::Group(part));
                }
            }
        }
        peak_groups = peak_groups.max(live_groups(&sp));
        let _drain = tracer.span("drain");
        let mut emitted = 0;
        for pipeline in sp.shards.iter_mut().flatten() {
            let rows = drain_windows_rows(pipeline, TS_MAX);
            emitted += rows.len();
            sp.results.extend(rows);
        }
        replay.count("ops.group_final", 0, emitted);
    }

    ReplayRun {
        digest: ExactnessDigest::of_rows(&sp.results),
        epoch_ms,
        rows: replay.rows,
        wire_bytes: sp.wire_bytes,
        wire_frames: sp.wire_frames,
        peak_groups,
    }
}
