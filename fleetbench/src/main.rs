//! Command line of the fleet benchmark.
//!
//! ```text
//! fleetbench reference --workload W --seed N
//! fleetbench timed     --workload W --seed N --seconds S --expect ROWS:DIGEST
//! fleetbench traced    --workload W --seed N --seconds S --expect ROWS:DIGEST --out DIR
//! ```
//!
//! `reference` prints the single-threaded oracle digest (see
//! [`Workload::reference`]). `timed` runs the
//! untraced sessions and prints the end-to-end metrics; `traced` runs two
//! untraced and two traced sessions plus the layer replay, prints the
//! per-layer metrics and writes the span file under `DIR`. Each prints its
//! result as the last line of standard output. `run.py` chains them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use fleetbench::replay::layer_replay;
use fleetbench::session::{run_session, SessionRun, SESSION_EPOCHS};
use fleetbench::stats::{median, tail};
use fleetbench::trace::Tracer;
use fleetbench::workload::{nproc, GenClock, Workload, MEASURED_EPOCHS, WARMUP_EPOCHS};
use jarvis_core::deploy::ExactnessDigest;
use jarvis_core::runtime::{Phase, TraceState};
use jarvis_core::{StepWiseAdapt, StepWiseConfig};

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    expect: Option<ExactnessDigest>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("missing mode: reference, timed or traced")?;
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    const FLAGS: [&str; 5] = ["--workload", "--seed", "--seconds", "--expect", "--out"];
    if let Some(flag) = flags.keys().find(|k| !FLAGS.contains(&k.as_str())) {
        return Err(format!("unknown flag {flag}"));
    }
    let get = |k: &str| flags.get(k).cloned();
    let num = |k: &str| -> Result<Option<u64>, String> {
        get(k)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("{k}: not a number: {v}"))
            })
            .transpose()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let expect = get("--expect")
        .map(|v| {
            let (rows, digest) = v.split_once(':').ok_or("--expect takes ROWS:DIGEST")?;
            Ok::<_, String>(ExactnessDigest {
                rows: rows.parse().map_err(|_| "--expect: bad row count")?,
                digest: digest.to_string(),
            })
        })
        .transpose()?;
    Ok(Args {
        mode,
        workload,
        seed: num("--seed")?.ok_or("missing --seed")?,
        seconds: num("--seconds")?.unwrap_or(20),
        expect,
        out: get("--out"),
    })
}

/// Metrics in the order they were added, printed as the result's
/// `metrics` object.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}

fn shape_json(args: &Args, run: &SessionRun, sessions: u64, extra: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"rt_workers\": {}, \
         \"channel_capacity\": {}, \"sources\": {}, \"warmup_epochs\": {WARMUP_EPOCHS}, \
         \"measured_epochs\": {MEASURED_EPOCHS}, \"sessions\": {sessions}{extra}}}",
        args.workload.name(),
        args.seed,
        nproc(),
        run.rt_workers,
        run.channel_capacity,
        args.workload.sources(),
    )
}

/// Rows of the measured epochs over their net wall time plus `finish()`.
fn rows_per_s(runs: &[&SessionRun]) -> f64 {
    let rows: u64 = runs.iter().map(|r| r.measured_rows).sum();
    let secs: f64 = runs
        .iter()
        .map(|r| r.measured_ms().iter().sum::<f64>() / 1e3 + r.finish_s)
        .sum();
    rows as f64 / secs
}

/// The counts a seed fixes: uplink and cross-node bytes, results and
/// adaptation episodes.
fn counts(run: &SessionRun) -> (f64, u64, Option<&ExactnessDigest>, usize) {
    (
        run.drained_bytes,
        run.link_bytes,
        run.digest.as_ref(),
        run.episodes.len(),
    )
}

/// Epochs charged as failed over sessions of one seed: failed epochs, and
/// every epoch of a session whose results differ from the reference or
/// whose counts differ from the first session's.
fn failed_epochs(runs: &[&SessionRun], expect: &ExactnessDigest) -> u64 {
    runs.iter()
        .map(|r| {
            if r.failed > 0 {
                r.failed
            } else if r.digest.as_ref() == Some(expect) && counts(r) == counts(runs[0]) {
                0
            } else {
                SESSION_EPOCHS
            }
        })
        .sum()
}

fn timed(args: &Args, expect: &ExactnessDigest) -> Result<(), String> {
    let sessions = args.workload.sessions(args.seconds);
    let runs = (0..sessions)
        .map(|_| run_session(args.workload, args.seed, &Tracer::off(), false))
        .collect::<Result<Vec<_>, _>>()?;
    let refs: Vec<&SessionRun> = runs.iter().collect();
    let samples: Vec<f64> = runs.iter().flat_map(|r| r.measured_ms().to_vec()).collect();
    let (tail_ms, tail_pct) = tail(&samples).unwrap_or((0.0, 0.0));
    let attempted = sessions * SESSION_EPOCHS;
    let failed = failed_epochs(&refs, expect);
    let first = &runs[0];
    let repeat = runs.iter().all(|r| counts(r) == counts(first));
    // A session still adapting after warm-up would leak its first episode
    // into the measured epochs.
    let warm = runs.iter().all(|r| r.warm);
    let per_session: Vec<String> = runs
        .iter()
        .map(|r| format!("{:.0}", rows_per_s(&[r])))
        .collect();
    let extra = format!(
        ", \"samples\": {}, \"tail_percentile\": {tail_pct:?}, \"counts_repeat\": {repeat}, \
         \"warm_after_warmup\": {warm}, \"session_rows_per_s\": [{}], \"digest\": \"{}:{}\"",
        samples.len(),
        per_session.join(", "),
        expect.rows,
        expect.digest
    );
    println!("shape {}", shape_json(args, first, sessions, &extra));

    let per_row = |f: fn(&SessionRun) -> f64| {
        median(
            &runs
                .iter()
                .map(|r| f(r) / r.input_rows as f64)
                .collect::<Vec<_>>(),
        )
    };
    let mut m = Metrics::default();
    m.add("rows_per_s", rows_per_s(&refs), "rows/s");
    m.add("epoch_ms_p50", median(&samples), "ms");
    m.add("epoch_ms_tail", tail_ms, "ms");
    m.add(
        "setup_s",
        median(
            &runs
                .iter()
                .map(|r| r.build_s + r.session_s + r.warmup_s)
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    m.add(
        "drained_bytes_per_row",
        per_row(|r| r.drained_bytes),
        "B/row",
    );
    m.add(
        "link_bytes_per_row",
        per_row(|r| r.link_bytes as f64),
        "B/row",
    );
    m.add(
        "ok_frac",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    print_result(failed == 0 && warm, attempted, failed, &m);
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn traced(args: &Args, expect: &ExactnessDigest) -> Result<(), String> {
    let w = args.workload;
    let session = |tracer: &Tracer, record| run_session(w, args.seed, tracer, record);
    // Untraced and traced sessions alternate, twice, so the overhead
    // estimate does not rest on one session each; the first traced session
    // supplies the spans and the factors the replay installs.
    let plain = [
        session(&Tracer::off(), false)?,
        session(&Tracer::off(), false)?,
    ];
    let live_tracer = Tracer::on();
    let live = session(&live_tracer, true)?;
    let live_again = session(&Tracer::on(), false)?;
    let replay_tracer = Tracer::on();
    let replay_clock = GenClock::default();
    let replay = layer_replay(w, args.seed, &live.factors, &replay_tracer, &replay_clock);

    let sessions = [&plain[0], &plain[1], &live, &live_again];
    let attempted = (sessions.len() as u64 + 1) * SESSION_EPOCHS;
    let replay_ok = replay.digest == *expect;
    let failed = failed_epochs(&sessions, expect) + if replay_ok { 0 } else { SESSION_EPOCHS };

    let stats = replay_tracer.stats();
    let self_ns = |name: &str| stats.get(name).map_or(0.0, |s| s.self_ns as f64);
    let rows = |name: &str| replay.rows.get(name).copied().unwrap_or_default();

    let mut m = Metrics::default();
    m.add(
        "gen.ns_per_row",
        ratio(live.gen_ns as f64, live.gen_rows as f64),
        "ns/row",
    );
    m.add(
        "proxy.drain_frac",
        ratio(live.drained_rows as f64, live.input_rows as f64),
        "ratio",
    );
    let split = rows("proxy.split");
    m.add(
        "proxy.ns_per_row",
        ratio(self_ns("proxy.split"), split.rows_in as f64),
        "ns/row",
    );
    for kind in [
        "window",
        "filter",
        "map",
        "join",
        "project",
        "group_partial",
        "group_final",
    ] {
        let name = format!("ops.{kind}");
        let mut c = rows(&name);
        let mut ns = self_ns(&name);
        if kind == "group_final" {
            // Merged partial state is group-final input too.
            c.rows_in += rows("state.merge").rows_in;
            ns += self_ns("state.merge");
        }
        m.add(format!("{name}.rows"), c.rows_in as f64, "count");
        m.add(
            format!("{name}.ns_per_row"),
            ratio(ns, c.rows_in as f64),
            "ns/row",
        );
        m.add(
            format!("{name}.selectivity"),
            ratio(c.rows_out as f64, c.rows_in as f64),
            "ratio",
        );
    }
    m.add("ops.group_final.groups", replay.peak_groups as f64, "count");
    m.add(
        "shard.ns_per_row",
        ratio(
            self_ns("shard.partition"),
            rows("shard.partition").rows_in as f64,
        ),
        "ns/row",
    );
    let shard_rows: Vec<f64> = live.shard_rows.iter().map(|&r| r as f64).collect();
    let shard_mean = shard_rows.iter().sum::<f64>() / shard_rows.len().max(1) as f64;
    m.add(
        "shard.skew",
        ratio(shard_rows.iter().copied().fold(0.0, f64::max), shard_mean),
        "ratio",
    );
    let wire_bytes = replay.wire_bytes as f64;
    m.add(
        "wire.encode_ns_per_byte",
        ratio(self_ns("wire.encode"), wire_bytes),
        "ns/B",
    );
    m.add(
        "wire.decode_ns_per_byte",
        ratio(self_ns("wire.decode"), wire_bytes),
        "ns/B",
    );
    m.add(
        "wire.frames_per_epoch",
        replay.wire_frames as f64 / SESSION_EPOCHS as f64,
        "count",
    );
    let warm = WARMUP_EPOCHS as usize;
    m.add(
        "rt.speedup",
        ratio(
            replay.epoch_ms[warm..].iter().sum(),
            live.measured_ms().iter().sum(),
        ),
        "x",
    );

    // Adaptation, from the traced session's runtimes.
    let spans: Vec<f64> = live.episodes.iter().map(|&(a, b)| (b - a) as f64).collect();
    m.add("adapt.episodes", live.episodes.len() as f64, "count");
    m.add("adapt.epochs_to_stable", median(&spans), "epochs");
    let phase_ms = |want: fn(Phase, TraceState) -> bool| -> Vec<f64> {
        live.phases
            .iter()
            .zip(&live.epoch_ms)
            .filter(|((p, t), _)| want(*p, *t))
            .map(|(_, &ms)| ms)
            .collect()
    };
    let profile = phase_ms(|p, _| p == Phase::Profile);
    let stable = phase_ms(|p, t| p == Phase::Probe && t == TraceState::Stable);
    m.add(
        "adapt.profile_extra_ms",
        if profile.is_empty() {
            0.0
        } else {
            median(&profile) - median(&stable)
        },
        "ms",
    );
    let lp_us = live.estimates.as_ref().map_or(0.0, |est| {
        let mut adapt = StepWiseAdapt::new(StepWiseConfig::default(), est.len());
        let batches: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..200 {
                    std::hint::black_box(adapt.init_plan(std::hint::black_box(est)));
                }
                t.elapsed().as_secs_f64() * 1e6 / 200.0
            })
            .collect();
        median(&batches)
    });
    m.add("adapt.lp_us", lp_us, "us");

    m.add("setup.build_ms", live.build_s * 1e3, "ms");
    m.add("setup.session_ms", live.session_s * 1e3, "ms");
    m.add("setup.warmup_ms", live.warmup_s * 1e3, "ms");
    m.add("finish.ms", live.finish_s * 1e3, "ms");
    let untraced = rows_per_s(&[&plain[0], &plain[1]]);
    let traced = rows_per_s(&[&live, &live_again]);
    m.add("trace.rows_per_s_untraced", untraced, "rows/s");
    m.add("trace.rows_per_s_traced", traced, "rows/s");
    m.add(
        "trace.overhead_frac",
        1.0 - ratio(traced, untraced),
        "ratio",
    );

    // Per-layer self times, live session and replay.
    for (label, tracer) in [("live", &live_tracer), ("replay", &replay_tracer)] {
        for (name, s) in tracer.stats() {
            println!(
                "self {label:6} {name:20} spans {:8} total_ms {:10.3} self_ms {:10.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    let extra = format!(
        ", \"replay_digest_ok\": {replay_ok}, \"digest\": \"{}:{}\"",
        expect.rows, expect.digest
    );
    let shape = shape_json(args, &live, sessions.len() as u64, &extra);
    println!("shape {shape}");
    if let Some(dir) = &args.out {
        let path = format!("{dir}/{}-seed{}.spans.json", w.name(), args.seed);
        write_span_file(&path, &shape, &m, &live_tracer, &replay_tracer)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans {path}");
    }
    print_result(failed == 0 && live.warm, attempted, failed, &m);
    Ok(())
}

fn write_span_file(
    path: &str,
    shape: &str,
    metrics: &Metrics,
    live: &Tracer,
    replay: &Tracer,
) -> std::io::Result<()> {
    let mut s = format!("{{\"shape\": {shape},\n\"metrics\": {},\n", metrics.json());
    for (label, tracer) in [("live", live), ("replay", replay)] {
        let _ = write!(s, "\"{label}_self_ms\": {{");
        for (i, (name, st)) in tracer.stats().iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}\"{name}\": {:?}", st.self_ns as f64 / 1e6);
        }
        let _ = write!(s, "}},\n\"{label}_spans\": ");
        tracer.write_spans_json(&mut s);
        s.push_str(if label == "live" { ",\n" } else { "}\n" });
    }
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.mode == "reference" {
        let d = args.workload.reference(args.seed, SESSION_EPOCHS);
        println!("{{\"rows\": {}, \"digest\": \"{}\"}}", d.rows, d.digest);
        return ExitCode::SUCCESS;
    }
    let Some(expect) = args.expect.clone() else {
        eprintln!("fleetbench: {} needs --expect ROWS:DIGEST", args.mode);
        return ExitCode::from(2);
    };
    // A printed result carries its own `correct` flag, so it exits 0.
    let done = match args.mode.as_str() {
        "timed" => timed(&args, &expect),
        "traced" => traced(&args, &expect),
        other => Err(format!("unknown mode {other}")),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::from(2)
        }
    }
}
