//! Determinism self-tests: a seed fixes every count the benchmark reports,
//! and a different seed changes the inputs. Run in release mode
//! (`cargo test --release`); each session executes the full workload.

use fleetbench::replay::layer_replay;
use fleetbench::session::{run_session, SessionRun, SESSION_EPOCHS};
use fleetbench::trace::Tracer;
use fleetbench::workload::{GenClock, Workload};

fn session(workload: Workload, seed: u64, record_factors: bool) -> SessionRun {
    run_session(workload, seed, &Tracer::off(), record_factors).expect("rt_workers = nproc")
}

/// The counts that must repeat exactly for one seed.
fn counts(run: &SessionRun) -> (f64, f64, u64, String, usize) {
    let digest = run.digest.clone().expect("no epoch failed");
    (
        run.drained_bytes / run.input_rows as f64,
        run.link_bytes as f64 / run.input_rows as f64,
        digest.rows,
        digest.digest,
        run.episodes.len(),
    )
}

fn same_seed_same_counts(workload: Workload) {
    let a = session(workload, 3, false);
    let b = session(workload, 3, false);
    assert_eq!(counts(&a), counts(&b), "{}", workload.name());
    assert_eq!(a.failed, 0);
    let other = session(workload, 2, false);
    assert_ne!(
        a.digest.unwrap().digest,
        other.digest.unwrap().digest,
        "{}: another seed must change the inputs",
        workload.name()
    );
}

#[test]
fn s2s_groupby_counts_repeat() {
    same_seed_same_counts(Workload::S2sGroupby);
}

#[test]
fn log_parse_counts_repeat() {
    same_seed_same_counts(Workload::LogParse);
}

#[test]
fn t2t_fanin_counts_repeat() {
    same_seed_same_counts(Workload::T2tFanin);
}

#[test]
fn live_and_replay_match_the_reference() {
    let workload = Workload::S2sGroupby;
    let expect = workload.reference(5, SESSION_EPOCHS);
    let live = session(workload, 5, true);
    assert_eq!(live.digest.as_ref(), Some(&expect));
    let replay = layer_replay(
        workload,
        5,
        &live.factors,
        &Tracer::on(),
        &GenClock::default(),
    );
    assert_eq!(replay.digest, expect);
    assert!(
        replay.wire_frames > 0,
        "s2s-groupby ships rows across nodes"
    );
}
