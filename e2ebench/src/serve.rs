//! `serve_mixed`: an in-process durable timing daemon under a writer and
//! a reader.
//!
//! The daemon is `Server::with_durability` over `block-2` with the
//! production `DurabilityConfig` (fsync on, a checkpoint every 64
//! commits) in a scratch directory of the checkout. Two closed-loop
//! clients share it, each on its own connection:
//! * the writer sends `update` ops carrying seeded `estimate_eco`
//!   deltas, each as soon as the previous reply arrives;
//! * the reader sends `report_slack` / `report_at` in a fixed 3:1 mix
//!   with a fixed [`THINK`] time between reads, until the writer is done.

use crate::common::{self, ms_since, RunCfg};
use crate::eco::{candidates, ALTERNATIVES};
use crate::procfs::{self, ProcSample};
use crate::report::Report;
use crate::stats;
use insta_engine::{EngineDurableState, InstaEngine, WriterOp};
use insta_netlist::Design;
use insta_refsta::eco::ArcDelta;
use insta_refsta::{estimate_eco, RefSta, StaConfig};
use insta_serve::{Client, Durability, DurabilityConfig, Op, Request, ServeConfig, Server};
use insta_support::json::{obj, Json, ToJson};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Top-K queue capacity of the engine.
pub const TOP_K: usize = 8;
/// Nominal writer commits per second of the timed phase.
const RATE_PER_S: f64 = 70.0;
/// Reader pause between two reads.
pub const THINK: Duration = Duration::from_millis(1);
/// Endpoints per `report_slack` read.
pub const READ_ENDPOINTS: usize = 16;
/// Distinct seeded read requests, cycled by the reader.
const READ_POOL: usize = 64;
/// Epochs at which the untraced run compares reads against a twin.
const CHECK_EPOCHS: usize = 16;

/// Scratch root for durability directories, under the working directory.
pub const SCRATCH: &str = ".e2ebench-scratch";

type Conn = Client<UnixStream, UnixStream>;

/// The writer's seeded payloads: per op, the `estimate_eco` deltas of a
/// seeded (cell, alternative size) against the initial design.
pub fn payloads(cfg: &RunCfg, n: usize, design: &Design, sta: &RefSta) -> Vec<Vec<ArcDelta>> {
    let cells = candidates(design);
    let mut rng = cfg.rng("serve_mixed.updates");
    (0..n)
        .map(|_| {
            let cell = cells[rng.bounded_u64(cells.len() as u64) as usize];
            let cur = design.cell(cell).lib_cell;
            let class = design.lib_cell_of(cell).class;
            let alts: Vec<_> = design
                .library()
                .family(class)
                .iter()
                .copied()
                .filter(|&lc| lc != cur)
                .collect();
            let pick = alts[rng.bounded_u64(ALTERNATIVES.min(alts.len()) as u64) as usize];
            estimate_eco(design, sta, cell, pick).arc_deltas
        })
        .collect()
}

/// The `update` request parameters carrying `deltas`.
pub fn update_params(deltas: &[ArcDelta]) -> Json {
    let pair = |v: [f64; 2]| Json::Arr(vec![v[0].to_json(), v[1].to_json()]);
    let rows = deltas
        .iter()
        .map(|d| {
            obj([
                ("arc", u64::from(d.arc).to_json()),
                ("mean", pair(d.mean)),
                ("sigma", pair(d.sigma)),
            ])
        })
        .collect();
    obj([("deltas", Json::Arr(rows))])
}

/// One seeded read request.
#[derive(Debug, Clone, PartialEq)]
pub enum Read {
    /// `report_slack` over these endpoints.
    Slack(Vec<u64>),
    /// `report_at` of this node and transition.
    At(u64, u64),
}

impl Read {
    fn request(&self) -> (Op, Json) {
        match self {
            Read::Slack(eps) => (
                Op::ReportSlack,
                obj([(
                    "endpoints",
                    Json::Arr(eps.iter().map(|e| e.to_json()).collect()),
                )]),
            ),
            Read::At(node, rf) => (
                Op::ReportAt,
                obj([("node", node.to_json()), ("rf", rf.to_json())]),
            ),
        }
    }
}

/// The reader's seeded request pool: three `report_slack` reads of
/// [`READ_ENDPOINTS`] endpoints for every `report_at` read.
pub fn reads(cfg: &RunCfg, n_endpoints: usize, n_nodes: usize) -> Vec<Read> {
    let mut rng = cfg.rng("serve_mixed.reads");
    (0..READ_POOL)
        .map(|i| {
            if i % 4 == 3 {
                Read::At(rng.bounded_u64(n_nodes as u64), rng.bounded_u64(2))
            } else {
                Read::Slack(
                    (0..READ_ENDPOINTS)
                        .map(|_| rng.bounded_u64(n_endpoints as u64))
                        .collect(),
                )
            }
        })
        .collect()
}

fn build_engine(threads: usize) -> (Design, RefSta, InstaEngine) {
    let design = common::block2();
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference timing graph");
    sta.full_update(&design);
    let mut engine = InstaEngine::new(sta.export_insta_init(), common::engine_cfg(TOP_K, threads))
        .expect("valid snapshot");
    engine.propagate();
    (design, sta, engine)
}

fn fresh_dir(path: &Path) {
    if path.exists() {
        std::fs::remove_dir_all(path).expect("scratch directory is removable");
    }
}

struct Setup {
    design: Design,
    sta: RefSta,
    server: Server,
}

/// Design, reference update, engine with its first propagate, and the
/// recovery and open of an empty durability directory.
fn setup(threads: usize, dir: &Path) -> Setup {
    let (design, sta, engine) = build_engine(threads);
    fresh_dir(dir);
    let (server, _) =
        Server::with_durability(engine, ServeConfig::default(), DurabilityConfig::new(dir))
            .expect("durability directory opens");
    Setup {
        design,
        sta,
        server,
    }
}

/// One sampled read: the epoch it saw and what it returned.
struct Sample {
    epoch: u64,
    read: usize,
    values: Vec<Option<f64>>,
}

/// What the reader measured.
#[derive(Default)]
struct ReaderOut {
    lat_us: Vec<f64>,
    slack_lat_us: Vec<f64>,
    load_us: Vec<f64>,
    samples: Vec<Sample>,
    failed: u64,
    monotone: bool,
}

fn connect<'s>(scope: &'s std::thread::Scope<'s, '_>, server: &Server) -> Conn {
    let (ours, theirs) = UnixStream::pair().expect("socket pair");
    let srv = server.clone();
    scope.spawn(move || {
        let r = theirs.try_clone().expect("socket clone");
        srv.handle_connection(r, theirs);
    });
    Client::new(ours.try_clone().expect("socket clone"), ours)
}

fn durability_counters(cl: &mut Conn) -> (u64, u64, u64) {
    let r = cl
        .call(Op::Stats, None, Json::Null)
        .expect("stats round-trip");
    let d = r.result.field("durability").expect("durability section");
    let g = |k: &str| d.get::<u64>(k).expect("durability counter");
    (g("fsyncs"), g("wal_bytes"), g("checkpoints_written"))
}

fn reader(
    mut cl: Conn,
    pool: &[Read],
    done: &AtomicBool,
    server: &Server,
    trace: bool,
) -> ReaderOut {
    let mut out = ReaderOut {
        monotone: true,
        ..ReaderOut::default()
    };
    let mut last_epoch = 0;
    let mut i = 0;
    while !done.load(Ordering::Acquire) {
        let k = i % pool.len();
        if trace {
            let t = Instant::now();
            std::hint::black_box(server.snapshot());
            out.load_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let (op, params) = pool[k].request();
        let t = Instant::now();
        let r = cl.call(op, None, params).expect("read round-trip");
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.lat_us.push(us);
        out.failed += u64::from(!r.ok);
        let epoch = r.result.get::<u64>("epoch").unwrap_or(u64::MAX);
        out.monotone &= epoch >= last_epoch && epoch != u64::MAX;
        last_epoch = epoch;
        let values: Vec<Option<f64>> = match &pool[k] {
            Read::Slack(_) => {
                out.slack_lat_us.push(us);
                r.result
                    .field("slacks")
                    .and_then(|a| a.as_arr())
                    .map(|a| a.iter().map(|v| v.as_f64().ok()).collect())
                    .unwrap_or_default()
            }
            Read::At(..) => vec![r.result.field("arrival").ok().and_then(|v| v.as_f64().ok())],
        };
        out.samples.push(Sample {
            epoch,
            read: k,
            values,
        });
        i += 1;
        std::thread::sleep(THINK);
    }
    out
}

/// Twin-replay stage times (per op, ms) and the encode costs (µs).
#[derive(Default)]
struct Stages {
    update: Vec<f64>,
    commit: Vec<f64>,
    capture: Vec<f64>,
    log: Vec<f64>,
    checkpoint: Vec<f64>,
    encode_update: Vec<f64>,
    encode_slacks: Vec<f64>,
}

/// What a snapshot answers to a read (the twin side of a sample).
fn answer(snap: &insta_engine::TimingSnapshot, read: &Read) -> Vec<Option<f64>> {
    match read {
        Read::Slack(eps) => eps.iter().map(|&e| snap.slack(e as usize)).collect(),
        Read::At(node, rf) => vec![snap.arrival_at(*node as u32, *rf as usize)],
    }
}

/// The epochs whose reads are compared against the twin: every epoch a
/// read saw in a traced run, else [`CHECK_EPOCHS`] of them spread evenly,
/// plus the final epoch. Ascending.
fn check_epochs(samples: &[Sample], last: u64, all: bool) -> Vec<u64> {
    let mut seen: Vec<u64> = samples.iter().map(|x| x.epoch).collect();
    seen.sort_unstable();
    seen.dedup();
    let mut out: Vec<u64> = if all || seen.len() <= CHECK_EPOCHS {
        seen
    } else {
        (0..CHECK_EPOCHS)
            .map(|i| seen[i * seen.len() / CHECK_EPOCHS])
            .collect()
    };
    out.push(last);
    out.sort_unstable();
    out.dedup();
    out
}

/// Compares every read taken at `epoch` with `snap`, the twin's state at
/// that epoch; returns how many were compared and whether all matched.
fn compare_at(
    samples: &[Sample],
    pool: &[Read],
    snap: &insta_engine::TimingSnapshot,
    epoch: u64,
) -> (usize, bool) {
    let mut n = 0;
    let mut ok = true;
    for x in samples.iter().filter(|x| x.epoch == epoch) {
        ok &= same(&x.values, &answer(snap, &pool[x.read]));
        n += 1;
    }
    (n, ok)
}

fn same(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

/// Runs the workload and fills `rep`.
pub fn run(cfg: &RunCfg, rep: &mut Report) {
    let root = PathBuf::from(SCRATCH).join(format!("serve-{}", std::process::id()));
    let dir = root.join("live");
    let (setups, s) = common::SetupTimes::before(|_| setup(cfg.threads, &dir));
    let n_ops = cfg.op_count(RATE_PER_S);
    let updates = payloads(cfg, n_ops, &s.design, &s.sta);
    let pool = reads(
        cfg,
        s.server.snapshot().num_endpoints(),
        s.sta.graph().num_nodes(),
    );
    let params: Vec<Json> = updates.iter().map(|d| update_params(d)).collect();

    let done = AtomicBool::new(false);
    let p0 = ProcSample::now();
    let (w, r, phase_s, wal0, wal1) = std::thread::scope(|scope| {
        let mut wcl = connect(scope, &s.server);
        let rcl = connect(scope, &s.server);
        let wal0 = durability_counters(&mut wcl);
        let phase = Instant::now();
        let rd = scope.spawn(|| reader(rcl, &pool, &done, &s.server, cfg.trace));
        let mut lat_ms = Vec::with_capacity(n_ops);
        let (mut failed, mut chained) = (0u64, true);
        let mut epoch = s.server.snapshot().epoch();
        for p in params {
            let t = Instant::now();
            let r = wcl.call(Op::Update, None, p).expect("update round-trip");
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(!r.ok);
            let e = r.result.get::<u64>("epoch").unwrap_or(0);
            chained &= e == epoch + 1;
            epoch = e;
        }
        done.store(true, Ordering::Release);
        let rd = rd.join().expect("reader thread");
        let phase_s = phase.elapsed().as_secs_f64();
        let wal1 = durability_counters(&mut wcl);
        ((lat_ms, failed, chained), rd, phase_s, wal0, wal1)
    });
    let proc = ProcSample::now().since(&p0);
    let peak = procfs::peak_rss_mb();
    let (lat_ms, write_failed, chained) = w;
    rep.attempted = (lat_ms.len() + r.lat_us.len()) as u64;
    rep.failed = write_failed + r.failed;
    rep.check(
        "serve_mixed.requests_succeed",
        rep.failed == 0,
        "every update and read answered ok",
    );
    rep.check(
        "serve_mixed.epochs_chain",
        chained,
        "each commit raises the epoch by exactly 1",
    );
    rep.check(
        "serve_mixed.reads_monotone",
        r.monotone,
        "the reader never saw an epoch go back",
    );

    // Twin: a fresh engine takes the same updates. Every read taken at a
    // check epoch must equal the twin's snapshot at that epoch. The
    // untraced run re-annotates and propagates only at the check epochs
    // (a full propagation is a pure function of the annotations); the
    // traced run commits every update in a session and times each stage.
    let live = s.server.snapshot();
    let check = check_epochs(&r.samples, n_ops as u64, cfg.trace);
    let (_, _, mut twin) = build_engine(cfg.threads);
    let twin_wal = cfg.trace.then(|| {
        let twin_dir = root.join("twin");
        fresh_dir(&twin_dir);
        Durability::open(DurabilityConfig::new(&twin_dir)).expect("twin durability opens")
    });
    let mut st = Stages::default();
    let mut snap = twin.snapshot();
    let (mut compared, mut samples_ok) = compare_at(&r.samples, &pool, &snap, 0);
    for (k, deltas) in updates.iter().enumerate() {
        let epoch = k as u64 + 1;
        match &twin_wal {
            None => {
                twin.reannotate(deltas).expect("estimates are valid");
                if check.binary_search(&epoch).is_ok() {
                    twin.propagate();
                    snap = twin.snapshot();
                }
            }
            Some(wal) => {
                let t = Instant::now();
                let req = Request {
                    id: epoch,
                    op: Op::Update,
                    deadline_ms: None,
                    version: None,
                    params: update_params(deltas),
                };
                std::hint::black_box(req.encode());
                st.encode_update.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                wal.log_commit(epoch, &WriterOp::Update(deltas.clone()))
                    .expect("twin wal append");
                st.log.push(ms_since(t));
                let mut session = twin.begin_session();
                let t = Instant::now();
                session.update_timing(deltas).expect("estimates are valid");
                st.update.push(ms_since(t));
                let t = Instant::now();
                session.commit().expect("session is open");
                st.commit.push(ms_since(t));
                let t = Instant::now();
                snap = twin.snapshot();
                st.capture.push(ms_since(t));
                let t = Instant::now();
                if wal.checkpoint_due() {
                    wal.write_checkpoint(&EngineDurableState::capture(&twin), &snap)
                        .expect("twin checkpoint");
                }
                st.checkpoint.push(ms_since(t));
                if let Read::Slack(eps) = &pool[0] {
                    let t = Instant::now();
                    let slacks = eps
                        .iter()
                        .map(|&e| snap.slack(e as usize).unwrap_or(f64::NAN).to_json());
                    let body = obj([
                        ("epoch", epoch.to_json()),
                        ("slacks", Json::Arr(slacks.collect())),
                    ]);
                    std::hint::black_box(body.to_string());
                    st.encode_slacks.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        if check.binary_search(&epoch).is_ok() {
            let (n, ok) = compare_at(&r.samples, &pool, &snap, epoch);
            compared += n;
            samples_ok &= ok;
        }
    }
    let live_slacks = &live.report().expect("published report").slacks;
    let twin_slacks = &snap.report().expect("twin report").slacks;
    rep.check(
        "serve_mixed.reads_match_twin",
        samples_ok && common::same_bits(live_slacks, twin_slacks) && live.epoch() == n_ops as u64,
        format!(
            "{compared} reads at {} epochs bit-identical to a twin engine",
            check.len()
        ),
    );
    drop(twin_wal);

    // Recovery: a new daemon over the same directory publishes the live
    // daemon's final slacks.
    drop(s);
    let (_, _, engine) = build_engine(cfg.threads);
    let (recovered, report) =
        Server::with_durability(engine, ServeConfig::default(), DurabilityConfig::new(&dir))
            .expect("durability directory reopens");
    let rs = recovered.snapshot();
    let rec_ok = report.recovered_epoch == n_ops as u64
        && common::same_bits(&rs.report().expect("recovered report").slacks, live_slacks);
    rep.check(
        "serve_mixed.recovery_matches_live",
        rec_ok,
        format!(
            "recovered epoch {} (checkpoint {:?}, {} replayed)",
            report.recovered_epoch, report.checkpoint_epoch, report.replayed
        ),
    );
    drop(recovered);
    let setup_s = (!cfg.trace)
        .then(|| setups.after(|rep| setup(cfg.threads, &root.join(format!("setup-{rep}")))));
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(SCRATCH); // only when no other run uses it

    let n = n_ops as f64;
    if let Some(setup_s) = setup_s {
        rep.set_end_to_end(setup_s, &lat_ms, &r.lat_us, n / phase_s, peak);
        return;
    }
    let mean = stats::mean;
    let staged = mean(&st.update)
        + mean(&st.commit)
        + mean(&st.capture)
        + mean(&st.log)
        + mean(&st.checkpoint);
    rep.set("session.update_timing_ms", mean(&st.update));
    rep.set("session.commit_ms", mean(&st.commit));
    rep.set("snapshot.capture_ms", mean(&st.capture));
    rep.set("wal.log_commit_ms", mean(&st.log));
    rep.set("wal.checkpoint_ms", mean(&st.checkpoint));
    rep.set("wal.checkpoints_per_op", (wal1.2 - wal0.2) as f64 / n);
    rep.set("wal.fsyncs_per_op", (wal1.0 - wal0.0) as f64 / n);
    rep.set("wal.bytes_per_op", (wal1.1 - wal0.1) as f64 / n);
    rep.set("json.encode_update_us", mean(&st.encode_update));
    rep.set("json.encode_slacks_us", mean(&st.encode_slacks));
    rep.set("snapshot.load_us", mean(&r.load_us));
    rep.set("serve.residual_ms", mean(&lat_ms) - staged);
    rep.set(
        "serve.read_residual_us",
        mean(&r.slack_lat_us) - mean(&r.load_us) - mean(&st.encode_slacks),
    );
    rep.set("traced.op_p50_ms", stats::median(&lat_ms));
    rep.set_process(&proc, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    fn cfg(seed: u64) -> RunCfg {
        RunCfg {
            seed,
            seconds: 10,
            trace: false,
            threads: 1,
        }
    }

    fn encoded(seed: u64, design: &Design, sta: &RefSta) -> Vec<String> {
        payloads(&cfg(seed), 30, design, sta)
            .iter()
            .map(|d| update_params(d).to_string())
            .collect()
    }

    #[test]
    fn same_seed_same_payload_bytes_other_seed_other_bytes() {
        let design = generate_design(&GeneratorConfig::small("payloads", 4));
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("graph");
        sta.full_update(&design);
        let a = encoded(11, &design, &sta);
        assert_eq!(a, encoded(11, &design, &sta));
        assert_ne!(a, encoded(12, &design, &sta));
        assert!(a.iter().all(|p| p.starts_with("{\"deltas\":[{\"arc\":")));
    }

    #[test]
    fn read_pool_is_seeded_and_three_to_one() {
        let a = reads(&cfg(1), 500, 9000);
        assert_eq!(a, reads(&cfg(1), 500, 9000));
        assert_ne!(a, reads(&cfg(2), 500, 9000));
        let at = a.iter().filter(|r| matches!(r, Read::At(..))).count();
        assert_eq!(at * 4, a.len());
    }
}
