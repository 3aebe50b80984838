//! `place_refresh`: the Fig. 9 timing refresh of INSTA-Place.
//!
//! One op moves a seeded [`MOVE_FRACTION`] of the cells of `superblue10`
//! and calls `refresh_timing(.., TimingMode::InstaPlace, ..)`: wire
//! update, reference full update, snapshot export plus `InstaEngine::new`
//! (the "transfer"), and the batched gradient lane. All of it is
//! full-graph work; no session and no corner lane is involved.

use crate::common::{self, ms_since, RunCfg};
use crate::procfs::{self, ProcSample};
use crate::report::Report;
use crate::stats;
use insta_engine::{BatchOptions, DeltaSet, InstaEngine};
use insta_netlist::{Design, TimingArcKind};
use insta_placer::{refresh_timing, PlacementDb, TimingMode};
use insta_refsta::{RefSta, StaConfig};
use std::time::Instant;

/// Share of the cells moved per op.
pub const MOVE_FRACTION: f64 = 0.01;
/// Largest move along each axis, as a share of the region side.
pub const MAX_MOVE_FRACTION: f64 = 0.02;
/// Target utilization of the initial random placement.
pub const UTILIZATION: f64 = 0.6;
/// Seed of the initial placement (the subject, not the op sequence).
const PLACEMENT_SEED: u64 = 310;
/// Top-K queue capacity of the engine.
pub const TOP_K: usize = 32;
/// Nominal ops per second of the timed phase.
const RATE_PER_S: f64 = 12.0;
/// Seeded `report_timing` reads after each op.
const READS_PER_OP: usize = 16;

/// One cell move: cell index and displacement (µm).
pub type Move = (u32, f64, f64);

/// The seeded op sequence: per op, the moves of `ceil(MOVE_FRACTION ·
/// n_cells)` cells in a `region_w` × `region_h` region.
pub fn plan(
    cfg: &RunCfg,
    n: usize,
    n_cells: usize,
    region_w: f64,
    region_h: f64,
) -> Vec<Vec<Move>> {
    let mut rng = cfg.rng("place_refresh.moves");
    let per_op = (MOVE_FRACTION * n_cells as f64).ceil() as usize;
    let (mx, my) = (MAX_MOVE_FRACTION * region_w, MAX_MOVE_FRACTION * region_h);
    (0..n)
        .map(|_| {
            (0..per_op)
                .map(|_| {
                    let cell = rng.bounded_u64(n_cells as u64) as u32;
                    let dx = (rng.next_f64() * 2.0 - 1.0) * mx;
                    let dy = (rng.next_f64() * 2.0 - 1.0) * my;
                    (cell, dx, dy)
                })
                .collect()
        })
        .collect()
}

fn apply(db: &mut PlacementDb, moves: &[Move]) {
    for &(c, dx, dy) in moves {
        db.x[c as usize] += dx;
        db.y[c as usize] += dy;
    }
    db.clamp_to_region();
}

struct Setup {
    design: Design,
    db: PlacementDb,
    sta: RefSta,
}

/// Design, initial placement and wires, the reference full update, and
/// one engine construction with its first propagate.
fn setup(threads: usize) -> Setup {
    let mut design = common::superblue10();
    let db = PlacementDb::random(&design, UTILIZATION, PLACEMENT_SEED);
    db.update_wires(&mut design);
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference timing graph");
    sta.full_update(&design);
    let mut engine = InstaEngine::new(sta.export_insta_init(), common::engine_cfg(TOP_K, threads))
        .expect("valid snapshot");
    std::hint::black_box(engine.propagate().tns_ps);
    Setup { design, db, sta }
}

/// The arc weights `refresh_timing` derives from per-graph-arc gradients.
fn weights(sta: &RefSta, grads: &[f64]) -> Vec<(u32, u32, u64)> {
    let graph = sta.graph();
    graph
        .arcs()
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.kind, TimingArcKind::Net { .. }))
        .filter(|(ai, _)| grads[*ai].abs() != 0.0)
        .map(|(ai, a)| {
            (
                graph.pin_of(a.from).0,
                graph.pin_of(a.to).0,
                grads[ai].abs().to_bits(),
            )
        })
        .collect()
}

/// Per-op stage times (ms) of the decomposed refresh.
#[derive(Default)]
struct Stages {
    wires: Vec<f64>,
    full: Vec<f64>,
    export: Vec<f64>,
    new: Vec<f64>,
    grad_lane: Vec<f64>,
    forward: Vec<f64>,
    lse: Vec<f64>,
    backward: Vec<f64>,
}

/// The refresh as its public calls, each timed, followed by a serial
/// `propagate` → `forward_lse` → `backward_tns` twin of the gradient
/// lane. Returns whether the lane's weights equal the twin's and the
/// engine's correlation with the reference.
fn decomposed(s: &mut Setup, threads: usize, st: &mut Stages) -> (bool, f64) {
    let t = Instant::now();
    s.db.update_wires(&mut s.design);
    st.wires.push(ms_since(t));
    let t = Instant::now();
    s.sta.full_update(&s.design);
    st.full.push(ms_since(t));
    let t = Instant::now();
    let init = s.sta.export_insta_init();
    st.export.push(ms_since(t));
    let t = Instant::now();
    let mut engine =
        InstaEngine::new(init, common::engine_cfg(TOP_K, threads)).expect("valid snapshot");
    st.new.push(ms_since(t));
    let opts = BatchOptions {
        gradients: true,
        ..BatchOptions::default()
    };
    let t = Instant::now();
    let lane = engine
        .evaluate_batch_with(&[DeltaSet::default()], &opts)
        .pop();
    st.grad_lane.push(ms_since(t));
    let lane_grads = lane.and_then(|r| r.gradients).unwrap_or_default();

    let t = Instant::now();
    let slacks = engine.propagate().slacks.clone();
    st.forward.push(ms_since(t));
    let t = Instant::now();
    engine.forward_lse();
    st.lse.push(ms_since(t));
    let t = Instant::now();
    engine.backward_tns();
    st.backward.push(ms_since(t));
    let serial = engine.arc_gradients();
    let same = lane_grads.len() == serial.len()
        && weights(&s.sta, &lane_grads) == weights(&s.sta, &serial);
    let golden: Vec<f64> = s
        .sta
        .report()
        .endpoints
        .iter()
        .map(|e| e.slack_ps)
        .collect();
    (same, common::slack_correlation(&slacks, &golden))
}

/// Runs the workload and fills `rep`.
pub fn run(cfg: &RunCfg, rep: &mut Report) {
    let (setups, mut s) = common::SetupTimes::before(|_| setup(cfg.threads));
    let n_ops = cfg.op_count(RATE_PER_S);
    let ops = plan(cfg, n_ops + 1, s.db.x.len(), s.db.region_w, s.db.region_h);
    let (timed, check) = ops.split_at(n_ops);
    let eps = common::finite_endpoints(&s.sta);
    let mut read_rng = cfg.rng("place_refresh.reads");
    let icfg = common::engine_cfg(TOP_K, cfg.threads);

    // Traced: a twin set-up takes the same moves right after each op and
    // re-issues the refresh one public call at a time, so that the stages
    // are timed in the same stretch of the run as the op they explain.
    let mut twin = cfg.trace.then(|| setup(cfg.threads));
    let mut st = Stages::default();
    let (mut twin_same, mut twin_corr) = (true, f64::INFINITY);
    let mut twin_proc = ProcSample::default();

    let mut lat_ms = Vec::with_capacity(n_ops);
    let mut read_us = Vec::with_capacity(n_ops * READS_PER_OP);
    let (mut weights_ok, mut reads_ok) = (true, true);
    let p0 = ProcSample::now();
    let phase = Instant::now();
    for moves in timed {
        let t = Instant::now();
        apply(&mut s.db, moves);
        let r = refresh_timing(
            &mut s.design,
            &s.db,
            &mut s.sta,
            TimingMode::InstaPlace,
            &icfg,
        );
        lat_ms.push(ms_since(t));
        rep.attempted += 1;
        let ok = !r.degraded && (r.tns_ps >= 0.0 || !r.arc_weights.is_empty());
        if !ok {
            rep.failed += 1;
        }
        weights_ok &= ok;
        if let Some(tw) = twin.as_mut() {
            let before = ProcSample::now();
            apply(&mut tw.db, moves);
            let (same, corr) = decomposed(tw, cfg.threads, &mut st);
            twin_proc = twin_proc.plus(&ProcSample::now().since(&before));
            twin_same &= same;
            twin_corr = twin_corr.min(corr);
        }
        for _ in 0..READS_PER_OP {
            let ep = eps[read_rng.bounded_u64(eps.len() as u64) as usize];
            let (us, ok) = common::timed_path_read(&s.sta, &s.design, ep);
            read_us.push(us);
            reads_ok &= ok;
        }
    }
    let phase_s = phase.elapsed().as_secs_f64();
    // The process counters of the ops alone: the twin's share is taken out.
    let proc = ProcSample::now().since(&p0).since(&twin_proc);
    let peak = procfs::peak_rss_mb();
    rep.check(
        "place_refresh.refresh_succeeds",
        weights_ok,
        "no degraded refresh; weights present",
    );
    rep.check("place_refresh.reads", reads_ok, "every read traced a path");

    // The check op: the next seeded refresh, its weights against a
    // serial gradient on the same export.
    apply(&mut s.db, &check[0]);
    let r = refresh_timing(
        &mut s.design,
        &s.db,
        &mut s.sta,
        TimingMode::InstaPlace,
        &icfg,
    );
    let got: Vec<(u32, u32, u64)> = r
        .arc_weights
        .iter()
        .map(|w| (w.from.0, w.to.0, w.weight.to_bits()))
        .collect();
    let mut serial =
        InstaEngine::new(s.sta.export_insta_init(), icfg.clone()).expect("valid snapshot");
    let slacks = serial.propagate().slacks.clone();
    serial.forward_lse();
    serial.backward_tns();
    let want = weights(&s.sta, &serial.arc_gradients());
    rep.check(
        "place_refresh.weights_equal_serial_gradient",
        !got.is_empty() && got == want,
        format!(
            "{} arc weights bit-identical to |dTNS| of a serial backward",
            got.len()
        ),
    );
    let golden: Vec<f64> = s
        .sta
        .report()
        .endpoints
        .iter()
        .map(|e| e.slack_ps)
        .collect();
    let corr = common::slack_correlation(&slacks, &golden);
    rep.check(
        "place_refresh.reference_correlation",
        corr >= 0.999,
        format!("pearson {corr:.6}"),
    );

    let n = n_ops as f64;
    if !cfg.trace {
        drop(s);
        let setup_s = setups.after(|_| setup(cfg.threads));
        rep.set_end_to_end(setup_s, &lat_ms, &read_us, n / phase_s, peak);
        return;
    }
    drop(twin);
    rep.check(
        "place_refresh.twin_weights_equal_serial",
        twin_same && twin_corr >= 0.999,
        format!("every twin refresh; min pearson {twin_corr:.6}"),
    );
    let mean = |v: &[f64]| stats::mean(v);
    let staged =
        mean(&st.wires) + mean(&st.full) + mean(&st.export) + mean(&st.new) + mean(&st.grad_lane);
    rep.set("placer.update_wires_ms", mean(&st.wires));
    rep.set("refsta.full_update_ms", mean(&st.full));
    rep.set("refsta.export_ms", mean(&st.export));
    rep.set("engine.new_ms", mean(&st.new));
    rep.set("batch.gradient_lane_ms", mean(&st.grad_lane));
    rep.set("forward.propagate_ms", mean(&st.forward));
    rep.set("lse.forward_lse_ms", mean(&st.lse));
    rep.set("backward.backward_tns_ms", mean(&st.backward));
    rep.set("place.residual_ms", stats::mean(&lat_ms) - staged);
    rep.set("traced.op_p50_ms", stats::median(&lat_ms));
    rep.set_process(&proc, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> RunCfg {
        RunCfg {
            seed,
            seconds: 10,
            trace: false,
            threads: 1,
        }
    }

    #[test]
    fn same_seed_same_moves_other_seed_other_moves() {
        let bytes = |p: &[Vec<Move>]| -> Vec<u8> {
            p.iter()
                .flatten()
                .flat_map(|&(c, x, y)| {
                    [
                        c.to_le_bytes().to_vec(),
                        x.to_le_bytes().to_vec(),
                        y.to_le_bytes().to_vec(),
                    ]
                    .concat()
                })
                .collect()
        };
        let a = plan(&cfg(5), 20, 1000, 300.0, 200.0);
        assert_eq!(bytes(&a), bytes(&plan(&cfg(5), 20, 1000, 300.0, 200.0)));
        assert_ne!(bytes(&a), bytes(&plan(&cfg(6), 20, 1000, 300.0, 200.0)));
        assert!(a.iter().all(|m| m.len() == 10));
        assert!(a
            .iter()
            .flatten()
            .all(|&(c, x, y)| c < 1000 && x.abs() <= 6.0 && y.abs() <= 4.0));
    }
}
