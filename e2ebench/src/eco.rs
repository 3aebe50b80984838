//! `eco_mcmm`: the INSTA-Size inner loop with worst-corner ranking.
//!
//! One op resizes one seeded cell:
//! 1. `estimate_eco` for each of its [`ALTERNATIVES`] family members;
//! 2. one `evaluate_mcmm` scoring every alternative over
//!    [`CORNERS`] × [`MODES`] (modes are disjoint endpoint halves, so
//!    mode dedup and the worst-corner merge both run) and ranking the
//!    alternatives by worst-corner TNS;
//! 3. the seeded alternative is committed: the design is resized,
//!    `RefSta::incremental_update` re-times it, and the stage's exact
//!    delays go into the engine through a `TimingSession`.

use crate::common::{self, ms_since, RunCfg};
use crate::procfs::{self, ProcSample};
use crate::report::Report;
use crate::stats;
use insta_engine::{CornerTransform, EngineCounters, InstaEngine, McmmReport, ModeMask, Scenario};
use insta_liberty::{GateClass, LibCellId};
use insta_netlist::{CellId, Design, TimingArcKind};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{estimate_eco, RefSta, StaConfig};
use std::time::Instant;

/// Alternative sizes scored per op.
pub const ALTERNATIVES: usize = 3;
/// Analysis corners: nominal, slow (slower and more variable), and a
/// fast corner with an offset.
pub const CORNERS: [CornerTransform; 3] = [
    CornerTransform::IDENTITY,
    CornerTransform {
        mean_scale: 1.06,
        mean_offset_ps: 0.0,
        sigma_scale: 1.15,
        sigma_offset_ps: 0.0,
    },
    CornerTransform {
        mean_scale: 0.94,
        mean_offset_ps: 2.0,
        sigma_scale: 1.05,
        sigma_offset_ps: 0.0,
    },
];
/// Functional modes. Mode `m` disables the endpoints with `ep % 4 == m`,
/// and both disable `ep % 4 == 3` (false paths in every mode), so the
/// merge must leave those endpoints uncovered and a merge that ignored
/// the masks would show.
pub const MODES: usize = 2;
/// Top-K queue capacity of the engine.
pub const TOP_K: usize = 8;
/// Nominal ops per second of the timed phase.
const RATE_PER_S: f64 = 10.0;
/// Seeded `report_timing` reads after each op.
const READS_PER_OP: usize = 16;
/// Ops whose lanes are compared against serial twins after the phase.
const CHECK_OPS: usize = 2;

/// One seeded op: which candidate cell to resize and which of its
/// alternatives to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcoOp {
    /// Index into the candidate-cell list.
    pub candidate: u32,
    /// Index of the committed alternative.
    pub pick: u8,
}

/// The seeded op sequence: `n` ops over `n_candidates` cells.
pub fn plan(cfg: &RunCfg, n: usize, n_candidates: usize) -> Vec<EcoOp> {
    let mut rng = cfg.rng("eco_mcmm.ops");
    (0..n)
        .map(|_| EcoOp {
            candidate: rng.bounded_u64(n_candidates as u64) as u32,
            pick: rng.bounded_u64(ALTERNATIVES as u64) as u8,
        })
        .collect()
}

/// Combinational, non-clock cells whose family offers at least
/// [`ALTERNATIVES`] other sizes.
pub fn candidates(design: &Design) -> Vec<CellId> {
    let lib = design.library();
    (0..design.cells().len() as u32)
        .map(CellId)
        .filter(|&c| {
            let lc = design.lib_cell_of(c);
            lc.class.is_combinational()
                && lc.class != GateClass::ClkBuf
                && lib.family(lc.class).len() > ALTERNATIVES
        })
        .collect()
}

/// The first [`ALTERNATIVES`] family members other than the current size.
fn alternatives(design: &Design, cell: CellId) -> Vec<LibCellId> {
    let cur = design.cell(cell).lib_cell;
    let class = design.lib_cell_of(cell).class;
    design
        .library()
        .family(class)
        .iter()
        .copied()
        .filter(|&lc| lc != cur)
        .take(ALTERNATIVES)
        .collect()
}

/// The mode masks over `n_ep` endpoints.
fn mode_masks(n_ep: usize) -> Vec<ModeMask> {
    (0..MODES)
        .map(|m| ModeMask::disabling((0..n_ep).filter(|ep| ep % 4 == m || ep % 4 == 3)))
        .collect()
}

/// Every alternative × corner × mode, alternative-major.
fn scenarios(ests: &[Vec<ArcDelta>], masks: &[ModeMask]) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(ests.len() * CORNERS.len() * masks.len());
    for deltas in ests {
        for &c in &CORNERS {
            for m in masks {
                out.push(
                    Scenario::from(deltas.clone())
                        .with_corner(c)
                        .with_mode(m.clone()),
                );
            }
        }
    }
    out
}

/// Worst-corner TNS per alternative (per corner, the modes' masked TNS
/// summed) and the best alternative.
fn rank(mcmm: &McmmReport) -> Option<usize> {
    let per_alt = CORNERS.len() * MODES;
    let mut best: Option<(usize, f64)> = None;
    for (k, group) in mcmm.scenarios.chunks(per_alt).enumerate() {
        let mut worst = f64::INFINITY;
        for corner in group.chunks(MODES) {
            let tns: f64 = corner
                .iter()
                .map(|s| s.outcome.as_ref().map_or(f64::NEG_INFINITY, |r| r.tns_ps))
                .sum();
            worst = worst.min(tns);
        }
        if best.is_none_or(|(_, b)| worst > b) {
            best = Some((k, worst));
        }
    }
    best.map(|(k, _)| k)
}

/// The merge property: each merged slack is the minimum over the lanes
/// in which the endpoint is mode-enabled.
fn merged_is_min(mcmm: &McmmReport, scen: &[Scenario]) -> bool {
    for (ep, &merged) in mcmm.merged_slacks.iter().enumerate() {
        let mut want = f64::INFINITY;
        for (s, sc) in mcmm.scenarios.iter().zip(scen) {
            let Ok(r) = &s.outcome else { return false };
            if sc.mode.as_ref().is_some_and(|m| m.is_disabled(ep)) {
                continue;
            }
            want = want.min(r.slacks[ep]);
        }
        if want.to_bits() != merged.to_bits() {
            return false;
        }
    }
    true
}

/// The graph arcs of a cell's stage: its cell arcs and the net arcs it
/// drives (what the sizer re-syncs from the reference after a commit).
fn stage_arcs(design: &Design, sta: &RefSta, cell: CellId) -> Vec<u32> {
    let graph = sta.graph();
    let mut arcs = Vec::new();
    for &pin in &design.cell(cell).pins {
        let Some(node) = graph.node_of(pin) else {
            continue;
        };
        arcs.extend_from_slice(graph.fanin(node));
        if design.pin(pin).is_driver() {
            arcs.extend(
                graph
                    .fanout(node)
                    .iter()
                    .copied()
                    .filter(|&ai| matches!(graph.arc(ai).kind, TimingArcKind::Net { .. })),
            );
        }
    }
    arcs
}

/// The reference timer's current annotation of the given arcs.
fn golden_deltas(sta: &RefSta, arcs: &[u32]) -> Vec<ArcDelta> {
    let d = sta.delays();
    arcs.iter()
        .map(|&a| ArcDelta {
            arc: a,
            mean: d.mean[a as usize],
            sigma: d.sigma[a as usize],
        })
        .collect()
}

/// Everything a user pays before the first op.
struct Setup {
    design: Design,
    sta: RefSta,
    engine: InstaEngine,
}

fn setup(threads: usize) -> Setup {
    let design = common::block5();
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference timing graph");
    sta.full_update(&design);
    let mut engine = InstaEngine::new(sta.export_insta_init(), common::engine_cfg(TOP_K, threads))
        .expect("valid snapshot");
    engine.propagate();
    Setup {
        design,
        sta,
        engine,
    }
}

/// Per-op stage times (ms) of a traced op.
#[derive(Default)]
struct Stages {
    estimate: Vec<f64>,
    mcmm: Vec<f64>,
    incremental: Vec<f64>,
    update: Vec<f64>,
    commit: Vec<f64>,
}

/// What one op produced, for the checks.
struct OpOut {
    scen: Vec<Scenario>,
    mcmm: McmmReport,
    committed: Vec<ArcDelta>,
}

/// One op. With `stages`, each public call is timed on its own.
fn run_op(
    s: &mut Setup,
    cells: &[CellId],
    masks: &[ModeMask],
    op: EcoOp,
    mut stages: Option<&mut Stages>,
) -> OpOut {
    let cell = cells[op.candidate as usize];
    let alts = alternatives(&s.design, cell);
    let t = Instant::now();
    let ests: Vec<Vec<ArcDelta>> = alts
        .iter()
        .map(|&lc| estimate_eco(&s.design, &s.sta, cell, lc).arc_deltas)
        .collect();
    let scen = scenarios(&ests, masks);
    if let Some(st) = stages.as_deref_mut() {
        st.estimate.push(ms_since(t));
    }
    let t = Instant::now();
    let mcmm = s.engine.evaluate_mcmm(&scen);
    if let Some(st) = stages.as_deref_mut() {
        st.mcmm.push(ms_since(t));
    }
    std::hint::black_box(rank(&mcmm));
    let t = Instant::now();
    s.design.resize_cell(cell, alts[op.pick as usize]);
    s.sta.incremental_update(&s.design, &[cell]);
    if let Some(st) = stages.as_deref_mut() {
        st.incremental.push(ms_since(t));
    }
    let committed = golden_deltas(&s.sta, &stage_arcs(&s.design, &s.sta, cell));
    let mut session = s.engine.begin_session();
    let t = Instant::now();
    session
        .update_timing(&committed)
        .expect("exact reference delays are valid");
    if let Some(st) = stages.as_deref_mut() {
        st.update.push(ms_since(t));
    }
    let t = Instant::now();
    session.commit().expect("session is open");
    if let Some(st) = stages {
        st.commit.push(ms_since(t));
    }
    OpOut {
        scen,
        mcmm,
        committed,
    }
}

/// Runs the workload and fills `rep`.
pub fn run(cfg: &RunCfg, rep: &mut Report) {
    let (setups, mut s) = common::SetupTimes::before(|_| setup(cfg.threads));
    let cells = candidates(&s.design);
    let n_ops = cfg.op_count(RATE_PER_S);
    let ops = plan(cfg, n_ops + CHECK_OPS, cells.len());
    let (timed, check_ops) = ops.split_at(n_ops);
    let eps = common::finite_endpoints(&s.sta);
    let mut read_rng = cfg.rng("eco_mcmm.reads");
    let masks = mode_masks(s.engine.num_endpoints());

    let mut stages = cfg.trace.then(Stages::default);
    let mut lat_ms = Vec::with_capacity(n_ops);
    let mut read_us = Vec::with_capacity(n_ops * READS_PER_OP);
    let mut committed_log: Vec<Vec<ArcDelta>> = Vec::with_capacity(n_ops);
    let (mut merge_ok, mut lanes_ok, mut reads_ok) = (true, true, true);
    let c0: EngineCounters = s.engine.counters();
    let p0 = ProcSample::now();
    let phase = Instant::now();
    for &op in timed {
        let t = Instant::now();
        let out = run_op(&mut s, &cells, &masks, op, stages.as_mut());
        lat_ms.push(ms_since(t));
        rep.attempted += 1;
        let ok = out.mcmm.scenarios.iter().all(|r| r.outcome.is_ok());
        if !ok {
            rep.failed += 1;
        }
        lanes_ok &= ok;
        merge_ok &= merged_is_min(&out.mcmm, &out.scen);
        committed_log.push(out.committed);
        for _ in 0..READS_PER_OP {
            let ep = eps[read_rng.bounded_u64(eps.len() as u64) as usize];
            let (us, ok) = common::timed_path_read(&s.sta, &s.design, ep);
            read_us.push(us);
            reads_ok &= ok;
        }
    }
    let phase_s = phase.elapsed().as_secs_f64();
    let proc = ProcSample::now().since(&p0);
    let peak = procfs::peak_rss_mb();
    let c1 = s.engine.counters();
    rep.check(
        "eco_mcmm.lanes_succeed",
        lanes_ok,
        "every alternative x corner x mode lane",
    );
    rep.check(
        "eco_mcmm.merged_is_min",
        merge_ok,
        "merged slack = min over mode-enabled lanes",
    );
    rep.check("eco_mcmm.reads", reads_ok, "every read traced a path");

    // The replay check verifies the state the timed phase left, so it
    // runs before the twin check's rolled-back sessions.
    check_replay(&s, &committed_log, cfg.threads, rep);
    check_twins(&mut s, &cells, &masks, check_ops, rep);
    let corr = {
        let mut fresh = InstaEngine::new(
            s.sta.export_insta_init(),
            common::engine_cfg(TOP_K, cfg.threads),
        )
        .expect("valid snapshot");
        let golden: Vec<f64> = s
            .sta
            .report()
            .endpoints
            .iter()
            .map(|e| e.slack_ps)
            .collect();
        common::slack_correlation(&fresh.propagate().slacks, &golden)
    };
    rep.check(
        "eco_mcmm.reference_correlation",
        corr >= 0.999,
        format!("pearson {corr:.6}"),
    );

    let n = n_ops as f64;
    if let Some(st) = stages {
        let sum = |v: &[f64]| v.iter().sum::<f64>() / n;
        let staged = sum(&st.estimate)
            + sum(&st.mcmm)
            + sum(&st.incremental)
            + sum(&st.update)
            + sum(&st.commit);
        rep.set("refsta.estimate_eco_ms", sum(&st.estimate));
        rep.set("batch.evaluate_mcmm_ms", sum(&st.mcmm));
        rep.set("refsta.incremental_update_ms", sum(&st.incremental));
        rep.set("session.update_timing_ms", sum(&st.update));
        rep.set("session.commit_ms", sum(&st.commit));
        rep.set("eco.residual_ms", stats::mean(&lat_ms) - staged);
        rep.set("traced.op_p50_ms", stats::median(&lat_ms));
        rep.set(
            "batch.lanes_per_op",
            (c1.batch_scenarios - c0.batch_scenarios) as f64 / n,
        );
        let propagated = |c: &EngineCounters| c.batch_scenarios - c.mcmm_deduped;
        rep.set(
            "batch.propagated_lanes_per_op",
            (propagated(&c1) - propagated(&c0)) as f64 / n,
        );
        rep.set_process(&proc, n);
    } else {
        drop(s);
        let setup_s = setups.after(|_| setup(cfg.threads));
        rep.set_end_to_end(setup_s, &lat_ms, &read_us, n / phase_s, peak);
    }
}

/// After the phase: the next seeded ops' lanes against their serial
/// twins (`scenario_twin_deltas` in a session, masked, rolled back).
fn check_twins(
    s: &mut Setup,
    cells: &[CellId],
    masks: &[ModeMask],
    ops: &[EcoOp],
    rep: &mut Report,
) {
    let mut compared = 0;
    let mut ok = true;
    for &op in ops {
        let before = s.engine.report().clone();
        let cell = cells[op.candidate as usize];
        let ests: Vec<Vec<ArcDelta>> = alternatives(&s.design, cell)
            .iter()
            .map(|&lc| estimate_eco(&s.design, &s.sta, cell, lc).arc_deltas)
            .collect();
        let scen = scenarios(&ests, masks);
        let mcmm = s.engine.evaluate_mcmm(&scen);
        // One lane per corner and mode, across the alternatives.
        for (i, sc) in scen.iter().enumerate().step_by(5) {
            let twin = s.engine.scenario_twin_deltas(sc);
            let mut session = s.engine.begin_session();
            let serial = session.update_timing(&twin).expect("twin deltas are valid");
            let serial = match &sc.mode {
                Some(m) => serial.masked(m),
                None => serial,
            };
            session.rollback();
            let lane = mcmm.scenarios[i].outcome.as_ref().expect("lane succeeded");
            ok &= common::same_bits(&lane.slacks, &serial.slacks)
                && lane.tns_ps.to_bits() == serial.tns_ps.to_bits()
                && lane.wns_ps.to_bits() == serial.wns_ps.to_bits();
            compared += 1;
        }
        let after = s.engine.report();
        ok &= common::same_bits(&after.slacks, &before.slacks)
            && after.tns_ps.to_bits() == before.tns_ps.to_bits();
        ok &= merged_is_min(&mcmm, &scen);
    }
    rep.check(
        "eco_mcmm.lanes_match_serial_twins",
        ok,
        format!("{compared} lanes compared with serial twins; rollbacks restore the base"),
    );
}

/// After the phase: a fresh engine re-annotated with every committed
/// delta and fully propagated equals the incrementally updated one.
fn check_replay(s: &Setup, log: &[Vec<ArcDelta>], threads: usize, rep: &mut Report) {
    let base = setup(threads);
    let mut fresh = base.engine;
    for deltas in log {
        fresh
            .reannotate(deltas)
            .expect("committed deltas are valid");
    }
    let a = fresh.propagate().clone();
    let b = s.engine.report();
    let mut ok = common::same_bits(&a.slacks, &b.slacks)
        && common::same_bits(&a.arrivals, &b.arrivals)
        && a.tns_ps.to_bits() == b.tns_ps.to_bits();
    let (sa, sb) = (fresh.snapshot(), s.engine.snapshot());
    let nodes = s.sta.graph().num_nodes() as u32;
    for node in 0..nodes {
        for rf in 0..2 {
            let (x, y) = (sa.arrival_at(node, rf), sb.arrival_at(node, rf));
            ok &= x.map(f64::to_bits) == y.map(f64::to_bits);
        }
    }
    rep.check(
        "eco_mcmm.incremental_equals_fresh",
        ok,
        format!(
            "{} commits replayed; report and {} node arrivals bit-identical",
            log.len(),
            nodes
        ),
    );
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
    fn same_seed_same_ops_other_seed_other_ops() {
        let a = plan(&cfg(1), 200, 5000);
        assert_eq!(a, plan(&cfg(1), 200, 5000));
        assert_ne!(a, plan(&cfg(2), 200, 5000));
        assert!(a
            .iter()
            .all(|op| op.candidate < 5000 && usize::from(op.pick) < ALTERNATIVES));
    }

    #[test]
    fn a_longer_run_extends_the_same_sequence() {
        let short = plan(&cfg(3), 50, 100);
        let long = plan(&cfg(3), 80, 100);
        assert_eq!(short[..], long[..50]);
    }
}
