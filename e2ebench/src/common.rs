//! Shared plumbing: run settings, the fixed subject designs, engine
//! settings, set-up timing, and the seeded endpoint reads.

use crate::stats::{self, MIN_P90_SAMPLES};
use insta_bench::{block_specs, superblue_specs};
use insta_engine::{DriftPolicy, InstaConfig};
use insta_netlist::Design;
use insta_refsta::{EpId, RefSta};
use insta_support::Rng;
use std::time::Instant;

/// Settings of one benchmark run, from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: the op sequence and its payloads derive from it.
    pub seed: u64,
    /// Nominal length of the timed phase (s); sets the op count.
    pub seconds: u64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Worker threads of every engine (never 0, "all cores").
    pub threads: usize,
}

impl RunCfg {
    /// The op count of the timed phase: `rate · seconds`, at least
    /// [`MIN_P90_SAMPLES`] so that p90 has ten samples beyond it. It
    /// depends on the command line only, never on measured time, so both
    /// sides of a comparison run the same ops.
    pub fn op_count(&self, rate_per_s: f64) -> usize {
        ((self.seconds as f64 * rate_per_s).round() as usize).max(MIN_P90_SAMPLES)
    }

    /// A generator for one named stream of this run's inputs.
    pub fn rng(&self, stream: &str) -> Rng {
        Rng::seed_from_u64(stream_seed(self.seed, stream))
    }
}

/// Mixes a stream name into the run seed (FNV-1a over the name), so the
/// op sequence, read targets and payloads draw from independent streams.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Identical set-ups run per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// How many of them run before the timed phase; the rest run after it,
/// so the median spans the whole run rather than one moment of it.
pub const SETUP_REPS_BEFORE: usize = 8;

/// Set-up durations (s) collected around the timed phase.
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs `build` [`SETUP_REPS_BEFORE`] times, dropping each product
    /// before the next build, and returns the times with the last product.
    pub fn before<T>(mut build: impl FnMut(usize) -> T) -> (Self, T) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for rep in 0..SETUP_REPS_BEFORE {
            drop(last.take());
            let t = Instant::now();
            last = Some(build(rep));
            times.push(t.elapsed().as_secs_f64());
        }
        (SetupTimes(times), last.expect("at least one set-up"))
    }

    /// Runs the remaining set-ups and returns the median of all of them.
    pub fn after<T>(mut self, mut build: impl FnMut(usize) -> T) -> f64 {
        for rep in SETUP_REPS_BEFORE..SETUP_REPS {
            let t = Instant::now();
            drop(build(rep));
            self.0.push(t.elapsed().as_secs_f64());
        }
        stats::median(&self.0)
    }
}

/// The `eco_mcmm` subject: the Table-I `block-5`.
pub fn block5() -> Design {
    block_specs()[4].build()
}

/// The `serve_mixed` subject: the Table-I `block-2`.
pub fn block2() -> Design {
    block_specs()[1].build()
}

/// The `place_refresh` subject: `superblue10`, the Fig. 9 design.
pub fn superblue10() -> Design {
    superblue_specs()
        .into_iter()
        .find(|s| s.name == "superblue10")
        .expect("superblue10 is a Table-III instance")
        .build()
}

/// Engine settings shared by every workload: an explicit thread count
/// and no drift budget, so no op takes the degraded full-refresh path
/// on some seeds and not on others.
pub fn engine_cfg(top_k: usize, threads: usize) -> InstaConfig {
    InstaConfig {
        top_k,
        n_threads: threads,
        drift_policy: DriftPolicy::unlimited(),
        ..InstaConfig::default()
    }
}

/// Endpoints with a finite reference slack (the ones a path report can
/// be traced for).
pub fn finite_endpoints(sta: &RefSta) -> Vec<u32> {
    sta.report()
        .endpoints
        .iter()
        .enumerate()
        .filter(|(_, e)| e.slack_ps.is_finite())
        .map(|(i, _)| i as u32)
        .collect()
}

/// One timed `report_timing`-style read: the worst path to a seeded
/// endpoint, reconstructed by the reference timer. Returns the latency
/// (µs) and whether a path came back.
pub fn timed_path_read(sta: &RefSta, design: &Design, ep: u32) -> (f64, bool) {
    let t = Instant::now();
    let path = sta.report_path(design, EpId(ep));
    let us = t.elapsed().as_secs_f64() * 1e6;
    (
        us,
        std::hint::black_box(path).is_some_and(|p| !p.stages.is_empty()),
    )
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Pearson correlation of two slack vectors over the endpoints where
/// both are finite.
pub fn slack_correlation(a: &[f64], b: &[f64]) -> f64 {
    let (x, y): (Vec<f64>, Vec<f64>) = a
        .iter()
        .zip(b)
        .filter(|(p, q)| p.is_finite() && q.is_finite())
        .map(|(&p, &q)| (p, q))
        .unzip();
    insta_engine::pearson(&x, &y).unwrap_or(f64::NAN)
}

/// Whether two float slices are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_follows_the_command_line_with_a_p90_floor() {
        let cfg = RunCfg {
            seed: 1,
            seconds: 20,
            trace: false,
            threads: 1,
        };
        assert_eq!(cfg.op_count(6.0), 120);
        assert_eq!(cfg.op_count(1.0), MIN_P90_SAMPLES);
    }

    #[test]
    fn streams_are_independent_and_repeatable() {
        assert_eq!(stream_seed(7, "ops"), stream_seed(7, "ops"));
        assert_ne!(stream_seed(7, "ops"), stream_seed(7, "reads"));
        assert_ne!(stream_seed(7, "ops"), stream_seed(8, "ops"));
    }

    #[test]
    fn bit_equality_distinguishes_signed_zero() {
        assert!(same_bits(&[1.0, f64::INFINITY], &[1.0, f64::INFINITY]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }
}
