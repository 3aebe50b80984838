//! The metric catalogue and the run report.
//!
//! Every run prints one human-readable block (checks, then metrics by
//! name with their unit) and, as its last stdout line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! carries every end-to-end metric, a traced run every per-layer metric;
//! the two catalogues below are the single source of both key sets.

use crate::procfs::ProcSample;
use crate::stats;
use insta_support::json::{obj, Json, ToJson};
use std::collections::BTreeMap;

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit. Times are per-op means.
/// A layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("refsta.estimate_eco_ms", "ms"),
    ("refsta.incremental_update_ms", "ms"),
    ("refsta.full_update_ms", "ms"),
    ("refsta.export_ms", "ms"),
    ("engine.new_ms", "ms"),
    ("batch.evaluate_mcmm_ms", "ms"),
    ("batch.lanes_per_op", "count"),
    ("batch.propagated_lanes_per_op", "count"),
    ("batch.gradient_lane_ms", "ms"),
    ("forward.propagate_ms", "ms"),
    ("lse.forward_lse_ms", "ms"),
    ("backward.backward_tns_ms", "ms"),
    ("session.update_timing_ms", "ms"),
    ("session.commit_ms", "ms"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.load_us", "us"),
    ("placer.update_wires_ms", "ms"),
    ("wal.log_commit_ms", "ms"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoints_per_op", "count"),
    ("wal.fsyncs_per_op", "count"),
    ("wal.bytes_per_op", "bytes"),
    ("serve.residual_ms", "ms"),
    ("serve.read_residual_us", "us"),
    ("json.encode_update_us", "us"),
    ("json.encode_slacks_us", "us"),
    ("eco.residual_ms", "ms"),
    ("place.residual_ms", "ms"),
    ("traced.op_p50_ms", "ms"),
    ("process.minflt_per_op", "count"),
    ("process.user_ms_per_op", "ms"),
    ("process.sys_ms_per_op", "ms"),
];

/// What one run measured and verified.
#[derive(Debug, Default)]
pub struct Report {
    checks: Vec<(String, bool, String)>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    /// Sets a metric. The name must be in one of the catalogues.
    ///
    /// # Panics
    ///
    /// Panics on a name in neither catalogue (a bug in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is in neither catalogue"
        );
        self.values.insert(name, value);
    }

    /// Per-op process counters of the timed phase (`n` ops).
    pub fn set_process(&mut self, proc: &ProcSample, n: f64) {
        self.set("process.minflt_per_op", proc.minflt as f64 / n);
        self.set("process.user_ms_per_op", proc.user_ms / n);
        self.set("process.sys_ms_per_op", proc.sys_ms / n);
    }

    /// The end-to-end metrics every workload reports.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        lat_ms: &[f64],
        read_us: &[f64],
        ops_per_s: f64,
        peak_mb: f64,
    ) {
        let lat = stats::sorted(lat_ms);
        let reads = stats::sorted(read_us);
        self.set("setup_s", setup_s);
        self.set("op_p50_ms", stats::percentile(&lat, 50.0));
        self.set("op_p90_ms", stats::percentile(&lat, 90.0));
        self.set("ops_per_s", ops_per_s);
        self.set("read_p50_us", stats::percentile(&reads, 50.0));
        self.set("read_p90_us", stats::percentile(&reads, 90.0));
        self.set("peak_rss_mb", peak_mb);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The human-readable block, then the JSON result line.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric of an untraced run was never
    /// set: a missing headline number is a bug, not a zero.
    pub fn print(&self, trace: bool) {
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            println!("check {name}: {verdict} {detail}");
        }
        println!("ops attempted {} failed {}", self.attempted, self.failed);
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("metric {name} = {value} {unit}");
            metrics.push((
                name.to_owned(),
                obj([
                    ("value", value.to_json()),
                    ("unit", Json::Str(unit.to_owned())),
                ]),
            ));
        }
        // Counts are written by hand: the JSON writer prints every number
        // as a float, and the counts must read as whole numbers.
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            Json::Obj(metrics)
        );
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_support::json::parse;

    /// The catalogues and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn catalogues_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let manifest = parse(&text).expect("valid JSON");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = manifest
                .field(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get::<String>("name").unwrap(),
                        m.get::<String>("unit").unwrap(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn result_line_fills_unused_layers_with_zero() {
        let mut r = Report::default();
        r.set("wal.fsyncs_per_op", 1.0);
        r.check("x", true, "");
        assert!(r.correct());
        r.check("y", false, "boom");
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "neither catalogue")]
    fn unknown_metric_is_a_bug() {
        Report::default().set("no.such_metric", 1.0);
    }
}
