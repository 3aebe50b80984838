//! End-to-end benchmark of the INSTA workspace.
//!
//! ```text
//! insta-e2ebench --workload <eco_mcmm|place_refresh|serve_mixed> --seed N
//!                --seconds S --trace <0|1> [--threads T]
//! insta-e2ebench --describe --seed N
//! ```
//!
//! A run sets up its subject several times (`setup_s` is the median),
//! executes a seeded op sequence whose length follows `--seconds`,
//! checks the outputs, and prints the result; the last stdout line is
//! the JSON result object. `--trace 1` prints the per-layer breakdown
//! instead of the end-to-end metrics. `--describe` prints the make-up
//! of the inputs (design sizes and the fanout-cone sizes of the cells
//! the ops change). See README.md.

mod common;
mod eco;
mod place;
mod procfs;
mod report;
mod serve;
mod stats;

use common::RunCfg;
use report::Report;
use std::process::ExitCode;

const USAGE: &str = "usage: insta-e2ebench --workload <eco_mcmm|place_refresh|serve_mixed> \
--seed N --seconds S --trace <0|1> [--threads T] | --describe --seed N";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["eco_mcmm", "place_refresh", "serve_mixed"];

struct Args {
    workload: Option<String>,
    describe: bool,
    cfg: RunCfg,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut describe = false;
    let (mut seed, mut seconds, mut trace, mut threads) = (None, None, None, 1usize);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            describe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            "--threads" => threads = num()? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let cfg = RunCfg {
        seed: seed.ok_or("--seed is required")?,
        seconds: if describe {
            1
        } else {
            seconds.ok_or("--seconds is required")?.max(1)
        },
        trace: match (describe, trace) {
            (true, _) => false,
            (false, Some(t @ (0 | 1))) => t == 1,
            (false, _) => return Err("--trace must be 0 or 1".into()),
        },
        threads,
    };
    if !describe {
        match workload.as_deref() {
            Some(w) if WORKLOADS.contains(&w) => {}
            Some(w) => return Err(format!("unknown workload {w}")),
            None => return Err("--workload is required".into()),
        }
    }
    Ok(Args {
        workload,
        describe,
        cfg,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        describe(&args.cfg);
        return ExitCode::SUCCESS;
    }
    let workload = args.workload.expect("validated above");
    println!(
        "# workload={workload} seed={} seconds={} trace={} engine_threads={} nproc={}",
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.cfg.trace),
        args.cfg.threads,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut rep = Report::default();
    match workload.as_str() {
        "eco_mcmm" => eco::run(&args.cfg, &mut rep),
        "place_refresh" => place::run(&args.cfg, &mut rep),
        _ => serve::run(&args.cfg, &mut rep),
    }
    rep.print(args.cfg.trace);
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the make-up of the inputs: subject sizes and the distribution
/// of the dirty-cone sizes of the cells the ECO ops change.
fn describe(cfg: &RunCfg) {
    use insta_refsta::{RefSta, StaConfig};
    for (name, design) in [
        ("block-5 (eco_mcmm)", common::block5()),
        ("block-2 (serve_mixed)", common::block2()),
        ("superblue10 (place_refresh)", common::superblue10()),
    ] {
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference timing graph");
        let r = sta.full_update(&design);
        println!(
            "{name}: {} cells, {} nodes, {} arcs, {} endpoints, TNS {:.1} ps",
            design.cells().len(),
            sta.graph().num_nodes(),
            sta.graph().arcs().len(),
            r.endpoints.len(),
            r.tns_ps
        );
        if name.starts_with("block-5") {
            let cells = eco::candidates(&design);
            let ops = eco::plan(cfg, 200, cells.len());
            let mut sizes: Vec<f64> = ops
                .iter()
                .map(|op| {
                    sta.dirty_cone(&design, &[cells[op.candidate as usize]])
                        .len() as f64
                })
                .collect();
            sizes.sort_by(f64::total_cmp);
            let q = |p| stats::percentile(&sizes, p);
            println!(
                "  dirty cone of the first 200 resized cells (nodes of {}): p10 {} p50 {} p90 {} max {}",
                sta.graph().num_nodes(),
                q(10.0),
                q(50.0),
                q(90.0),
                q(100.0)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn standard_command_line_parses() {
        let a = args("--workload eco_mcmm --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("eco_mcmm"));
        assert_eq!(
            (a.cfg.seed, a.cfg.seconds, a.cfg.trace, a.cfg.threads),
            (7, 10, true, 1)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload eco_mcmm --seconds 1 --trace 0").is_err());
        assert!(args("--workload eco_mcmm --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload eco_mcmm --seed 1 --seconds 1 --trace 0 --threads 0").is_err());
        assert!(args("--workload eco_mcmm --seed x --seconds 1 --trace 0").is_err());
    }
}
