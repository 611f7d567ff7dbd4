//! The repository benchmark: three single-process workloads that drive
//! `OnionSystem` and the layer crates through their public functions.
//!
//! ```text
//! perfbench --workload <articulate|serve|evolve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the timed loop runs untraced and the result line
//! carries the end-to-end metrics. With `--trace 1` the run repeats the
//! same units of work, first untraced and then traced layer by layer,
//! checks that both produce the same checksums, and reports the
//! per-layer metrics; the span dump and self-time table are written to
//! `.bench_out/`. The last line of standard output is always the result
//! object; everything before it is descriptive.

mod articulate;
mod calib;
mod evolve;
mod heap;
mod report;
mod scheduler;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;

use report::{Opts, Report};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Executor (and parallel-inference) threads of every workload.
pub const THREADS: usize = 2;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed kept out of tuning, for confirming a claimed change.
pub const HELD_OUT_SEED: u64 = 2;

/// Every end-to-end metric; each workload reports all of them, with
/// the meaning of an "op" and an "item" set by the workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("items_per_s", "1/s"),
];

/// Every per-layer metric. A traced run reports the ones its layers
/// produce; the rest are 0 because that layer does no work there (on
/// `evolve`, `query.parse_us` is 0 because `run_batch` takes parsed
/// queries).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("skat.exact_ms", "ms"),
    ("skat.synonym_ms", "ms"),
    ("skat.similarity_ms", "ms"),
    ("skat.structural_ms", "ms"),
    ("skat.candidates", "count"),
    ("expert.review_ms", "ms"),
    ("expert.accept_ratio", "ratio"),
    ("generate.ms", "ms"),
    ("generate.bridges", "count"),
    ("generate.derived_bridges", "count"),
    ("rules.seeded_facts", "count"),
    ("rules.derived_facts", "count"),
    ("rules.rounds", "count"),
    ("rules.atoms_examined", "count"),
    ("rules.examined_per_derived", "ratio"),
    ("exec.merge_facts", "count"),
    ("algebra.union_ms", "ms"),
    ("algebra.difference_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.execute_us", "us"),
    ("query.rows_per_query", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_batch", "count"),
    ("cache.probe_us", "us"),
    ("core.dedup_ratio", "ratio"),
    ("core.batch_self_ms", "ms"),
    ("maintain.apply_delta_us", "us"),
    ("maintain.relevant_ratio", "ratio"),
    ("graph.apply_ops_us", "us"),
    ("core.publish_us", "us"),
    ("graph.shards_rebuilt_ratio", "ratio"),
    ("wal.bytes_per_op", "B/op"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.shards_written", "count"),
    ("checkpoint.bytes", "B"),
    ("recover.ms", "ms"),
    ("recover.replayed_ops", "count"),
    ("evolve.read_after_write_p50_ms", "ms"),
    ("evolve.checkpoint_p50_ms", "ms"),
    ("evolve.recover_p50_ms", "ms"),
    ("evolve.write_bytes_per_op", "B/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Least share of traced root time the named layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.90;

/// Shared tail of every traced run: the coverage check, the self-time
/// table (stderr) and the span dump (`.bench_out/`).
fn finish_trace(rep: &mut Report, spans: Vec<trace::Span>, a: trace::Analysis) {
    rep.check("trace_coverage_at_least_90pct", a.coverage() >= MIN_COVERAGE);
    eprint!("{}", trace::self_time_table(&a));
    rep.trace = Some(("trace".to_string(), trace::dump(&spans, &a)));
}

/// Runs one workload and orders its metrics as declared, filling the
/// per-layer metrics of layers the workload does not run with 0.
pub fn run_workload(workload: &str, opts: &Opts, tiny: bool) -> Result<Report, String> {
    let mut rep = match workload {
        "articulate" => {
            let size = if tiny { articulate::Size::tiny() } else { articulate::Size::full() };
            articulate::run(&size, opts)?
        }
        "serve" => {
            let size = if tiny { serve::Size::tiny() } else { serve::Size::full() };
            serve::run(&size, opts)?
        }
        "evolve" => {
            let size = if tiny { evolve::Size::tiny() } else { evolve::Size::full() };
            evolve::run(&size, opts)?
        }
        other => return Err(format!("unknown workload {other:?} (articulate, serve, evolve)")),
    };
    let declared: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = rep.metric_value(name).unwrap_or(0.0);
        ordered.push((name.to_string(), value, unit));
    }
    for (name, _, _) in &rep.metrics {
        if !declared.iter().any(|(n, _)| n == name) {
            return Err(format!("workload reported undeclared metric {name:?}"));
        }
    }
    rep.metrics = ordered;
    Ok(rep)
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts =
        Opts { seed: DEFAULT_SEED, seconds: 10.0, trace: false, plant_wrong_reference: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn write_trace(workload: &str, opts: &Opts, rep: &Report) -> Result<(), String> {
    let Some((_, dump)) = &rep.trace else { return Ok(()) };
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-seed{}.json", opts.seed));
    std::fs::write(&path, dump.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("span dump and self-time table written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (steal0, t0) = (util::steal_s(), std::time::Instant::now());
    let rep = match run_workload(&workload, &opts, false) {
        Ok(mut rep) => {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let steal = (util::steal_s() - steal0) / (t0.elapsed().as_secs_f64() * cpus as f64);
            rep.info("available_parallelism", util::Json::Int(cpus as u64));
            rep.info("host_steal_share", util::Json::Num(steal));
            rep
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_trace(&workload, &opts, &rep) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", rep.info_line(&workload, &opts));
    println!("{}", rep.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod selftest {
    //! The benchmark's own tests: every workload at a tiny size passes
    //! its checks on both paths, and a planted wrong reference answer is
    //! counted as a failed operation rather than ignored.

    use super::*;

    fn opts(seed: u64, trace: bool, plant_wrong_reference: bool) -> Opts {
        Opts { seed, seconds: 0.05, trace, plant_wrong_reference }
    }

    fn tiny(workload: &str, opts: Opts) -> Report {
        run_workload(workload, &opts, true).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    fn passes_untraced(workload: &str) {
        let rep = tiny(workload, opts(DEFAULT_SEED, false, false));
        assert!(rep.correct(), "{workload}: {:?}", rep.checks);
        assert!(rep.attempted > 0);
        assert_eq!(rep.failed, 0);
        let names: Vec<&str> = rep.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n), "{workload} reports every end-to-end metric");
        for (name, value, _) in &rep.metrics {
            assert!(value.is_finite() && *value > 0.0, "{workload}: {name} = {value}");
        }
    }

    fn passes_traced(workload: &str) -> Report {
        let rep = tiny(workload, opts(HELD_OUT_SEED, true, false));
        assert!(rep.correct(), "{workload}: {:?}", rep.checks);
        assert_eq!(rep.failed, 0);
        let names: Vec<&str> = rep.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n), "{workload} reports every per-layer metric");
        assert!(rep.metric_value("trace.coverage").unwrap() >= MIN_COVERAGE);
        assert!(rep.trace.is_some(), "{workload}: span dump");
        rep
    }

    /// The query-serving layers report work on both workloads that
    /// run them.
    fn reports_query_layers(rep: &Report, workload: &str) {
        for name in ["query.plan_us", "query.execute_us", "cache.probe_us", "core.dedup_ratio"] {
            assert!(rep.metric_value(name).unwrap() > 0.0, "{workload}: {name}");
        }
    }

    fn counts_planted_failure(workload: &str) {
        let rep = tiny(workload, opts(DEFAULT_SEED, false, true));
        assert!(rep.failed > 0, "{workload}: a wrong reference must fail an operation");
        assert!(!rep.correct());
    }

    #[test]
    fn articulate_passes_its_checks() {
        passes_untraced("articulate");
        passes_traced("articulate");
    }

    #[test]
    fn serve_passes_its_checks() {
        passes_untraced("serve");
        reports_query_layers(&passes_traced("serve"), "serve");
    }

    #[test]
    fn evolve_passes_its_checks() {
        passes_untraced("evolve");
        reports_query_layers(&passes_traced("evolve"), "evolve");
    }

    #[test]
    fn planted_wrong_references_are_counted_as_failures() {
        for workload in ["articulate", "serve", "evolve"] {
            counts_planted_failure(workload);
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_outputs() {
        let a = tiny("serve", opts(7, true, false));
        let b = tiny("serve", opts(7, true, false));
        for name in ["query.rows_per_query", "core.dedup_ratio", "cache.hit_ratio"] {
            assert_eq!(a.metric_value(name), b.metric_value(name), "{name}");
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(run_workload("nope", &opts(1, false, false), true).is_err());
    }
}
