//! B14 — observability overhead, enabled vs disabled.
//!
//! The `onion-obs` cost contract says an instrumented hot path pays
//! one relaxed atomic load per site while recording is disabled and a
//! relaxed `fetch_add` on the metric's one cell while it is enabled. B14 measures both
//! steady states on three workloads that hit the instrumented layers:
//!
//! * **publish** — 50 one-dirty-shard `OnionSystem::publish_source`
//!   rounds on an in-memory source, the 10k/50k tier graph at 64 shards
//!   (span + counters per round);
//! * **infer** — semi-naive saturation of a transitivity chain
//!   (per-run counters + a per-round delta histogram);
//! * **count burst** — one million bare `count!` + `observe_us!`
//!   macro hits, the microbenchmark of the macro fast path itself.
//!
//! Each workload is run with recording disabled and enabled; the row
//! pairs land in `BENCH_onion.json` so the disabled-path overhead
//! stays on the record. The inference workload asserts its derivation
//! count in both modes — instrumentation must be strictly
//! observational.

use onion_core::graph::NodeId;
use onion_core::obs;
use onion_core::ontology::Ontology;
use onion_core::rules::{AtomTable, FactBase, HornProgram, InferenceEngine};
use onion_core::testkit::generate_graph;
use onion_core::OnionSystem;

use crate::hotpaths::tier;
use crate::{run_series, BenchResult};

/// Chain length for the inference workload (`derived = n(n-1)/2`).
pub const B14_CHAIN: usize = 128;
/// Publish rounds per timed repetition.
pub const B14_PUBLISH_ROUNDS: usize = 50;
/// Shard count of the publish workload's source.
pub const B14_SHARDS: usize = 64;
/// Macro hits per count-burst repetition.
pub const B14_BURST: usize = 1_000_000;

/// Saturates `p(X,Z) :- p(X,Y), p(Y,Z)` on an `n`-node chain with the
/// sequential semi-naive engine; returns (and asserts) the derivation
/// count, which must be identical whether or not recording is on.
pub fn infer_chain(n: usize) -> usize {
    let program = HornProgram::parse("p(X, Z) :- p(X, Y), p(Y, Z).").expect("fixed program");
    let mut atoms = AtomTable::new();
    let mut fb = FactBase::new();
    for i in 0..n {
        fb.add(&mut atoms, "p", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    let stats = InferenceEngine::new(program).run(&mut atoms, &mut fb).expect("no budget");
    assert_eq!(stats.derived, n * (n - 1) / 2, "instrumentation must not change inference");
    stats.derived
}

/// The publish workload: the tier graph loaded as an in-memory facade
/// source at [`B14_SHARDS`] shards and published once.
struct PublishFixture {
    system: OnionSystem,
    name: String,
    probe: NodeId,
}

impl PublishFixture {
    fn new() -> Self {
        let g = generate_graph(&tier());
        let name = g.name().to_string();
        let probe = g.node_ids().next().expect("the tier has nodes");
        let mut system = OnionSystem::with_transport_lexicon();
        system.set_shard_count(B14_SHARDS);
        system.add_source(Ontology::from_graph(g));
        system.publish_source(&name).expect("the source is loaded");
        PublishFixture { system, name, probe }
    }

    /// One round: a content-neutral self-loop add + delete on the probe
    /// node moves its shard's stamp without changing the graph, then a
    /// publish that must count exactly that shard — "fast because it
    /// skipped work" is a failure, not a result.
    fn publish_dirty_shard(&mut self) -> usize {
        let g = self.system.source_mut(&self.name).expect("the source is loaded").graph_mut();
        let e = g.add_edge(self.probe, "b14dirty", self.probe).expect("probe node is live");
        g.delete_edge(e).expect("just added");
        let (_, stats) = self.system.publish_source(&self.name).expect("the source is loaded");
        assert_eq!(
            (stats.rebuilt, stats.reused),
            (1, B14_SHARDS - 1),
            "publish must count exactly the edited shard"
        );
        stats.rebuilt
    }
}

/// `n` hits of the `count!` + `observe_us!` macro pair — the raw
/// per-site cost in whichever recording state is active.
pub fn count_burst(n: usize) {
    for i in 0..n as u64 {
        obs::count!("onion_b14_burst_total");
        obs::observe_us!("onion_b14_burst_us", i & 1023);
    }
}

/// The full B14 record: disabled/enabled row pairs per workload.
#[derive(Debug, Clone, Default)]
pub struct B14Report {
    /// All rows, disabled before enabled per workload.
    pub rows: Vec<BenchResult>,
}

impl B14Report {
    /// `enabled_median / disabled_median` for `workload` — the
    /// recording overhead factor (1.0 = free).
    pub fn overhead(&self, workload: &str) -> f64 {
        let m = |suffix: &str| {
            self.rows
                .iter()
                .find(|r| r.name == format!("b14_{workload}_{suffix}"))
                .map(|r| r.median_us)
        };
        match (m("disabled"), m("enabled")) {
            (Some(d), Some(e)) if d > 0.0 => e / d,
            _ => f64::NAN,
        }
    }
}

/// Runs B14 with `reps` repetitions per row, restoring the recording
/// state it found.
pub fn run_b14(reps: usize) -> B14Report {
    let was_enabled = obs::enabled();
    let mut fixture = PublishFixture::new();
    let mut rows = Vec::new();
    for enabled in [false, true] {
        obs::set_enabled(enabled);
        let suffix = if enabled { "enabled" } else { "disabled" };
        rows.push(run_series(&format!("b14_publish_{suffix}"), reps, || {
            (0..B14_PUBLISH_ROUNDS).map(|_| fixture.publish_dirty_shard() as u64).sum()
        }));
        rows.push(run_series(&format!("b14_infer_{suffix}"), reps, || {
            infer_chain(B14_CHAIN) as u64
        }));
        rows.push(run_series(&format!("b14_count_burst_{suffix}"), reps, || {
            count_burst(B14_BURST);
            B14_BURST as u64
        }));
    }
    obs::set_enabled(was_enabled);
    // disabled rows first, enabled second, workload order preserved
    rows.sort_by_key(|r| r.name.ends_with("_enabled"));
    B14Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_chain_counts_are_mode_independent() {
        let was = obs::enabled();
        obs::set_enabled(false);
        let off = infer_chain(24);
        obs::set_enabled(true);
        let on = infer_chain(24);
        obs::set_enabled(was);
        assert_eq!(off, on);
        assert_eq!(off, 24 * 23 / 2);
    }

    #[test]
    fn run_b14_produces_paired_rows() {
        let report = run_b14(1);
        assert_eq!(report.rows.len(), 6);
        assert!(report.rows[..3].iter().all(|r| r.name.ends_with("_disabled")));
        assert!(report.rows[3..].iter().all(|r| r.name.ends_with("_enabled")));
        let oh = report.overhead("count_burst");
        assert!(oh.is_finite() && oh > 0.0);
    }
}
