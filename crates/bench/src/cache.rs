//! B15 — query-cache serving path: cold miss vs warm hit vs
//! publish-storm mixed workload.
//!
//! The serving-tier contract under test:
//!
//! * **cold miss** — a batch of distinct queries against a system with
//!   the cache enabled but nothing cached (the epoch is bumped before
//!   every repetition, so every lookup misses and pays full plan +
//!   execute). This is the baseline the warm path is compared against.
//! * **warm hit** — the identical batch repeated at an unchanged
//!   epoch: every query is served from the cache. The acceptance bar
//!   (warm median ≥ 10× faster than cold median) is asserted inside
//!   [`run_b15`], not just eyeballed in the table.
//! * **publish storm** — the mixed workload: every repetition edits a
//!   source, publishes it (bumping the state epoch), then runs the
//!   batch twice — the first run re-executes (the bump retired every
//!   cached entry), the second hits. The per-repetition checksum
//!   equality of those two runs is the stale-read kill-switch.
//!
//! Result checksums (whole rows, order sensitive; [`batch_checksum`])
//! are asserted for every batch of all three workloads, and the cache
//! hit ratio for the warm one — a cache that serves a byte-different
//! result fails the bench, not just the proptests. Each repetition's
//! batches are checksummed after its timed region: the checksum reads
//! every row, which costs more than the warm hits it checks.

use std::sync::Arc;

use onion_core::prelude::*;
use onion_core::testkit::random_queries;

use crate::{batch_checksum, run_series_with, BenchResult};

/// Queries per batch.
pub const B15_QUERIES: usize = 64;
/// Instances per knowledge-base side.
pub const B15_INSTANCES: usize = 2000;
/// Concepts in the generated source pair.
pub const B15_CONCEPTS: usize = 400;

/// The B15 workload: an articulated system with instance data, a
/// fixed query batch, and the query cache enabled.
pub struct B15Fixture {
    system: onion_core::OnionSystem,
    queries: Vec<Query>,
    exec: Executor,
    probe_round: usize,
}

impl B15Fixture {
    /// Builds a fixture with `capacity` cache entries on a
    /// `concepts`-concept pair.
    pub fn sized(capacity: usize, concepts: usize, queries: usize, instances: usize) -> Self {
        let pair = crate::pair(31, concepts, 0.25);
        let art = crate::articulated(&pair);
        let (lkb, rkb) = crate::instance_kbs(&pair, instances);
        let queries = random_queries(&art, "Price", queries, 23);
        let mut system = onion_core::OnionSystem::new(pair.lexicon.clone());
        system.add_source(pair.left.clone());
        system.add_source(pair.right.clone());
        system.add_knowledge_base(lkb);
        system.add_knowledge_base(rkb);
        system.set_articulation(art);
        system.set_query_cache(capacity);
        B15Fixture { system, queries, exec: Executor::new(4), probe_round: 0 }
    }

    /// Runs the batch once, returning the shared results.
    pub fn batch(&self) -> Vec<Arc<ResultSet>> {
        self.system
            .run_batch(&self.exec, &self.queries)
            .into_iter()
            .map(|r| r.expect("generated queries execute"))
            .collect()
    }

    /// Order-sensitive checksum of one batch's results, whole rows
    /// included ([`batch_checksum`]).
    pub fn checksum(&self, results: &[Arc<ResultSet>]) -> u64 {
        batch_checksum(results)
    }

    /// Cache counters (the fixture always has a cache).
    pub fn stats(&self) -> CacheStats {
        self.system.query_cache_stats().expect("fixture cache enabled")
    }

    /// Bumps the state epoch without changing any query's answer: adds
    /// a uniquely-labelled self-loop probe edge to the left source and
    /// republishes it — an edit + publish with inert query semantics,
    /// so checksums must stay identical across the storm.
    pub fn edit_and_publish(&mut self) {
        self.probe_round += 1;
        let label = format!("b15probe{}", self.probe_round);
        let g = self.system.source_mut("left").expect("left source").graph_mut();
        let n = g.node_ids().next().expect("non-empty");
        g.add_edge(n, &label, n).expect("fresh probe label");
        self.system.publish_source("left").expect("left publishes");
    }

    /// The facade state epoch (monotonic across edits/publishes).
    pub fn epoch(&self) -> u64 {
        self.system.query_epoch()
    }
}

/// The full B15 record.
#[derive(Debug, Clone, Default)]
pub struct B15Report {
    /// All rows (`b15_cold_miss`, `b15_warm_hit`, `b15_publish_storm`).
    pub rows: Vec<BenchResult>,
    /// Checksum every workload's batches agreed on.
    pub checksum: u64,
    /// `cold_median / warm_median` — the cache speedup factor.
    pub speedup: f64,
    /// Hit ratio observed across the warm workload (1.0 = every
    /// lookup served from cache).
    pub warm_hit_ratio: f64,
}

/// Runs B15 on the standard tier with `reps` repetitions per row,
/// asserting checksums, the warm hit ratio, and the ≥10× warm-vs-cold
/// bar inside the run.
pub fn run_b15(reps: usize) -> B15Report {
    run_b15_sized(reps, B15_CONCEPTS, B15_QUERIES, B15_INSTANCES, true)
}

/// Parameterised B15. `assert_speedup` gates the ≥10× warm-hit bar
/// (kept on for the recorded run; tiny test tiers may switch it off —
/// at a handful of concepts the cold path is too cheap to clear 10×).
pub fn run_b15_sized(
    reps: usize,
    concepts: usize,
    queries: usize,
    instances: usize,
    assert_speedup: bool,
) -> B15Report {
    let mut fx = B15Fixture::sized(4096, concepts, queries, instances);
    let want = fx.checksum(&fx.batch());
    // each rep leaves its batches here; they are checksummed before the
    // next rep and after the last, outside the timed region
    let mut done: Vec<Vec<Arc<ResultSet>>> = Vec::new();

    // cold: every rep starts at a fresh epoch, so every lookup misses
    let cold = run_series_with(
        "b15_cold_miss",
        reps,
        &mut done,
        |d| check_batches(d, want, "cold batch checksum"),
        |d| {
            fx.edit_and_publish();
            d.push(fx.batch());
            want
        },
    );
    check_batches(&mut done, want, "cold batch checksum");

    // warm: prime once, then every rep is all hits at a pinned epoch
    fx.batch();
    let before = fx.stats();
    let warm = run_series_with(
        "b15_warm_hit",
        reps,
        &mut done,
        |d| check_batches(d, want, "warm batch checksum"),
        |d| {
            d.push(fx.batch());
            want
        },
    );
    check_batches(&mut done, want, "warm batch checksum");
    let after = fx.stats();
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let warm_hit_ratio =
        if lookups == 0 { 0.0 } else { (after.hits - before.hits) as f64 / lookups as f64 };
    assert!(warm_hit_ratio > 0.999, "warm workload must be all hits (got ratio {warm_hit_ratio})");

    // publish storm: edit + publish, then miss-run and hit-run; both
    // runs of each rep must checksum to `want`, so the hit serves the
    // bytes the miss computed
    let storm = run_series_with(
        "b15_publish_storm",
        reps,
        &mut done,
        |d| check_batches(d, want, "post-publish and cached batch checksums"),
        |d| {
            fx.edit_and_publish();
            d.push(fx.batch());
            d.push(fx.batch());
            want
        },
    );
    check_batches(&mut done, want, "post-publish and cached batch checksums");

    let speedup = if warm.median_us > 0.0 { cold.median_us / warm.median_us } else { f64::NAN };
    if assert_speedup {
        assert!(
            speedup >= 10.0,
            "warm hits must be >=10x faster than cold misses (got {speedup:.1}x: cold {:.0}us, warm {:.0}us)",
            cold.median_us,
            warm.median_us
        );
    }
    B15Report { rows: vec![cold, warm, storm], checksum: want, speedup, warm_hit_ratio }
}

/// Asserts that every batch in `done` checksums to `want`, and empties
/// it. The checksum reads every row, which costs more than serving a
/// warm batch, so B15 runs it outside its timed regions.
fn check_batches(done: &mut Vec<Vec<Arc<ResultSet>>>, want: u64, what: &str) {
    for batch in done.drain(..) {
        assert_eq!(batch_checksum(&batch), want, "{what}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b15_small_tier_runs_and_validates() {
        let report = run_b15_sized(2, 60, 12, 150, false);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].name, "b15_cold_miss");
        assert_eq!(report.rows[1].name, "b15_warm_hit");
        assert_eq!(report.rows[2].name, "b15_publish_storm");
        assert!(report.warm_hit_ratio > 0.999);
        assert!(report.speedup.is_finite() && report.speedup > 0.0);
    }

    #[test]
    fn edit_and_publish_bumps_the_epoch_without_changing_results() {
        let mut fx = B15Fixture::sized(64, 60, 8, 100);
        let before = fx.epoch();
        let want = fx.checksum(&fx.batch());
        fx.edit_and_publish();
        assert!(fx.epoch() > before);
        assert_eq!(fx.checksum(&fx.batch()), want, "probe edits are query-inert");
    }
}
