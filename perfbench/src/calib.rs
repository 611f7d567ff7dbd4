//! Host-speed calibration of every reported time.
//!
//! On a shared 2-vCPU virtual machine the same work runs up to about
//! 1.4× slower for stretches of seconds to minutes, with no CPU steal
//! recorded: the host's other tenants slow this one's cores and memory.
//! Such stretches can cover a whole run, so no statistic taken within a
//! run removes them. A fixed calibration loop, independent of the
//! program and run on the workloads' [`THREADS`] threads right before
//! and right after each timed operation, measures the host's speed at
//! that moment. Every reported time is the operation's wall time scaled
//! to a nominal host speed: `wall × NOMINAL_US / mean(loop before, loop
//! after)`. On a 2-vCPU Xeon virtual machine the loop took about
//! 2.1–2.8 ms, so scaled times read up to a quarter below wall times; the
//! median wall time is kept in each run's `info` line (`wall_p50_ms`).
//! The loop uses only the standard library, so no change to the program
//! moves it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::util::sub_seed;
use crate::THREADS;

/// The calibration loop's time at the nominal host speed, in µs.
pub const NOMINAL_US: f64 = 2000.0;

/// Keys the loop sorts, hashes and chases on each thread.
const KEYS: usize = 1 << 14;

/// One thread's share of the loop: sorting, hashing, string building
/// and dependent loads, the kinds of work the program does.
fn one_thread(salt: u64) -> usize {
    let mut keys: Vec<u64> = (0..KEYS as u64).map(|i| sub_seed(i, salt)).collect();
    keys.sort_unstable();
    let index: HashMap<u64, usize> =
        keys.iter().enumerate().step_by(4).map(|(i, &k)| (k, i)).collect();
    let mut labels: Vec<String> = keys.iter().step_by(8).map(|k| format!("c{k:x}")).collect();
    labels.sort_unstable();
    let mut acc = labels.len();
    let mut j = 0;
    for _ in 0..KEYS {
        j = (keys[j] as usize ^ acc) % KEYS;
        acc = acc.wrapping_add(index.get(&keys[j & !3]).copied().unwrap_or(0));
    }
    acc
}

/// Wall time of the calibration loop on [`THREADS`] threads at once, in
/// µs: the slowest thread's, as a parallel operation waits for its
/// slowest part.
pub fn loop_us() -> f64 {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let t0 = Instant::now();
                    black_box(one_thread(black_box(t as u64)));
                    t0.elapsed()
                })
            })
            .collect();
        let t0 = Instant::now();
        black_box(one_thread(black_box(0)));
        let mut slowest = t0.elapsed();
        for h in others {
            slowest = slowest.max(h.join().expect("calibration thread panicked"));
        }
        slowest.as_secs_f64() * 1e6
    })
}

/// Runs `f` between two calibration loops; returns its result and the
/// factor that scales its wall time to the nominal host speed.
pub fn around<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = loop_us();
    let out = f();
    let after = loop_us();
    (out, 2.0 * NOMINAL_US / (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_is_positive_and_finite() {
        let (v, scale) = around(|| 7);
        assert_eq!(v, 7);
        assert!(scale.is_finite() && scale > 0.0, "{scale}");
    }
}
