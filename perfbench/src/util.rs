//! Small helpers shared by the workloads: seeded randomness, sample
//! statistics, a JSON writer, and host CPU steal.

use std::fmt::Write as _;

/// Derives an independent sub-seed from a workload seed and a stream
/// index (splitmix64 finaliser), so every generated input of a run is a
/// pure function of `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's own deterministic generator (splitmix64): query
/// picks and Zipf draws, kept apart from the program's generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        sub_seed(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Order-sensitive 64-bit FNV-1a over strings and integers.
#[derive(Debug, Clone, Copy)]
pub struct Hash64(u64);

impl Default for Hash64 {
    fn default() -> Self {
        Hash64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hash64 {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // length terminator keeps ("ab","c") apart from ("a","bc")
        self.int(b.len() as u64);
    }

    pub fn int(&mut self, v: u64) {
        for x in v.to_le_bytes() {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples;
/// `NaN` when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Share of samples strictly above the `p`-th percentile, as a count —
/// the run must keep at least ten beyond every reported percentile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&x| x > cut).count()
}

/// Cumulative CPU time the hypervisor took from this machine's virtual
/// CPUs (`steal` in `/proc/stat`), in seconds; 0 where unavailable.
/// Reported with every run because it inflates wall-clock timings.
pub fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        // USER_HZ is 100 on every Linux target this runs on
        .map(|ticks| ticks / 100.0)
        .unwrap_or(0.0)
}

/// A minimal JSON value, enough for the result line and the trace dump.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // full precision; JSON has no NaN/inf, so those become null
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(beyond(&v, 90.0), 10);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn zipf_favours_low_ranks_and_is_seeded() {
        let z = Zipf::new(100, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        let zeros = a.iter().filter(|&&r| r == 0).count();
        let tail = a.iter().filter(|&&r| r == 99).count();
        assert!(zeros > 5 * tail.max(1), "rank 0 {zeros} vs rank 99 {tail}");
    }

    #[test]
    fn json_renders_escapes_and_non_finite() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("x\"y")),
            ("c", Json::Num(f64::NAN)),
            ("d", Json::Arr(vec![Json::Int(3), Json::Bool(true)])),
        ]);
        assert_eq!(j.render(), r#"{"a": 1.5, "b": "x\"y", "c": null, "d": [3, true]}"#);
    }
}
