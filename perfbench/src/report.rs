//! What one benchmark run reports: operation counts, whole-run checks,
//! metrics, descriptive info, and (traced runs) the span dump.

use crate::util::Json;

/// Options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test hook: corrupt one reference answer so the run must
    /// count a failed operation.
    pub plant_wrong_reference: bool,
}

impl Opts {
    /// Operations a run performs: a fixed count per second of
    /// `--seconds`, so every seed and every program version does the
    /// same work, and a run takes about `--seconds` on a 2-vCPU host.
    /// An untraced run does at least `min`, enough for ten samples
    /// beyond its p90; a traced run splits the count between its
    /// untraced and traced halves.
    pub fn op_count(&self, per_second: f64, min: usize) -> usize {
        let n = (self.seconds * per_second).ceil() as usize;
        if self.trace {
            (n / 2).max(1)
        } else {
            n.max(min)
        }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run checks (reference sanity, trace checksums, coverage).
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub info: Vec<(String, Json)>,
    pub trace: Option<(String, Json)>,
}

impl Report {
    /// Counts one operation; a wrong output is a failed operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Everything else about the run, printed before the result line.
    pub fn info_line(&self, workload: &str, opts: &Opts) -> String {
        let checks = self.checks.iter().map(|(name, ok)| (name.clone(), Json::Bool(*ok))).collect();
        let mut fields = vec![
            ("workload".to_string(), Json::str(workload)),
            ("seed".to_string(), Json::Int(opts.seed)),
            ("seconds".to_string(), Json::Num(opts.seconds)),
            ("trace".to_string(), Json::Bool(opts.trace)),
            ("checks".to_string(), Json::Obj(checks)),
        ];
        fields.extend(self.info.iter().cloned());
        Json::obj([("info", Json::Obj(fields))]).render()
    }
}
