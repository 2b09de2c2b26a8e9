//! What a run reports: named metrics with units, the check ledger, and
//! the one-line JSON result.

use std::fmt::Write as _;

use freedom::fleet::FleetReport;

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Operations attempted and failed: every set-up, replay and output
/// check is one operation; a failed check is a failed operation.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation that did not fail (a set-up or a replay;
    /// one that errs aborts the run instead).
    pub fn op(&mut self) {
        self.attempted += 1;
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Checks `report` against the trace it replayed: the accounting
    /// partition and one outcome per trace event.
    pub fn check_report(&mut self, report: &FleetReport, trace_len: usize) {
        let classes = report.spot_admitted
            + report.drained
            + report.migrated
            + report.spot_demoted
            + report.rejected
            + report.dead_lettered;
        self.check(classes == report.invocations + report.retried, || {
            format!(
                "accounting partition: {classes} outcomes for {} invocations + {} retries",
                report.invocations, report.retried
            )
        });
        self.check(report.invocations == trace_len, || {
            format!(
                "{} invocations replayed from a {trace_len}-event trace",
                report.invocations
            )
        });
    }

    /// Checks that `report` is bit-identical to `reference`.
    pub fn check_same(&mut self, what: &str, report: &FleetReport, reference: &FleetReport) {
        self.check(format!("{report:?}") == format!("{reference:?}"), || {
            format!("{what}: report differs from the reference replay")
        });
    }
}

/// Records processed by a replay: arrivals plus retry activations.
pub fn processed(report: &FleetReport) -> f64 {
    (report.invocations + report.retried) as f64
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: one JSON object. A non-finite metric is a failed
/// check (it would not be valid JSON).
pub fn result_json(metrics: &Metrics, ledger: &mut Ledger) -> String {
    let mut body = String::new();
    for (i, &(name, value, unit)) in metrics.0.iter().enumerate() {
        ledger.check(value.is_finite(), || format!("metric {name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", 2.0, "count");
        let mut ledger = Ledger::default();
        ledger.op();
        let json = result_json(&m, &mut ledger);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        m.put("c", f64::NAN, "s");
        let json = result_json(&m, &mut ledger);
        assert!(json.starts_with("{\"correct\": false"));
    }
}
