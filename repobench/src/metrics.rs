//! Metric names, units, the failure tally and the result line.
//!
//! Every workload prints every end-to-end metric on an untraced run and
//! every per-layer metric on a traced run; a per-layer metric that the
//! workload does not exercise reads 0. Names are the public contract that
//! later changes cite, so they live in one table here and a test keeps
//! `BENCHMARK.json` in step with it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s_p50", "s"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
    ("serve_s_per_kreq", "s"),
    ("good_share", "ratio"),
    ("latency_p50_cycles", "cycles"),
    ("latency_p99_cycles", "cycles"),
    ("max_good_rate_ips", "1/s"),
];

/// `(name, unit)` of every per-layer metric, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.graph_s", "s"),
    ("nn.quantize_s", "s"),
    ("nn.emplace_s", "s"),
    ("nn.readout_s", "s"),
    ("nn.reference_s", "s"),
    ("nn.ref_mismatch_logits", "count"),
    ("compiler.compile_s", "s"),
    ("compiler.instructions", "count"),
    ("compiler.prediction_error_cycles", "cycles"),
    ("compiler.cycles.conv7x7", "cycles"),
    ("compiler.cycles.conv3x3", "cycles"),
    ("compiler.cycles.conv1x1", "cycles"),
    ("compiler.cycles.maxpool", "cycles"),
    ("compiler.cycles.add", "cycles"),
    ("compiler.cycles.gap", "cycles"),
    ("compiler.cycles.dense", "cycles"),
    ("isa.decode_s", "s"),
    ("sim.dispatch_s", "s"),
    ("sim.datapath_s", "s"),
    ("sim.host_ns_per_instruction", "ns"),
    ("sim.instructions", "count"),
    ("sim.nops", "count"),
    ("sim.mxm_waves", "count"),
    ("sim.vxm_issues", "count"),
    ("sim.sram_reads", "count"),
    ("sim.sram_writes", "count"),
    ("sim.mxm_waves_per_cycle", "ratio"),
    ("sim.counters_overhead", "ratio"),
    ("serve.loop_s", "s"),
    ("serve.verify_s", "s"),
    ("serve.batch_fill", "ratio"),
    ("serve.emplace_share", "ratio"),
    ("serve.chip_busy_share", "ratio"),
    ("serve.attempts_per_request", "ratio"),
    ("faults.applied", "count"),
    ("faults.vacant", "count"),
    ("serve.queue_wait_p50_cycles", "cycles"),
    ("serve.queue_wait_p99_cycles", "cycles"),
    ("serve.shed_share", "ratio"),
    ("serve.miss_share", "ratio"),
    ("serve.quarantined_chips", "count"),
    ("bench.wall_s", "s"),
    ("bench.spanned_s", "s"),
    ("bench.unspanned_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed. A failure here is *counted*, not fatal:
/// the run continues and reports `failed_share`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one inference whose logits should equal the reference's.
    /// Returns the number of disagreeing positions (a length mismatch
    /// counts every position of the longer vector past the shorter).
    pub fn check_logits(&mut self, got: &[i8], want: &[i8]) -> usize {
        let differing =
            got.iter().zip(want).filter(|(a, b)| a != b).count() + got.len().abs_diff(want.len());
        self.record(differing == 0);
        differing
    }

    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One workload's measured values, printed by name with unit and sample
/// count, then as the final JSON line.
#[derive(Debug, Default)]
pub struct Results {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Results {
    /// Records `value` for `name`, computed from `samples` samples.
    ///
    /// # Panics
    ///
    /// If `name` is not in [`END_TO_END`] or [`PER_LAYER`], or `value` is
    /// not finite.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            valid_name(name) && unit_of(name).is_some(),
            "unregistered metric {name}"
        );
        assert!(value.is_finite(), "{name} = {value} is not finite");
        self.values.insert(name, (value, samples));
    }

    /// The value recorded for `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// The human-readable block for `table`, one metric per line.
    #[must_use]
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in table {
            let (value, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
            let _ = writeln!(out, "{name:<34} {value:>16.6} {unit:<6} (n={n})");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of `table` (unrecorded ones read 0), values with all their digits.
    #[must_use]
    pub fn json_line(&self, table: &[(&'static str, &'static str)], tally: &Tally) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).map_or(0.0, |v| v.0);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
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
    use tsp_telemetry::json::Json;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit} for {name}"
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn wrong_logits_count_as_a_failure() {
        let want: Vec<i8> = (0..10).collect();
        let mut wrong = want.clone();
        wrong[3] = -wrong[3] - 1;
        let mut t = Tally::default();
        assert_eq!(t.check_logits(&want, &want), 0);
        assert_eq!(t.check_logits(&wrong, &want), 1);
        assert_eq!(t.check_logits(&want[..8], &want), 2, "short read-out");
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!((t.failed_share() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = Results::default();
        r.set("setup_s", 1.25, 3);
        let line = r.json_line(END_TO_END, &Tally::default());
        let doc = Json::parse(&line).expect("result line parses");
        let metrics = doc.get("metrics").and_then(Json::as_object).expect("map");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
    }
}
