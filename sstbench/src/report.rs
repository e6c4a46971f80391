//! Metric catalogs and the one-line JSON result.

use crate::trace::Layers;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cold_start_ms", "ms"),
    ("snapshot_start_ms", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer rows, printed by every traced run (see README.md for what
/// each one times and which end-to-end metric it should move).
pub const PER_LAYER: [(&str, &str); 48] = [
    ("server.wire_ms", "ms"),
    ("server.handle_ms.rank", "ms"),
    ("server.handle_ms.similarity", "ms"),
    ("server.handle_ms.ql", "ms"),
    ("server.handle_ms.metrics", "ms"),
    ("server.handle_ms.align", "ms"),
    ("server.overhead_ms.rank", "ms"),
    ("core.memo.rank_ms", "ms"),
    ("core.memo.miss_overhead_ms", "ms"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.evictions", "count"),
    ("core.prepare_ms.tokens", "ms"),
    ("core.prepare_ms.tables", "ms"),
    ("core.prepare_ms.tfidf", "ms"),
    ("core.rank_ms.levenshtein", "ms"),
    ("core.rank_ms.lin", "ms"),
    ("core.rank_ms.conceptual_similarity", "ms"),
    ("core.rank_ms.tfidf", "ms"),
    ("core.score_ms.levenshtein", "ms"),
    ("core.score_ms.lin", "ms"),
    ("core.score_ms.conceptual_similarity", "ms"),
    ("core.score_ms.tfidf", "ms"),
    ("core.select_ms", "ms"),
    ("core.sched.steals", "count"),
    ("core.sched.imbalance", "ratio"),
    ("core.vector.approx_ms", "ms"),
    ("core.align_ms", "ms"),
    ("core.align.candidate_pairs", "count"),
    ("core.align.proposals", "count"),
    ("soqa.ql_ms", "ms"),
    ("obs.render_ms", "ms"),
    ("obs.series", "count"),
    ("wrappers.parse_owl_ms", "ms"),
    ("wrappers.parse_daml_ms", "ms"),
    ("wrappers.parse_powerloom_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.vector.graph_ms", "ms"),
    ("core.snapshot.decode_ms", "ms"),
    ("core.snapshot.import_ms", "ms"),
    ("core.snapshot.export_ms", "ms"),
    ("core.snapshot.bytes", "bytes"),
    ("core.first_rank_ms", "ms"),
    ("core.first_approx_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.accounting_residual", "ratio"),
    ("trace.samples", "count"),
    ("trace.oracle_checked", "count"),
    ("trace.probe_rows", "count"),
];

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.metrics.len());
        for &(name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Resolves every per-layer row: the workload's own samples when it has
/// any, else the off-path probe's. `trace.probe_rows` counts the rows
/// that fell back to the probe.
pub fn per_layer(
    own: &Layers,
    probe: &Layers,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out = Vec::with_capacity(PER_LAYER.len());
    let mut from_probe = 0usize;
    for &(name, unit) in &PER_LAYER {
        if name == "trace.probe_rows" {
            continue;
        }
        let value = if own.count(name) > 0 {
            own.mean(name)
        } else {
            from_probe += 1;
            probe.mean(name)
        };
        out.push((
            name,
            value.ok_or_else(|| format!("no samples for per-layer row {name}"))?,
            unit,
        ));
    }
    out.push(("trace.probe_rows", from_probe as f64, "count"));
    Ok(out)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("latency_p50_ms", 1.25, "ms")],
        };
        assert_eq!(
            o.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let bad = Outcome {
            metrics: vec![("x", f64::NAN, "ms")],
            ..o
        };
        assert!(bad.to_json().is_err());
    }
}
