//! The metric catalogue — every name the benchmark emits, with its unit —
//! and the result line the benchmark prints last.

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("data_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("workloads.build_ms", "ms"),
    ("machine.run_ms", "ms"),
    ("machine.ns_per_calendar_event", "ns/event"),
    ("machine.into_trace_ms", "ms"),
    ("machine.collect_metrics_ms", "ms"),
    ("machine.calendar_events", "count"),
    ("machine.context_switches", "count"),
    ("machine.trace_events", "count"),
    ("run_once.critical_ms", "ms"),
    ("run_once.blame_ms", "ms"),
    ("run_once.verify_ms", "ms"),
    ("run_once.hb_ms", "ms"),
    ("run_once.other_ms", "ms"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.longest_request_share", "ratio"),
    ("runner.memo_hits", "count"),
    ("runner.disk_hits", "count"),
    ("runner.disk_misses", "count"),
    ("runner.quarantined", "count"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.load_read_ms", "ms"),
    ("store.load_decode_ms", "ms"),
    ("store.load_reverify_ms", "ms"),
    ("store.load_other_ms", "ms"),
    ("store.bytes_per_event", "bytes/event"),
    ("setl3.encode_ns_per_event", "ns/event"),
    ("setl3.decode_ns_per_event", "ns/event"),
    ("setl3.bytes_per_event", "bytes/event"),
    ("shard.index_us", "us"),
    ("shard.block_decode_ns_per_event", "ns/event"),
    ("shard.blocks", "count"),
    ("analyzer.verify.serial_ns_per_event", "ns/event"),
    ("analyzer.verify.sharded_ns_per_event", "ns/event"),
    ("analyzer.hb.serial_ns_per_event", "ns/event"),
    ("analyzer.hb.sharded_ns_per_event", "ns/event"),
    ("analyzer.tlp.serial_ns_per_event", "ns/event"),
    ("analyzer.tlp.sharded_ns_per_event", "ns/event"),
    ("analyzer.gpu_util.serial_ns_per_event", "ns/event"),
    ("analyzer.gpu_util.sharded_ns_per_event", "ns/event"),
    ("analyzer.latency.serial_ns_per_event", "ns/event"),
    ("analyzer.latency.sharded_ns_per_event", "ns/event"),
    ("analyzer.sched_stats.serial_ns_per_event", "ns/event"),
    ("analyzer.sched_stats.sharded_ns_per_event", "ns/event"),
    ("analyzer.engines.serial_ns_per_event", "ns/event"),
    ("analyzer.engines.sharded_ns_per_event", "ns/event"),
    ("analyzer.blame.serial_ns_per_event", "ns/event"),
    ("analyzer.blame.sharded_ns_per_event", "ns/event"),
    ("analyzer.critical.serial_ns_per_event", "ns/event"),
    ("analyzer.critical.sharded_ns_per_event", "ns/event"),
    ("analyzer.timeline.serial_ns_per_event", "ns/event"),
    ("analyzer.timeline.sharded_ns_per_event", "ns/event"),
    ("analyzer.filter.serial_ns_per_event", "ns/event"),
    ("analyzer.filter.sharded_ns_per_event", "ns/event"),
    ("suite.aggregate_ms", "ms"),
    ("suite.render_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One run's result: operations attempted and failed, and the metric
/// values by name.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(String, f64)>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `catalogue`, values with all their
    /// digits. A metric the run could not produce, or a run that attempted
    /// nothing, is a bug, reported as `Err` rather than printed as a
    /// made-up number.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = self
                .values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed in one array section of `BENCHMARK.json`.
    fn section_names(doc: &str, key: &str) -> Vec<String> {
        let start = doc
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("name value") + 1..];
                s[..s.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn emitted_names_are_exactly_the_documented_ones() {
        let doc = include_str!("../../BENCHMARK.json");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let emitted: Vec<String> = catalogue.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(
                section_names(doc, key),
                emitted,
                "`{key}` drifted from the code"
            );
            for (name, unit) in catalogue {
                assert!(valid(name), "bad metric name `{name}`");
                assert!(
                    doc.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "`{name}` is documented with another unit than `{unit}`"
                );
            }
        }
        let workloads = section_names(doc, "workloads");
        let names: Vec<&str> = crate::workload::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, names);
        assert!(names.iter().all(|n| valid(n)));
    }

    #[test]
    fn the_result_line_carries_every_metric_or_none() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            values: END_TO_END
                .iter()
                .map(|(n, _)| (n.to_string(), 0.5))
                .collect(),
        };
        let line = out.json(&END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"sweep_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        let partial = Outcome {
            values: Vec::new(),
            ..out
        };
        assert!(partial.json(&END_TO_END).is_err());
    }
}
