//! Metric names, units and the result line the benchmark prints.
//!
//! The tables below are the benchmark's contract: `BENCHMARK.json` lists
//! the same names with the same units, and every later performance claim
//! in the repository is measured against them.

/// End-to-end metrics, reported by runs with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_bytes", "bytes"),
    ("max_rss_bytes", "bytes"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("metnet.compress_s", "s"),
    ("metnet.reduced_reactions", "count"),
    ("problem.build_s", "s"),
    ("linalg.nullity_us", "us"),
    ("engine.rank_test_s", "s"),
    ("engine.rank_tests", "count"),
    ("engine.rank_test_us", "us"),
    ("engine.accept_ratio", "ratio"),
    ("engine.generate_s", "s"),
    ("engine.pairs", "count"),
    ("engine.numeric_pass_ratio", "ratio"),
    ("bitset.kernel_pruned", "count"),
    ("bitset.tree_pruned", "count"),
    ("bitset.prefilter_mpairs_s", "Mpairs/s"),
    ("engine.dedup_s", "s"),
    ("engine.tree_filter_s", "s"),
    ("engine.dedup_hits", "count"),
    ("engine.peak_modes", "count"),
    ("engine.arena_peak_bytes", "bytes"),
    ("engine.peak_transient_bytes", "bytes"),
    ("engine.stream_batches", "count"),
    ("cluster.comm_s", "s"),
    ("cluster.merge_s", "s"),
    ("cluster.comm_messages", "count"),
    ("cluster.comm_bytes", "bytes"),
    ("cluster.barrier_wait_s", "s"),
    ("divide.subsets_run", "count"),
    ("divide.pairs", "count"),
    ("divide.subset_max_s", "s"),
    ("divide.imbalance", "ratio"),
    ("schedule.steals", "count"),
    ("schedule.worker_busy_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("metnet.self_s", "s"),
    ("problem.self_s", "s"),
    ("api.self_s", "s"),
    ("engine.self_s", "s"),
    ("linalg.self_s", "s"),
    ("bitset.self_s", "s"),
    ("cluster.self_s", "s"),
    ("divide.self_s", "s"),
    ("schedule.self_s", "s"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Solves attempted, the warm-up included.
    pub attempted: u64,
    /// Solves that returned an error or a wrong EFM set, or whose
    /// deterministic counters changed between solves.
    pub failed: u64,
    /// Metric values by name, in table order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Whether every solve was correct.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Human-readable lines, one metric per line with its unit.
    pub fn table(&self) -> String {
        let mut out =
            format!("solves {} count\nfailed_solves {} count\n", self.attempted, self.failed);
        for (name, value) in &self.metrics {
            out.push_str(&format!("{name} {value} {}\n", unit(name)));
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                // `+ 0.0` turns a negative zero into `0`.
                let value = if value.is_finite() { value + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"))
}
