//! The metric names this benchmark reports — the same names, in the same
//! order, as `BENCHMARK.json` at the root of the repo (a test keeps the two
//! in step). An untraced run prints every end-to-end metric; a traced run
//! prints every per-layer metric, `0` where a layer does not take part in the
//! workload (for instance `sharded.*` outside `serve_sharded`).

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How many timings (or events) the value was taken from.
    pub samples: usize,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str, samples: usize) {
    metrics.insert(
        name.to_string(),
        Metric {
            value,
            unit,
            samples,
        },
    );
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_stale_mean_ms", "ms"),
    ("write_r_ms", "ms"),
    ("write_s_ms", "ms"),
    ("restart_s", "s"),
    ("mem_bytes_per_fact", "B"),
    ("peak_bytes_per_fact", "B"),
];

/// Single layers, taken from outside by timing calls into public functions
/// or by reading `SessionStats` / `ShardedStats` deltas.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Read medians, tails and stalls: reported here, without a bound. A
    // repeat read is a microsecond that depends on what ran just before it;
    // stale reads come in modes (restamp, patch, recompute; point statement
    // or wide one), and the median is whichever mode holds the 50th
    // percentile this run; `analytic_cold` cannot give a tail ten samples
    // beyond the percentile. None repeats within a bound across runs.
    ("read_fresh_p50_us", "us"),
    ("read_fresh_p99_us", "us"),
    ("read_stale_p50_ms", "ms"),
    ("read_stale_p95_ms", "ms"),
    ("write_r_p50_ms", "ms"),
    ("write_s_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("write_batch_p50_ms", "ms"),
    ("write_ckpt_p50_ms", "ms"),
    ("trace_overhead_share", "ratio"),
    // The reference kernel's mean burst over the measured phase: how fast
    // the machine was (see `calib.rs`).
    ("calib.burst_us_mean", "us"),
    // Layer probes on the workload's instance.
    ("query.normalize_us_p50", "us"),
    ("query.parse_us_p50", "us"),
    ("core.prepare_us_p50", "us"),
    ("core.plan_us_p50", "us"),
    ("core.index.build_ms", "ms"),
    ("core.index.bytes_per_fact", "B"),
    ("core.index.apply_delta_r_us_p50", "us"),
    ("core.index.apply_delta_s_us_p50", "us"),
    ("core.index.dirty_blocks_per_event", "ratio"),
    ("core.index.restrict_us_p50", "us"),
    ("core.exec.full_ms.join_max", "ms"),
    ("core.exec.full_ms.join_multi", "ms"),
    ("core.exec.full_ms.fanout", "ms"),
    ("core.exec.groups_per_s", "1/s"),
    ("core.exec.thread_speedup", "ratio"),
    ("core.exec.for_groups_us_per_group", "us"),
    ("core.exec.dirty_candidates_us_p50", "us"),
    ("core.exec.glb_sum_ms", "ms"),
    ("core.forall.analyse_ms", "ms"),
    ("core.forall.embeddings", "count"),
    ("core.forall.forall_share", "ratio"),
    ("core.interval.topk_ms", "ms"),
    ("core.interval.order_rows_ms", "ms"),
    ("core.interval.having_us_per_row", "us"),
    ("data.apply_r_us_p50", "us"),
    ("data.apply_s_us_p50", "us"),
    ("data.encode_bytes_per_event", "B"),
    ("wal.append_us_p50", "us"),
    ("wal.sync_us_p50", "us"),
    ("wal.bytes_per_event", "B"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoint_bytes_per_fact", "B"),
    ("wal.open_ms", "ms"),
    ("session.pin_ns_p50", "ns"),
    ("session.execute_hit_us_p50", "us"),
    ("session.prepare_cold_us_p50", "us"),
    // Session paths over the measured phase, from `SessionStats` deltas.
    ("session.result_hit_share", "ratio"),
    ("session.statement_hit_share", "ratio"),
    ("session.statements_evicted", "count"),
    ("session.patch_share", "ratio"),
    ("session.support_miss_share", "ratio"),
    ("session.topk_fallbacks", "count"),
    ("session.index_builds", "count"),
    ("session.checkpoints", "count"),
    ("session.wal_appends_per_commit", "ratio"),
    ("session.cold_ms.fanout.r10", "ms"),
    ("session.cold_ms.join_max.r10", "ms"),
    ("session.cold_ms.topk_y.r10", "ms"),
    ("session.cold_ms.glb_sum.r10", "ms"),
    ("session.cold_ms.fanout.r40", "ms"),
    ("session.cold_ms.join_max.r40", "ms"),
    ("session.cold_ms.topk_y.r40", "ms"),
    ("session.cold_ms.glb_sum.r40", "ms"),
    // Shadow decomposition: each layer's share of the op it was part of, and
    // what the layer calls leave unexplained (the session's own time).
    ("session.read_cold.unattributed_share", "ratio"),
    ("session.commit.unattributed_share", "ratio"),
    ("shadow.read.query.normalize_share", "ratio"),
    ("shadow.read.query.parse_share", "ratio"),
    ("shadow.read.core.prepare_share", "ratio"),
    ("shadow.read.session.pin_share", "ratio"),
    ("shadow.read.core.index.restrict_share", "ratio"),
    ("shadow.read.core.exec_share", "ratio"),
    ("shadow.read.core.interval_share", "ratio"),
    ("shadow.write.data.apply_share", "ratio"),
    ("shadow.write.core.index.apply_delta_share", "ratio"),
    ("shadow.write.wal.append_share", "ratio"),
    ("shadow.write.wal.sync_share", "ratio"),
    // The sharded front-end, from `ShardedStats` deltas (serve_sharded only).
    ("sharded.fanout_share", "ratio"),
    ("sharded.designated_share", "ratio"),
    ("sharded.combine_share", "ratio"),
    ("sharded.mirror_events_per_write", "ratio"),
    ("sharded.mirror_syncs", "count"),
    ("sharded.group_commit_coalescing", "ratio"),
    ("sharded.epoch_skew", "ratio"),
    ("sharded.fanout_fresh_read_us_p50", "us"),
    ("sharded.combine_fresh_read_us_p50", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The names between `"<section>": [` and the matching `]`.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("name value") + 1..];
                rest[..rest.find('"').expect("name value closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let table = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&json, "end_to_end"), table(END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), table(PER_LAYER));
        assert_eq!(names_in(&json, "workloads"), crate::workloads::NAMES);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has unit {unit}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
