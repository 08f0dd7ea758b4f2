//! Metric names and units, in the order `BENCHMARK.json` declares them. A
//! run with tracing off prints every end-to-end metric; a traced run prints
//! every per-layer metric. A layer that does not run on a workload reads
//! 0 there (METRICS.md lists where).

use crate::replay::{name, Layers};
use crate::stats;
use crate::tracer::Tracer;

/// `(name, unit)` of each end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("device_ms_per_query", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

pub const KERNELS: &[&str] = &[
    "hit_detection",
    "hit_assembling",
    "hit_sorting",
    "hit_filtering",
    "ungapped_extension_window",
];

/// `(name, unit)` of each per-layer metric, kernels expanded.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("bio-seq.parse_ms", "ms"),
        ("cublastp-db.open_ms", "ms"),
        ("cublastp-db.image_bytes", "bytes"),
        ("cublastp-db.swap_ms", "ms"),
        ("cublastp.devicedata.upload_ms", "ms"),
        ("cublastp.devicedata.upload_bytes", "bytes"),
        ("cublastp.devicedata.flattens", "count"),
        ("blast-core.query_setup_ms.p50", "ms"),
        ("blast-core.query_setup_ms.sum", "ms"),
        ("blast-core.dfa_bytes", "bytes"),
        ("cublastp.gpu_phase.host_ms", "ms"),
        ("cublastp.gpu_phase.sim_ms", "ms"),
        ("cublastp.gpu_phase.sim_tax", "ratio"),
        ("cublastp.gpu_phase.hits", "count"),
        ("cublastp.gpu_phase.extensions", "count"),
        ("cublastp.gpu_phase.survival_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        v.push((format!("kernel.{k}.sim_ms"), "ms"));
        v.push((format!("kernel.{k}.gld_efficiency"), "ratio"));
        v.push((format!("kernel.{k}.divergence_share"), "ratio"));
        v.push((format!("kernel.{k}.occupancy"), "ratio"));
    }
    v.extend(
        [
            ("cublastp.grouped.rounds", "count"),
            ("cublastp.grouped.occupancy", "ratio"),
            ("cublastp.grouped.seeding_sim_ms", "ms"),
            ("cublastp.grouped.index_upload_bytes", "bytes"),
            ("cublastp.grouped.host_ms", "ms"),
            ("pcie.h2d_ms", "ms"),
            ("pcie.d2h_ms", "ms"),
            ("pcie.d2h_bytes", "bytes"),
            ("blast-cpu.gapped_ms", "ms"),
            ("blast-cpu.traceback_ms", "ms"),
            ("blast-cpu.dp_cells", "count"),
            ("blast-cpu.cells_per_s", "1/s"),
            ("blast-cpu.alignments", "count"),
            ("cublastp.search.merge_ms", "ms"),
            ("cublastp.shard.items", "count"),
            ("cublastp.shard.item_host_ms.p50", "ms"),
            ("cublastp.shard.item_host_ms.tail", "ms"),
            ("cublastp.shard.imbalance", "ratio"),
            ("cublastp.scheduler.steals", "count"),
            ("cublastp-serve.queue_wait_ms.interactive.p50", "ms"),
            ("cublastp-serve.queue_wait_ms.interactive.tail", "ms"),
            ("cublastp-serve.queue_wait_ms.bulk.p50", "ms"),
            ("cublastp-serve.queue_wait_ms.bulk.tail", "ms"),
            ("cublastp-serve.service_ms.interactive.p50", "ms"),
            ("cublastp-serve.service_ms.interactive.tail", "ms"),
            ("cublastp-serve.service_ms.bulk.p50", "ms"),
            ("cublastp-serve.service_ms.bulk.tail", "ms"),
            ("cublastp-serve.interactive_first_block_ms", "ms"),
            ("cublastp-serve.bulk_latency_ms.p50", "ms"),
            ("cublastp-serve.bulk_latency_ms.tail", "ms"),
            ("cublastp-serve.interactive_latency_ms.p50", "ms"),
            ("cublastp-serve.interactive_latency_ms.tail", "ms"),
            ("cublastp-serve.refused", "count"),
            ("cublastp-serve.deadline_exceeded", "count"),
            ("cublastp-serve.cross_generation", "count"),
            ("cublastp-serve.blocks_streamed", "count"),
            ("cublastp-serve.gen_lag_ms", "ms"),
            ("e2ebench.generator_late_ms", "ms"),
            ("obs.untraced_unit_ms", "ms"),
            ("obs.traced_unit_ms", "ms"),
            ("obs.trace_overhead_share", "ratio"),
            ("obs.unattributed_share", "ratio"),
            ("obs.attribution_gap_share", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// Ordered `(name, value, unit)` triples.
pub type Values = Vec<(String, f64, &'static str)>;

/// A full metric set, every value starting at 0.
pub struct Sheet {
    values: Values,
}

impl Sheet {
    pub fn end_to_end() -> Self {
        Self {
            values: END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), 0.0, u))
                .collect(),
        }
    }

    pub fn per_layer() -> Self {
        Self {
            values: per_layer().into_iter().map(|(n, u)| (n, 0.0, u)).collect(),
        }
    }

    /// Set a declared metric; an undeclared name is a bug in this program.
    pub fn set(&mut self, metric: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == metric)
            .unwrap_or_else(|| panic!("metric {metric} is not declared"));
        slot.1 = value;
    }

    pub fn get(&self, metric: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _, _)| n == metric)
            .map_or(0.0, |v| v.1)
    }

    pub fn into_values(self) -> Values {
        self.values
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fill the layers every replay measures, as totals per replayed unit.
pub fn fill_layers(sheet: &mut Sheet, tr: &Tracer, layers: &Layers, units: usize) {
    let u = units.max(1) as f64;
    let by = tr.by_name();
    let total = |n: &str| by.get(n).map_or(0.0, |t| t.0);

    sheet.set(
        "blast-core.query_setup_ms.p50",
        stats::median(&layers.query_setup_ms),
    );
    sheet.set(
        "blast-core.query_setup_ms.sum",
        stats::sum(&layers.query_setup_ms) / u,
    );
    sheet.set("blast-core.dfa_bytes", layers.dfa_bytes as f64 / u);

    let host = total(name::GPU_PHASE) + total(name::GPU_TAIL);
    let sim = layers.gpu_sim_ms();
    sheet.set("cublastp.gpu_phase.host_ms", host / u);
    sheet.set("cublastp.gpu_phase.sim_ms", sim / u);
    sheet.set("cublastp.gpu_phase.sim_tax", ratio(host, sim));
    sheet.set("cublastp.gpu_phase.hits", layers.counts.hits as f64 / u);
    sheet.set(
        "cublastp.gpu_phase.extensions",
        layers.counts.extensions as f64 / u,
    );
    sheet.set(
        "cublastp.gpu_phase.survival_ratio",
        ratio(layers.counts.filtered as f64, layers.counts.hits as f64),
    );
    for k in KERNELS {
        if let Some(acc) = layers.kernel(k) {
            sheet.set(&format!("kernel.{k}.sim_ms"), acc.sim_ms / u);
            sheet.set(
                &format!("kernel.{k}.gld_efficiency"),
                acc.merged.global_load_efficiency(),
            );
            sheet.set(
                &format!("kernel.{k}.divergence_share"),
                acc.merged.divergence_overhead(),
            );
            sheet.set(&format!("kernel.{k}.occupancy"), acc.merged.occupancy);
        }
    }

    sheet.set("cublastp.grouped.rounds", layers.rounds as f64 / u);
    sheet.set(
        "cublastp.grouped.occupancy",
        ratio(
            stats::sum(&layers.round_occupancy),
            layers.round_occupancy.len() as f64,
        ),
    );
    sheet.set("cublastp.grouped.seeding_sim_ms", layers.seeding_sim_ms / u);
    sheet.set(
        "cublastp.grouped.index_upload_bytes",
        layers.index_upload_bytes as f64 / u,
    );
    sheet.set(
        "cublastp.grouped.host_ms",
        (total(name::GROUP_UPLOAD) + total(name::GROUPED_SEEDING)) / u,
    );

    sheet.set("pcie.h2d_ms", layers.h2d_ms / u);
    sheet.set("pcie.d2h_ms", layers.d2h_ms / u);
    sheet.set("pcie.d2h_bytes", layers.d2h_bytes as f64 / u);

    let gapped_s = layers.gapped.as_secs_f64();
    sheet.set("blast-cpu.gapped_ms", gapped_s * 1e3 / u);
    sheet.set(
        "blast-cpu.traceback_ms",
        layers.traceback.as_secs_f64() * 1e3 / u,
    );
    sheet.set("blast-cpu.dp_cells", layers.dp_cells as f64 / u);
    sheet.set(
        "blast-cpu.cells_per_s",
        ratio(layers.dp_cells as f64, gapped_s),
    );
    sheet.set("blast-cpu.alignments", layers.alignments as f64 / u);
    sheet.set("cublastp.search.merge_ms", total(name::FINALIZE) / u);

    if !layers.shard_items.is_empty() {
        let items: Vec<f64> = layers.shard_items.iter().flatten().copied().collect();
        sheet.set("cublastp.shard.items", items.len() as f64 / u);
        sheet.set("cublastp.shard.item_host_ms.p50", stats::median(&items));
        sheet.set(
            "cublastp.shard.item_host_ms.tail",
            stats::tail(&items).value,
        );
        let imbalance: Vec<f64> = layers
            .shard_items
            .iter()
            .filter(|q| !q.is_empty())
            .map(|q| {
                let max = q.iter().copied().fold(0.0, f64::max);
                ratio(max, stats::sum(q) / q.len() as f64)
            })
            .collect();
        sheet.set("cublastp.shard.imbalance", stats::median(&imbalance));
    }

    // Unattributed: the part of each replayed unit no layer span covers.
    let (unit_total, unit_self) = by.get(name::UNIT).copied().unwrap_or((0.0, 0.0));
    sheet.set("obs.unattributed_share", ratio(unit_self, unit_total));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here are the ones `BENCHMARK.json` declares.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let pairs = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let field = |key: &str| {
                        let at = obj.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &obj[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(pairs("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(pairs("per_layer"), layers);
    }
}
