//! Names and units of every metric, in reporting order. `BENCHMARK.json`
//! lists the same names; a unit test keeps the two in step.

use crate::json::Json;

/// `(name, unit)` of the end-to-end metrics (tracing off).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("session_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics (traced run). A metric of a
/// layer the workload does not pass through reads 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("bench.epoch_p90_s", "s"),
    ("bench.epoch_samples", "count"),
    ("core.api.build_s", "s"),
    ("core.api.write_s", "s"),
    ("core.api.write_calls", "count"),
    ("core.api.write_p90_s", "s"),
    ("core.api.read_s", "s"),
    ("core.api.finalize_s", "s"),
    ("core.api.unattributed_s", "s"),
    ("bench.span_coverage", "ratio"),
    ("core.aggregation.puts", "count"),
    ("core.aggregation.put_bytes", "B"),
    ("core.aggregation.fences", "count"),
    ("core.aggregation.flushes", "count"),
    ("core.aggregation.flush_bytes", "B"),
    ("core.aggregation.coalesced_puts", "count"),
    ("core.aggregation.coalesced_chunks", "count"),
    ("core.aggregation.staging_copy_bytes", "B"),
    ("trace.events", "count"),
    ("trace.rounds", "count"),
    ("trace.overlap_fraction", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("mpi.runtime.spawn_join_s", "s"),
    ("mpi.comm.allgather_s", "s"),
    ("mpi.comm.minloc_s", "s"),
    ("mpi.comm.barrier_s", "s"),
    ("mpi.comm.subgroup_s", "s"),
    ("mpi.comm.barrier_wait_s", "s"),
    ("mpi.rma.alloc_s", "s"),
    ("mpi.rma.put_s", "s"),
    ("mpi.rma.put_gibs", "GiB/s"),
    ("mpi.rma.get_s", "s"),
    ("mpi.rma.get_gibs", "GiB/s"),
    ("mpi.rma.fence_s", "s"),
    ("mpi.file.open_s", "s"),
    ("mpi.file.iwrite_wait_s", "s"),
    ("mpi.file.write_gibs", "GiB/s"),
    ("mpi.file.read_at_s", "s"),
    ("mpi.file.read_gibs", "GiB/s"),
    ("core.schedule.compute_s", "s"),
    ("core.schedule.stream_plan_s", "s"),
    ("core.schedule.coalesce_plan_s", "s"),
    ("core.schedule.partitions", "count"),
    ("core.schedule.rounds", "count"),
    ("core.schedule.chunks", "count"),
    ("core.placement.elect_s", "s"),
    ("core.placement.members_max", "count"),
    ("core.plan.append_s", "s"),
    ("core.plan.ops", "count"),
    ("core.sim_exec.build_s", "s"),
    ("core.sim_exec.run_epoch_s", "s"),
    ("core.sim_exec.simulate_s", "s"),
    ("core.sim_exec.transfers", "count"),
    ("core.sim_exec.flushes", "count"),
    ("core.sim_exec.sim_elapsed_s", "s"),
    ("core.sim_exec.sim_bandwidth_gibs", "GiB/s"),
    ("netsim.engine.round_run_s", "s"),
    ("netsim.engine.flows", "count"),
    ("netsim.engine.steps", "count"),
    ("netsim.engine.steps_per_s", "1/s"),
    ("netsim.fairshare.max_min_s", "s"),
    ("topology.route_s", "s"),
    ("topology.routes", "count"),
    ("topology.hops_mean", "count"),
    ("topology.pair_metric_s", "s"),
    ("pfs.plan_wave_s", "s"),
    ("pfs.planned_flows", "count"),
    ("bench.traced_sessions", "count"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a listed metric"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every name of `table`,
    /// 0 for those not measured.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Json {
        Json::obj(table.iter().map(|&(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
                (
                    field("name").expect("name"),
                    field("unit").or_else(|| field("why")).expect("unit"),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        assert_eq!(names(&doc, "workloads"), own(&WORKLOADS));
    }

    #[test]
    fn unmeasured_metrics_read_zero() {
        let mut m = Metrics::default();
        m.set("epoch_s", 0.25);
        let j = m.to_json(&END_TO_END);
        assert_eq!(
            j.get("epoch_s").and_then(|e| e.get("value")),
            Some(&Json::Num(0.25))
        );
        assert_eq!(
            j.get("setup_s").and_then(|e| e.get("value")),
            Some(&Json::Num(0.0))
        );
        assert_eq!(
            j.get("cpu_s").and_then(|e| e.get("unit")),
            Some(&Json::Str("s".into()))
        );
    }
}
