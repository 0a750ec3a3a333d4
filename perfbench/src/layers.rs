//! Per-layer metrics of a traced run, named `<crate>.<what>`.
//!
//! Every metric is reported on every workload so the result line has one
//! fixed shape; a layer a workload does not use reads 0. Span-derived
//! values are per traced pass (totals divided by the pass count), set-up
//! values per set-up.

use std::collections::BTreeMap;

use crate::metrics::Metric;
use crate::recorder::SpanStats;

/// What [`per_layer`] reads.
pub struct Inputs<'a> {
    pub spans: &'a BTreeMap<&'static str, SpanStats>,
    pub counters: &'a dyn Fn(&str) -> f64,
    pub passes: f64,
    pub setup_spans: &'a BTreeMap<&'static str, SpanStats>,
    pub setup_counters: &'a dyn Fn(&str) -> f64,
    pub setups: f64,
    pub threads: usize,
    /// `FvmCache::global()` hits, misses and evictions over the run's
    /// untraced passes, the path a `repro` user takes.
    pub cache_delta: [u64; 3],
    pub untraced_passes: f64,
    pub unattributed_pct: f64,
    pub overhead_pct: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metric list, in a fixed order.
#[must_use]
pub fn per_layer(x: &Inputs<'_>) -> Vec<Metric> {
    let calls = |name: &str| x.spans.get(name).map_or(0.0, |s| s.calls as f64) / x.passes;
    let busy = |name: &str| x.spans.get(name).map_or(0.0, |s| s.busy_ns as f64 / 1e9) / x.passes;
    let count = |name: &str| (x.counters)(name) / x.passes;
    let setup_busy = |name: &str| {
        x.setup_spans
            .get(name)
            .map_or(0.0, |s| s.busy_ns as f64 / 1e9)
            / x.setups
    };

    let eval_busy = busy("nn.eval");
    let macs = count("nn.eval.macs");
    let ecc_words = count("faults.ecc.words");
    let ecc_corrected = count("faults.ecc.corrected");
    let ecc_faulty = count("faults.ecc.faulty_words");
    let campaign_wall = busy("characterize.campaign");
    let job_busy = count("characterize.campaign.job_busy_s");
    let [hits, misses, evictions] = x.cache_delta;
    let per_untraced = |v: u64| v as f64 / x.untraced_passes;

    vec![
        Metric::new("nn.train.busy_s", "s", setup_busy("nn.train")),
        Metric::new(
            "nn.train.epochs",
            "count",
            (x.setup_counters)("nn.train.epochs") / x.setups,
        ),
        Metric::new("nn.eval.calls", "count", calls("nn.eval")),
        Metric::new("nn.eval.samples", "count", count("nn.eval.samples")),
        Metric::new("nn.eval.busy_s", "s", eval_busy),
        Metric::new("nn.eval.gmac_per_s", "GMAC/s", ratio(macs / 1e9, eval_busy)),
        Metric::new(
            "nn.eval.unchanged_net_share",
            "ratio",
            ratio(count("nn.eval.unchanged_nets"), calls("nn.eval")),
        ),
        Metric::new(
            "nn.eval.unchanged_prefix_mac_share",
            "ratio",
            ratio(count("nn.eval.prefix_macs"), macs),
        ),
        Metric::new("accel.load.calls", "count", calls("accel.load")),
        Metric::new("accel.load.busy_s", "s", busy("accel.load")),
        Metric::new("accel.read_back.calls", "count", calls("accel.read_back")),
        Metric::new("accel.read_back.busy_s", "s", busy("accel.read_back")),
        Metric::new(
            "accel.read_back.words",
            "count",
            count("accel.read_back.words"),
        ),
        Metric::new(
            "accel.read_back_ecc.calls",
            "count",
            calls("accel.read_back_ecc"),
        ),
        Metric::new(
            "accel.read_back_ecc.busy_s",
            "s",
            busy("accel.read_back_ecc"),
        ),
        Metric::new("accel.placement.busy_s", "s", busy("accel.placement")),
        Metric::new(
            "faults.model_build.calls",
            "count",
            calls("faults.model_build"),
        ),
        Metric::new("faults.model_build.busy_s", "s", busy("faults.model_build")),
        Metric::new("faults.weak_cells", "count", count("faults.weak_cells")),
        Metric::new("faults.ecc.words", "count", ecc_words),
        Metric::new("faults.ecc.busy_s", "s", busy("faults.ecc")),
        Metric::new("faults.ecc.corrected", "count", ecc_corrected),
        Metric::new("faults.ecc.escaped", "count", count("faults.ecc.escaped")),
        Metric::new(
            "faults.ecc.corrected_share",
            "ratio",
            ratio(ecc_corrected, ecc_faulty),
        ),
        Metric::new(
            "characterize.sweep.calls",
            "count",
            calls("characterize.sweep"),
        ),
        Metric::new("characterize.sweep.busy_s", "s", busy("characterize.sweep")),
        Metric::new(
            "characterize.sweep.levels",
            "count",
            count("characterize.sweep.levels"),
        ),
        Metric::new(
            "characterize.sweep.runs",
            "count",
            count("characterize.sweep.runs"),
        ),
        Metric::new(
            "characterize.crash_events",
            "count",
            count("characterize.crash_events"),
        ),
        Metric::new(
            "characterize.power_cycles",
            "count",
            count("characterize.power_cycles"),
        ),
        Metric::new(
            "characterize.campaign.parallel_efficiency",
            "ratio",
            ratio(job_busy, campaign_wall * x.threads as f64),
        ),
        Metric::new(
            "characterize.probe_sample.calls",
            "count",
            calls("characterize.probe_sample"),
        ),
        Metric::new(
            "characterize.probe_sample.busy_s",
            "s",
            busy("characterize.probe_sample"),
        ),
        Metric::new(
            "characterize.location_census.busy_s",
            "s",
            busy("characterize.location_census"),
        ),
        Metric::new(
            "characterize.thermal.busy_s",
            "s",
            busy("characterize.thermal"),
        ),
        Metric::new("characterize.fvm_cache.hits", "count", per_untraced(hits)),
        Metric::new(
            "characterize.fvm_cache.misses",
            "count",
            per_untraced(misses),
        ),
        Metric::new(
            "characterize.fvm_cache.evictions",
            "count",
            per_untraced(evictions),
        ),
        Metric::new(
            "characterize.fvm_cache.hit_ratio",
            "ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        Metric::new("stats.kmeans.calls", "count", calls("stats.kmeans")),
        Metric::new("stats.kmeans.busy_s", "s", busy("stats.kmeans")),
        Metric::new("stats.chi2.busy_s", "s", busy("stats.chi2")),
        Metric::new("fpga.board.busy_s", "s", busy("fpga.board")),
        Metric::new("power.sample.calls", "count", calls("power.sample")),
        Metric::new("bench.unattributed_pct", "%", x.unattributed_pct),
        Metric::new("bench.trace_overhead_pct", "%", x.overhead_pct),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::valid_name;

    #[test]
    fn per_layer_names_are_valid_unique_and_zero_when_unused() {
        let empty = BTreeMap::new();
        let zero = |_: &str| 0.0;
        let metrics = per_layer(&Inputs {
            spans: &empty,
            counters: &zero,
            passes: 1.0,
            setup_spans: &empty,
            setup_counters: &zero,
            setups: 3.0,
            threads: 2,
            cache_delta: [0; 3],
            untraced_passes: 1.0,
            unattributed_pct: 0.0,
            overhead_pct: 0.0,
        });
        for (i, m) in metrics.iter().enumerate() {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(metrics[..i].iter().all(|o| o.name != m.name), "{}", m.name);
            assert_eq!(m.value, 0.0, "{}", m.name);
        }
        assert_eq!(metrics.len(), 46);
    }
}
