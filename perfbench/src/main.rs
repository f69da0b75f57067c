//! The repository benchmark: three workloads that drive the Shfl-BW serving
//! stack only through the public functions of `shfl-models`,
//! `shfl-serving` and `shfl-kernels`, check every output against an
//! independent oracle, and print end-to-end metrics (untraced) or
//! per-layer metrics (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <forward_resnet50|serve_mixed|decode_gnmt> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it are
//! the human report: the stamp (thread count, SIMD tier, compiler, revision,
//! seed), the per-phase operation counts, and every workload-specific
//! metric by name and unit. The process exits with 1 when any output is
//! wrong and with 2 when the run cannot be measured.

mod decode;
mod env;
mod forward;
mod serve;
mod stats;
mod trace;

use shfl_kernels::cache::PlanCacheStats;
use shfl_serving::engine::{ServingEngine, ServingStats};
use stats::{ratio, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// What one workload run needs to know.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub setups: usize,
}

/// Operation counts of one phase of a run. Every operation sent ends in
/// exactly one of the other fields.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    /// Returned a typed error.
    pub failed: u64,
    /// Refused at submission.
    pub rejected: u64,
    /// Shed by overload protection, at submission or from the queue.
    pub shed: u64,
    /// Returned an output that differs from the oracle.
    pub wrong: u64,
}

impl Phase {
    pub fn new(name: &'static str) -> Phase {
        Phase {
            name,
            sent: 0,
            succeeded: 0,
            failed: 0,
            rejected: 0,
            shed: 0,
            wrong: 0,
        }
    }

    fn unsuccessful(&self) -> u64 {
        self.failed + self.rejected + self.shed + self.wrong
    }

    fn json(&self) -> String {
        format!(
            "{{\"phase\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {}, \"rejected\": {}, \"shed\": {}, \"wrong\": {}}}",
            env::json_str(self.name),
            self.sent,
            self.succeeded,
            self.failed,
            self.rejected,
            self.shed,
            self.wrong
        )
    }
}

/// What a workload run measured.
pub struct Outcome {
    /// Wall time of each set-up (engine build, server start, warm-up).
    pub setup_s: Vec<f64>,
    pub phases: Vec<Phase>,
    /// The workload's own end-to-end metrics, by the names users know.
    pub named: Metrics,
    /// Per-layer metrics (the span-derived ones only when traced).
    pub layers: Metrics,
    /// The named metric behind the common `throughput_per_s`.
    pub throughput: &'static str,
    /// The named metric behind the common `latency_ms_p50`.
    pub latency_p50: &'static str,
}

/// Engine counters at the start of a timed region, so per-layer metrics
/// cover only the work measured.
pub struct EngineSnapshot {
    cache: PlanCacheStats,
    engine: ServingStats,
}

impl EngineSnapshot {
    pub fn take(serving: &ServingEngine) -> EngineSnapshot {
        EngineSnapshot {
            cache: serving.cache_stats(),
            engine: serving.stats(),
        }
    }
}

/// The plan-cache and serving-engine per-layer metrics since `before`.
pub fn push_engine_layers(layers: &mut Metrics, serving: &ServingEngine, before: &EngineSnapshot) {
    let cache = serving.cache_stats();
    let hits = (cache.hits - before.cache.hits) as f64;
    let misses = (cache.misses - before.cache.misses) as f64;
    layers.push(
        "kernels.cache.hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
    );
    layers.push("kernels.cache.misses", "count", misses);
    layers.push(
        "kernels.cache.invalidations",
        "count",
        (cache.invalidations - before.cache.invalidations) as f64,
    );
    layers.push(
        "kernels.cache.resident_bytes",
        "B",
        serving.cache().resident_bytes() as f64,
    );
    let now = serving.stats();
    let requests = (now.requests - before.engine.requests) as f64;
    let columns = (now.columns - before.engine.columns) as f64;
    let padded = (now.padded_columns - before.engine.padded_columns) as f64;
    layers.push(
        "serving.engine.padded_column_share",
        "ratio",
        ratio(padded, padded + columns),
    );
    layers.push(
        "serving.engine.panel_bytes_per_request",
        "B",
        ratio(
            (now.panel_bytes_read - before.engine.panel_bytes_read) as f64,
            requests,
        ),
    );
    layers.push(
        "serving.engine.fused_sweep_share",
        "ratio",
        ratio(
            (now.fused_sweeps - before.engine.fused_sweeps) as f64,
            requests,
        ),
    );
}

/// Every per-layer metric a traced run prints, with its unit, in
/// `BENCHMARK.json` order. A workload that never exercises a layer reports
/// it as 0.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = forward::layer_metric_names()
        .into_iter()
        .map(|name| (name, "ms"))
        .collect();
    metrics.extend(
        [
            ("kernels.conv_plan.transform_bytes", "B"),
            ("kernels.conv_plan.im2col_bytes_avoided", "B"),
            ("kernels.cache.hit_ratio", "ratio"),
            ("kernels.cache.misses", "count"),
            ("kernels.cache.invalidations", "count"),
            ("kernels.cache.resident_bytes", "B"),
            ("serving.engine.padded_column_share", "ratio"),
            ("serving.engine.panel_bytes_per_request", "B"),
            ("serving.engine.fused_sweep_share", "ratio"),
            ("serving.server.submit_us_p99", "us"),
            ("serving.server.queue_ms_p50", "ms"),
            ("serving.server.queue_ms_p99", "ms"),
            ("serving.server.service_ms_p50", "ms"),
            ("serving.server.requests_per_group", "count"),
            ("serving.server.shed", "count"),
            ("serving.server.rejected", "count"),
            ("serving.update.repack_bytes_ratio", "ratio"),
            ("serving.update.rebuilt_plans", "count"),
            ("serving.update.invalidated_plans", "count"),
            ("serving.session.interleave_width_mean", "count"),
            ("serving.session.sweeps_per_token", "count"),
            ("serving.session.next_token_wait_ms_p50", "ms"),
            ("serving.session.open_us_p50", "us"),
            ("loadgen.lag_ms_p99", "ms"),
            ("loadgen.sent", "count"),
            (TRACE_OVERHEAD, "ratio"),
        ]
        .map(|(name, unit)| (name.to_string(), unit)),
    );
    metrics
}

/// The traced run's median op latency over the untraced run's, minus one.
const TRACE_OVERHEAD: &str = "perfbench.trace_overhead_share";

type Workload = fn(&RunConfig, &Tracer) -> Result<Outcome, String>;

fn workload(name: &str) -> Option<Workload> {
    match name {
        "forward_resnet50" => Some(forward::run),
        "serve_mixed" => Some(serve::run),
        "decode_gnmt" => Some(decode::run),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_report(outcome: &Outcome) {
    for phase in &outcome.phases {
        println!("perfbench-phase {}", phase.json());
    }
    for m in outcome.named.list.iter().chain(&outcome.layers.list) {
        println!("perfbench-metric {} {} {}", m.name, m.value, m.unit);
    }
    for refused in outcome.named.refused.iter().chain(&outcome.layers.refused) {
        println!("perfbench-refused {refused}");
    }
}

/// The result line: the last line of standard output, read by tools that
/// compare runs.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .list
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                env::json_str(&m.name),
                m.value,
                env::json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let run_workload = workload(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (forward_resnet50, serve_mixed, decode_gnmt)",
            args.workload
        )
    })?;
    let stamp = env::Stamp::new(&args.workload, args.seed, args.trace);
    println!("perfbench-stamp {}", stamp.json());

    let mut outcomes = Vec::new();
    let mut metrics = Metrics::default();
    if args.trace {
        // Untraced then traced, one set-up each: the difference between the
        // two is the tracing overhead.
        let cfg = RunConfig {
            seed: args.seed,
            seconds: args.seconds,
            setups: 1,
        };
        let plain = run_workload(&cfg, &Tracer::new(false))?;
        let tracer = Tracer::new(true);
        let traced = run_workload(&cfg, &tracer)?;
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
            .join("perfbench-spans");
        let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        println!("perfbench-spans {}", path.display());
        let key = traced.latency_p50;
        let overhead = ratio(
            traced.named.get(key).unwrap_or(0.0),
            plain.named.get(key).unwrap_or(0.0),
        ) - 1.0;
        let table = per_layer_metrics();
        if let Some(extra) = traced.layers.list.iter().find(|m| {
            !table
                .iter()
                .any(|(name, unit)| *name == m.name && *unit == m.unit)
        }) {
            return Err(format!(
                "per-layer metric {} ({}) is not in the per-layer table",
                extra.name, extra.unit
            ));
        }
        for (name, unit) in table {
            let value = if name == TRACE_OVERHEAD {
                overhead
            } else {
                traced.layers.get(&name).unwrap_or(0.0)
            };
            metrics.push(name, unit, value);
        }
        outcomes.push(plain);
        outcomes.push(traced);
    } else {
        let cfg = RunConfig {
            seed: args.seed,
            seconds: args.seconds,
            setups: SETUPS,
        };
        let outcome = run_workload(&cfg, &Tracer::new(false))?;
        let rss = env::rss_peak_mb()?;
        let setup = stats::median(&outcome.setup_s).ok_or("no set-up time was recorded")?;
        let named = |key: &str| {
            outcome
                .named
                .get(key)
                .ok_or_else(|| format!("the workload did not measure {key}"))
        };
        metrics.push("setup_s", "s", setup);
        metrics.push("rss_peak_mb", "MB", rss);
        metrics.push("throughput_per_s", "1/s", named(outcome.throughput)?);
        metrics.push("latency_ms_p50", "ms", named(outcome.latency_p50)?);
        outcomes.push(outcome);
    }

    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    for outcome in &outcomes {
        print_report(outcome);
        for phase in &outcome.phases {
            attempted += phase.sent;
            failed += phase.unsuccessful();
            wrong += phase.wrong;
        }
    }
    println!(
        "perfbench-metric ops_failed_share {} ratio",
        ratio(failed as f64, attempted as f64)
    );
    if let Some(bad) = metrics.list.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok((wrong == 0, attempted.max(1), failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_json(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: outputs differ from the oracle");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark")
    }

    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let bench = benchmark_json();
        let table = per_layer_metrics();
        for (name, unit) in &table {
            assert!(stats::valid_metric_name(name), "{name}");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = bench.matches("\"better\"").count();
        assert_eq!(listed, table.len() + 4, "per-layer and end-to-end entries");
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let bench = benchmark_json();
        for (name, unit) in [
            ("setup_s", "s"),
            ("rss_peak_mb", "MB"),
            ("throughput_per_s", "1/s"),
            ("latency_ms_p50", "ms"),
        ] {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in ["forward_resnet50", "serve_mixed", "decode_gnmt"] {
            assert!(self::workload(workload).is_some());
            assert!(bench.contains(&format!("{{\"name\": \"{workload}\"")));
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.push("latency_ms_p50", "ms", 1.25);
        let line = result_json(true, 3, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
