//! # shfl-bench — benchmark harness regenerating the paper's tables and figures
//!
//! Each experiment of the paper has a runner in [`experiments`] that produces typed
//! result rows and a plain-text table mirroring what the paper reports:
//!
//! | Experiment | Runner | Paper content |
//! |---|---|---|
//! | Figure 1 | [`experiments::fig1`] | SpMM throughput vs density, normalised to the CUDA-core dense GEMM |
//! | Figure 2 | [`experiments::fig2`] | GNMT accuracy–speedup trade-off on V100 |
//! | Figure 6 | [`experiments::fig6`] | Kernel speedup over dense for 3 GPUs × 3 models × sparsities × patterns |
//! | Table 1 | [`experiments::table1`] | Pruned-model quality per pattern at 80% / 90% sparsity |
//! | §6.2 ablations | [`experiments::ablation`] | Shuffle overhead, metadata prefetch, vector-size sweep |
//! | §3.2 analysis | [`experiments::analysis`] | Flexibility and operation-intensity comparison |
//!
//! The `repro` binary runs any subset (`repro --experiment fig6`) or every
//! figure and table at once (`repro --experiment all`).
//!
//! Beyond the paper's figures, [`bench_kernels`] times the functional kernels
//! three ways — naive reference, cold call (a plan built for the one call),
//! prepared plan — runs the end-to-end model engines, and emits the
//! `BENCH_kernels.json` v2 performance trajectory (`repro --bench-kernels`);
//! [`bench_serving`] drives the serving stack through mixed-size request
//! traces (`repro --bench-serving`, plan-cache hit rate + latency
//! percentiles); [`report`] parses the JSON back so its fields read by key.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bench_kernels;
pub mod bench_serving;
pub mod experiments;
pub mod report;
pub mod synth;

/// Formats a floating-point speedup for the report tables.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    #[test]
    fn fmt_speedup_has_two_decimals() {
        assert_eq!(super::fmt_speedup(1.816), "1.82x");
    }
}
