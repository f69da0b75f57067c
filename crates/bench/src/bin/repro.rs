//! `repro` — regenerates the paper's tables and figures from the command line.
//!
//! ```text
//! repro [--experiment fig1|fig2|fig6|table1|ablation|analysis|headline|all]
//! repro --bench-kernels [--smoke] [--bench-output BENCH_kernels.json]
//! repro --bench-serving [--smoke]
//! ```
//!
//! With no arguments every experiment is run. The output is plain text, one section
//! per experiment, mirroring the rows/series the paper reports.
//!
//! `--bench-kernels` instead runs the wall-clock kernel benchmark (naive
//! reference vs cold call vs prepared plan, same run) plus the
//! end-to-end model engines and the serving trace, and writes
//! `BENCH_kernels.json` (schema v2). `--smoke` shrinks every shape to a tiny
//! configuration and skips the wall-clock speedup gates (bit-identity is
//! still enforced) — the CI mode that keeps the bench code from bitrotting
//! between perf PRs.
//!
//! `--bench-serving` runs only the mixed-size serving trace over the plan
//! cache and gates on the steady-state plan-cache miss rate (≤ 10%),
//! bit-identity against the cold exact-width oracle, the panel sweep's
//! traffic (panel bytes of a request ≥4 largest-bucket widths wide must stay
//! under 1.5× the single-sweep lower bound — counter-verified, so it gates in
//! smoke mode too), cross-request coalescing bit-identity, and (full mode
//! only) cached-plan aggregate throughput beating per-request cold plan
//! builds plus coalesced throughput not losing to the uncoalesced fan-out.
//!
//! The serving run also drives the **continuous-batching** sub-trace
//! (staggered one-at-a-time submissions with mixed deadline/standard/bulk
//! classes through `shfl_serving::server::Server`): bit-identity against
//! per-request cold execution gates in every mode; full mode additionally
//! gates on the admission window coalescing across arrivals (group and
//! panel-byte counters), on windowed aggregate throughput not losing to the
//! zero-window baseline (with at least one ≥4-layer workload strictly
//! beating it), and on deadline-class p99 staying below bulk-class p99. The
//! **overload** sub-trace (gap-free arrivals against one worker and a small
//! bulk-class bound) gates on a nonzero bulk shed count in every mode — the
//! load-shedding path is structural, not timing-dependent — and, in full
//! mode, on deadline p99 staying strictly below bulk p99 under overload.

use gpu_sim::GpuArch;
use shfl_bench::experiments::{ablation, analysis, fig1, fig2, fig6, table1};
use shfl_bench::{bench_kernels, bench_serving};
use std::env;
use std::process::ExitCode;

/// The serving gate: steady-state plan-cache miss rate above this fraction
/// fails the run (one plan per layer version makes serving hit-dominated; a
/// keying or eviction regression shows up here first).
const MAX_SERVING_MISS_RATE: f64 = 0.10;

fn print_fig1() {
    for arch in GpuArch::all() {
        println!("[{}]", arch);
        println!("{}", fig1::to_table(&fig1::run(&arch)));
    }
}

fn print_fig2() {
    println!("{}", fig2::to_table(&fig2::run()));
}

fn print_fig6() {
    println!("{}", fig6::to_table(&fig6::run(false)));
}

fn print_headline() {
    println!("Headline: Shfl-BW speedup on Transformer GEMM layers at 75% sparsity");
    println!("(paper reports 1.81x on V100, 4.18x on T4, 1.90x on A100)");
    for (gpu, speedup) in fig6::headline_transformer_speedups() {
        println!("  {gpu:5}: {speedup:.2}x");
    }
    println!();
}

fn print_table1() {
    println!("{}", table1::to_table(&table1::run()));
}

fn print_ablation() {
    println!(
        "{}",
        ablation::to_table(
            &ablation::shuffle_overhead(),
            &ablation::prefetch_ablation(),
            &ablation::vector_size_sweep(),
        )
    );
}

fn print_analysis() {
    println!("{}", analysis::to_table(&analysis::run()));
}

/// Runs the wall-clock kernel benchmark and writes the JSON trajectory.
///
/// In full mode the run is gated on the acceptance targets: ≥5× naive-over-
/// cold on both headline kernels, ≥1.35× prepared-over-cold on the Shfl-BW
/// headline, ≥1× naive-over-cold on the CUDA-core CSR kernel, end-to-end
/// numbers present for all three models, bit-identical outputs everywhere
/// (including implicit conv vs the cold im2col oracle), and zero im2col bytes
/// charged on the implicit conv path. `--smoke` keeps only the bit-identity,
/// zero-materialisation and model-presence gates (tiny shapes make
/// wall-clock ratios meaningless).
fn run_bench_kernels(output_path: &str, smoke: bool) -> ExitCode {
    println!(
        "Running the kernel wall-clock benchmark (naive vs cold vs prepared{})...",
        if smoke { ", smoke shapes" } else { "" }
    );
    let run = bench_kernels::run(smoke);
    print!("{}", bench_kernels::to_table(&run));
    let json = bench_kernels::to_json(&run);
    if let Err(err) = std::fs::write(output_path, &json) {
        eprintln!("error: cannot write {output_path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {output_path}");

    let mut ok = true;
    for r in &run.kernels {
        if !r.bit_identical {
            eprintln!(
                "error: kernel {} ({}) is not bit-identical across naive/cold/prepared",
                r.kernel, r.shape
            );
            ok = false;
        }
    }
    if run.models.len() != 3 {
        eprintln!(
            "error: expected end-to-end numbers for 3 models, got {}",
            run.models.len()
        );
        ok = false;
    }
    // Implicit-GEMM convolution gates (ResNet-50). Bit-identity against the
    // cold im2col oracle and the zero-materialisation counter proof hold at
    // any shape, so both run in smoke too.
    match run
        .models
        .iter()
        .find_map(|m| m.conv_implicit.as_ref().map(|c| (m, c)))
    {
        None => {
            eprintln!("error: no model recorded the implicit-conv comparison");
            ok = false;
        }
        Some((m, c)) => {
            if !c.bit_identical {
                eprintln!(
                    "error: {} implicit-conv outputs are not bit-identical to the im2col oracle",
                    m.model
                );
                ok = false;
            }
            if c.im2col_bytes_on_implicit != 0 {
                eprintln!(
                    "error: {} implicit forward charged {} bytes of im2col materialisation (expected 0)",
                    m.model, c.im2col_bytes_on_implicit
                );
                ok = false;
            }
        }
    }
    if !smoke {
        for r in run.kernels.iter().filter(|r| r.headline) {
            if r.speedup() < 5.0 {
                eprintln!(
                    "error: headline kernel {} ({}) missed its >=5x target: {:.1}x",
                    r.kernel,
                    r.shape,
                    r.speedup()
                );
                ok = false;
            }
        }
        if let Some(shfl) = run.kernels.iter().find(|r| r.kernel == "shfl_bw_spmm") {
            // Steady-state prepared-vs-cold is 1.5–1.7x on the headline shape;
            // the regression gate sits below the shared-machine noise band
            // (±0.15x run-to-run) so only a real regression trips it.
            if shfl.prepared_speedup() < 1.35 {
                eprintln!(
                    "error: prepared Shfl-BW plan regressed vs the cold path: {:.2}x (steady state is >=1.5x)",
                    shfl.prepared_speedup()
                );
                ok = false;
            }
        }
        if let Some(csr) = run.kernels.iter().find(|r| r.kernel == "cuda_core_spmm") {
            if csr.speedup() < 1.0 {
                eprintln!(
                    "error: cuda_core cold path slower than naive: {:.2}x",
                    csr.speedup()
                );
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the serving trace and applies the serving gates.
fn run_bench_serving(smoke: bool) -> ExitCode {
    println!(
        "Running the serving benchmark (plan cache vs cold per-request plans{})...",
        if smoke { ", smoke shapes" } else { "" },
    );
    let results = bench_serving::run(smoke);
    print!("{}", bench_serving::to_table(&results));

    let mut ok = true;
    for r in &results {
        if !r.bit_identical {
            eprintln!(
                "error: {} served outputs are not bit-identical to the cold oracle",
                r.model
            );
            ok = false;
        }
        let miss_rate = 1.0 - r.hit_rate;
        if miss_rate > MAX_SERVING_MISS_RATE {
            eprintln!(
                "error: {} steady-state plan-cache miss rate {:.1}% exceeds the {:.0}% gate",
                r.model,
                miss_rate * 100.0,
                MAX_SERVING_MISS_RATE * 100.0
            );
            ok = false;
        }
        if !smoke && r.throughput <= r.cold_throughput {
            eprintln!(
                "error: {} cached-plan serving ({:.1} {}) did not beat per-request cold plans ({:.1} {})",
                r.model, r.throughput, r.unit, r.cold_throughput, r.unit
            );
            ok = false;
        }
        // The fused-sweep gates are byte-counter based, hence deterministic:
        // they apply in smoke mode too.
        if r.panel_segments < 4 {
            eprintln!(
                "error: {} panel probe spans only {} largest-bucket widths (needs >= 4)",
                r.model, r.panel_segments
            );
            ok = false;
        }
        if (r.panel_bytes_fused as f64) >= 1.5 * r.panel_sweep_bytes as f64 {
            eprintln!(
                "error: {} sweep read {} panel bytes for a request {} largest \
                 buckets wide, >= 1.5x the single-sweep lower bound {}",
                r.model, r.panel_bytes_fused, r.panel_segments, r.panel_sweep_bytes
            );
            ok = false;
        }
        if !r.coalesced_bit_identical {
            eprintln!(
                "error: {} coalesced responses are not bit-identical to the \
                 uncoalesced fan-out",
                r.model
            );
            ok = false;
        }
        // Wall-clock: coalescing must not lose to the per-request fan-out.
        // Both walls are best-of-2 already; a residual noise band covers the
        // shared single-core box (wider for tiny smoke shapes). The models
        // whose requests are narrow relative to the cap (GNMT decode,
        // ResNet) win 3–4x outright; wide-request traces (Transformer) sit
        // near parity by construction, which is exactly what the band is
        // for.
        let coalesce_budget = if smoke {
            r.mt_wall_ms * 1.10
        } else {
            r.mt_wall_ms * 1.05
        };
        if r.coalesced_requests > 0 && r.coalesced_wall_ms > coalesce_budget {
            eprintln!(
                "error: {} coalesced serving ({:.1} ms) lost to the uncoalesced \
                 fan-out ({:.1} ms) over {} requests",
                r.model, r.coalesced_wall_ms, r.mt_wall_ms, r.coalesced_requests
            );
            ok = false;
        }
        // Continuous-batching gates. Bit-identity against per-request cold
        // execution is deterministic and applies in smoke mode too; the
        // wall-clock, coalescing and SLO gates need the full-size trace with
        // real arrival gaps.
        let c = &r.continuous;
        if !c.bit_identical {
            eprintln!(
                "error: {} windowed-server responses are not bit-identical to \
                 per-request cold execution",
                r.model
            );
            ok = false;
        }
        if !smoke && c.requests > 0 {
            // The admission window must actually coalesce across arrivals:
            // fewer dispatched groups than requests, and strictly fewer
            // packed-panel bytes than the zero-window per-request baseline
            // (both counter-verified, not timing-derived).
            if c.windowed_groups >= c.requests as u64 || c.coalesced_requests == 0 {
                eprintln!(
                    "error: {} windowed server dispatched {} groups for {} \
                     requests and coalesced {} — the admission window batched \
                     nothing across arrivals",
                    r.model, c.windowed_groups, c.requests, c.coalesced_requests
                );
                ok = false;
            }
            if c.windowed_panel_bytes >= c.zero_panel_bytes {
                eprintln!(
                    "error: {} windowed server streamed {} panel bytes, not \
                     less than the zero-window baseline's {}",
                    r.model, c.windowed_panel_bytes, c.zero_panel_bytes
                );
                ok = false;
            }
            // Aggregate throughput: the window trades p50 for throughput, so
            // it must never lose beyond the shared-box noise band; models
            // whose request widths are narrow relative to the cap (≥4-layer
            // GEMM traces) must win outright (gated via best-of below).
            if c.windowed_wall_ms > c.zero_wall_ms * 1.05 {
                eprintln!(
                    "error: {} windowed serving ({:.1} ms) lost to the \
                     zero-window baseline ({:.1} ms) over {} requests",
                    r.model, c.windowed_wall_ms, c.zero_wall_ms, c.requests
                );
                ok = false;
            }
            // Deadline-class SLO scheduling must show: lower p99 than bulk
            // under the same load (multi-layer traces — single-layer ResNet
            // has too few samples per class for a stable p99).
            if c.layers >= 4 && c.deadline_p99_ms >= c.bulk_p99_ms {
                eprintln!(
                    "error: {} deadline-class p99 ({:.2} ms) is not below \
                     bulk-class p99 ({:.2} ms)",
                    r.model, c.deadline_p99_ms, c.bulk_p99_ms
                );
                ok = false;
            }
            // On the overloaded server the SLO inversion must hold *despite*
            // the pressure: bulk absorbs the shedding and the queueing, so
            // the deadline class keeps a strictly lower p99.
            if c.layers >= 4 && c.overload_deadline_p99_ms >= c.overload_bulk_p99_ms {
                eprintln!(
                    "error: {} overload-trace deadline p99 ({:.2} ms) is not \
                     below bulk p99 ({:.2} ms)",
                    r.model, c.overload_deadline_p99_ms, c.overload_bulk_p99_ms
                );
                ok = false;
            }
        }
        // Overload shedding is structural (a small bulk-class bound vs
        // gap-free arrivals), so it gates in smoke mode too: a multi-layer
        // trace that outruns one worker by construction must shed bulk
        // work — zero sheds means the load-shedding path is dead.
        if c.layers >= 4 && c.overload_requests > 0 && c.overload_shed == 0 {
            eprintln!(
                "error: {} overload trace shed no bulk work across {} gap-free \
                 arrivals against a bounded bulk class",
                r.model, c.overload_requests
            );
            ok = false;
        }
        // Live-update gates — deterministic (counter- and outcome-based),
        // so they apply in smoke mode too: swaps must never fail an accepted
        // request (zero downtime), and the delta re-pack must move strictly
        // fewer bytes than full rebuilds of the same plans.
        if c.update_swaps > 0 {
            if c.update_failed_requests > 0 {
                eprintln!(
                    "error: {} live-update trace failed {} accepted requests \
                     across {} swaps (zero-downtime gate)",
                    r.model, c.update_failed_requests, c.update_swaps
                );
                ok = false;
            }
            if c.repack_bytes_ratio <= 0.0 || c.repack_bytes_ratio >= 1.0 {
                eprintln!(
                    "error: {} delta re-pack moved {:.3}x the full-rebuild \
                     bytes (must land strictly inside (0, 1))",
                    r.model, c.repack_bytes_ratio
                );
                ok = false;
            }
        }
        // Decode-session gates — bit-identity, token accounting, and the
        // scripted eviction/resume cycle are deterministic, so they apply
        // in smoke mode too; only the interleave-throughput ratio needs the
        // full-size trace.
        if let Some(d) = &r.decode {
            if !d.bit_identical {
                eprintln!(
                    "error: {} interleaved decode sessions are not \
                     bit-identical to the cold-oracle decode",
                    r.model
                );
                ok = false;
            }
            if d.lost_tokens > 0 {
                eprintln!(
                    "error: {} decode trace lost {} accepted tokens across \
                     {} sessions x {} steps (must be 0)",
                    r.model, d.lost_tokens, d.sessions, d.steps
                );
                ok = false;
            }
            if d.mean_interleave_width <= 1.0 {
                eprintln!(
                    "error: {} decode sessions never coalesced (mean \
                     interleave width {:.2} across {} concurrent sessions)",
                    r.model, d.mean_interleave_width, d.sessions
                );
                ok = false;
            }
            if d.evictions < 2 {
                eprintln!(
                    "error: {} decode trace recorded {} evictions; the \
                     mid-trace pressure script demands at least 2 ({} \
                     refused because the victim had already finished)",
                    r.model, d.evictions, d.evictions_missed
                );
                ok = false;
            }
            if d.resumed != d.evictions {
                eprintln!(
                    "error: {} decode trace resumed {} of {} evicted \
                     sessions (every eviction must be resumable)",
                    r.model, d.resumed, d.evictions
                );
                ok = false;
            }
            if !smoke && d.interleave_speedup() < 2.0 {
                eprintln!(
                    "error: {} interleaved decode ({:.1} tokens/s) did not \
                     reach 2x the serial one-session-at-a-time baseline \
                     ({:.1} tokens/s)",
                    r.model, d.tokens_s, d.serial_tokens_s
                );
                ok = false;
            }
        }
    }
    // Acceptance: at least one ≥4-layer mixed-width workload must strictly
    // beat the zero-window configuration on aggregate throughput.
    if !smoke {
        let best = results
            .iter()
            .filter(|r| r.continuous.layers >= 4 && r.continuous.requests > 0)
            .map(|r| r.continuous.window_speedup())
            .fold(0.0f64, f64::max);
        if best <= 1.0 {
            eprintln!(
                "error: no >=4-layer workload beat the zero-window baseline \
                 (best windowed speedup {best:.2}x)"
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().collect();
    let mut experiment = "all".to_string();
    let mut bench_kernels_mode = false;
    let mut bench_serving_mode = false;
    let mut smoke = false;
    let mut bench_output = "BENCH_kernels.json".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--experiment" | "-e" => {
                if i + 1 >= args.len() {
                    eprintln!("error: --experiment requires a value");
                    return ExitCode::FAILURE;
                }
                experiment = args[i + 1].clone();
                i += 2;
            }
            "--bench-kernels" => {
                bench_kernels_mode = true;
                i += 1;
            }
            "--bench-serving" => {
                bench_serving_mode = true;
                i += 1;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--bench-output" => {
                if i + 1 >= args.len() {
                    eprintln!("error: --bench-output requires a value");
                    return ExitCode::FAILURE;
                }
                bench_output = args[i + 1].clone();
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--experiment fig1|fig2|fig6|table1|ablation|analysis|headline|all]\n\
                     \x20      repro --bench-kernels [--smoke] [--bench-output BENCH_kernels.json]\n\
                     \x20      repro --bench-serving [--smoke]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    if bench_kernels_mode {
        return run_bench_kernels(&bench_output, smoke);
    }
    if bench_serving_mode {
        return run_bench_serving(smoke);
    }
    if smoke {
        eprintln!("error: --smoke requires --bench-kernels or --bench-serving");
        return ExitCode::FAILURE;
    }

    match experiment.as_str() {
        "fig1" => print_fig1(),
        "fig2" => print_fig2(),
        "fig6" => print_fig6(),
        "headline" => print_headline(),
        "table1" => print_table1(),
        "ablation" => print_ablation(),
        "analysis" => print_analysis(),
        "all" => {
            print_analysis();
            print_fig1();
            print_fig2();
            print_headline();
            print_fig6();
            print_table1();
            print_ablation();
        }
        other => {
            eprintln!("error: unknown experiment {other}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
