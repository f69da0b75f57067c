//! Common result types shared by every simulated kernel.

use gpu_sim::{GpuArch, KernelStats, KernelTiming};
use shfl_core::matrix::DenseMatrix;
use shfl_core::tiling::TileConfig;
use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the simulated kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Operand shapes are incompatible (`A.cols != B.rows`, mismatching batch, ...).
    ShapeMismatch {
        /// Human-readable description.
        context: String,
    },
    /// The requested kernel is not available on the target architecture (e.g. 2:4
    /// balanced sparse tensor cores on pre-Ampere GPUs).
    UnsupportedOnArch {
        /// Kernel name.
        kernel: String,
        /// Architecture name.
        arch: String,
    },
    /// An error bubbled up from `shfl-core` (format construction, permutation, ...).
    Core(shfl_core::error::Error),
    /// A plan build panicked mid-flight. Observed by threads that joined the
    /// in-flight build slot of a [`crate::cache::PlanCache`] whose builder
    /// unwound: the panic propagates on the builder's own thread, while the
    /// waiters get this typed error instead of a hang or a poisoned lock.
    BuildPanicked {
        /// Human-readable description of the build that unwound.
        context: String,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            KernelError::UnsupportedOnArch { kernel, arch } => {
                write!(f, "kernel {kernel} is not supported on {arch}")
            }
            KernelError::Core(e) => write!(f, "{e}"),
            KernelError::BuildPanicked { context } => {
                write!(f, "plan build panicked: {context}")
            }
        }
    }
}

impl StdError for KernelError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            KernelError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<shfl_core::error::Error> for KernelError {
    fn from(e: shfl_core::error::Error) -> Self {
        KernelError::Core(e)
    }
}

/// Convenience alias for kernel results.
pub type KernelResult<T> = std::result::Result<T, KernelError>;

/// The analytical profile of one kernel launch: counters plus the estimated execution
/// time on the architecture it was profiled for.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name, e.g. `"dense-gemm"` or `"shfl-bw-spmm(V=64)"`.
    pub name: String,
    /// Architecture the profile was computed for.
    pub arch_name: &'static str,
    /// Accumulated hardware counters.
    pub stats: KernelStats,
    /// Estimated execution time breakdown.
    pub timing: KernelTiming,
    /// Threadblock tile used by the kernel.
    pub tile: TileConfig,
}

impl KernelProfile {
    /// Estimated execution time in microseconds.
    pub fn time_us(&self) -> f64 {
        self.timing.total_us
    }

    /// Achieved throughput in TFLOP/s of *useful* work.
    pub fn achieved_tflops(&self) -> f64 {
        self.timing.achieved_tflops(self.stats.flops())
    }

    /// Speedup of this kernel over a baseline profile (`baseline_time / this_time`).
    pub fn speedup_over(&self, baseline: &KernelProfile) -> f64 {
        if self.time_us() <= 0.0 {
            0.0
        } else {
            baseline.time_us() / self.time_us()
        }
    }
}

impl fmt::Display for KernelProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.2} us, {:.2} TFLOP/s ({})",
            self.name,
            self.arch_name,
            self.time_us(),
            self.achieved_tflops(),
            self.timing.bound
        )
    }
}

/// The result of a plan execute. The analytical profile stays on the plan
/// ([`crate::plan::SpmmPlan::profile`]).
#[derive(Debug, Clone)]
pub struct KernelOutput {
    /// The computed output matrix `C = A · B` (original row order).
    pub output: DenseMatrix,
}

/// Helper: builds a [`KernelProfile`] from raw parts (used by the kernel modules).
pub(crate) fn build_profile(
    name: String,
    arch: &GpuArch,
    stats: KernelStats,
    timing: KernelTiming,
    tile: TileConfig,
) -> KernelProfile {
    KernelProfile {
        name,
        arch_name: arch.name,
        stats,
        timing,
        tile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{ComputeUnit, CostModel};

    fn dummy_profile(arch: &GpuArch, flops: u64) -> KernelProfile {
        let mut stats = KernelStats::new(ComputeUnit::TensorCore);
        stats.add_flops(flops);
        stats.add_dram_read(flops / 10);
        stats.set_threadblocks(256);
        let timing = CostModel::new(arch).estimate(&stats);
        build_profile(
            "dummy".to_string(),
            arch,
            stats,
            timing,
            TileConfig::dense_default(),
        )
    }

    #[test]
    fn speedup_over_is_ratio_of_times() {
        let arch = GpuArch::v100();
        let fast = dummy_profile(&arch, 1_000_000);
        let slow = dummy_profile(&arch, 100_000_000);
        assert!(fast.speedup_over(&slow) > 1.0);
        assert!(slow.speedup_over(&fast) < 1.0);
    }

    #[test]
    fn display_mentions_kernel_and_arch() {
        let arch = GpuArch::t4();
        let p = dummy_profile(&arch, 1_000_000);
        let s = format!("{p}");
        assert!(s.contains("dummy") && s.contains("T4"));
    }

    #[test]
    fn kernel_error_wraps_core_errors() {
        let core_err = shfl_core::error::Error::InvalidDensity { value: 2.0 };
        let err: KernelError = core_err.into();
        assert!(format!("{err}").contains("2"));
        assert!(err.source().is_some());
    }

    #[test]
    fn unsupported_error_display() {
        let err = KernelError::UnsupportedOnArch {
            kernel: "balanced-2in4".to_string(),
            arch: "V100".to_string(),
        };
        let s = format!("{err}");
        assert!(s.contains("balanced-2in4") && s.contains("V100"));
    }
}
