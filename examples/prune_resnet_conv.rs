//! Prune a ResNet-50 convolution layer to Shfl-BW and run the sparse implicit-GEMM
//! convolution plan, verifying the output against a direct convolution and
//! reporting the estimated speedup over the dense (cuDNN-like) kernel.
//!
//! Exits non-zero when the plan's output differs from the direct convolution
//! by more than the conv tests' tolerance.
//!
//! Run with: `cargo run --release --example prune_resnet_conv`

use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_bw_repro::prelude::*;
use shfl_kernels::conv::{conv2d_dense_profile, conv2d_reference, Conv2dParams, Tensor4};

/// Largest |difference| to the direct convolution the check accepts: the
/// fp16 operand rounding of the plan against the f32 reference, the same
/// tolerance the conv unit tests use.
const TOLERANCE: f32 = 5e-2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The conv4.3x3 bottleneck layer of ResNet-50: 256 -> 256 channels, 14x14 maps.
    let params = Conv2dParams {
        batch: 4,
        in_channels: 256,
        out_channels: 256,
        input_h: 14,
        input_w: 14,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
        dilation: 1,
    };
    let sparsity = 0.75;
    let v = 32;

    let (m, _, k) = params.implicit_gemm_shape();
    println!(
        "ResNet-50 conv4.3x3: implicit GEMM M/K = {m}/{k}, N = {}, {:.0}% sparsity, V={v}",
        params.batch * params.output_h() * params.output_w(),
        sparsity * 100.0
    );

    // 1. Prune the flattened filter matrix with the Shfl-BW search (Figure 5).
    let mut rng = StdRng::seed_from_u64(11);
    let filters = DenseMatrix::random(&mut rng, m, k);
    let pruner = ShflBwPruner::new(v);
    let result = pruner.prune_with_permutation(&filters.abs(), 1.0 - sparsity)?;
    let pruned = result.mask.apply(&filters)?;
    println!(
        "pruned filters: {:.1}% density, retained importance {:.1}",
        result.mask.density() * 100.0,
        result.retained_score
    );

    // 2. Compress, build the implicit-GEMM plan, and run the sparse
    //    convolution, verifying against the direct convolution of the pruned
    //    filters.
    let weights = ShflBwMatrix::from_dense_with_permutation(&pruned, &result.permutation, v)?;
    let input = Tensor4::random(&mut rng, params.batch, params.in_channels, 14, 14);
    let plan = ImplicitConvPlan::build(&GpuArch::a100(), &weights, &params)?;
    let output = plan.execute(&input)?;
    let reference = conv2d_reference(&input, &pruned, &params);
    let diff = output.max_abs_diff(&reference);
    println!("functional check: max |difference| vs direct convolution = {diff:.2e}");
    if diff > TOLERANCE {
        return Err(
            format!("max |difference| {diff:.2e} exceeds the {TOLERANCE:.0e} tolerance").into(),
        );
    }

    // 3. Estimated speedup over the dense implicit-GEMM convolution on each GPU.
    println!("\nestimated conv kernel time:");
    for arch in GpuArch::all() {
        let dense = conv2d_dense_profile(&arch, &params);
        let sparse = shfl_kernels::conv::conv2d_shfl_bw_profile(&arch, &weights, &params);
        println!(
            "  {:5}: dense {:8.1} us, Shfl-BW {:8.1} us  ->  {:.2}x",
            arch.name,
            dense.time_us(),
            sparse.time_us(),
            dense.time_us() / sparse.time_us()
        );
    }
    Ok(())
}
