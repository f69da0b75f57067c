//! Transformer (big) layer shapes for WMT translation.
//!
//! The paper's Transformer workload is the standard "big" configuration from
//! Vaswani et al.: model dimension 1024, feed-forward dimension 4096, 6 encoder and 6
//! decoder layers. The computation-intensive layers the paper accelerates are the
//! attention projections and the two feed-forward GEMMs; `N` is the number of token
//! positions processed together (`batch × sequence length`).

use crate::activation::tanh;
use crate::workload::Layer;
use shfl_serving::session::{DecodeModel, DecodeStage, DecodeState};

/// Model dimension of Transformer big.
pub const D_MODEL: usize = 1024;
/// Feed-forward dimension of Transformer big.
pub const D_FF: usize = 4096;
/// Number of encoder layers.
pub const ENCODER_LAYERS: usize = 6;
/// Number of decoder layers.
pub const DECODER_LAYERS: usize = 6;

/// Weight-bearing GEMM layers of Transformer big for `batch` sentences of `seq_len`
/// tokens.
#[allow(clippy::vec_init_then_push)] // the push list reads as the layer table
pub fn layers(batch: usize, seq_len: usize) -> Vec<Layer> {
    let n = batch * seq_len;
    let mut layers = Vec::new();

    // Encoder: self-attention QKV + output projection, then the two FFN GEMMs.
    layers.push(Layer::gemm(
        "encoder.attn.qkv",
        3 * D_MODEL,
        n,
        D_MODEL,
        ENCODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "encoder.attn.out",
        D_MODEL,
        n,
        D_MODEL,
        ENCODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "encoder.ffn1",
        D_FF,
        n,
        D_MODEL,
        ENCODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "encoder.ffn2",
        D_MODEL,
        n,
        D_FF,
        ENCODER_LAYERS,
    ));

    // Decoder: self-attention, cross-attention and FFN.
    layers.push(Layer::gemm(
        "decoder.self_attn.qkv",
        3 * D_MODEL,
        n,
        D_MODEL,
        DECODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "decoder.self_attn.out",
        D_MODEL,
        n,
        D_MODEL,
        DECODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "decoder.cross_attn.q",
        D_MODEL,
        n,
        D_MODEL,
        DECODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "decoder.cross_attn.kv",
        2 * D_MODEL,
        n,
        D_MODEL,
        DECODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "decoder.cross_attn.out",
        D_MODEL,
        n,
        D_MODEL,
        DECODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "decoder.ffn1",
        D_FF,
        n,
        D_MODEL,
        DECODER_LAYERS,
    ));
    layers.push(Layer::gemm(
        "decoder.ffn2",
        D_MODEL,
        n,
        D_FF,
        DECODER_LAYERS,
    ));

    layers
}

/// The real Transformer-big decoder step function over persistent KV slabs:
/// the [`DecodeModel`] the serving tier's decode sessions run.
///
/// One decode step walks the 6 decoder layers, each as four GEMM stages on
/// the shared per-kind serving layers (`decoder.self_attn.qkv`,
/// `decoder.self_attn.out`, `decoder.ffn1`, `decoder.ffn2` — registered
/// once, reused by every stack position and step). The QKV stage appends
/// the step's key/value to the layer's **growing KV slab** and runs
/// single-head scaled-dot-product attention over the whole slab; residuals
/// and tanh bounding keep activations finite over arbitrarily long decodes.
/// Cross-attention needs encoder memory and is out of decode-session scope.
/// All non-GEMM math is pure per-sequence f32 arithmetic, so the
/// interleaved path stays bit-identical to the cold oracle. The bounding
/// `tanh` is [`crate::activation::tanh`] (branch-free, no libm), applied in
/// slice loops that autovectorise.
///
/// State layout ([`DecodeState::slots`]): slots `2l` / `2l+1` are decoder
/// layer `l`'s K / V slabs (`D_MODEL` floats per decoded step, appended in
/// step order), slot `12` the residual scratch.
pub struct TransformerDecodeModel {
    stages: Vec<DecodeStage>,
}

/// Stage kinds within one decoder layer, in execution order.
const STAGES_PER_LAYER: usize = 4;

/// `tanh` of every element, in one slice loop.
fn bounded(ys: &[f32]) -> Vec<f32> {
    let mut out = ys.to_vec();
    for y in &mut out {
        *y = tanh(*y);
    }
    out
}

impl TransformerDecodeModel {
    /// Builds the decode model over the serving-engine layer ids of the four
    /// decoder GEMM kinds, as registered by the model engine.
    pub fn new(qkv: usize, attn_out: usize, ffn1: usize, ffn2: usize) -> TransformerDecodeModel {
        let mut stages = Vec::with_capacity(DECODER_LAYERS * STAGES_PER_LAYER);
        for l in 0..DECODER_LAYERS {
            stages.push(DecodeStage {
                name: format!("decoder.self_attn.qkv[{l}]"),
                layer: qkv,
            });
            stages.push(DecodeStage {
                name: format!("decoder.self_attn.out[{l}]"),
                layer: attn_out,
            });
            stages.push(DecodeStage {
                name: format!("decoder.ffn1[{l}]"),
                layer: ffn1,
            });
            stages.push(DecodeStage {
                name: format!("decoder.ffn2[{l}]"),
                layer: ffn2,
            });
        }
        TransformerDecodeModel { stages }
    }
}

impl DecodeModel for TransformerDecodeModel {
    fn name(&self) -> &str {
        "transformer-decode"
    }

    fn stages(&self) -> &[DecodeStage] {
        &self.stages
    }

    fn init_state(&self) -> DecodeState {
        DecodeState {
            slots: vec![Vec::new(); 2 * DECODER_LAYERS + 1],
        }
    }

    fn pre(&self, stage: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32> {
        if stage.is_multiple_of(STAGES_PER_LAYER) {
            // QKV: stash the attention residual before projecting.
            state.slots[2 * DECODER_LAYERS] = input.to_vec();
        }
        input.to_vec()
    }

    fn post(&self, stage: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32> {
        let layer = stage / STAGES_PER_LAYER;
        match stage % STAGES_PER_LAYER {
            0 => {
                // Split the fused projection, bound it, grow the KV slab,
                // and attend over every cached step (this one included).
                let qkv = bounded(&gemm_out[..3 * D_MODEL]);
                let (q, kv) = qkv.split_at(D_MODEL);
                let (k, v) = kv.split_at(D_MODEL);
                state.slots[2 * layer].extend_from_slice(k);
                state.slots[2 * layer + 1].extend_from_slice(v);
                let k_slab = &state.slots[2 * layer];
                let v_slab = &state.slots[2 * layer + 1];
                let steps = k_slab.len() / D_MODEL;
                let scale = 1.0 / (D_MODEL as f32).sqrt();
                let scores: Vec<f32> = (0..steps)
                    .map(|t| {
                        let base = t * D_MODEL;
                        let mut dot = 0.0f32;
                        for j in 0..D_MODEL {
                            dot += q[j] * k_slab[base + j];
                        }
                        dot * scale
                    })
                    .collect();
                let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let weights: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
                let norm: f32 = weights.iter().sum();
                let mut attn = vec![0.0f32; D_MODEL];
                for (t, w) in weights.iter().enumerate() {
                    let p = w / norm;
                    let base = t * D_MODEL;
                    for (j, a) in attn.iter_mut().enumerate() {
                        *a += p * v_slab[base + j];
                    }
                }
                attn
            }
            1 => {
                // Attention output projection + residual; restash for the
                // FFN residual.
                let residual = &mut state.slots[2 * DECODER_LAYERS];
                for (r, y) in residual.iter_mut().zip(gemm_out) {
                    *r = tanh(y + *r);
                }
                residual.clone()
            }
            2 => bounded(gemm_out),
            _ => {
                let mut x = state.slots[2 * DECODER_LAYERS].clone();
                for (r, y) in x.iter_mut().zip(gemm_out) {
                    *r = tanh(y + *r);
                }
                x
            }
        }
    }

    fn prompt_len(&self) -> usize {
        D_MODEL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ffn_layers_dominate_the_flops() {
        let layers = layers(8, 128);
        let total: u64 = layers.iter().map(|l| l.total_flops()).sum();
        let ffn: u64 = layers
            .iter()
            .filter(|l| l.name.contains("ffn"))
            .map(|l| l.total_flops())
            .sum();
        assert!(
            ffn * 2 > total,
            "FFN layers should account for ≥ half the FLOPs"
        );
    }

    #[test]
    fn n_scales_with_batch_and_sequence() {
        let small = layers(1, 32);
        let large = layers(8, 128);
        let (_, n_small, _) = small[0].kind.gemm_shape();
        let (_, n_large, _) = large[0].kind.gemm_shape();
        assert_eq!(n_small, 32);
        assert_eq!(n_large, 1024);
    }

    #[test]
    fn shapes_are_transformer_big() {
        let layers = layers(4, 64);
        let ffn1 = layers.iter().find(|l| l.name == "encoder.ffn1").unwrap();
        assert_eq!(ffn1.kind.gemm_shape(), (4096, 256, 1024));
        assert_eq!(ffn1.count, 6);
    }

    #[test]
    fn decode_model_walks_six_layers_of_four_stages() {
        let model = TransformerDecodeModel::new(0, 1, 2, 3);
        assert_eq!(model.stages().len(), DECODER_LAYERS * STAGES_PER_LAYER);
        for (i, stage) in model.stages().iter().enumerate() {
            assert_eq!(stage.layer, i % STAGES_PER_LAYER);
        }
        assert_eq!(model.init_state().slots.len(), 2 * DECODER_LAYERS + 1);
        assert_eq!(model.prompt_len(), D_MODEL);
    }

    #[test]
    fn kv_slabs_grow_one_step_per_decode_and_attention_averages_the_cache() {
        let model = TransformerDecodeModel::new(0, 1, 2, 3);
        let mut state = model.init_state();
        let x = vec![0.25f32; D_MODEL];
        // Two QKV steps on decoder layer 0 with identical projections: the
        // slab doubles and attention over identical K/V is their common V.
        let qkv = vec![0.5f32; 3 * D_MODEL];
        let _ = model.pre(0, &x, &mut state);
        let attn1 = model.post(0, &qkv, &mut state);
        assert_eq!(state.slots[0].len(), D_MODEL);
        assert_eq!(state.slots[1].len(), D_MODEL);
        let _ = model.pre(0, &x, &mut state);
        let attn2 = model.post(0, &qkv, &mut state);
        assert_eq!(state.slots[0].len(), 2 * D_MODEL);
        assert_eq!(state.slots[1].len(), 2 * D_MODEL);
        // Identical keys ⇒ uniform weights ⇒ attention output equals the
        // (shared) value vector both times.
        for (a, b) in attn1.iter().zip(&attn2) {
            assert!((a - b).abs() < 1e-6);
        }
        // Residual stages bound the activation.
        let y = vec![2.0f32; D_MODEL];
        let out = model.post(1, &y, &mut state);
        assert!(out.iter().all(|v| v.abs() <= 1.0));
        assert_eq!(state.slots[2 * DECODER_LAYERS], out);
    }
}
