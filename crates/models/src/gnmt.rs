//! GNMT layer shapes for WMT translation.
//!
//! GNMT (Wu et al.) is an 8-layer LSTM encoder / 8-layer LSTM decoder seq2seq model
//! with 1024 hidden units. Each LSTM layer's weight matrix computes the four gates at
//! once (`4×1024` outputs) from the concatenated input and hidden state. During
//! inference the decoder runs one token at a time, so the GEMM `N` dimension is the
//! batch size times the number of positions evaluated together; the encoder can batch
//! a whole source sentence.

use crate::activation::{sigmoid, tanh};
use crate::workload::Layer;
use shfl_serving::session::{DecodeModel, DecodeStage, DecodeState};

/// LSTM hidden size.
pub const HIDDEN: usize = 1024;
/// Number of encoder LSTM layers.
pub const ENCODER_LAYERS: usize = 8;
/// Number of decoder LSTM layers.
pub const DECODER_LAYERS: usize = 8;

/// Weight-bearing GEMM layers of GNMT for the given batch size. The sequence
/// dimension of the encoder is folded into the batch (the paper reports kernel-level
/// speedups, for which only the GEMM shapes matter).
#[allow(clippy::vec_init_then_push)] // the push list reads as the layer table
pub fn layers(batch: usize) -> Vec<Layer> {
    let n = batch;
    let mut layers = Vec::new();

    // Encoder layer 0 is bidirectional (input size 1024, two directions); remaining
    // encoder layers take the 1024-dim output of the previous layer.
    layers.push(Layer::gemm(
        "encoder.l0.gates",
        4 * HIDDEN,
        n,
        2 * HIDDEN,
        2,
    ));
    layers.push(Layer::gemm(
        "encoder.lstm.gates",
        4 * HIDDEN,
        n,
        2 * HIDDEN,
        ENCODER_LAYERS - 1,
    ));

    // Decoder layers consume the previous hidden state concatenated with the
    // attention context (1024 + 1024).
    layers.push(Layer::gemm(
        "decoder.lstm.gates",
        4 * HIDDEN,
        n,
        2 * HIDDEN,
        DECODER_LAYERS,
    ));
    // Attention projections.
    layers.push(Layer::gemm("attention.query", HIDDEN, n, HIDDEN, 1));
    layers.push(Layer::gemm("attention.memory", HIDDEN, n, HIDDEN, 1));
    // Output projection to the 32k-word vocabulary is usually kept dense in pruning
    // papers, but it is a linear layer, so it is listed for completeness.
    layers.push(Layer::gemm("decoder.softmax", 32_000, n, HIDDEN, 1));

    layers
}

/// The real GNMT decoder step function over persistent recurrent state: the
/// [`DecodeModel`] the serving tier's decode sessions run.
///
/// One decode step is the 8-layer decoder LSTM stack (every layer's gate
/// GEMM runs on the one shared `decoder.lstm.gates` serving layer — the
/// weight reuse across steps and stack positions EIE's decode evaluation is
/// built on), the attention query projection with a residual, and the
/// vocabulary projection folded back to the hidden width so the token stays
/// `HIDDEN` floats. All non-GEMM math (gate nonlinearities, the cell
/// update) is pure per-sequence f32 arithmetic in [`DecodeModel::post`], so
/// the interleaved session path stays bit-identical to the cold oracle.
/// `post` is plain slice loops over [`crate::activation`]'s branch-free
/// `tanh` and `sigmoid` (no libm call), which autovectorise: the cell
/// update writes `c` and `h` in place, and the vocabulary fold adds the
/// logits chunk by chunk.
///
/// State layout ([`DecodeState::slots`]): slots `0..8` are the per-layer
/// hidden vectors `h`, slots `8..16` the cell vectors `c`, slot `16` the
/// attention residual scratch — all `HIDDEN` wide. Sigmoid/tanh saturation
/// keeps every value bounded over arbitrarily long decodes.
pub struct GnmtDecodeModel {
    stages: Vec<DecodeStage>,
}

impl GnmtDecodeModel {
    /// Builds the decode model over the serving-engine layer ids of the
    /// three decoder GEMMs (`decoder.lstm.gates`, `attention.query`,
    /// `decoder.softmax`), as registered by the model engine.
    pub fn new(lstm_gates: usize, attention_query: usize, softmax: usize) -> GnmtDecodeModel {
        let mut stages = Vec::with_capacity(DECODER_LAYERS + 2);
        for l in 0..DECODER_LAYERS {
            stages.push(DecodeStage {
                name: format!("decoder.lstm.gates[{l}]"),
                layer: lstm_gates,
            });
        }
        stages.push(DecodeStage {
            name: "attention.query".into(),
            layer: attention_query,
        });
        stages.push(DecodeStage {
            name: "decoder.softmax".into(),
            layer: softmax,
        });
        GnmtDecodeModel { stages }
    }
}

impl DecodeModel for GnmtDecodeModel {
    fn name(&self) -> &str {
        "gnmt-decode"
    }

    fn stages(&self) -> &[DecodeStage] {
        &self.stages
    }

    fn init_state(&self) -> DecodeState {
        DecodeState {
            slots: vec![vec![0.0; HIDDEN]; 2 * DECODER_LAYERS + 1],
        }
    }

    fn pre(&self, stage: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32> {
        if stage < DECODER_LAYERS {
            // LSTM layer `stage`: gate input is [x ; h_stage] (2·HIDDEN).
            let mut col = Vec::with_capacity(2 * HIDDEN);
            col.extend_from_slice(input);
            col.extend_from_slice(&state.slots[stage]);
            col
        } else if stage == DECODER_LAYERS {
            // Attention query: stash the residual, project x as-is.
            state.slots[2 * DECODER_LAYERS] = input.to_vec();
            input.to_vec()
        } else {
            input.to_vec()
        }
    }

    fn post(&self, stage: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32> {
        if stage < DECODER_LAYERS {
            // The 4·HIDDEN gate pre-activations in [i, f, g, o] quarter
            // order drive the classic cell update, which writes `c` and `h`
            // in place.
            let (i_pre, rest) = gemm_out.split_at(HIDDEN);
            let (f_pre, rest) = rest.split_at(HIDDEN);
            let (g_pre, o_pre) = rest.split_at(HIDDEN);
            let (hs, cs) = state.slots.split_at_mut(DECODER_LAYERS);
            let h = &mut hs[stage][..HIDDEN];
            let c = &mut cs[stage][..HIDDEN];
            for j in 0..HIDDEN {
                c[j] = sigmoid(f_pre[j]) * c[j] + sigmoid(i_pre[j]) * tanh(g_pre[j]);
                h[j] = sigmoid(o_pre[j]) * tanh(c[j]);
            }
            h.to_vec()
        } else if stage == DECODER_LAYERS {
            // Attention query with the stashed residual, tanh-bounded.
            let mut x = state.slots[2 * DECODER_LAYERS].clone();
            for (x, y) in x.iter_mut().zip(gemm_out) {
                *x = tanh(y + *x);
            }
            x
        } else {
            // Fold the 32k-vocabulary logits back to HIDDEN width, chunk by
            // chunk (`acc[j]` sums `y[i·HIDDEN + j]` in ascending `i`), so
            // the streamed token stays compact and bounded.
            let mut acc = vec![0.0f32; HIDDEN];
            for chunk in gemm_out.chunks(HIDDEN) {
                for (a, y) in acc.iter_mut().zip(chunk) {
                    *a += y;
                }
            }
            for a in &mut acc {
                *a = tanh(*a / 32.0);
            }
            acc
        }
    }

    fn prompt_len(&self) -> usize {
        HIDDEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lstm_gate_shapes_are_4h_by_2h() {
        let layers = layers(128);
        let gates = layers
            .iter()
            .find(|l| l.name == "decoder.lstm.gates")
            .unwrap();
        assert_eq!(gates.kind.gemm_shape(), (4096, 128, 2048));
        assert_eq!(gates.count, 8);
    }

    #[test]
    fn total_layer_count_matches_the_architecture() {
        let layers = layers(64);
        let lstm_instances: usize = layers
            .iter()
            .filter(|l| l.name.contains("gates"))
            .map(|l| l.count)
            .sum();
        assert_eq!(lstm_instances, ENCODER_LAYERS + 1 + DECODER_LAYERS);
    }

    #[test]
    fn batch_drives_the_n_dimension() {
        let (_, n, _) = layers(256)[0].kind.gemm_shape();
        assert_eq!(n, 256);
    }

    #[test]
    fn decode_model_runs_the_full_decoder_stack_per_step() {
        let model = GnmtDecodeModel::new(2, 3, 5);
        assert_eq!(model.stages().len(), DECODER_LAYERS + 2);
        assert!(model.stages()[..DECODER_LAYERS]
            .iter()
            .all(|s| s.layer == 2));
        assert_eq!(model.stages()[DECODER_LAYERS].layer, 3);
        assert_eq!(model.stages()[DECODER_LAYERS + 1].layer, 5);
        let state = model.init_state();
        assert_eq!(state.slots.len(), 2 * DECODER_LAYERS + 1);
        assert!(state.slots.iter().all(|s| s.len() == HIDDEN));
        assert_eq!(model.prompt_len(), HIDDEN);
    }

    #[test]
    fn lstm_cell_update_is_the_classic_gate_math_over_persistent_state() {
        let model = GnmtDecodeModel::new(0, 1, 2);
        let mut state = model.init_state();
        state.slots[DECODER_LAYERS][0] = 0.5; // pre-existing cell value, layer 0
        state.slots[0][7] = -0.25; // pre-existing hidden value, layer 0
        let x = vec![0.125f32; HIDDEN];
        let col = model.pre(0, &x, &mut state);
        assert_eq!(col.len(), 2 * HIDDEN);
        assert_eq!(col[0], 0.125);
        assert_eq!(col[HIDDEN + 7], -0.25); // h rides in the second half
                                            // Synthetic gate pre-activations: i=f=o=0 (σ=0.5), g=1.
        let mut gates = vec![0.0f32; 4 * HIDDEN];
        for j in 0..HIDDEN {
            gates[2 * HIDDEN + j] = 1.0;
        }
        let h = model.post(0, &gates, &mut state);
        let (i, f, o) = (sigmoid(0.0), sigmoid(0.0), sigmoid(0.0));
        assert_eq!(i, 0.5);
        let g = tanh(1.0);
        let c_expected = f * 0.5 + i * g; // f·c + i·g at element 0
        assert_eq!(
            state.slots[DECODER_LAYERS][0].to_bits(),
            c_expected.to_bits()
        );
        assert_eq!(h[0].to_bits(), (o * tanh(c_expected)).to_bits());
        // Element 1 starts from c = 0.
        assert_eq!(
            state.slots[DECODER_LAYERS][1].to_bits(),
            (f * 0.0 + i * g).to_bits()
        );
        assert_eq!(state.slots[0], h); // hidden state persisted
                                       // The vocabulary fold keeps the token at HIDDEN width, bounded.
        let logits = vec![0.75f32; 32_000];
        let token = model.post(DECODER_LAYERS + 1, &logits, &mut state);
        assert_eq!(token.len(), HIDDEN);
        assert!(token.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn chunked_vocabulary_fold_matches_the_strided_sum_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let model = GnmtDecodeModel::new(0, 1, 2);
        let mut state = model.init_state();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        for trial in 0..4 {
            let logits: Vec<f32> = (0..32_000)
                .map(|_| rng.gen_range(-4.0f32..4.0) * (1 + trial) as f32)
                .collect();
            let token = model.post(DECODER_LAYERS + 1, &logits, &mut state);
            for (j, got) in token.iter().enumerate() {
                // The strided loop the fold replaced: element j adds
                // logits[j], logits[j + HIDDEN], … in that order.
                let mut acc = 0.0f32;
                let mut idx = j;
                while idx < logits.len() {
                    acc += logits[idx];
                    idx += HIDDEN;
                }
                assert_eq!(
                    got.to_bits(),
                    tanh(acc / 32.0).to_bits(),
                    "trial {trial}, element {j}"
                );
            }
        }
    }
}
