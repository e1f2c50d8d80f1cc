//! An MLPerf-like GEMM suite (Section IV-C1).
//!
//! The paper evaluates generalizability on the MLPerf inference benchmark:
//! "AlphaGoZero for Go match, AlexNet, GoogleNet and Resnet50 for image
//! classification, neural collaborative filtering for recommendation,
//! sentimental_seqCNN and sentimental_seqLSTM for text sentiment analysis,
//! and transformer for natural language processing, in total containing
//! 1094 GEMM layers with varying configurations."
//!
//! The exact per-model layer tables are not published; this module
//! reconstructs a suite with the same *model mix* and the same *total of
//! 1094 GEMM layers*, using each architecture's published shapes (with
//! recurrent models unrolled over time steps, which is what inflates the
//! layer count). What Fig. 14c/d needs from the suite is the distribution
//! of GEMM shapes — in particular the many small/skinny GEMMs that drag
//! the average MAC utilisation down versus AlexNet.

use crate::zoo::{alexnet, NamedLayer, Network};
use usystolic_gemm::GemmConfig;

fn conv(ih: usize, iw: usize, ic: usize, wh: usize, ww: usize, s: usize, oc: usize) -> GemmConfig {
    // Compile-time-constant suite shapes, exercised by test: lint: allow(panic)
    GemmConfig::conv(ih, iw, ic, wh, ww, s, oc).expect("suite shapes are valid")
}

fn mm(m: usize, k: usize, n: usize) -> GemmConfig {
    // Compile-time-constant suite shapes, exercised by test: lint: allow(panic)
    GemmConfig::matmul(m, k, n).expect("suite shapes are valid")
}

fn layers(name: &str, gemms: Vec<GemmConfig>) -> Network {
    Network {
        name: name.into(),
        layers: gemms
            .into_iter()
            .enumerate()
            .map(|(i, g)| NamedLayer {
                name: format!("L{i}"),
                gemm: g,
            })
            .collect(),
    }
}

/// AlphaGoZero: a 19×19 board, 20 residual blocks of 3×3 convs with 256
/// filters, plus policy and value heads — 43 GEMM layers.
#[must_use]
pub fn alphagozero() -> Network {
    let mut g = vec![conv(21, 21, 17, 3, 3, 1, 256)];
    for _ in 0..20 {
        g.push(conv(21, 21, 256, 3, 3, 1, 256));
        g.push(conv(21, 21, 256, 3, 3, 1, 256));
    }
    g.push(conv(19, 19, 256, 1, 1, 1, 2)); // policy head
    g.push(conv(19, 19, 256, 1, 1, 1, 1)); // value head
    layers("AlphaGoZero", g)
}

/// GoogleNet (Inception v1): stem convs plus 9 inception modules of six
/// GEMMs each, and the classifier — 58 GEMM layers.
#[must_use]
pub fn googlenet() -> Network {
    let mut g = vec![
        conv(229, 229, 3, 7, 7, 2, 64),
        conv(56, 56, 64, 1, 1, 1, 64),
        conv(58, 58, 64, 3, 3, 1, 192),
    ];
    // (spatial, in_ch, branch widths) per module, following Szegedy et al.
    let modules: [(usize, usize, [usize; 6]); 9] = [
        (28, 192, [64, 96, 128, 16, 32, 32]),
        (28, 256, [128, 128, 192, 32, 96, 64]),
        (14, 480, [192, 96, 208, 16, 48, 64]),
        (14, 512, [160, 112, 224, 24, 64, 64]),
        (14, 512, [128, 128, 256, 24, 64, 64]),
        (14, 512, [112, 144, 288, 32, 64, 64]),
        (14, 528, [256, 160, 320, 32, 128, 128]),
        (7, 832, [256, 160, 320, 32, 128, 128]),
        (7, 832, [384, 192, 384, 48, 128, 128]),
    ];
    for (s, ic, b) in modules {
        g.push(conv(s, s, ic, 1, 1, 1, b[0])); // 1x1 branch
        g.push(conv(s, s, ic, 1, 1, 1, b[1])); // 3x3 reduce
        g.push(conv(s + 2, s + 2, b[1], 3, 3, 1, b[2])); // 3x3
        g.push(conv(s, s, ic, 1, 1, 1, b[3])); // 5x5 reduce
        g.push(conv(s + 4, s + 4, b[3], 5, 5, 1, b[4])); // 5x5
        g.push(conv(s, s, ic, 1, 1, 1, b[5])); // pool proj
    }
    g.push(mm(1, 1024, 1000));
    layers("GoogleNet", g)
}

/// ResNet50: the bottleneck-block ImageNet network — 54 GEMM layers
/// (49 convs + 4 projections + classifier).
#[must_use]
pub fn resnet50() -> Network {
    let mut g = vec![conv(229, 229, 3, 7, 7, 2, 64)];
    // (spatial in, blocks, mid channels) per stage; each bottleneck is
    // 1x1 → 3x3 → 1x1, with one projection per stage.
    let stages: [(usize, usize, usize, usize); 4] = [
        (56, 3, 64, 64),
        (56, 4, 128, 256),
        (28, 6, 256, 512),
        (14, 3, 512, 1024),
    ];
    for (stage_idx, (in_size, blocks, mid, in_ch)) in stages.into_iter().enumerate() {
        let stride = if stage_idx == 0 { 1 } else { 2 };
        let out_size = in_size / stride;
        let out_ch = mid * 4;
        for b in 0..blocks {
            let (ic, s, sz) = if b == 0 {
                (in_ch, stride, in_size)
            } else {
                (out_ch, 1, out_size)
            };
            g.push(conv(sz, sz, ic, 1, 1, s, mid));
            g.push(conv(out_size + 2, out_size + 2, mid, 3, 3, 1, mid));
            g.push(conv(out_size, out_size, mid, 1, 1, 1, out_ch));
            if b == 0 {
                g.push(conv(sz, sz, ic, 1, 1, s, out_ch)); // projection
            }
        }
    }
    g.push(mm(1, 2048, 1000));
    layers("ResNet50", g)
}

/// Neural collaborative filtering: embedding-fed MLP towers — 8 matmul
/// layers.
#[must_use]
pub fn ncf() -> Network {
    layers(
        "NCF",
        vec![
            mm(256, 256, 256),
            mm(256, 256, 128),
            mm(256, 128, 64),
            mm(256, 64, 32),
            mm(256, 32, 16),
            mm(256, 16, 8),
            mm(256, 8, 4),
            mm(256, 4, 1),
        ],
    )
}

/// Sentiment seqCNN: 1-D convolutions over token embeddings plus a
/// classifier — 10 GEMM layers.
#[must_use]
pub fn sentimental_seqcnn() -> Network {
    let mut g = Vec::new();
    for width in [3, 4, 5] {
        g.push(conv(64, 1, 128, width, 1, 1, 100)); // three kernel widths
        g.push(conv(62, 1, 100, 3, 1, 1, 100));
        g.push(conv(60, 1, 100, 3, 1, 1, 100));
    }
    g.push(mm(1, 300, 2));
    layers("sentimental_seqCNN", g)
}

/// Time steps the seqLSTM is unrolled over.
pub const SEQ_LSTM_STEPS: usize = 105;

/// Sentiment seqLSTM: a 2-layer LSTM over [`SEQ_LSTM_STEPS`] tokens; each
/// step of each layer issues four gate matmuls (input-hidden and
/// hidden-hidden fused per gate), plus the classifier — 841 GEMM layers.
/// Recurrent unrolling is what pushes the MLPerf suite to its 1094 total.
#[must_use]
pub fn sentimental_seqlstm() -> Network {
    let hidden = 128;
    let embed = 128;
    let mut g = Vec::new();
    for step in 0..SEQ_LSTM_STEPS {
        for layer in 0..2 {
            let input_dim = if layer == 0 { embed } else { hidden };
            for _gate in 0..4 {
                g.push(mm(1, input_dim + hidden, hidden));
            }
            let _ = step;
        }
    }
    g.push(mm(1, hidden, 2));
    layers("sentimental_seqLSTM", g)
}

/// Transformer (base): 6 encoder + 6 decoder layers, each with attention
/// projections and the position-wise FFN — 72 GEMM layers over a
/// 32-token sequence.
#[must_use]
pub fn transformer() -> Network {
    let d = 512;
    let seq = 32;
    let mut g = Vec::new();
    for _layer in 0..12 {
        // Q, K, V and output projections.
        for _ in 0..4 {
            g.push(mm(seq, d, d));
        }
        // Feed-forward: d → 4d → d.
        g.push(mm(seq, d, 4 * d));
        g.push(mm(seq, 4 * d, d));
    }
    layers("Transformer", g)
}

/// The full MLPerf-like suite: eight models, 1094 GEMM layers in total.
#[must_use]
pub fn mlperf_suite() -> Vec<Network> {
    vec![
        alphagozero(),
        alexnet(),
        googlenet(),
        resnet50(),
        ncf(),
        sentimental_seqcnn(),
        sentimental_seqlstm(),
        transformer(),
    ]
}

/// All 1094 GEMM configurations of the suite, flattened.
#[must_use]
pub fn mlperf_gemms() -> Vec<GemmConfig> {
    mlperf_suite().iter().flat_map(Network::gemms).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_totals_1094_gemm_layers() {
        // The paper's headline count for the MLPerf benchmark.
        assert_eq!(mlperf_gemms().len(), 1094);
    }

    #[test]
    fn largest_layer_sits_far_below_the_gemm_size_limit() {
        // `GemmConfig` refuses shapes past `MAX_MACS`; every suite and
        // zoo layer (1,143 in all) stays ~150x below it.
        let zoo = [
            crate::zoo::alexnet(),
            crate::zoo::mnist_cnn4(),
            crate::zoo::resnet18(),
            crate::zoo::vgg16(),
        ];
        let gemms: Vec<GemmConfig> = mlperf_suite()
            .iter()
            .chain(&zoo)
            .flat_map(Network::gemms)
            .collect();
        assert_eq!(gemms.len(), 1143);
        let largest = gemms.iter().map(GemmConfig::macs).max().unwrap_or(0);
        assert_eq!(largest, 1_849_688_064);
        assert!(largest * 148 < usystolic_gemm::MAX_MACS);
    }

    #[test]
    fn per_model_layer_counts() {
        assert_eq!(alphagozero().layers.len(), 43);
        assert_eq!(alexnet_len(), 8);
        assert_eq!(googlenet().layers.len(), 58);
        assert_eq!(resnet50().layers.len(), 54);
        assert_eq!(ncf().layers.len(), 8);
        assert_eq!(sentimental_seqcnn().layers.len(), 10);
        assert_eq!(sentimental_seqlstm().layers.len(), 841);
        assert_eq!(transformer().layers.len(), 72);
    }

    fn alexnet_len() -> usize {
        alexnet().layers.len()
    }

    #[test]
    fn suite_has_both_conv_and_matmul() {
        use usystolic_gemm::GemmKind;
        let gemms = mlperf_gemms();
        let convs = gemms
            .iter()
            .filter(|g| g.kind() == GemmKind::Convolution)
            .count();
        let mms = gemms
            .iter()
            .filter(|g| g.kind() == GemmKind::MatrixMultiply)
            .count();
        assert!(convs > 100);
        assert!(mms > 800, "recurrent unrolling dominates the layer count");
    }

    #[test]
    fn suite_utilization_is_below_alexnet() {
        // Section V-G: diverse GEMMs reduce the average MAC utilisation
        // (97.1 % → 69.6 % on the edge array for AlexNet → MLPerf).
        use usystolic_core::TileMapping;
        let avg = |gemms: &[GemmConfig]| {
            gemms
                .iter()
                .map(|g| TileMapping::new(g, 12, 14).utilization())
                .sum::<f64>()
                / gemms.len() as f64
        };
        let alex = avg(&alexnet().gemms());
        let suite = avg(&mlperf_gemms());
        assert!(
            suite < alex,
            "MLPerf utilisation {suite:.3} must trail AlexNet {alex:.3}"
        );
        assert!(
            alex > 0.9,
            "AlexNet edge utilisation should be high, got {alex:.3}"
        );
    }

    #[test]
    fn resnet50_parameter_count_is_sane() {
        let p = resnet50().parameters();
        // ~25.5 M weights in the reference network.
        assert!((20_000_000..30_000_000).contains(&p), "{p}");
    }

    #[test]
    fn transformer_shapes_are_square_or_ffn() {
        let t = transformer();
        assert!(t.layers.iter().all(|l| l.gemm.input_height() == 32));
    }
}
