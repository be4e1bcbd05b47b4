//! Pins calibration bit for bit. `quantize` derives every shift, scale and
//! int8 weight from fp32 activations, so a change to the fp32 reference's
//! summation order moves these hashes even where no test's logits move.
//! The constants are the hashes of the quantized models before the reference
//! convolution was tiled; they change only with a deliberate change to the
//! numerics.

use tsp_nn::data::synthetic;
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::resnet::{resnet, Widths};
use tsp_nn::train::{small_cnn, train_head};

/// FNV-1a over every calibrated number of `q`: each conv and dense layer's
/// node, shift and int8 weights, each global-average-pool shift, the input
/// scale and every node's activation scale (as bits).
fn calibration_hash(q: &QuantGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (node, c) in &q.conv {
        eat(&(*node as u64).to_le_bytes());
        eat(&c.shift.to_le_bytes());
        eat(&c.w.iter().map(|&w| w as u8).collect::<Vec<u8>>());
    }
    for (node, d) in &q.dense {
        eat(&(*node as u64).to_le_bytes());
        eat(&d.shift.to_le_bytes());
        eat(&d.w.iter().map(|&w| w as u8).collect::<Vec<u8>>());
    }
    for (node, shift) in &q.gap_shift {
        eat(&(*node as u64).to_le_bytes());
        eat(&shift.to_le_bytes());
    }
    eat(&q.input_scale.to_bits().to_le_bytes());
    for s in &q.scales {
        eat(&s.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn resnet50_calibration_is_pinned() {
    let (g, params) = resnet(50, 32, 1000, &Widths::standard(), 7);
    let data = synthetic(1, 32, 32, 3, 2, 1);
    let q = quantize(&g, &params, &data.images);
    assert_eq!(
        calibration_hash(&q),
        0x22aa_cbb1_846e_6633,
        "ResNet-50 32×32 calibration moved"
    );
}

#[test]
fn small_cnn_calibration_is_pinned() {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, mut params) = small_cnn(12, 24, 4, 5);
    train_head(&g, &mut params, &data, 10, 0.5);
    let q = quantize(&g, &params, &data.images[..6]);
    assert_eq!(
        calibration_hash(&q),
        0xb45f_0571_917d_e3d1,
        "small_cnn calibration moved"
    );
}
