//! Host-side reference executors.
//!
//! * [`run_fp32`] — floating-point forward pass, used for training-side
//!   accuracy and quantization calibration.
//! * [`run_int8`] — **bit-exact mirror of the TSP kernels' arithmetic**
//!   (int32 accumulation, power-of-two round-half-away-from-zero
//!   requantization, int8 saturation, zero-padded pooling), so a compiled
//!   model run on the simulator must reproduce this executor exactly; any
//!   divergence is a compiler or simulator bug, not "numerics".

use crate::graph::{ConvSpec, Graph, Op};
use crate::quant::QuantGraph;

/// A node value during fp32 execution: `Map` data is `[y][x][c]` row-major.
#[derive(Debug, Clone)]
pub enum ValueF {
    /// Spatial map.
    Map {
        /// Height.
        h: u32,
        /// Width.
        w: u32,
        /// Channels.
        c: u32,
        /// `[y][x][c]` data.
        data: Vec<f32>,
    },
    /// Flat vector.
    Flat(Vec<f32>),
}

/// A node value during int8 execution.
#[derive(Debug, Clone)]
pub enum ValueQ {
    /// Spatial map, `[y][x][c]`.
    Map {
        /// Height.
        h: u32,
        /// Width.
        w: u32,
        /// Channels.
        c: u32,
        /// `[y][x][c]` data.
        data: Vec<i8>,
    },
    /// Flat vector.
    Flat(Vec<i8>),
}

/// `v × 2^-shift`, round-half-away-from-zero (identical to the VXM convert).
#[must_use]
pub fn shift_round(v: i64, shift: i8) -> i64 {
    if shift > 0 {
        let s = u32::from(shift as u8);
        let half = 1i64 << (s - 1);
        if v >= 0 {
            (v + half) >> s
        } else {
            -((-v + half) >> s)
        }
    } else {
        v << u32::from((-shift) as u8)
    }
}

/// Saturate to int8 after requantization.
#[must_use]
pub fn sat8(v: i64) -> i8 {
    v.clamp(-128, 127) as i8
}

/// Runs the fp32 forward pass on an `[y][x][c]` image; returns per-node values.
///
/// # Panics
///
/// Panics if the image does not match the input shape or params are missing.
#[must_use]
pub fn run_fp32(graph: &Graph, params: &crate::graph::Params, image: &[f32]) -> Vec<ValueF> {
    let mut values: Vec<ValueF> = Vec::with_capacity(graph.nodes.len());
    for (i, node) in graph.nodes.iter().enumerate() {
        let v = match &node.op {
            Op::Input { h, w, c } => {
                assert_eq!(image.len(), (h * w * c) as usize, "image size");
                ValueF::Map {
                    h: *h,
                    w: *w,
                    c: *c,
                    data: image.to_vec(),
                }
            }
            Op::Conv(spec) => {
                let ValueF::Map { h, w, c, data } = &values[node.inputs[0]] else {
                    panic!("conv on flat")
                };
                let (oh, ow, out) = conv(data, (*h, *w, *c), spec, &params.conv[&i].w, |a| {
                    if spec.relu {
                        a.max(0.0)
                    } else {
                        a
                    }
                });
                ValueF::Map {
                    h: oh,
                    w: ow,
                    c: spec.c_out,
                    data: out,
                }
            }
            Op::MaxPool { k, stride, pad } => {
                let ValueF::Map { h, w, c, data } = &values[node.inputs[0]] else {
                    panic!("pool on flat")
                };
                let (oh, ow) = out_hw(*h, *w, *k, *stride, *pad);
                let mut out = vec![0f32; (oh * ow * c) as usize];
                for oy in 0..oh {
                    for ox in 0..ow {
                        for ch in 0..*c {
                            // Zero-padded max (matches the kernel: the
                            // materialized border is zero).
                            let mut m = f32::MIN;
                            for ky in 0..*k {
                                for kx in 0..*k {
                                    let iy = (oy * stride + ky) as i64 - i64::from(*pad);
                                    let ix = (ox * stride + kx) as i64 - i64::from(*pad);
                                    let v = if iy < 0
                                        || ix < 0
                                        || iy >= i64::from(*h)
                                        || ix >= i64::from(*w)
                                    {
                                        0.0
                                    } else {
                                        data[((iy as u32 * *w + ix as u32) * *c + ch) as usize]
                                    };
                                    m = m.max(v);
                                }
                            }
                            out[((oy * ow + ox) * c + ch) as usize] = m;
                        }
                    }
                }
                ValueF::Map {
                    h: oh,
                    w: ow,
                    c: *c,
                    data: out,
                }
            }
            Op::GlobalAvgPool => {
                let ValueF::Map { h, w, c, data } = &values[node.inputs[0]] else {
                    panic!("gap on flat")
                };
                let n = (*h * *w) as f32;
                let out: Vec<f32> = (0..*c)
                    .map(|ch| {
                        (0..*h * *w)
                            .map(|p| data[(p * *c + ch) as usize])
                            .sum::<f32>()
                            / n
                    })
                    .collect();
                ValueF::Flat(out)
            }
            Op::Dense { out: o, relu } => {
                let x: &[f32] = match &values[node.inputs[0]] {
                    ValueF::Flat(v) => v,
                    ValueF::Map { .. } => panic!("dense on map"),
                };
                let dw = &params.dense[&i];
                let inp = dw.inp as usize;
                let out: Vec<f32> = (0..*o as usize)
                    .map(|oi| {
                        let row = &dw.w[oi * inp..(oi + 1) * inp];
                        let mut acc = 0f32;
                        for (&xv, &wv) in x.iter().zip(row) {
                            acc += xv * wv;
                        }
                        if *relu {
                            acc.max(0.0)
                        } else {
                            acc
                        }
                    })
                    .collect();
                ValueF::Flat(out)
            }
            Op::Add { relu } => match (&values[node.inputs[0]], &values[node.inputs[1]]) {
                (ValueF::Map { h, w, c, data: a }, ValueF::Map { data: b, .. }) => ValueF::Map {
                    h: *h,
                    w: *w,
                    c: *c,
                    data: a
                        .iter()
                        .zip(b)
                        .map(|(x, y)| {
                            let s = x + y;
                            if *relu {
                                s.max(0.0)
                            } else {
                                s
                            }
                        })
                        .collect(),
                },
                _ => panic!("add on flats"),
            },
        };
        values.push(v);
    }
    values
}

/// Runs the bit-exact int8 forward pass on a pre-quantized `[y][x][c]` image.
///
/// # Panics
///
/// Panics on shape mismatches.
#[must_use]
pub fn run_int8(q: &QuantGraph, image: &[i8]) -> Vec<ValueQ> {
    let graph = &q.graph;
    let mut values: Vec<ValueQ> = Vec::with_capacity(graph.nodes.len());
    for (i, node) in graph.nodes.iter().enumerate() {
        let v = match &node.op {
            Op::Input { h, w, c } => {
                assert_eq!(image.len(), (h * w * c) as usize, "image size");
                ValueQ::Map {
                    h: *h,
                    w: *w,
                    c: *c,
                    data: image.to_vec(),
                }
            }
            Op::Conv(spec) => {
                let ValueQ::Map { h, w, c, data } = &values[node.inputs[0]] else {
                    panic!("conv on flat")
                };
                // |x·w| ≤ 2^14 for int8 operands, so an i32 sum of k²·c_in
                // products is exact while k²·c_in·2^14 < 2^31.
                let products = u64::from(spec.k).pow(2) * u64::from(*c);
                assert!(
                    products << 14 < 1 << 31,
                    "{}: {products} products per output can overflow the int32 accumulator",
                    node.name
                );
                let shift = q.conv[&i].shift;
                let (oh, ow, out) = conv(data, (*h, *w, *c), spec, &q.conv[&i].w, |a| {
                    let y = sat8(shift_round(i64::from(a), shift));
                    if spec.relu {
                        y.max(0)
                    } else {
                        y
                    }
                });
                ValueQ::Map {
                    h: oh,
                    w: ow,
                    c: spec.c_out,
                    data: out,
                }
            }
            Op::MaxPool { k, stride, pad } => {
                let ValueQ::Map { h, w, c, data } = &values[node.inputs[0]] else {
                    panic!("pool on flat")
                };
                let (oh, ow) = out_hw(*h, *w, *k, *stride, *pad);
                let mut out = vec![0i8; (oh * ow * c) as usize];
                for oy in 0..oh {
                    for ox in 0..ow {
                        for ch in 0..*c {
                            let mut m = i8::MIN;
                            for ky in 0..*k {
                                for kx in 0..*k {
                                    let iy = (oy * stride + ky) as i64 - i64::from(*pad);
                                    let ix = (ox * stride + kx) as i64 - i64::from(*pad);
                                    let v = if iy < 0
                                        || ix < 0
                                        || iy >= i64::from(*h)
                                        || ix >= i64::from(*w)
                                    {
                                        0
                                    } else {
                                        data[((iy as u32 * *w + ix as u32) * *c + ch) as usize]
                                    };
                                    m = m.max(v);
                                }
                            }
                            out[((oy * ow + ox) * c + ch) as usize] = m;
                        }
                    }
                }
                ValueQ::Map {
                    h: oh,
                    w: ow,
                    c: *c,
                    data: out,
                }
            }
            Op::GlobalAvgPool => {
                let ValueQ::Map { h, w, c, data } = &values[node.inputs[0]] else {
                    panic!("gap on flat")
                };
                let shift = q.gap_shift[&i];
                let out: Vec<i8> = (0..*c)
                    .map(|ch| {
                        let sum: i64 = (0..*h * *w)
                            .map(|p| i64::from(data[(p * *c + ch) as usize]))
                            .sum();
                        sat8(shift_round(sum, shift))
                    })
                    .collect();
                ValueQ::Flat(out)
            }
            Op::Dense { out: o, relu } => {
                let x: &[i8] = match &values[node.inputs[0]] {
                    ValueQ::Flat(v) => v,
                    ValueQ::Map { .. } => panic!("dense on map"),
                };
                let qd = &q.dense[&i];
                let inp = qd.inp as usize;
                let out: Vec<i8> = (0..*o as usize)
                    .map(|oi| {
                        let row = &qd.w[oi * inp..(oi + 1) * inp];
                        let acc: i64 = x
                            .iter()
                            .zip(row)
                            .map(|(&xv, &wv)| i64::from(xv) * i64::from(wv))
                            .sum();
                        let mut y = sat8(shift_round(acc, qd.shift));
                        if *relu {
                            y = y.max(0);
                        }
                        y
                    })
                    .collect();
                ValueQ::Flat(out)
            }
            Op::Add { relu } => match (&values[node.inputs[0]], &values[node.inputs[1]]) {
                (ValueQ::Map { h, w, c, data: a }, ValueQ::Map { data: b, .. }) => ValueQ::Map {
                    h: *h,
                    w: *w,
                    c: *c,
                    data: a
                        .iter()
                        .zip(b)
                        .map(|(x, y)| {
                            let mut s = x.saturating_add(*y);
                            if *relu {
                                s = s.max(0);
                            }
                            s
                        })
                        .collect(),
                },
                _ => panic!("add on flats"),
            },
        };
        values.push(v);
    }
    values
}

/// Output channels one pass of the reference convolution accumulates.
const CO_BLOCK: usize = 32;

/// Adjacent output columns one interior pass covers: `TILE_COLS ×
/// CO_BLOCK` independent sums interleave, enough to hide the FP-add
/// latency chain each of them is.
const TILE_COLS: usize = 2;

/// An element type the reference convolution runs on, with the type its
/// products are summed in.
trait ConvElem: Copy + Default {
    /// The accumulator.
    type Acc: Copy;
    /// The empty sum.
    const ZERO: Self::Acc;
    /// `acc + x·w`, as one multiply and one add.
    fn mac(acc: Self::Acc, x: Self, w: Self) -> Self::Acc;
}

impl ConvElem for f32 {
    type Acc = f32;
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn mac(acc: f32, x: f32, w: f32) -> f32 {
        acc + x * w
    }
}

impl ConvElem for i8 {
    type Acc = i32;
    const ZERO: i32 = 0;
    #[inline(always)]
    fn mac(acc: i32, x: i8, w: i8) -> i32 {
        acc + i32::from(x) * i32::from(w)
    }
}

/// One in-range kernel tap `(ky, kx)` of an output row.
#[derive(Debug, Clone, Copy)]
struct Tap {
    /// `(iy·w + kx)·c`: the tap's input offset for an output column whose
    /// window starts at input column 0.
    input: usize,
    /// The tap's kernel column.
    kx: u32,
    /// `(ky·k + kx)·c`: the tap's first weight row within a block.
    weight: usize,
}

/// Convolves a `[y][x][c]` map with `[co][ci][ky][kx]` weights; `finish`
/// turns each output channel's sum into the stored value. Returns the output
/// height, width and `[y][x][co]` data.
///
/// Every output channel sums its products in the textbook `(ky, kx, ci)`
/// order over the in-range taps, starting from [`ConvElem::ZERO`], so the
/// result is bit-identical to the naive loop, whatever the tiling (see
/// DESIGN.md §6, "Reference executors").
fn conv<T: ConvElem>(
    data: &[T],
    (h, w, c): (u32, u32, u32),
    spec: &ConvSpec,
    weights: &[T],
    finish: impl Fn(T::Acc) -> T,
) -> (u32, u32, Vec<T>) {
    let ConvSpec { k, stride, pad, .. } = *spec;
    let (oh, ow) = out_hw(h, w, k, stride, pad);
    let (cu, c_out) = (c as usize, spec.c_out as usize);
    // The output outlives the reordered weights: allocating it first keeps
    // the freed weights on top of the heap, where they are returned.
    let mut out = vec![T::default(); oh as usize * ow as usize * c_out];
    let blocked = reorder_conv_blocked(weights, spec.c_out, c, k);
    let block = (k * k) as usize * cu * CO_BLOCK;
    // Interior columns `lo..hi` read every kx tap in range: ox·s ≥ pad and
    // ox·s − pad + k ≤ w.
    let lo = pad.div_ceil(stride);
    let hi = if w + pad >= k {
        (w + pad - k) / stride + 1
    } else {
        0
    };
    let (step, pad_off) = ((stride * c) as usize, (pad * c) as usize);

    // Each output row's in-range taps, in (ky, kx) order: `taps[rows[oy]..
    // rows[oy + 1]]`.
    let mut taps = Vec::with_capacity((oh * k * k) as usize);
    let mut rows = Vec::with_capacity(oh as usize + 1);
    rows.push(0);
    for oy in 0..oh {
        for ky in 0..k {
            let Some(iy) = (oy * stride + ky).checked_sub(pad).filter(|&iy| iy < h) else {
                continue;
            };
            taps.extend((0..k).map(|kx| Tap {
                input: ((iy * w + kx) * c) as usize,
                kx,
                weight: ((ky * k + kx) * c) as usize,
            }));
        }
        rows.push(taps.len());
    }

    for (blk, wb) in blocked.chunks_exact(block).enumerate() {
        let live = (c_out - blk * CO_BLOCK).min(CO_BLOCK);
        let mut store = |oy: u32, ox: u32, acc: &[T::Acc; CO_BLOCK]| {
            let at = (oy * ow + ox) as usize * c_out + blk * CO_BLOCK;
            for (o, &a) in out[at..at + live].iter_mut().zip(acc) {
                *o = finish(a);
            }
        };
        for oy in 0..oh {
            let row = &taps[rows[oy as usize]..rows[oy as usize + 1]];
            let mut ox = 0;
            while ox < ow {
                let x0 = ox * stride;
                // The tap moved to this column's window, which starts at
                // input column x0 − pad.
                let placed = |t: &Tap| Tap {
                    input: t.input + (x0 * c) as usize - pad_off,
                    ..*t
                };
                if ox >= lo && ox + TILE_COLS as u32 <= hi {
                    let acc =
                        accumulate::<T, TILE_COLS>(data, row.iter().map(placed), step, cu, wb);
                    for (p, a) in (ox..).zip(&acc) {
                        store(oy, p, a);
                    }
                    ox += TILE_COLS as u32;
                } else {
                    // A border column (some taps out of range) or the
                    // interior remainder.
                    let inside = row
                        .iter()
                        .filter(|t| x0 + t.kx >= pad && x0 + t.kx - pad < w)
                        .map(placed);
                    store(oy, ox, &accumulate::<T, 1>(data, inside, step, cu, wb)[0]);
                    ox += 1;
                }
            }
        }
    }
    (oh, ow, out)
}

/// The microkernel: sums `P` adjacent output columns × [`CO_BLOCK`]
/// channels, column `p` reading its input at `tap.input + p·step`. For each
/// tap in order, for each input channel in order, every one of the
/// `P × CO_BLOCK` sums takes one product.
#[inline(always)]
fn accumulate<T: ConvElem, const P: usize>(
    data: &[T],
    taps: impl Iterator<Item = Tap>,
    step: usize,
    cu: usize,
    wb: &[T],
) -> [[T::Acc; CO_BLOCK]; P] {
    let mut acc = [[T::ZERO; CO_BLOCK]; P];
    for tap in taps {
        let ws = &wb[tap.weight * CO_BLOCK..][..cu * CO_BLOCK];
        let xs = &data[tap.input..][..(P - 1) * step + cu];
        for (ci, wj) in ws.chunks_exact(CO_BLOCK).enumerate() {
            let wj: &[T; CO_BLOCK] = wj.try_into().expect("CO_BLOCK chunk");
            let x: [T; P] = std::array::from_fn(|p| xs[p * step + ci]);
            // Columns innermost: with the channel loop inside instead, LLVM
            // kept `acc` in memory and emitted scalar code, 3× slower.
            for (b, &wv) in wj.iter().enumerate() {
                for p in 0..P {
                    acc[p][b] = T::mac(acc[p][b], x[p], wv);
                }
            }
        }
    }
    acc
}

/// Reorders conv weights from `[co][ci][ky][kx]` into [`CO_BLOCK`]-wide
/// output-channel blocks laid out `[blk][ky][kx][ci][b]`, zero-padding the
/// last block, so the inner conv loops read weights contiguously.
fn reorder_conv_blocked<T: Copy + Default>(w: &[T], c_out: u32, ci: u32, k: u32) -> Vec<T> {
    let (c_out, ci, k) = (c_out as usize, ci as usize, k as usize);
    let row = k * k * ci;
    let mut out = vec![T::default(); c_out.div_ceil(CO_BLOCK) * row * CO_BLOCK];
    for co in 0..c_out {
        let (blk, b) = (co / CO_BLOCK, co % CO_BLOCK);
        for ky in 0..k {
            for kx in 0..k {
                for c in 0..ci {
                    out[(blk * row + (ky * k + kx) * ci + c) * CO_BLOCK + b] =
                        w[((co * ci + c) * k + ky) * k + kx];
                }
            }
        }
    }
    out
}

fn out_hw(h: u32, w: u32, k: u32, stride: u32, pad: u32) -> (u32, u32) {
    (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    )
}

/// The index of the largest element (argmax for classification).
#[must_use]
pub fn argmax_f(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// The index of the largest element of an int8 vector.
#[must_use]
pub fn argmax_q(v: &[i8]) -> usize {
    let mut best = 0usize;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Extracts the final flat value of a run.
///
/// # Panics
///
/// Panics if the last node is not flat.
#[must_use]
pub fn final_flat_q(values: &[ValueQ]) -> &[i8] {
    match values.last().expect("nonempty") {
        ValueQ::Flat(v) => v,
        ValueQ::Map { .. } => panic!("final node is a map"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_round_matches_vxm_semantics() {
        assert_eq!(shift_round(100, 7), 1);
        assert_eq!(shift_round(-100, 7), -1);
        assert_eq!(shift_round(3, 1), 2);
        assert_eq!(shift_round(-3, 1), -2);
        assert_eq!(shift_round(2, -3), 16);
    }

    #[test]
    fn argmax_helpers() {
        assert_eq!(argmax_f(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax_q(&[-5, 3, 3]), 1);
    }
}
