//! The reference executors' convolution, bit for bit against a textbook
//! loop: every output channel sums `x·w` over the in-range taps in
//! `(ky, kx, ci)` order from `+0.0`, one multiply and one add per product.
//! The fp32 order is what fixes the rounding of every calibration number
//! `quantize` derives, so any reordering — a different tile walk, a reversed
//! channel loop, a fused multiply-add — must fail here.

use proptest::prelude::*;
use tsp_nn::graph::{ConvSpec, ConvW, Graph, Op, Params};
use tsp_nn::quant::{QConv, QuantGraph};
use tsp_nn::reference::{run_fp32, run_int8, sat8, shift_round, ValueF, ValueQ};

/// One single-conv graph's shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    h: u32,
    w: u32,
    c_in: u32,
    spec: ConvSpec,
}

impl Shape {
    fn new(k: u32, stride: u32, pad: u32, h: u32, w: u32, c_in: u32, c_out: u32) -> Shape {
        Shape {
            h,
            w,
            c_in,
            spec: ConvSpec {
                c_out,
                k,
                stride,
                pad,
                relu: false,
            },
        }
    }

    fn out_hw(&self) -> (u32, u32) {
        let s = &self.spec;
        (
            (self.h + 2 * s.pad - s.k) / s.stride + 1,
            (self.w + 2 * s.pad - s.k) / s.stride + 1,
        )
    }

    fn graph(&self) -> Graph {
        let mut g = Graph::with_input(self.h, self.w, self.c_in);
        g.push(Op::Conv(self.spec), vec![0], "conv");
        g
    }

    /// The textbook convolution: output `[y][x][co]`, input `[y][x][c]`,
    /// weights `[co][ci][ky][kx]`; `mac` adds one product to a sum.
    fn naive<T: Copy, A: Copy>(
        &self,
        x: &[T],
        wt: &[T],
        zero: A,
        mac: impl Fn(A, T, T) -> A,
    ) -> Vec<A> {
        let (oh, ow) = self.out_hw();
        let ConvSpec {
            c_out,
            k,
            stride,
            pad,
            ..
        } = self.spec;
        let (h, w, c) = (self.h as i64, self.w as i64, self.c_in);
        let mut out = Vec::with_capacity((oh * ow * c_out) as usize);
        for oy in 0..oh {
            for ox in 0..ow {
                for co in 0..c_out {
                    let mut acc = zero;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = i64::from(oy * stride + ky) - i64::from(pad);
                            let ix = i64::from(ox * stride + kx) - i64::from(pad);
                            if iy < 0 || ix < 0 || iy >= h || ix >= w {
                                continue;
                            }
                            for ci in 0..c {
                                let xi = ((iy * w + ix) as u32 * c + ci) as usize;
                                let wi = (((co * c + ci) * k + ky) * k + kx) as usize;
                                acc = mac(acc, x[xi], wt[wi]);
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
        out
    }
}

/// A splitmix64 stream for the tensors of one case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Mostly ordinary values, with signed zeros, subnormals and values
    /// whose products round, so order-dependent rounding shows.
    fn f32(&mut self) -> f32 {
        let r = self.next();
        let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
        match (r >> 1) % 16 {
            0 => -0.0,
            1 => 0.0,
            2 => sign * f32::from_bits(1 + ((r >> 8) as u32 & 0x7f_ffff)),
            3 => sign * f32::MIN_POSITIVE,
            _ => sign * ((r >> 16) as u32 as f32 / u32::MAX as f32) * 3.0,
        }
    }

    fn i8(&mut self) -> i8 {
        self.next() as i8
    }
}

fn check_fp32(shape: &Shape, relu: bool, seed: u64) -> Result<(), String> {
    let spec = ConvSpec { relu, ..shape.spec };
    let shape = Shape { spec, ..*shape };
    let mut mix = Mix(seed);
    let x: Vec<f32> = (0..shape.h * shape.w * shape.c_in)
        .map(|_| mix.f32())
        .collect();
    let wt: Vec<f32> = (0..spec.c_out * shape.c_in * spec.k * spec.k)
        .map(|_| mix.f32())
        .collect();
    let mut params = Params::default();
    params.conv.insert(
        1,
        ConvW {
            w: wt.clone(),
            co: spec.c_out,
            ci: shape.c_in,
            k: spec.k,
        },
    );
    let values = run_fp32(&shape.graph(), &params, &x);
    let ValueF::Map { data: got, .. } = &values[1] else {
        return Err("conv output is not a map".into());
    };
    let expect: Vec<u32> = shape
        .naive(&x, &wt, 0.0f32, |a, x, w| a + x * w)
        .into_iter()
        .map(|a| if relu { a.max(0.0) } else { a }.to_bits())
        .collect();
    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
    match got.iter().zip(&expect).position(|(g, e)| g != e) {
        None if got.len() == expect.len() => Ok(()),
        None => Err(format!("{} outputs, expected {}", got.len(), expect.len())),
        Some(i) => Err(format!(
            "fp32 output {i} is {:#010x}, the textbook loop gives {:#010x}",
            got[i], expect[i]
        )),
    }
}

fn check_int8(shape: &Shape, relu: bool, seed: u64) -> Result<(), String> {
    let spec = ConvSpec { relu, ..shape.spec };
    let shape = Shape { spec, ..*shape };
    let mut mix = Mix(seed);
    let x: Vec<i8> = (0..shape.h * shape.w * shape.c_in)
        .map(|_| mix.i8())
        .collect();
    let wt: Vec<i8> = (0..spec.c_out * shape.c_in * spec.k * spec.k)
        .map(|_| mix.i8())
        .collect();
    let shift = (mix.next() % 16) as i8;
    let q = QuantGraph {
        graph: shape.graph(),
        conv: [(
            1,
            QConv {
                w: wt.clone(),
                co: spec.c_out,
                ci: shape.c_in,
                k: spec.k,
                shift,
            },
        )]
        .into(),
        dense: Default::default(),
        gap_shift: Default::default(),
        input_scale: 1.0,
        scales: vec![1.0; 2],
    };
    let values = run_int8(&q, &x);
    let ValueQ::Map { data: got, .. } = &values[1] else {
        return Err("conv output is not a map".into());
    };
    let expect: Vec<i8> = shape
        .naive(&x, &wt, 0i64, |a, x, w| a + i64::from(x) * i64::from(w))
        .into_iter()
        .map(|a| {
            let y = sat8(shift_round(a, shift));
            if relu {
                y.max(0)
            } else {
                y
            }
        })
        .collect();
    if *got == expect {
        Ok(())
    } else {
        let i = got.iter().zip(&expect).position(|(g, e)| g != e);
        Err(format!(
            "int8 outputs differ first at {i:?} (shift {shift})"
        ))
    }
}

fn check(shape: &Shape, relu: bool, seed: u64) -> Result<(), String> {
    check_fp32(shape, relu, seed)?;
    check_int8(shape, relu, seed)
}

/// Shapes the random property could miss: maps narrower than any column
/// tile, maps with no interior column (every output column has a kernel
/// column out of range), strides that skip input, and channel counts on and
/// off every power-of-two block boundary.
#[test]
fn edge_shapes_match_the_textbook_loop() {
    let shapes = [
        Shape::new(1, 1, 0, 1, 1, 1, 1),
        Shape::new(3, 1, 1, 1, 1, 3, 5),
        Shape::new(3, 1, 1, 2, 1, 7, 17),
        Shape::new(7, 1, 3, 4, 3, 5, 33),
        Shape::new(7, 2, 3, 13, 6, 3, 40),
        Shape::new(5, 1, 2, 3, 4, 40, 31),
        Shape::new(5, 2, 0, 13, 13, 9, 16),
        Shape::new(3, 2, 1, 13, 13, 32, 32),
        Shape::new(3, 1, 0, 13, 13, 40, 1),
        Shape::new(1, 2, 0, 13, 13, 40, 40),
        Shape::new(1, 1, 0, 13, 13, 16, 64),
        Shape::new(3, 1, 1, 13, 13, 1, 65),
    ];
    for (i, shape) in shapes.iter().enumerate() {
        for relu in [false, true] {
            if let Err(e) = check(shape, relu, i as u64) {
                panic!("{shape:?} relu {relu}: {e}");
            }
        }
    }
}

proptest! {
    #[test]
    fn conv_matches_the_textbook_loop(
        ki in 0usize..4,
        stride in 1u32..3,
        pad_pick in 0u32..4,
        h in 1u32..14,
        w in 1u32..14,
        c_in in 1u32..41,
        c_out in 1u32..41,
        relu_seed in any::<u64>(),
    ) {
        let k = [1, 3, 5, 7][ki];
        let pad = pad_pick % (k / 2 + 1);
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let shape = Shape::new(k, stride, pad, h, w, c_in, c_out);
        let result = check(&shape, relu_seed & 1 == 1, relu_seed >> 1);
        prop_assert!(result.is_ok(), "{shape:?}: {}", result.unwrap_err());
    }
}
