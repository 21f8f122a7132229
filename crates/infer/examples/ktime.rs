//! Microbenchmark of the raw dot kernels (`cargo run --release -p
//! cllm-infer --example ktime`): prints effective MAC/s per kernel at
//! decode-relevant shapes, to localize time between the dot kernels
//! and the rest of the forward pass.

use cllm_infer::kernels::PanelMatrix;
use cllm_infer::quant::{Quant4Matrix, QuantMatrix};
use cllm_infer::tensor::Matrix;
use std::time::Instant;

fn mat(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
}

fn main() {
    for &(rows, cols) in &[(512usize, 512usize), (1408, 512), (512, 1408), (2048, 512)] {
        let w = mat(rows, cols, 1);
        let packed = PanelMatrix::pack(&w);
        let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut out = vec![0.0f32; rows];
        let reps = 2_000_000_000 / (rows * cols).max(1);

        let t0 = Instant::now();
        for _ in 0..reps {
            cllm_infer::kernels::gemv_tiled(&x, &packed, &mut out);
            std::hint::black_box(&out);
        }
        let tiled = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for _ in 0..reps {
            cllm_infer::kernels::gemv(&x, &w, &mut out);
            std::hint::black_box(&out);
        }
        let naive = t0.elapsed().as_secs_f64();

        let q8 = QuantMatrix::quantize(&w);
        let t0 = Instant::now();
        for _ in 0..reps {
            q8.gemv(&x, &mut out);
            std::hint::black_box(&out);
        }
        let int8 = t0.elapsed().as_secs_f64();

        let q4 = Quant4Matrix::quantize(&w);
        let t0 = Instant::now();
        for _ in 0..reps {
            q4.gemv(&x, &mut out);
            std::hint::black_box(&out);
        }
        let int4 = t0.elapsed().as_secs_f64();

        let macs = (reps * rows * cols) as f64;
        let ghz = 2.1e9;
        println!(
            "{rows}x{cols}: tiled {:.2} naive {:.2} int8 {:.2} int4 {:.2} MAC/cycle",
            macs / tiled / ghz,
            macs / naive / ghz,
            macs / int8 / ghz,
            macs / int4 / ghz,
        );
    }

    // Batched: gemm over 32 inputs, weight rows reused across the batch.
    let w = PanelMatrix::pack(&mat(1408, 512, 2));
    let xs = mat(32, 512, 3);
    let mut out = Matrix::zeros(32, 1408);
    let reps = 40;
    let t0 = Instant::now();
    for _ in 0..reps {
        cllm_infer::kernels::gemm(&xs, &w, &mut out);
        std::hint::black_box(&out);
    }
    let gemm = t0.elapsed().as_secs_f64();
    let macs = (reps * 32 * 1408 * 512) as f64;
    println!("gemm 32x[1408x512]: {:.2} MAC/cycle", macs / gemm / 2.1e9);
}
