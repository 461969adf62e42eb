//! The functional DLRM model: embedding table, gather-reduce, MLP.

use serde::{Deserialize, Serialize};

/// Aggregation operator for the embedding reduction (the APU's ALU supports
/// "various aggregation operators (e.g., max/min/inner product)", Sec. IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReduceOp {
    /// Element-wise sum (the DLRM default).
    Sum,
    /// Element-wise max.
    Max,
    /// Element-wise min.
    Min,
    /// Element-wise mean.
    Mean,
}

/// A dense embedding table of `rows × dim` f32 values.
///
/// Entries are deterministic pseudo-random values derived from the row id,
/// standing in for trained weights.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    dim: usize,
    rows: Vec<Vec<f32>>,
}

fn synth(row: u64, col: usize) -> f32 {
    // Deterministic small values in (-1, 1).
    let mut x = row.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (col as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

impl EmbeddingTable {
    /// Builds a table with synthetic weights.
    pub fn synthetic(rows: usize, dim: usize) -> Self {
        let rows = (0..rows as u64).map(|r| (0..dim).map(|c| synth(r, c)).collect()).collect();
        EmbeddingTable { dim, rows }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: u32) -> &[f32] {
        &self.rows[row as usize]
    }

    /// Bytes per row (`dim × 4`).
    pub fn row_bytes(&self) -> u64 {
        self.dim as u64 * 4
    }

    /// Gathers `features` and reduces them with `op`.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or contains out-of-range rows.
    pub fn reduce(&self, features: &[u32], op: ReduceOp) -> Vec<f32> {
        assert!(!features.is_empty(), "cannot reduce an empty feature set");
        let mut acc = self.row(features[0]).to_vec();
        for &f in &features[1..] {
            let row = self.row(f);
            for (a, &v) in acc.iter_mut().zip(row) {
                *a = match op {
                    ReduceOp::Sum | ReduceOp::Mean => *a + v,
                    ReduceOp::Max => a.max(v),
                    ReduceOp::Min => a.min(v),
                };
            }
        }
        if op == ReduceOp::Mean {
            let n = features.len() as f32;
            acc.iter_mut().for_each(|a| *a /= n);
        }
        acc
    }
}

/// A small fully-connected network with ReLU activations (the "relatively
/// lightweight" FC layers of Sec. VI-D).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

/// One fully-connected layer.
#[derive(Debug, Clone)]
struct Layer {
    inputs: usize,
    /// Weights transposed to `[in][out]`, flat: input `i`'s weight into
    /// output `o` sits at `i * outputs + o`, so the forward pass streams
    /// every output of one input at once.
    weights: Vec<f32>,
    /// Bias `[out]`.
    bias: Vec<f32>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths (`widths[0]` = input).
    ///
    /// # Panics
    ///
    /// Panics with fewer than two widths.
    pub fn synthetic(widths: &[usize]) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(l, w)| {
                let (inputs, outputs) = (w[0], w[1]);
                let weights = (0..inputs)
                    .flat_map(|i| (0..outputs).map(move |o| synth((l * 131 + o) as u64, i) * 0.1))
                    .collect();
                let bias = (0..outputs).map(|o| synth(l as u64, o) * 0.01).collect();
                Layer { inputs, weights, bias }
            })
            .collect();
        Mlp { layers }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass with ReLU between layers (none after the last).
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the first layer's width.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut x = input.to_vec();
        for (l, layer) in self.layers.iter().enumerate() {
            assert_eq!(x.len(), layer.inputs, "layer {l} width mismatch");
            // Each output is a dot product summed in input order from -0.0
            // (the start value of f32's `Sum`), plus the bias last: the same
            // operations on the same operands as a row-major
            // `row.zip(x).map(w * v).sum() + b`, but vectorizable across
            // outputs.
            let mut y = vec![-0.0f32; layer.bias.len()];
            for (&v, row) in x.iter().zip(layer.weights.chunks_exact(y.len())) {
                for (acc, &w) in y.iter_mut().zip(row) {
                    *acc += w * v;
                }
            }
            for (acc, &b) in y.iter_mut().zip(&layer.bias) {
                *acc += b;
            }
            if l + 1 < self.layers.len() {
                y.iter_mut().for_each(|v| *v = v.max(0.0));
            }
            x = y;
        }
        x
    }

    /// Approximate multiply-accumulate count of one forward pass.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(|layer| layer.weights.len() as u64).sum()
    }
}

/// The full model: embedding + top MLP producing a click-through score.
#[derive(Debug, Clone)]
pub struct DlrmModel {
    /// The (sparse-feature) embedding table.
    pub embedding: EmbeddingTable,
    /// The top MLP.
    pub mlp: Mlp,
}

impl DlrmModel {
    /// A synthetic model: `rows × dim` embeddings, `dim→64→16→1` MLP.
    pub fn synthetic(rows: usize, dim: usize) -> Self {
        DlrmModel { embedding: EmbeddingTable::synthetic(rows, dim), mlp: Mlp::synthetic(&[dim, 64, 16, 1]) }
    }

    /// End-to-end inference: reduce the features, run the MLP, return the
    /// score.
    ///
    /// # Panics
    ///
    /// Panics on an empty feature set.
    pub fn infer(&self, features: &[u32]) -> f32 {
        let reduced = self.embedding.reduce(features, ReduceOp::Sum);
        self.mlp.forward(&reduced)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sum_matches_manual() {
        let t = EmbeddingTable::synthetic(10, 4);
        let r = t.reduce(&[1, 3], ReduceOp::Sum);
        for (c, &got) in r.iter().enumerate() {
            let want = t.row(1)[c] + t.row(3)[c];
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn reduce_ops_behave() {
        let t = EmbeddingTable::synthetic(10, 8);
        let max = t.reduce(&[0, 1, 2], ReduceOp::Max);
        let min = t.reduce(&[0, 1, 2], ReduceOp::Min);
        let mean = t.reduce(&[0, 1, 2], ReduceOp::Mean);
        let sum = t.reduce(&[0, 1, 2], ReduceOp::Sum);
        for c in 0..8 {
            assert!(max[c] >= min[c]);
            assert!((mean[c] - sum[c] / 3.0).abs() < 1e-6);
            assert!(min[c] <= mean[c] && mean[c] <= max[c]);
        }
    }

    #[test]
    fn single_feature_reduce_is_identity() {
        let t = EmbeddingTable::synthetic(5, 4);
        assert_eq!(t.reduce(&[2], ReduceOp::Sum), t.row(2).to_vec());
    }

    #[test]
    #[should_panic(expected = "empty feature set")]
    fn empty_reduce_panics() {
        EmbeddingTable::synthetic(5, 4).reduce(&[], ReduceOp::Sum);
    }

    #[test]
    fn embeddings_are_deterministic() {
        let a = EmbeddingTable::synthetic(100, 16);
        let b = EmbeddingTable::synthetic(100, 16);
        assert_eq!(a.row(57), b.row(57));
        assert_eq!(a.row_bytes(), 64);
    }

    #[test]
    fn mlp_forward_shapes_and_relu() {
        let mlp = Mlp::synthetic(&[8, 4, 2]);
        assert_eq!(mlp.depth(), 2);
        let y = mlp.forward(&[0.5; 8]);
        assert_eq!(y.len(), 2);
        assert_eq!(mlp.flops(), 8 * 4 + 4 * 2);
    }

    /// The row-major forward pass `Mlp` had before its weights were
    /// transposed: the reference [`Mlp::forward`] must equal bit for bit.
    fn reference_forward(layers: &[(Vec<Vec<f32>>, Vec<f32>)], input: &[f32]) -> Vec<f32> {
        let mut x = input.to_vec();
        for (l, (weights, bias)) in layers.iter().enumerate() {
            let mut y: Vec<f32> = weights
                .iter()
                .zip(bias)
                .map(|(row, b)| row.iter().zip(&x).map(|(w, v)| w * v).sum::<f32>() + b)
                .collect();
            if l + 1 < layers.len() {
                y.iter_mut().for_each(|v| *v = v.max(0.0));
            }
            x = y;
        }
        x
    }

    /// `mlp`'s layers back in the old `[out][in]` layout.
    fn row_major(mlp: &Mlp) -> Vec<(Vec<Vec<f32>>, Vec<f32>)> {
        mlp.layers
            .iter()
            .map(|layer| {
                let outputs = layer.bias.len();
                let rows =
                    (0..outputs).map(|o| (0..layer.inputs).map(|i| layer.weights[i * outputs + o]).collect());
                (rows.collect(), layer.bias.clone())
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32]) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{got:?} vs {want:?}");
    }

    #[test]
    fn synthetic_layout_is_the_old_row_major_weights() {
        let mlp = Mlp::synthetic(&[64, 64, 16, 1]);
        for (l, (rows, b)) in row_major(&mlp).iter().enumerate() {
            for (o, row) in rows.iter().enumerate() {
                let want: Vec<f32> = (0..row.len()).map(|i| synth((l * 131 + o) as u64, i) * 0.1).collect();
                assert_bits_eq(row, &want);
                assert_eq!(b[o].to_bits(), (synth(l as u64, o) * 0.01).to_bits());
            }
        }
    }

    /// A value stream with signed zeros, subnormals and ordinary magnitudes.
    fn pick(x: &mut u64) -> f32 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        match *x % 8 {
            0 => -0.0,
            1 => 0.0,
            2 => f32::from_bits((*x >> 40) as u32 & 0x807F_FFFF), // subnormal, either sign
            _ => ((*x >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0,
        }
    }

    /// An output whose products and bias are all zeros keeps the sign the
    /// sum starts from: every 2-input layer over {±0, ±1} weights and
    /// inputs and a ±0 bias.
    #[test]
    fn all_zero_outputs_keep_the_reference_sign() {
        let value = |k: usize| [0.0f32, -0.0, 1.0, -1.0][k % 4];
        for n in 0..512 {
            let (weights, input, bias) =
                (vec![value(n), value(n / 4)], [value(n / 16), value(n / 64)], n / 256);
            let mlp = Mlp { layers: vec![Layer { inputs: 2, weights, bias: vec![value(bias)] }] };
            assert_bits_eq(&mlp.forward(&input), &reference_forward(&row_major(&mlp), &input));
        }
    }

    proptest::proptest! {
        /// The paper model's MLP on reduced embeddings and on inputs full
        /// of signed zeros.
        #[test]
        fn forward_equals_row_major_reference(seed in proptest::prelude::any::<u64>(), dim in 1usize..80) {
            let mlp = Mlp::synthetic(&[dim, 64, 16, 1]);
            let reference = row_major(&mlp);
            let mut x = seed | 1;
            for _ in 0..16 {
                let input: Vec<f32> = (0..dim).map(|_| pick(&mut x)).collect();
                assert_bits_eq(&mlp.forward(&input), &reference_forward(&reference, &input));
            }
            let zeros = vec![-0.0f32; dim];
            assert_bits_eq(&mlp.forward(&zeros), &reference_forward(&reference, &zeros));
        }

        /// Arbitrary shapes whose weights and biases are themselves signed
        /// zeros often enough that outputs land on -0.0 or +0.0, which only
        /// the `Sum` start value decides.
        #[test]
        fn forward_equals_reference_on_zero_heavy_layers(
            seed in proptest::prelude::any::<u64>(),
            widths in proptest::collection::vec(1usize..40, 2..5),
        ) {
            let mut x = seed | 1;
            let layers = widths
                .windows(2)
                .map(|w| Layer {
                    inputs: w[0],
                    weights: (0..w[0] * w[1]).map(|_| pick(&mut x)).collect(),
                    bias: (0..w[1]).map(|_| pick(&mut x)).collect(),
                })
                .collect();
            let mlp = Mlp { layers };
            let reference = row_major(&mlp);
            for _ in 0..8 {
                let input: Vec<f32> = (0..widths[0]).map(|_| pick(&mut x)).collect();
                assert_bits_eq(&mlp.forward(&input), &reference_forward(&reference, &input));
            }
        }
    }

    #[test]
    fn inference_is_deterministic_and_sensitive() {
        let m = DlrmModel::synthetic(1000, 16);
        let a = m.infer(&[1, 2, 3]);
        let b = m.infer(&[1, 2, 3]);
        let c = m.infer(&[4, 5, 6]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
