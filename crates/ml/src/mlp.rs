//! Multi-layer perceptron: one ReLU hidden layer trained by mini-batch
//! SGD with momentum — softmax/cross-entropy head for classification,
//! linear/squared-error head for regression.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::rng::randn;

use crate::linalg::Matrix;
use crate::logistic::softmax_in_place;
use crate::model::{Classifier, Regressor};

/// MLP hyperparameters.
#[derive(Debug, Clone)]
pub struct MlpParams {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f64,
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Momentum coefficient.
    pub momentum: f64,
}

impl Default for MlpParams {
    fn default() -> Self {
        Self { hidden: 32, lr: 0.05, epochs: 60, batch: 32, momentum: 0.9 }
    }
}

/// Dense layer weights plus momentum buffers.
#[derive(Debug, Clone)]
struct Net {
    w1: Matrix, // d × h
    b1: Vec<f64>,
    w2: Matrix, // h × out
    b2: Vec<f64>,
    v_w1: Matrix,
    v_b1: Vec<f64>,
    v_w2: Matrix,
    v_b2: Vec<f64>,
}

impl Net {
    fn init(d: usize, h: usize, out: usize, rng: &mut StdRng) -> Self {
        let mut w1 = Matrix::zeros(d, h);
        let mut w2 = Matrix::zeros(h, out);
        let s1 = (2.0 / d.max(1) as f64).sqrt();
        let s2 = (2.0 / h.max(1) as f64).sqrt();
        for r in 0..d {
            for c in 0..h {
                w1[(r, c)] = s1 * randn(rng);
            }
        }
        for r in 0..h {
            for c in 0..out {
                w2[(r, c)] = s2 * randn(rng);
            }
        }
        Net {
            v_w1: Matrix::zeros(d, h),
            v_b1: vec![0.0; h],
            v_w2: Matrix::zeros(h, out),
            v_b2: vec![0.0; out],
            w1,
            b1: vec![0.0; h],
            w2,
            b2: vec![0.0; out],
        }
    }

    /// Zeroed buffers for one sample's hidden activations and outputs.
    fn buffers(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; self.b1.len()], vec![0.0; self.b2.len()])
    }

    /// Forward pass for one sample into `hidden` (after the ReLU) and
    /// `output`.
    fn forward(&self, xr: &[f64], hidden: &mut [f64], output: &mut [f64]) {
        hidden.copy_from_slice(&self.b1);
        for (f, &xv) in xr.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            for (hv, &w) in hidden.iter_mut().zip(self.w1.row(f)) {
                *hv += xv * w;
            }
        }
        for hv in hidden.iter_mut() {
            *hv = hv.max(0.0); // ReLU
        }
        output.copy_from_slice(&self.b2);
        for (j, &hv) in hidden.iter().enumerate() {
            if hv == 0.0 {
                continue;
            }
            for (ov, &w) in output.iter_mut().zip(self.w2.row(j)) {
                *ov += hv * w;
            }
        }
    }

    /// One SGD step on a batch from the per-sample output-layer errors
    /// (dL/dz of the output pre-activations) and hidden activations in
    /// `s`, in batch order.
    fn step(&mut self, x: &Matrix, batch: &[usize], s: &mut FitBuffers, lr: f64, momentum: f64) {
        let h = self.b1.len();
        let out = self.b2.len();
        let scale = lr / batch.len().max(1) as f64;
        s.g_w1.as_mut_slice().fill(0.0);
        s.g_b1.fill(0.0);
        s.g_w2.as_mut_slice().fill(0.0);
        s.g_b2.fill(0.0);

        for (bi, &i) in batch.iter().enumerate() {
            let err = &s.errors[bi * out..(bi + 1) * out];
            let hid = &s.hiddens[bi * h..(bi + 1) * h];
            for (j, &hv) in hid.iter().enumerate() {
                if hv > 0.0 {
                    for (g, &e) in s.g_w2.row_mut(j).iter_mut().zip(err) {
                        *g += hv * e;
                    }
                }
            }
            for (g, &e) in s.g_b2.iter_mut().zip(err) {
                *g += e;
            }
            // Backprop into hidden.
            for (j, he) in s.hid_err.iter_mut().enumerate() {
                *he = 0.0;
                if hid[j] > 0.0 {
                    for (&e, &w) in err.iter().zip(self.w2.row(j)) {
                        *he += e * w;
                    }
                }
            }
            for (f, &xv) in x.row(i).iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                for (g, &he) in s.g_w1.row_mut(f).iter_mut().zip(&s.hid_err) {
                    *g += xv * he;
                }
            }
            for (g, &he) in s.g_b1.iter_mut().zip(&s.hid_err) {
                *g += he;
            }
        }

        momentum_step(
            self.w1.as_mut_slice(),
            self.v_w1.as_mut_slice(),
            s.g_w1.as_slice(),
            momentum,
            scale,
        );
        momentum_step(&mut self.b1, &mut self.v_b1, &s.g_b1, momentum, scale);
        momentum_step(
            self.w2.as_mut_slice(),
            self.v_w2.as_mut_slice(),
            s.g_w2.as_slice(),
            momentum,
            scale,
        );
        momentum_step(&mut self.b2, &mut self.v_b2, &s.g_b2, momentum, scale);
    }
}

/// Momentum update of each weight from its gradient.
fn momentum_step(w: &mut [f64], v: &mut [f64], g: &[f64], momentum: f64, scale: f64) {
    for ((w, v), &g) in w.iter_mut().zip(v.iter_mut()).zip(g) {
        *v = momentum * *v - scale * g;
        *w += *v;
    }
}

/// One fit's buffers, reused by every batch: each sample's hidden
/// activations and output errors (flat, batch-major), and the gradients.
struct FitBuffers {
    hiddens: Vec<f64>,
    errors: Vec<f64>,
    hid_err: Vec<f64>,
    g_w1: Matrix,
    g_b1: Vec<f64>,
    g_w2: Matrix,
    g_b2: Vec<f64>,
}

/// Trains `net`; `out_error` turns sample `i`'s outputs into its output
/// errors in place.
fn train<FErr: FnMut(usize, &mut [f64])>(
    net: &mut Net,
    x: &Matrix,
    params: &MlpParams,
    rng: &mut StdRng,
    mut out_error: FErr,
) {
    let n = x.rows();
    if n == 0 {
        return;
    }
    let (d, h, out) = (net.w1.rows(), net.b1.len(), net.b2.len());
    let batch_size = params.batch.max(1);
    let width = batch_size.min(n);
    let mut s = FitBuffers {
        hiddens: vec![0.0; width * h],
        errors: vec![0.0; width * out],
        hid_err: vec![0.0; h],
        g_w1: Matrix::zeros(d, h),
        g_b1: vec![0.0; h],
        g_w2: Matrix::zeros(h, out),
        g_b2: vec![0.0; out],
    };
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..params.epochs {
        rein_guard::checkpoint(n as u64);
        order.shuffle(rng);
        for batch in order.chunks(batch_size) {
            for (bi, &i) in batch.iter().enumerate() {
                let hidden = &mut s.hiddens[bi * h..(bi + 1) * h];
                let output = &mut s.errors[bi * out..(bi + 1) * out];
                net.forward(x.row(i), hidden, output);
                out_error(i, output);
            }
            net.step(x, batch, &mut s, params.lr, params.momentum);
        }
    }
}

/// MLP classifier (softmax head).
pub struct MlpClassifier {
    params: MlpParams,
    seed: u64,
    net: Option<Net>,
    n_classes: usize,
}

impl MlpClassifier {
    /// Builds an (unfitted) MLP classifier.
    pub fn new(params: MlpParams, seed: u64) -> Self {
        Self { params, seed, net: None, n_classes: 0 }
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        self.n_classes = n_classes.max(2);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut net = Net::init(x.cols(), self.params.hidden, self.n_classes, &mut rng);
        let params = self.params.clone();
        train(&mut net, x, &params, &mut rng, |i, out| {
            softmax_in_place(out);
            if let Some(p) = out.get_mut(y[i]) {
                *p -= 1.0;
            }
        });
        self.net = Some(net);
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let Some(net) = &self.net else { return vec![0; x.rows()] };
        let (mut hidden, mut out) = net.buffers();
        (0..x.rows())
            .map(|r| {
                net.forward(x.row(r), &mut hidden, &mut out);
                crate::linalg::argmax(&out)
            })
            .collect()
    }

    fn predict_proba(&self, x: &Matrix, n_classes: usize) -> Matrix {
        let mut p = Matrix::zeros(x.rows(), n_classes);
        let Some(net) = &self.net else { return p };
        let (mut hidden, mut out) = net.buffers();
        for r in 0..x.rows() {
            net.forward(x.row(r), &mut hidden, &mut out);
            softmax_in_place(&mut out);
            let w = out.len().min(n_classes);
            p.row_mut(r)[..w].copy_from_slice(&out[..w]);
        }
        p
    }
}

/// MLP regressor (linear head, squared error); target standardised
/// internally for stable learning rates.
pub struct MlpRegressor {
    params: MlpParams,
    seed: u64,
    net: Option<Net>,
    y_shift: f64,
    y_scale: f64,
}

impl MlpRegressor {
    /// Builds an (unfitted) MLP regressor.
    pub fn new(params: MlpParams, seed: u64) -> Self {
        Self { params, seed, net: None, y_shift: 0.0, y_scale: 1.0 }
    }
}

impl Regressor for MlpRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        let n = x.rows();
        if n == 0 {
            self.net = None;
            return;
        }
        let mean = y.iter().sum::<f64>() / n as f64;
        let std = (y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64).sqrt().max(1e-9);
        self.y_shift = mean;
        self.y_scale = std;
        let ys: Vec<f64> = y.iter().map(|v| (v - mean) / std).collect();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut net = Net::init(x.cols(), self.params.hidden, 1, &mut rng);
        let params = self.params.clone();
        train(&mut net, x, &params, &mut rng, |i, out| out[0] -= ys[i]);
        self.net = Some(net);
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let Some(net) = &self.net else { return vec![0.0; x.rows()] };
        let (mut hidden, mut out) = net.buffers();
        (0..x.rows())
            .map(|r| {
                net.forward(x.row(r), &mut hidden, &mut out);
                self.y_shift + self.y_scale * out[0]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        blob_classification, linear_regression_data, train_test_accuracy, train_test_rmse,
    };

    #[test]
    fn classifier_learns_blobs() {
        let (x, y) = blob_classification(150, 3, 131);
        let mut m = MlpClassifier::new(MlpParams::default(), 1);
        let acc = train_test_accuracy(&mut m, &x, &y, 3);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn classifier_solves_xor() {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            rows.push(vec![a as f64, b as f64]);
            ys.push(a ^ b);
        }
        let x = Matrix::from_rows(&rows);
        let mut m = MlpClassifier::new(MlpParams { epochs: 150, ..Default::default() }, 5);
        m.fit(&x, &ys, 2);
        let acc = crate::metrics::accuracy(&ys, &m.predict(&x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn regressor_fits_linear_data() {
        let (x, y) = linear_regression_data(300, 0.1, 137);
        let mut m = MlpRegressor::new(MlpParams::default(), 2);
        let err = train_test_rmse(&mut m, &x, &y);
        assert!(err < 1.0, "rmse {err}");
    }

    #[test]
    fn proba_normalised() {
        let (x, y) = blob_classification(60, 2, 139);
        let mut m = MlpClassifier::new(MlpParams { epochs: 20, ..Default::default() }, 3);
        m.fit(&x, &y, 2);
        let p = m.predict_proba(&x, 2);
        for r in 0..p.rows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    /// `n` sparse rows: three one-hot groups of four columns and one
    /// numeric column, with class labels in `0..n_classes` and a numeric
    /// target.
    fn one_hot_fixture(n: usize, n_classes: usize, seed: u64) -> (Matrix, Vec<usize>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 13);
        let mut y = Vec::with_capacity(n);
        let mut t = Vec::with_capacity(n);
        for r in 0..n {
            for g in 0..3 {
                x[(r, g * 4 + rng.random_range(0..4usize))] = 1.0;
            }
            x[(r, 12)] = randn(&mut rng);
            y.push(rng.random_range(0..n_classes));
            t.push(2.0 * x[(r, 12)] + x[(r, 0)] + 0.1 * randn(&mut rng));
        }
        (x, y, t)
    }

    fn bits_digest(values: &[f64]) -> u64 {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        rein_telemetry::fnv1a64(&bytes)
    }

    /// `(rows, classes, classifier digest, regressor digest)`: FNV-1a-64
    /// of the bits of `predict_proba` and of the regressor's `predict` on
    /// [`one_hot_fixture`], with DataWig's parameters (batch 32). A kernel
    /// optimisation must leave every digest unchanged.
    const PINNED: [(usize, usize, u64, u64); 3] = [
        // One batch, smaller than the batch size.
        (20, 3, 0x793f_557f_b989_2fd2, 0x8f7f_2259_125c_8020),
        // Two full batches and a partial one.
        (77, 4, 0xd6f4_ab25_650f_5da5, 0xbebf_6e57_56c8_85f7),
        // More classes than rows.
        (6, 9, 0xba3d_ec92_9f32_466b, 0x7169_a6df_c6e9_0317),
    ];

    #[test]
    fn predictions_are_pinned() {
        for (n, k, clf_digest, reg_digest) in PINNED {
            let (x, y, t) = one_hot_fixture(n, k, n as u64);
            let params = MlpParams { epochs: 30, hidden: 24, ..Default::default() };
            let mut clf = MlpClassifier::new(params.clone(), 3);
            clf.fit(&x, &y, k);
            let got = bits_digest(clf.predict_proba(&x, k).as_slice());
            assert_eq!(got, clf_digest, "classifier, {n} rows, {k} classes: {got:#018x}");
            let mut reg = MlpRegressor::new(params, 3);
            reg.fit(&x, &t);
            let got = bits_digest(&reg.predict(&x));
            assert_eq!(got, reg_digest, "regressor, {n} rows: {got:#018x}");
        }
    }

    #[test]
    fn seeded_training_reproducible() {
        let (x, y) = blob_classification(80, 2, 149);
        let mut a = MlpClassifier::new(MlpParams { epochs: 10, ..Default::default() }, 7);
        let mut b = MlpClassifier::new(MlpParams { epochs: 10, ..Default::default() }, 7);
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_eq!(a.predict(&x), b.predict(&x));
    }
}
