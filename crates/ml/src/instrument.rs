//! Telemetry wrappers for the model zoo.
//!
//! [`ClassifierKind::build`](crate::model::ClassifierKind::build) and
//! friends wrap every model they hand out, so each `fit`/`predict` call
//! anywhere in the pipeline lands in the global metrics registry:
//! counters `model_fits` / `model_predictions`, histograms `model_fit` /
//! `model_predict`. Wrappers add two atomic updates and one stopwatch
//! read per call — noise next to any actual model fit. Timing goes
//! through [`rein_telemetry::perf::Stopwatch`]; clippy rejects a clock
//! read in a kernel, so each wrapper's read carries an `#[expect]` that
//! says why it cannot reach a cell's value.

use rein_telemetry::perf::Stopwatch;
use rein_telemetry::{counter, histogram};

use crate::linalg::Matrix;
use crate::model::{Classifier, Clusterer, Regressor};

/// Classifier wrapper feeding the metrics registry.
pub struct InstrumentedClassifier {
    name: &'static str,
    inner: Box<dyn Classifier>,
}

impl InstrumentedClassifier {
    pub fn new(name: &'static str, inner: Box<dyn Classifier>) -> Self {
        Self { name, inner }
    }
}

impl Classifier for InstrumentedClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed time feeds only the telemetry histograms and counters, never the fitted model or its predictions"
        )]
        let start = Stopwatch::start();
        self.inner.fit(x, y, n_classes);
        histogram("model_fit").record(start.elapsed());
        counter("model_fits").incr();
        rein_telemetry::debug!("fit classifier {} on {}x{}", self.name, x.rows(), x.cols());
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed time feeds only the telemetry histograms and counters, never the fitted model or its predictions"
        )]
        let start = Stopwatch::start();
        let out = self.inner.predict(x);
        histogram("model_predict").record(start.elapsed());
        counter("model_predictions").add(x.rows() as u64);
        out
    }

    fn predict_proba(&self, x: &Matrix, n_classes: usize) -> Matrix {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed time feeds only the telemetry histograms and counters, never the fitted model or its predictions"
        )]
        let start = Stopwatch::start();
        let out = self.inner.predict_proba(x, n_classes);
        histogram("model_predict").record(start.elapsed());
        counter("model_predictions").add(x.rows() as u64);
        out
    }
}

/// Regressor wrapper feeding the metrics registry.
pub struct InstrumentedRegressor {
    name: &'static str,
    inner: Box<dyn Regressor>,
}

impl InstrumentedRegressor {
    pub fn new(name: &'static str, inner: Box<dyn Regressor>) -> Self {
        Self { name, inner }
    }
}

impl Regressor for InstrumentedRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed time feeds only the telemetry histograms and counters, never the fitted model or its predictions"
        )]
        let start = Stopwatch::start();
        self.inner.fit(x, y);
        histogram("model_fit").record(start.elapsed());
        counter("model_fits").incr();
        rein_telemetry::debug!("fit regressor {} on {}x{}", self.name, x.rows(), x.cols());
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed time feeds only the telemetry histograms and counters, never the fitted model or its predictions"
        )]
        let start = Stopwatch::start();
        let out = self.inner.predict(x);
        histogram("model_predict").record(start.elapsed());
        counter("model_predictions").add(x.rows() as u64);
        out
    }
}

/// Clusterer wrapper feeding the metrics registry.
pub struct InstrumentedClusterer {
    name: &'static str,
    inner: Box<dyn Clusterer>,
}

impl InstrumentedClusterer {
    pub fn new(name: &'static str, inner: Box<dyn Clusterer>) -> Self {
        Self { name, inner }
    }
}

impl Clusterer for InstrumentedClusterer {
    fn fit_predict(&mut self, x: &Matrix) -> Vec<usize> {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed time feeds only the telemetry histograms and counters, never the fitted model or its predictions"
        )]
        let start = Stopwatch::start();
        let out = self.inner.fit_predict(x);
        histogram("model_fit").record(start.elapsed());
        counter("model_fits").incr();
        rein_telemetry::debug!("fit clusterer {} on {}x{}", self.name, x.rows(), x.cols());
        out
    }
}
