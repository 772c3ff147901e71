//! # rein-detect
//!
//! The 19 error detection methods of the paper's Table 1, re-implemented
//! from scratch behind one [`context::Detector`] trait. Category I
//! (non-learning) methods run from rules, statistics or knowledge bases;
//! category II (ML-supported) methods learn a cell classifier, using a
//! ground-truth-backed [`context::Oracle`] to simulate the human annotator
//! exactly as the original benchmark does.

#![allow(
    clippy::needless_range_loop,
    reason = "numeric kernels index several parallel arrays at once; iterator zips would obscure them"
)]

pub mod cleanlab;
pub mod context;
pub mod dboost;
pub mod duplicates;
pub mod ed2;
pub mod ensemble;
pub mod fahes;
pub mod features;
pub mod holoclean;
pub mod isolation_forest;
pub mod katara;
pub mod metadata;
pub mod nadeef;
pub mod openrefine;
pub mod picket;
pub mod raha;
pub mod simple;
#[cfg(test)]
mod testutil;

pub use context::{DetectContext, Detector, KnowledgeBase, Oracle};

use rein_data::ErrorType;
use serde::{Deserialize, Serialize};

/// Methodology category (Table 1's "Cat." column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorCategory {
    /// Non-learning: rules, statistics, knowledge bases.
    NonLearning,
    /// ML-supported: formulate detection as classification.
    MlSupported,
}

/// Cleaning signals a detector requires (Table 1's "Configs" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    /// FD rules / patterns.
    FdRules,
    /// Denial constraints.
    DenialConstraints,
    /// Knowledge base.
    KnowledgeBase,
    /// Key columns.
    KeyColumns,
    /// Oracle labels.
    Labels,
    /// A label column in the dataset.
    LabelColumn,
}

/// The 19 detectors of Table 1, keyed by the paper's index letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DetectorKind {
    /// K — KATARA.
    Katara,
    /// N — NADEEF.
    Nadeef,
    /// F — FAHES.
    Fahes,
    /// H — HoloClean (detection stage).
    HoloClean,
    /// B — dBoost.
    DBoost,
    /// O — OpenRefine.
    OpenRefine,
    /// I — Isolation Forest.
    IsolationForest,
    /// S — Standard deviation rule.
    Sd,
    /// Q — IQR rule.
    Iqr,
    /// V — Missing-value detector.
    MvDetector,
    /// D — Key collision.
    KeyCollision,
    /// Z — ZeroER.
    ZeroEr,
    /// C — CleanLab.
    CleanLab,
    /// M — Min-K ensemble.
    MinK,
    /// X — Max-Entropy ensemble.
    MaxEntropy,
    /// T — Metadata-driven.
    MetadataDriven,
    /// R — RAHA.
    Raha,
    /// E — ED2.
    Ed2,
    /// P — Picket.
    Picket,
}

impl DetectorKind {
    /// All 19 detectors in Table 1 order.
    pub const ALL: [DetectorKind; 19] = [
        DetectorKind::Katara,
        DetectorKind::Nadeef,
        DetectorKind::Fahes,
        DetectorKind::HoloClean,
        DetectorKind::DBoost,
        DetectorKind::OpenRefine,
        DetectorKind::IsolationForest,
        DetectorKind::Sd,
        DetectorKind::Iqr,
        DetectorKind::MvDetector,
        DetectorKind::KeyCollision,
        DetectorKind::ZeroEr,
        DetectorKind::CleanLab,
        DetectorKind::MinK,
        DetectorKind::MaxEntropy,
        DetectorKind::MetadataDriven,
        DetectorKind::Raha,
        DetectorKind::Ed2,
        DetectorKind::Picket,
    ];

    /// The paper's single-letter index (Table 1).
    pub fn index_letter(self) -> char {
        match self {
            DetectorKind::Katara => 'K',
            DetectorKind::Nadeef => 'N',
            DetectorKind::Fahes => 'F',
            DetectorKind::HoloClean => 'H',
            DetectorKind::DBoost => 'B',
            DetectorKind::OpenRefine => 'O',
            DetectorKind::IsolationForest => 'I',
            DetectorKind::Sd => 'S',
            DetectorKind::Iqr => 'Q',
            DetectorKind::MvDetector => 'V',
            DetectorKind::KeyCollision => 'D',
            DetectorKind::ZeroEr => 'Z',
            DetectorKind::CleanLab => 'C',
            DetectorKind::MinK => 'M',
            DetectorKind::MaxEntropy => 'X',
            DetectorKind::MetadataDriven => 'T',
            DetectorKind::Raha => 'R',
            DetectorKind::Ed2 => 'E',
            DetectorKind::Picket => 'P',
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Katara => "katara",
            DetectorKind::Nadeef => "nadeef",
            DetectorKind::Fahes => "fahes",
            DetectorKind::HoloClean => "holoclean",
            DetectorKind::DBoost => "dboost",
            DetectorKind::OpenRefine => "openrefine",
            DetectorKind::IsolationForest => "isolation_forest",
            DetectorKind::Sd => "sd",
            DetectorKind::Iqr => "iqr",
            DetectorKind::MvDetector => "mv_detector",
            DetectorKind::KeyCollision => "key_collision",
            DetectorKind::ZeroEr => "zeroer",
            DetectorKind::CleanLab => "cleanlab",
            DetectorKind::MinK => "min_k",
            DetectorKind::MaxEntropy => "max_entropy",
            DetectorKind::MetadataDriven => "metadata_driven",
            DetectorKind::Raha => "raha",
            DetectorKind::Ed2 => "ed2",
            DetectorKind::Picket => "picket",
        }
    }

    /// Methodology category (Table 1).
    pub fn category(self) -> DetectorCategory {
        match self {
            DetectorKind::MetadataDriven
            | DetectorKind::Raha
            | DetectorKind::Ed2
            | DetectorKind::Picket => DetectorCategory::MlSupported,
            _ => DetectorCategory::NonLearning,
        }
    }

    /// Error types the method tackles (Table 1's "Tackled Errors"; holistic
    /// methods list everything except duplicates/mislabels where the paper
    /// notes they do not apply).
    pub fn tackled_errors(self) -> Vec<ErrorType> {
        use ErrorType::*;
        match self {
            DetectorKind::Katara => vec![PatternViolation, Inconsistency, Typo],
            DetectorKind::Nadeef => vec![RuleViolation, PatternViolation, Typo],
            DetectorKind::Fahes => vec![ImplicitMissingValue],
            DetectorKind::HoloClean => vec![RuleViolation, MissingValue],
            DetectorKind::DBoost => vec![Outlier, GaussianNoise],
            DetectorKind::OpenRefine => vec![Inconsistency],
            DetectorKind::IsolationForest | DetectorKind::Sd | DetectorKind::Iqr => {
                vec![Outlier, GaussianNoise]
            }
            DetectorKind::MvDetector => vec![MissingValue],
            DetectorKind::KeyCollision | DetectorKind::ZeroEr => vec![Duplicate],
            DetectorKind::CleanLab => vec![Mislabel],
            DetectorKind::MinK
            | DetectorKind::MaxEntropy
            | DetectorKind::MetadataDriven
            | DetectorKind::Raha
            | DetectorKind::Ed2
            | DetectorKind::Picket => vec![
                MissingValue,
                ImplicitMissingValue,
                Outlier,
                Typo,
                RuleViolation,
                PatternViolation,
                Inconsistency,
                GaussianNoise,
                ValueSwap,
            ],
        }
    }

    /// Signals the method needs (Table 1's "Configs").
    pub fn required_signals(self) -> Vec<Signal> {
        match self {
            DetectorKind::Katara => vec![Signal::KnowledgeBase],
            DetectorKind::Nadeef => vec![Signal::FdRules],
            DetectorKind::HoloClean => vec![Signal::DenialConstraints],
            DetectorKind::KeyCollision => vec![Signal::KeyColumns],
            DetectorKind::ZeroEr => vec![Signal::KeyColumns],
            DetectorKind::CleanLab => vec![Signal::LabelColumn],
            DetectorKind::MetadataDriven | DetectorKind::Raha | DetectorKind::Ed2 => {
                vec![Signal::Labels]
            }
            _ => vec![],
        }
    }

    /// Builds the detector with its default configuration.
    pub fn build(self) -> Box<dyn Detector> {
        match self {
            DetectorKind::Katara => Box::new(katara::Katara::default()),
            DetectorKind::Nadeef => Box::new(nadeef::Nadeef::default()),
            DetectorKind::Fahes => Box::new(fahes::Fahes::default()),
            DetectorKind::HoloClean => Box::new(holoclean::HoloCleanDetect),
            DetectorKind::DBoost => Box::new(dboost::DBoost::default()),
            DetectorKind::OpenRefine => Box::new(openrefine::OpenRefine),
            DetectorKind::IsolationForest => Box::new(isolation_forest::IsolationForest::default()),
            DetectorKind::Sd => Box::new(simple::SdDetector::default()),
            DetectorKind::Iqr => Box::new(simple::IqrDetector::default()),
            DetectorKind::MvDetector => Box::new(simple::MvDetector),
            DetectorKind::KeyCollision => Box::new(duplicates::KeyCollision),
            DetectorKind::ZeroEr => Box::new(duplicates::ZeroEr::default()),
            DetectorKind::CleanLab => Box::new(cleanlab::CleanLab::default()),
            DetectorKind::MinK => Box::new(ensemble::MinK::new(2)),
            DetectorKind::MaxEntropy => Box::new(ensemble::MaxEntropy::default()),
            DetectorKind::MetadataDriven => Box::new(metadata::MetadataDriven::default()),
            DetectorKind::Raha => Box::new(raha::Raha::default()),
            DetectorKind::Ed2 => Box::new(ed2::Ed2::default()),
            DetectorKind::Picket => Box::new(picket::Picket::default()),
        }
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn nineteen_detectors_with_unique_letters() {
        assert_eq!(DetectorKind::ALL.len(), 19);
        let mut letters: Vec<char> = DetectorKind::ALL.iter().map(|d| d.index_letter()).collect();
        letters.sort_unstable();
        letters.dedup();
        assert_eq!(letters.len(), 19);
    }

    #[test]
    fn four_ml_supported_detectors() {
        let ml = DetectorKind::ALL
            .iter()
            .filter(|d| d.category() == DetectorCategory::MlSupported)
            .count();
        assert_eq!(ml, 4); // Meta, RAHA, ED2, Picket
    }

    #[test]
    fn every_kind_builds_and_names_match() {
        for kind in DetectorKind::ALL {
            let d = kind.build();
            assert_eq!(d.name(), kind.name());
        }
    }

    #[test]
    fn every_kind_runs_on_a_bare_context() {
        use rein_data::{ColumnMeta, ColumnType, Schema, Table, Value};
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("c", ColumnType::Str),
        ]);
        let t = Table::from_rows(
            schema,
            (0..40)
                .map(|i| vec![Value::Float(1.0 + (i % 4) as f64), Value::str(["p", "q"][i % 2])])
                .collect(),
        );
        let ctx = context::DetectContext::bare(&t);
        for kind in DetectorKind::ALL {
            let mask = kind.build().detect(&ctx);
            assert_eq!(mask.rows(), 40, "{}", kind.name());
        }
    }

    #[test]
    fn capability_tables_are_consistent() {
        for kind in DetectorKind::ALL {
            assert!(!kind.tackled_errors().is_empty(), "{}", kind.name());
        }
        // Duplicate detectors and only they tackle duplicates.
        for kind in DetectorKind::ALL {
            let dups = kind.tackled_errors().contains(&rein_data::ErrorType::Duplicate);
            let is_dup_detector = matches!(kind, DetectorKind::KeyCollision | DetectorKind::ZeroEr);
            assert_eq!(dups, is_dup_detector, "{}", kind.name());
        }
    }
}
