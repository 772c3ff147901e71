//! Reproducibility: every stage of the benchmark is a pure function of its
//! seed — same seed, same bytes.

#![allow(clippy::expect_used, reason = "test support: a broken expectation fails the test")]

use rein::core::{eval_classifier, run_repair, DetectorHarness, Scenario, VersionTable};
use rein::datasets::{DatasetId, Params};
use rein::detect::DetectorKind;
use rein::ml::model::ClassifierKind;
use rein::repair::RepairKind;

#[test]
fn dataset_generation_is_deterministic() {
    for id in [DatasetId::Beers, DatasetId::Nasa, DatasetId::Water] {
        let a = id.generate(&Params::scaled(0.1, 99));
        let b = id.generate(&Params::scaled(0.1, 99));
        assert_eq!(a.clean, b.clean, "{}", id.name());
        assert_eq!(a.dirty, b.dirty, "{}", id.name());
        assert_eq!(a.mask, b.mask, "{}", id.name());
    }
}

#[test]
fn different_seeds_give_different_data() {
    // The master seed drives both the clean generation and the corruption,
    // so two seeds give genuinely independent benchmark instances.
    let a = DatasetId::Beers.generate(&Params::scaled(0.1, 1));
    let b = DatasetId::Beers.generate(&Params::scaled(0.1, 2));
    assert_ne!(a.clean, b.clean);
    assert_ne!(a.dirty, b.dirty);
}

#[test]
fn same_clean_table_different_injection_seeds_differ() {
    use rein::errors::compose::{compose, ErrorSpec};
    let ds = DatasetId::Beers.generate(&Params::scaled(0.1, 3));
    let spec = [ErrorSpec::ExplicitMissing { cols: vec![6, 7], rate: 0.2 }];
    let a = compose(&ds.clean, &spec, 1);
    let b = compose(&ds.clean, &spec, 2);
    assert_ne!(a.dirty, b.dirty, "corruption must vary with the injection seed");
    assert_eq!(a.mask.count(), b.mask.count(), "same spec, same volume");
}

/// Renders a detection mask as its `row:col` cell list, in mask order.
fn render_mask(mask: &rein::data::CellMask) -> String {
    mask.iter().map(|c| format!("{}:{}", c.row, c.col)).collect::<Vec<_>>().join(",")
}

/// Detectors whose masks on Beers (×0.1, seed 3) are pinned across
/// commits: FNV-1a-64 of [`render_mask`]. Picket, ED2 and the
/// metadata-driven detector fit trees and forests, so a model-kernel
/// change that moves their output bits fails here.
const PINNED_MASKS: [(DetectorKind, u64); 3] = [
    (DetectorKind::Picket, 0xabd8_120d_6ea4_91c5),
    (DetectorKind::Ed2, 0x49aa_c4fc_d877_3122),
    (DetectorKind::MetadataDriven, 0xa366_675a_8c33_96e5),
];

#[test]
fn detection_is_deterministic() {
    use rein_telemetry::fnv1a64;
    let ds = DatasetId::Beers.generate(&Params::scaled(0.1, 3));
    let run = |kind| {
        let h = DetectorHarness::new(&ds, 60, 42);
        h.run(&ds, kind).mask
    };
    for kind in [DetectorKind::DBoost, DetectorKind::Raha] {
        assert_eq!(run(kind), run(kind), "{}", kind.name());
    }
    for (kind, digest) in PINNED_MASKS {
        let mask = run(kind);
        assert_eq!(mask, run(kind), "{}", kind.name());
        let got = fnv1a64(render_mask(&mask).as_bytes());
        assert_eq!(got, digest, "{}: {got:#018x}", kind.name());
    }
}

/// FNV-1a-64 of [`render_mask`] for Picket on Soccer (×0.003, seed 3),
/// the shape of the benchmark's detection scan: 41 of its 44 columns are
/// continuous, so most of Picket's tree features take the sorted split
/// path, which the mostly one-hot Beers pin above barely reaches.
const PINNED_SOCCER_PICKET: u64 = 0x8d21_fc0f_01d7_c42d;

#[test]
fn picket_on_soccer_is_pinned() {
    use rein_telemetry::fnv1a64;
    let ds = DatasetId::Soccer.generate(&Params::scaled(0.003, 3));
    let mask = DetectorHarness::new(&ds, 60, 42).run(&ds, DetectorKind::Picket).mask;
    let got = fnv1a64(render_mask(&mask).as_bytes());
    assert_eq!(got, PINNED_SOCCER_PICKET, "picket on soccer: {got:#018x}");
}

/// Repairers whose outputs are pinned across commits in [`PINNED_REPAIRS`].
const PINNED_KINDS: [RepairKind; 6] = [
    RepairKind::Baran,
    RepairKind::MissMix,
    RepairKind::KnnMiss,
    RepairKind::DataWigMix,
    RepairKind::DtMiss,
    RepairKind::MissSep,
];

/// FNV-1a-64 of each repaired table's `csv::write_str`, per dataset,
/// size factor and seed, in [`PINNED_KINDS`] order, on the ground-truth
/// mask. Beers and Breast-Cancer both inject typos, so BARAN's value
/// model is exercised; DataWig (both MLP heads), the decision-tree
/// imputer and separate-mode missForest cover the model kernels. A kernel
/// optimisation must leave every digest unchanged; a deliberate behaviour
/// change re-records them.
const PINNED_REPAIRS: [(DatasetId, f64, u64, [u64; 6]); 4] = [
    (
        DatasetId::Beers,
        0.1,
        4,
        [
            0xaa44_4536_dcd7_cabc,
            0x06b0_2da3_d6fe_50e1,
            0x61a1_5f9b_65b8_8605,
            0xa347_e48d_7270_002a,
            0x2202_d522_b625_da07,
            0xcd57_e74e_b75d_4964,
        ],
    ),
    (
        DatasetId::Beers,
        0.1,
        5,
        [
            0x6ec6_6281_2c08_6e8b,
            0x8f14_4977_e6a2_7fb4,
            0xb22d_2460_fb7a_484b,
            0x566c_c1c3_4c3d_9b1b,
            0xf096_e349_31ba_30b4,
            0x4b8b_c81b_914e_3c18,
        ],
    ),
    (
        DatasetId::BreastCancer,
        0.3,
        4,
        [
            0x6843_3ea7_0ea4_8877,
            0xbbd6_cf88_5e5f_9006,
            0x7682_3382_4602_9e42,
            0x035b_fe9b_d4e1_3f94,
            0x88e9_80ad_1c69_81bd,
            0xbbd6_cf88_5e5f_9006,
        ],
    ),
    (
        DatasetId::BreastCancer,
        0.3,
        5,
        [
            0x504c_92c7_5173_ace0,
            0x9107_1054_9783_4d6b,
            0x004d_4c91_409e_2b9c,
            0x0e7d_cd93_b797_d283,
            0xcf04_caf2_09f1_3cbc,
            0x9107_1054_9783_4d6b,
        ],
    ),
];

#[test]
fn repair_is_deterministic() {
    use rein::data::csv;
    use rein_telemetry::fnv1a64;
    for (id, size, seed, digests) in PINNED_REPAIRS {
        let ds = id.generate(&Params::scaled(size, seed));
        for (kind, digest) in PINNED_KINDS.into_iter().zip(digests) {
            let run = || run_repair(&ds, &ds.mask, kind, 7).version.expect("generic repair").table;
            let table = run();
            assert_eq!(table, run(), "{} on {} seed {seed}", kind.name(), id.name());
            let got = fnv1a64(csv::write_str(&table).as_bytes());
            assert_eq!(got, digest, "{} on {} seed {seed}: {got:#018x}", kind.name(), id.name());
        }
    }
    let ds = DatasetId::Beers.generate(&Params::scaled(0.1, 4));
    let run = || {
        run_repair(&ds, &ds.mask, RepairKind::HoloClean, 7).version.expect("generic repair").table
    };
    assert_eq!(run(), run(), "holoclean");
}

/// FNV-1a-64 of the `{:?}` F1 scores of each model on Beers (×0.1,
/// seed 5), S1, three repeats at base seed 11. The decision tree is the
/// grid's evaluation model; the forest and the MLP share its kernels with
/// the imputers. (On Breast-Cancer the forest and the MLP both score F1
/// 1.0, which no digest can tell apart.) A kernel optimisation must leave
/// every digest unchanged.
const PINNED_SCORES: [(ClassifierKind, u64); 3] = [
    (ClassifierKind::DecisionTree, 0xf784_d99f_51d6_97be),
    (ClassifierKind::RandomForest, 0x38c3_7a56_f81d_aaf8),
    (ClassifierKind::Mlp, 0x467f_d44b_45fc_35e0),
];

#[test]
fn model_evaluation_is_deterministic() {
    use rein_telemetry::fnv1a64;
    let ds = DatasetId::Beers.generate(&Params::scaled(0.1, 5));
    let version = VersionTable::identity(ds.dirty.clone());
    for (kind, digest) in PINNED_SCORES {
        let a = eval_classifier(Scenario::S1, &ds, &version, kind, 3, 11);
        let b = eval_classifier(Scenario::S1, &ds, &version, kind, 3, 11);
        assert_eq!(a, b, "{}", kind.name());
        let got = fnv1a64(format!("{a:?}").as_bytes());
        assert_eq!(got, digest, "{}: {got:#018x}", kind.name());
    }
}

/// The double-run invariant the audit's determinism rules protect: a full
/// seeded detect-then-repair pass, executed twice from scratch, must
/// produce *byte-identical* artefacts — the serialized forms that would
/// land on disk, not merely `Eq`-equal values. Any hash-order or wall-clock
/// leak in the pipeline shows up here as a byte diff.
#[test]
fn seeded_detect_repair_double_run_is_byte_identical() {
    use rein::data::csv;
    let render = || {
        let ds = DatasetId::Beers.generate(&Params::scaled(0.1, 11));
        let harness = DetectorHarness::new(&ds, 60, 42);
        let mask = harness.run(&ds, DetectorKind::Raha).mask;
        let repaired =
            run_repair(&ds, &mask, RepairKind::Baran, 7).version.expect("generic repair").table;
        format!("mask {}\n{}", render_mask(&mask), csv::write_str(&repaired))
    };
    assert_eq!(render(), render());
}
