//! Reproducibility: every stage of the benchmark is a pure function of its
//! seed — same seed, same bytes.

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

#[test]
fn detection_is_deterministic() {
    let ds = DatasetId::Beers.generate(&Params::scaled(0.1, 3));
    for kind in [DetectorKind::DBoost, DetectorKind::Raha, DetectorKind::Ed2] {
        let run = || {
            let h = DetectorHarness::new(&ds, 60, 42);
            h.run(&ds, kind).mask
        };
        assert_eq!(run(), run(), "{}", kind.name());
    }
}

/// Repairers whose outputs are pinned across commits in [`PINNED_REPAIRS`].
const PINNED_KINDS: [RepairKind; 3] = [RepairKind::Baran, RepairKind::MissMix, RepairKind::KnnMiss];

/// FNV-1a-64 of each repaired table's `csv::write_str`, per dataset,
/// size factor and seed, in [`PINNED_KINDS`] order, on the ground-truth
/// mask. Beers and Breast-Cancer both inject typos, so BARAN's value
/// model is exercised. A kernel optimisation must leave
/// every digest unchanged; a deliberate behaviour change re-records them.
const PINNED_REPAIRS: [(DatasetId, f64, u64, [u64; 3]); 4] = [
    (
        DatasetId::Beers,
        0.1,
        4,
        [0xaa44_4536_dcd7_cabc, 0x06b0_2da3_d6fe_50e1, 0x61a1_5f9b_65b8_8605],
    ),
    (
        DatasetId::Beers,
        0.1,
        5,
        [0x6ec6_6281_2c08_6e8b, 0x8f14_4977_e6a2_7fb4, 0xb22d_2460_fb7a_484b],
    ),
    (
        DatasetId::BreastCancer,
        0.3,
        4,
        [0x6843_3ea7_0ea4_8877, 0xbbd6_cf88_5e5f_9006, 0x7682_3382_4602_9e42],
    ),
    (
        DatasetId::BreastCancer,
        0.3,
        5,
        [0x504c_92c7_5173_ace0, 0x9107_1054_9783_4d6b, 0x004d_4c91_409e_2b9c],
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

#[test]
fn model_evaluation_is_deterministic() {
    let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.3, 5));
    let version = VersionTable::identity(ds.dirty.clone());
    let a = eval_classifier(Scenario::S1, &ds, &version, ClassifierKind::RandomForest, 3, 11);
    let b = eval_classifier(Scenario::S1, &ds, &version, ClassifierKind::RandomForest, 3, 11);
    assert_eq!(a, b);
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
        let cells: Vec<String> = mask.iter().map(|c| format!("{}:{}", c.row, c.col)).collect();
        let repaired =
            run_repair(&ds, &mask, RepairKind::Baran, 7).version.expect("generic repair").table;
        format!("mask {}\n{}", cells.join(","), csv::write_str(&repaired))
    };
    assert_eq!(render(), render());
}
