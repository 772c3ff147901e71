//! Generators for the classification datasets of Table 4: Beers, Citation,
//! Adult, Breast Cancer and Smart Factory.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_constraints::fd::FunctionalDependency;
use rein_data::rng::{derive_seed, randn};
use rein_data::{ColumnRole, ColumnType, MlTask, Value};
use rein_errors::compose::ErrorSpec;

use crate::common::{finish, GeneratedDataset};
use crate::gen::*;

/// Beers (2410 × 11, business, C): craft-beer catalogue with FDs
/// `brewery_id → brewery_name` and `city → state`; errors are missing
/// values, rule violations and typos at rate 0.16 (Table 4).
pub fn beers(p: &Params) -> GeneratedDataset {
    let n = p.rows(2410);
    let mut rng = StdRng::seed_from_u64(derive_seed(p.seed, 1));

    let breweries = [
        ("Hop Works", "Portland", "OR"),
        ("Iron Kettle", "Denver", "CO"),
        ("Blue Harbor", "San Diego", "CA"),
        ("North Peak", "Seattle", "WA"),
        ("Old Mill", "Austin", "TX"),
        ("River Bend", "Chicago", "IL"),
        ("Granite Top", "Boston", "MA"),
        ("Sunset Valley", "Phoenix", "AZ"),
    ];
    let mut id = Vec::with_capacity(n);
    let mut brewery_id = Vec::with_capacity(n);
    let mut brewery_name = Vec::with_capacity(n);
    let mut city = Vec::with_capacity(n);
    let mut state = Vec::with_capacity(n);
    let mut name = Vec::with_capacity(n);
    let mut abv = Vec::with_capacity(n);
    let mut ibu = Vec::with_capacity(n);
    let mut ounces = Vec::with_capacity(n);
    let mut rating = Vec::with_capacity(n);
    let mut style = Vec::with_capacity(n);

    let adjectives = ["Golden", "Dark", "Hazy", "Wild", "Smooth", "Bold"];
    let nouns = ["Trail", "Anchor", "Summit", "Harvest", "Ember", "Tide"];
    for i in 0..n {
        let b = rng.random_range(0..breweries.len());
        let (bname, bcity, bstate) = breweries[b];
        // Style drives abv/ibu (so the label is learnable from features).
        let s = rng.random_range(0..3u8);
        let (style_name, abv_mean, ibu_mean) = match s {
            0 => ("IPA", 6.8, 65.0),
            1 => ("Stout", 8.2, 35.0),
            _ => ("Lager", 4.8, 18.0),
        };
        id.push(Value::Int(i as i64));
        brewery_id.push(Value::Int(b as i64));
        brewery_name.push(Value::str(bname));
        city.push(Value::str(bcity));
        state.push(Value::str(bstate));
        name.push(Value::str(format!(
            "{} {} {}",
            adjectives[rng.random_range(0..adjectives.len())],
            nouns[rng.random_range(0..nouns.len())],
            i
        )));
        abv.push(Value::float(abv_mean + 0.5 * randn(&mut rng)));
        ibu.push(Value::float((ibu_mean + 6.0 * randn(&mut rng)).max(1.0)));
        ounces.push(Value::float(if rng.random_bool(0.7) { 12.0 } else { 16.0 }));
        rating.push(Value::float((3.5 + 0.6 * randn(&mut rng)).clamp(1.0, 5.0)));
        style.push(Value::str(style_name));
    }

    let clean = TableBuilder::new()
        .column("id", ColumnType::Int, ColumnRole::Id, id)
        .column("brewery_id", ColumnType::Int, ColumnRole::Feature, brewery_id)
        .column("brewery_name", ColumnType::Str, ColumnRole::Feature, brewery_name)
        .column("city", ColumnType::Str, ColumnRole::Feature, city)
        .column("state", ColumnType::Str, ColumnRole::Feature, state)
        .column("name", ColumnType::Str, ColumnRole::Feature, name)
        .column("abv", ColumnType::Float, ColumnRole::Feature, abv)
        .column("ibu", ColumnType::Float, ColumnRole::Feature, ibu)
        .column("ounces", ColumnType::Float, ColumnRole::Feature, ounces)
        .column("rating", ColumnType::Float, ColumnRole::Feature, rating)
        .column("style", ColumnType::Str, ColumnRole::Label, style)
        .build();

    let fds = vec![FunctionalDependency::new([1], 2), FunctionalDependency::new([3], 4)];
    let specs = [
        ErrorSpec::ExplicitMissing { cols: vec![6, 7], rate: 0.25 },
        ErrorSpec::FdViolations { fd: fds[0].clone(), rate: 0.18 },
        ErrorSpec::FdViolations { fd: fds[1].clone(), rate: 0.18 },
        ErrorSpec::Typos { cols: vec![5, 8, 9], rate: 0.2 },
    ];
    finish("beers", "Business", MlTask::Classification, clean, &specs, 0.16, p.seed, fds, vec![0])
}

/// Citation (5005 × 3, research, C): publication records with fuzzy
/// duplicates and mislabels at rate 0.2. (The real dataset has 2 columns;
/// a label column is added so the classification task is self-contained —
/// recorded as a substitution in DESIGN.md.)
pub fn citation(p: &Params) -> GeneratedDataset {
    let n = p.rows(5005);
    let mut rng = StdRng::seed_from_u64(derive_seed(p.seed, 2));
    let topics = [
        ("data cleaning", "databases"),
        ("query optimization", "databases"),
        ("transaction processing", "databases"),
        ("neural networks", "machine learning"),
        ("gradient boosting", "machine learning"),
        ("active learning", "machine learning"),
    ];
    let mut title = Vec::with_capacity(n);
    let mut year = Vec::with_capacity(n);
    let mut venue = Vec::with_capacity(n);
    for i in 0..n {
        let (topic, field) = topics[rng.random_range(0..topics.len())];
        // Year correlates with field so the classifier has signal beyond
        // the title words.
        let base_year: i64 = if field == "databases" { 2005 } else { 2015 };
        title.push(Value::str(format!("A study of {topic} volume {i}")));
        year.push(Value::Int(base_year + rng.random_range(0..8i64)));
        venue.push(Value::str(field));
    }
    let clean = TableBuilder::new()
        .column("title", ColumnType::Str, ColumnRole::Feature, title)
        .column("year", ColumnType::Int, ColumnRole::Feature, year)
        .column("field", ColumnType::Str, ColumnRole::Label, venue)
        .build();

    let specs = [
        ErrorSpec::Duplicates { rate: 0.35, fuzz: 0.4 },
        ErrorSpec::Mislabels { label_col: 2, rate: 0.12 },
    ];
    finish(
        "citation",
        "Research",
        MlTask::Classification,
        clean,
        &specs,
        0.2,
        p.seed,
        vec![],
        vec![0],
    )
}

/// Adult (45223 × 15, social, C): census records with the
/// `education → education_num` FD; rule violations and outliers at the
/// paper's unusually high 0.58 error rate.
pub fn adult(p: &Params) -> GeneratedDataset {
    let n = p.rows(45223);
    let mut rng = StdRng::seed_from_u64(derive_seed(p.seed, 3));

    let educations = [
        ("Bachelors", 13i64),
        ("HS-grad", 9),
        ("Masters", 14),
        ("Some-college", 10),
        ("Doctorate", 16),
        ("11th", 7),
    ];
    let workclasses = ["Private", "Self-emp", "Federal-gov", "Local-gov"];
    let maritals = ["Married", "Never-married", "Divorced", "Widowed"];
    let occupations = ["Tech", "Sales", "Exec", "Craft", "Service", "Clerical"];
    let relationships = ["Husband", "Wife", "Own-child", "Not-in-family"];
    let races = ["White", "Black", "Asian", "Other"];
    let countries = ["United-States", "Mexico", "Germany", "India", "Canada"];

    let mut cols: Vec<Vec<Value>> = (0..15).map(|_| Vec::with_capacity(n)).collect();
    for _ in 0..n {
        let age = rng.random_range(17..80i64);
        let edu = rng.random_range(0..educations.len());
        let hours = rng.random_range(20..60i64);
        let gain = if rng.random_bool(0.1) { rng.random_range(1000.0..20000.0) } else { 0.0 };
        let loss = if rng.random_bool(0.05) { rng.random_range(500.0..4000.0) } else { 0.0 };
        let fnlwgt = 100_000.0 + 50_000.0 * randn(&mut rng).abs();
        // Planted income rule: education, age, hours and gains matter.
        let z = 0.25 * educations[edu].1 as f64
            + 0.03 * age as f64
            + 0.05 * hours as f64
            + gain / 4000.0
            - 7.5
            + randn(&mut rng);
        let income = if z > 0.0 { ">50K" } else { "<=50K" };
        let sex = if rng.random_bool(0.66) { "Male" } else { "Female" };

        cols[0].push(Value::Int(age));
        cols[1].push(Value::str(workclasses[rng.random_range(0..workclasses.len())]));
        cols[2].push(Value::float(fnlwgt));
        cols[3].push(Value::str(educations[edu].0));
        cols[4].push(Value::Int(educations[edu].1));
        cols[5].push(Value::str(maritals[rng.random_range(0..maritals.len())]));
        cols[6].push(Value::str(occupations[rng.random_range(0..occupations.len())]));
        cols[7].push(Value::str(relationships[rng.random_range(0..relationships.len())]));
        cols[8].push(Value::str(races[rng.random_range(0..races.len())]));
        cols[9].push(Value::str(sex));
        cols[10].push(Value::float(gain));
        cols[11].push(Value::float(loss));
        cols[12].push(Value::Int(hours));
        cols[13].push(Value::str(countries[rng.random_range(0..countries.len())]));
        cols[14].push(Value::str(income));
    }
    let mut it = cols.into_iter();
    #[expect(clippy::expect_used, reason = "the loop above filled exactly 15 columns")]
    let mut col = move || it.next().expect("15 columns");
    let clean = TableBuilder::new()
        .column("age", ColumnType::Int, ColumnRole::Feature, col())
        .column("workclass", ColumnType::Str, ColumnRole::Feature, col())
        .column("fnlwgt", ColumnType::Float, ColumnRole::Feature, col())
        .column("education", ColumnType::Str, ColumnRole::Feature, col())
        .column("education_num", ColumnType::Int, ColumnRole::Feature, col())
        .column("marital_status", ColumnType::Str, ColumnRole::Feature, col())
        .column("occupation", ColumnType::Str, ColumnRole::Feature, col())
        .column("relationship", ColumnType::Str, ColumnRole::Feature, col())
        .column("race", ColumnType::Str, ColumnRole::Feature, col())
        .column("sex", ColumnType::Str, ColumnRole::Feature, col())
        .column("capital_gain", ColumnType::Float, ColumnRole::Feature, col())
        .column("capital_loss", ColumnType::Float, ColumnRole::Feature, col())
        .column("hours_per_week", ColumnType::Int, ColumnRole::Feature, col())
        .column("native_country", ColumnType::Str, ColumnRole::Feature, col())
        .column("income", ColumnType::Str, ColumnRole::Label, col())
        .build();

    let fds = vec![FunctionalDependency::new([3], 4)];
    let specs = [
        ErrorSpec::FdViolations { fd: fds[0].clone(), rate: 0.8 },
        ErrorSpec::Outliers { cols: vec![0, 2, 10, 11, 12], rate: 0.9, degree: 4.0 },
    ];
    finish("adult", "Social", MlTask::Classification, clean, &specs, 0.58, p.seed, fds, vec![])
}

/// Breast Cancer (700 × 12, healthcare, C): cytology measurements with a
/// planted benign/malignant cluster structure; missing values, typos and
/// outliers at rate 0.08. The label column is numeric-coded (2 = benign,
/// 4 = malignant), as in the UCI original.
pub fn breast_cancer(p: &Params) -> GeneratedDataset {
    let n = p.rows(700);
    let mut rng = StdRng::seed_from_u64(derive_seed(p.seed, 4));
    let feature_names = [
        "clump_thickness",
        "cell_size_uniformity",
        "cell_shape_uniformity",
        "marginal_adhesion",
        "single_epi_cell_size",
        "bare_nuclei",
        "bland_chromatin",
        "normal_nucleoli",
        "mitoses",
        "nucleus_density",
        "border_irregularity",
    ];
    let mut features: Vec<Vec<Value>> =
        (0..feature_names.len()).map(|_| Vec::with_capacity(n)).collect();
    let mut label = Vec::with_capacity(n);
    for _ in 0..n {
        let malignant = rng.random_bool(0.35);
        let centre = if malignant { 7.0 } else { 3.0 };
        for f in features.iter_mut() {
            f.push(Value::float((centre + 1.5 * randn(&mut rng)).clamp(1.0, 10.0)));
        }
        label.push(Value::Int(if malignant { 4 } else { 2 }));
    }
    let mut b = TableBuilder::new();
    for (name, values) in feature_names.iter().zip(features) {
        b = b.column(name, ColumnType::Float, ColumnRole::Feature, values);
    }
    let clean = b.column("class", ColumnType::Int, ColumnRole::Label, label).build();

    let feature_cols: Vec<usize> = (0..11).collect();
    let specs = [
        ErrorSpec::ExplicitMissing { cols: feature_cols.clone(), rate: 0.03 },
        ErrorSpec::Typos { cols: feature_cols.clone(), rate: 0.02 },
        ErrorSpec::Outliers { cols: feature_cols, rate: 0.03, degree: 4.0 },
    ];
    finish(
        "breast_cancer",
        "Healthcare",
        MlTask::Classification,
        clean,
        &specs,
        0.08,
        p.seed,
        vec![],
        vec![],
    )
}

/// Smart Factory (23645 × 19, manufacturing, C): high-storage-system
/// sensor channels with a planted machine-state cluster structure; missing
/// values and outliers at rate 0.153.
pub fn smart_factory(p: &Params) -> GeneratedDataset {
    let n = p.rows(23645);
    let mut rng = StdRng::seed_from_u64(derive_seed(p.seed, 5));
    let d = 18;
    let (features, assignment) = cluster_features(&mut rng, n, d, 4, 1.2);
    let mut b = TableBuilder::new();
    for (i, f) in features.into_iter().enumerate() {
        b = b.column(&format!("sensor_{i:02}"), ColumnType::Float, ColumnRole::Feature, floats(f));
    }
    let labels: Vec<Value> = assignment.into_iter().map(|c| Value::Int(c as i64)).collect();
    let clean = b.column("machine_state", ColumnType::Int, ColumnRole::Label, labels).build();

    let sensor_cols: Vec<usize> = (0..18).collect();
    let specs = [
        ErrorSpec::ExplicitMissing { cols: sensor_cols.clone(), rate: 0.09 },
        ErrorSpec::Outliers { cols: sensor_cols, rate: 0.08, degree: 4.0 },
    ];
    finish(
        "smart_factory",
        "Manufacturing",
        MlTask::Classification,
        clean,
        &specs,
        0.153,
        p.seed,
        vec![],
        vec![],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_constraints::fd;

    fn small() -> Params {
        Params::scaled(0.05, 42)
    }

    #[test]
    fn beers_shape_and_signals() {
        let d = beers(&small());
        assert_eq!(d.clean.n_cols(), 11);
        assert_eq!(d.clean.schema().numeric_indices().len(), 6);
        assert_eq!(d.clean.schema().label_index(), Some(10));
        // FDs hold on the clean data.
        for f in &d.fds {
            assert!(fd::holds(&d.clean, f), "{:?} violated on clean data", f);
        }
        // Error rate near target.
        assert!((d.error_rate() - 0.16).abs() < 0.08, "rate {}", d.error_rate());
        assert_eq!(d.info.task, rein_data::MlTask::Classification);
    }

    #[test]
    fn beers_dirty_violates_fds() {
        let d = beers(&small());
        let violations = fd::all_fd_violations(&d.dirty, &d.fds);
        assert!(!violations.is_empty(), "injected rule violations must be detectable");
    }

    #[test]
    fn citation_has_duplicates_and_mislabels() {
        let d = citation(&small());
        assert!(!d.duplicate_pairs.is_empty());
        assert!(d.dirty.n_rows() > d.clean.n_rows());
        assert!((d.error_rate() - 0.2).abs() < 0.15, "rate {}", d.error_rate());
        assert_eq!(d.key_columns, vec![0]);
    }

    #[test]
    fn adult_high_error_rate() {
        let d = adult(&Params::scaled(0.01, 7));
        assert_eq!(d.clean.n_cols(), 15);
        assert!(d.error_rate() > 0.35, "rate {}", d.error_rate());
        assert!(fd::holds(&d.clean, &d.fds[0]));
    }

    #[test]
    fn breast_cancer_low_error_rate() {
        let d = breast_cancer(&Params::scaled(0.5, 9));
        assert_eq!(d.clean.n_cols(), 12);
        assert!((d.error_rate() - 0.08).abs() < 0.05, "rate {}", d.error_rate());
        // Label is numeric 2/4.
        let label_col = d.clean.schema().label_index().unwrap();
        for v in d.clean.column(label_col) {
            let x = v.as_i64().unwrap();
            assert!(x == 2 || x == 4);
        }
    }

    #[test]
    fn smart_factory_clusters_are_learnable() {
        let d = smart_factory(&Params::scaled(0.02, 11));
        assert_eq!(d.clean.n_cols(), 19);
        assert!((d.error_rate() - 0.153).abs() < 0.08, "rate {}", d.error_rate());
    }

    #[test]
    fn generators_are_deterministic() {
        let a = beers(&small());
        let b = beers(&small());
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.dirty, b.dirty);
    }
}
