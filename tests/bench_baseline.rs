//! Guards the committed perf baseline `BENCH_search.json`: the perf-
//! regression gate compares fresh snapshots against this file, so a baseline
//! captured from a dirty tree (uncommitted hot-path edits) would silently
//! shift the reference point. `bench-snapshot` refuses dirty trees unless
//! `--allow-dirty` is passed and records that override in the manifest;
//! this test asserts the committed file was produced without it.

use rtsads_repro::snapshot::{BenchSnapshot, PointProfile};

/// The points `bench-snapshot` measures. `bench-diff` fails on any point
/// the baseline has and a fresh snapshot lacks, and the other way round.
const CANONICAL_POINTS: [&str; 4] = [
    "deep_dive_64",
    "mixed_150x8",
    "tight_150x8",
    "sharded_1024x64",
];

fn baseline_text() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_search.json"))
        .expect("BENCH_search.json missing from repo root")
}

fn baseline() -> BenchSnapshot {
    BenchSnapshot::parse(&baseline_text()).expect("BENCH_search.json is not a bench snapshot")
}

#[test]
fn committed_baseline_comes_from_a_clean_tree() {
    let manifest = baseline().manifest;

    let describe = manifest
        .git_describe
        .expect("manifest.git_describe is missing");
    assert!(
        !describe.ends_with("-dirty"),
        "baseline captured from a dirty tree: git_describe = {describe:?}; \
         regenerate with `rtsads_sim bench-snapshot --out BENCH_search.json` \
         from a clean checkout"
    );

    let allow_dirty = manifest
        .extra
        .get("allow_dirty")
        .map_or("false", String::as_str);
    assert_ne!(
        allow_dirty, "true",
        "baseline was captured with --allow-dirty; regenerate from a clean tree"
    );
}

#[test]
fn committed_baseline_covers_the_canonical_points_with_profiles() {
    let doc = baseline();
    let names: Vec<&str> = doc.points.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names, CANONICAL_POINTS,
        "baseline points differ from the points bench-snapshot measures"
    );
    assert_eq!(
        doc.manifest.extra.get("points").map(String::as_str),
        Some(CANONICAL_POINTS.join(",").as_str()),
        "manifest point list disagrees with the points"
    );
    // Every point carries a stage profile whose fractions cover the
    // attributed time (the bench-diff stage comparison reads these).
    for p in &doc.points {
        let profile = p
            .profile
            .as_ref()
            .unwrap_or_else(|| panic!("point {:?} lacks a profile", p.name));
        assert!(
            profile.shares.iter().all(Option::is_some),
            "point {:?} profile predates a stage; regenerate",
            p.name
        );
        if profile.total_ns > 0 {
            let sum: f64 = profile.shares.iter().flatten().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "point {:?} stage fractions sum to {sum}, not 1.0",
                p.name
            );
        }
    }
}

#[test]
fn committed_baseline_re_serializes_byte_for_byte() {
    assert!(
        baseline().to_json() == baseline_text(),
        "BENCH_search.json does not survive a parse and re-serialization unchanged"
    );
}

/// A profile section as baselines from the parallel engine's days wrote it:
/// with `merge` and `imbalance` keys, and from before the `select` stage.
const OLD_PROFILE: &str = r#"{"total_ns":1000,"screen":0.1,"fill":0.2,"cost":0.3,"shard":0.0,"apply":0.15,"merge":0.05,"undo":0.2,"imbalance":1.5}"#;

#[test]
fn old_profile_keys_are_ignored_and_missing_stages_are_not() {
    let old: PointProfile = serde_json::from_str(OLD_PROFILE).expect("an old profile parses");
    // The unknown keys drop out, and the missing select reads as unmeasured.
    assert_eq!(
        serde_json::to_string(&old).unwrap(),
        r#"{"total_ns":1000,"screen":0.1,"fill":0.2,"cost":0.3,"shard":0.0,"apply":0.15,"undo":0.2,"select":null}"#
    );
    let no_fill = OLD_PROFILE.replace(r#""fill":0.2,"#, "");
    let err = serde_json::from_str::<PointProfile>(&no_fill).unwrap_err();
    assert_eq!(err.to_string(), "missing field `fill` in PointProfile");
}
