//! Per-run manifests: the provenance a result file needs to be
//! reproducible — seed, calibration constants, algorithm, and the source
//! revision — written as JSON next to the CSV/trace it describes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Everything needed to re-run (and trust) one result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Display name of the scheduling algorithm (or `"all"` for multi-series
    /// figures).
    pub algorithm: String,
    /// The PRNG seed the run used.
    pub seed: u64,
    /// Number of working processors.
    pub workers: usize,
    /// Calibration: the host's per-vertex evaluation cost, microseconds.
    pub vertex_eval_cost_us: u64,
    /// Calibration: the constant interconnect delay `C`, microseconds
    /// (`None` when the run sweeps or varies it).
    pub comm_delay_us: Option<u64>,
    /// `git describe --always --dirty` of the source tree, when available.
    pub git_describe: Option<String>,
    /// Anything else worth pinning (scenario knobs, sweep ranges, ...).
    pub extra: BTreeMap<String, String>,
}

impl RunManifest {
    /// A manifest with the required provenance; extend via [`Self::with`].
    #[must_use]
    pub fn new(algorithm: impl Into<String>, seed: u64, workers: usize) -> Self {
        RunManifest {
            algorithm: algorithm.into(),
            seed,
            workers,
            vertex_eval_cost_us: 0,
            comm_delay_us: None,
            git_describe: git_describe(),
            extra: BTreeMap::new(),
        }
    }

    /// Sets the calibration constants.
    #[must_use]
    pub fn calibration(mut self, vertex_eval_cost_us: u64, comm_delay_us: Option<u64>) -> Self {
        self.vertex_eval_cost_us = vertex_eval_cost_us;
        self.comm_delay_us = comm_delay_us;
        self
    }

    /// Adds one free-form provenance entry.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra.insert(key.into(), value.into());
        self
    }

    /// Renders the manifest as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Writes the manifest next to `result_path`: `foo.csv` gets
    /// `foo.manifest.json` (non-CSV paths get the suffix appended).
    pub fn write_beside(&self, result_path: &Path) -> std::io::Result<std::path::PathBuf> {
        let manifest_path = manifest_path_for(result_path);
        let mut f = std::fs::File::create(&manifest_path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(manifest_path)
    }
}

/// The manifest path accompanying a result file.
#[must_use]
pub fn manifest_path_for(result_path: &Path) -> std::path::PathBuf {
    match result_path.file_stem() {
        Some(stem) if result_path.extension().is_some() => {
            result_path.with_file_name(format!("{}.manifest.json", stem.to_string_lossy()))
        }
        _ => {
            let mut name = result_path.as_os_str().to_os_string();
            name.push(".manifest.json");
            std::path::PathBuf::from(name)
        }
    }
}

/// Best-effort `git describe --always --dirty`; `None` outside a checkout
/// or without git on the PATH.
#[must_use]
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let m = RunManifest::new("RT-SADS", 42, 8)
            .calibration(1, Some(2_000))
            .with("transactions", "600");
        let json = m.to_json();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.algorithm, "RT-SADS");
        assert_eq!(back.seed, 42);
        assert_eq!(back.workers, 8);
        assert_eq!(back.vertex_eval_cost_us, 1);
        assert_eq!(back.comm_delay_us, Some(2_000));
        assert_eq!(
            back.extra.get("transactions").map(String::as_str),
            Some("600")
        );
    }

    /// The manifest text is pinned byte for byte, so manifests written by
    /// earlier builds diff clean against new ones.
    #[test]
    fn manifest_pretty_text_is_pinned() {
        let mut m = RunManifest::new("RT-SADS", 42, 8)
            .calibration(1, Some(2_000))
            .with("transactions", "600")
            .with("note", "tab\there \"quoted\"");
        m.git_describe = Some("v0.1-3-gabc-dirty".into());
        assert_eq!(
            m.to_json(),
            "{\n  \"algorithm\": \"RT-SADS\",\n  \"seed\": 42,\n  \"workers\": 8,\n  \"vertex_eval_cost_us\": 1,\n  \"comm_delay_us\": 2000,\n  \"git_describe\": \"v0.1-3-gabc-dirty\",\n  \"extra\": {\n    \"note\": \"tab\\there \\\"quoted\\\"\",\n    \"transactions\": \"600\"\n  }\n}"
        );
        let mut bare = RunManifest::new("D-COLS", 7, 2);
        bare.git_describe = None;
        assert_eq!(
            bare.to_json(),
            "{\n  \"algorithm\": \"D-COLS\",\n  \"seed\": 7,\n  \"workers\": 2,\n  \"vertex_eval_cost_us\": 0,\n  \"comm_delay_us\": null,\n  \"git_describe\": null,\n  \"extra\": {}\n}"
        );
    }

    #[test]
    fn manifest_path_swaps_the_extension() {
        assert_eq!(
            manifest_path_for(Path::new("results/fig5.csv")),
            Path::new("results/fig5.manifest.json")
        );
        assert_eq!(
            manifest_path_for(Path::new("results/run")),
            Path::new("results/run.manifest.json")
        );
    }

    #[test]
    fn write_beside_creates_the_sibling_file() {
        let dir = std::env::temp_dir().join("rt-telemetry-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("fig9.csv");
        let m = RunManifest::new("D-COLS", 7, 2);
        let path = m.write_beside(&csv).unwrap();
        assert!(path.ends_with("fig9.manifest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let back: RunManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
