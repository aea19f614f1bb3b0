//! Every JSON artefact committed under `results/` parses with the
//! workspace's one JSON reader (`telemetry::json::parse`) — the reader
//! the dashboard uses to load them back.

use std::path::{Path, PathBuf};

fn json_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            json_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "json") {
            out.push(path);
        }
    }
}

#[test]
fn every_results_json_parses() {
    let mut files = Vec::new();
    json_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
        &mut files,
    );
    // Guard against a walk that silently finds nothing: 18 artefacts
    // are committed (manifests, traces, reports).
    assert!(files.len() >= 18, "only {} JSON files found", files.len());
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        if let Err(e) = telemetry::json::parse(&text) {
            panic!("{}: {e}", path.display());
        }
    }
}
