//! The study and the figures read the same 306 cells: `paper_units()`
//! enumerates exactly the cells `portability::paper_measurements()`
//! prices, and the committed `results/STUDY.json` agrees with that
//! table bit for bit — per record and in its PP̄ rows.

use study::{paper_units, StudyDoc, UnitStatus};
use telemetry::json::{self, Json};

fn committed_study() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/STUDY.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_study_is_the_paper_table() {
    let table = portability::paper_measurements();
    let units = paper_units();
    assert_eq!(units.len(), table.len());
    for (u, m) in units.iter().zip(&table) {
        assert_eq!(
            (u.app.as_str(), u.platform, u.variant, u.scheme),
            (m.app, m.platform, m.variant, m.scheme),
            "unit {} is out of step with the table",
            u.index
        );
    }

    let text = committed_study();
    let doc = StudyDoc::parse(&text).expect("results/STUDY.json parses");
    assert_eq!(
        doc.records.len(),
        table.len(),
        "STUDY.json covers the paper scope"
    );
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    for (r, m) in doc.records.iter().zip(&table) {
        assert_eq!(r.unit, units[r.unit.index], "record order");
        let status = match m.runtime {
            Ok(_) => UnitStatus::Ok,
            Err(k) => UnitStatus::Hole(k),
        };
        assert_eq!(r.status, status, "{}: status", r.id());
        assert_eq!(
            bits(r.sim_secs),
            bits(m.runtime.ok()),
            "{}: simSecs",
            r.id()
        );
        assert_eq!(
            bits(r.efficiency),
            bits(m.efficiency),
            "{}: efficiency",
            r.id()
        );
    }

    let pp: Vec<(String, u64)> = match json::parse(&text).expect("valid JSON").get("pp") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .map(|row| {
                let label = row.str_of("label").expect("pp row label").to_owned();
                (label, row.f64_of("value").expect("pp row value").to_bits())
            })
            .collect(),
        _ => panic!("STUDY.json has no pp array"),
    };
    let expect: Vec<(String, u64)> = bench_harness::summary_stats(&table)
        .pp
        .into_iter()
        .map(|(label, v)| (label, v.to_bits()))
        .collect();
    assert_eq!(pp, expect, "STUDY.json PP̄ rows equal summary_stats'");
}
