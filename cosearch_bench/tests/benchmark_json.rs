//! `BENCHMARK.json` at the repository root names exactly the metrics
//! and workloads this benchmark reports.

use unico_cosearch_bench::metrics::{END_TO_END, PER_LAYER};
use unico_cosearch_bench::runner::WORKLOADS;
use unico_serve::json::{self, Json};

fn names(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .and_then(|v| v.as_arr(key).ok())
        .expect("array present")
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(|n| n.as_str("name").ok())
                .expect("name");
            let unit = m.get("unit").and_then(|u| u.as_str("unit").ok());
            (name.to_string(), unit.map(str::to_string))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let table = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
