//! `BENCHMARK.json` (at the repository root) declares exactly the metrics
//! and workloads this crate measures.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;
use tet_obs::json::{self, Value};

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = v.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(|x| x.as_str()).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_measured_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let v = json::parse(&text).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
    assert_eq!(names(&v, "per_layer"), own(&PER_LAYER));
    let Some(Value::Arr(workloads)) = v.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    for w in workloads {
        let name = w.get("name").and_then(|x| x.as_str()).expect("name");
        assert!(WORKLOADS.contains(&name), "unknown workload {name}");
    }
}
