//! Self times: a span minus what its children cover, concurrent siblings
//! covering as long as the slowest, all summing to the outermost span.

use gts_benchmark::json::{self, Value};
use gts_benchmark::spans::Spans;

#[test]
fn self_times_of_a_chain_sum_to_the_root() {
    let mut s = Spans::default();
    let service = s.push("service.batch", 0, 1_000, None, 0);
    let replica = s.push("replica.batch", 0, 900, Some(service), 0);
    let sharded = s.push("sharded.batch", 0, 850, Some(replica), 0);
    // Two shards replayed one after the other; the program runs them at once.
    let slow = s.push("core.batch", 0, 800, Some(sharded), 0);
    let fast = s.push("core.batch", 800, 1_300, Some(sharded), 0);
    s.push("metric.distance_batch", 0, 100, Some(slow), 0);
    s.push("metric.distance_batch", 0, 60, Some(fast), 0);
    let b = s.breakdown();
    assert_eq!(b.outer_ns, 1_000);
    assert_eq!(b.self_ns["service.batch"], 100);
    assert_eq!(b.self_ns["replica.batch"], 50);
    assert_eq!(b.self_ns["sharded.batch"], 50, "850 minus the slower shard");
    assert_eq!(b.self_ns["core.batch"], 700, "the slower shard only");
    assert_eq!(b.self_ns["metric.distance_batch"], 100);
    assert_eq!(b.self_ns.values().sum::<u64>(), b.outer_ns);
    assert_eq!(b.residual_share(), 0.0);
    assert!((b.share("core.batch") - 0.7).abs() < 1e-12);
    assert_eq!(
        s.total_ns("metric.distance_batch"),
        160,
        "totals count every span"
    );
}

#[test]
fn a_child_that_outlasts_its_parent_is_clamped_and_shows_as_residual() {
    let mut s = Spans::default();
    let root = s.push("core.batch", 0, 100, None, 0);
    s.push("metric.distance_batch", 0, 130, Some(root), 0);
    let b = s.breakdown();
    assert_eq!(b.self_ns["core.batch"], 0);
    assert!((b.residual_share() - 0.3).abs() < 1e-12);
}

#[test]
fn the_trace_file_is_json_with_every_field() {
    let mut s = Spans::default();
    let (root, value) = s.time("core.batch", None, 7, || 42);
    assert_eq!(value, 42);
    s.push("metric.distance_batch", 5, 9, Some(root), 7);
    let doc = json::parse(&s.to_json("knn-lowdim-batch")).expect("valid JSON");
    assert_eq!(
        doc.get("workload").and_then(Value::as_str),
        Some("knn-lowdim-batch")
    );
    let spans = doc.get("spans").and_then(Value::as_arr).expect("spans");
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].get("parent"), Some(&Value::Null));
    assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
    assert_eq!(spans[1].get("op").and_then(Value::as_f64), Some(7.0));
    assert_eq!(
        spans[1].get("name").and_then(Value::as_str),
        Some("metric.distance_batch")
    );
    assert_eq!(spans[1].get("end_ns").and_then(Value::as_f64), Some(9.0));
}
