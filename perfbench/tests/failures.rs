//! A failed output check is counted, never dropped.

use pp_bench::schema::{parse, Value};
use pp_perfbench::metrics::{finish, result_line};
use pp_perfbench::workloads::Checks;

fn last_line(text: &str) -> Value {
    parse(text.lines().last().expect("a result line")).expect("JSON")
}

#[test]
fn a_failed_check_is_counted_and_makes_the_run_incorrect() {
    let mut checks = Checks::default();
    checks.check(true, || unreachable!("passing checks are not described"));
    checks.check(false, || "deliberate failure".into());
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    let doc = last_line(&finish(&mut checks, &[("wall_s", 1.0, "s")]));
    assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
    // The metric itself is a further (passing) check.
    assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(3.0));
}

#[test]
fn an_unmeasured_metric_is_a_failure() {
    let mut checks = Checks::default();
    let doc = last_line(&finish(
        &mut checks,
        &[("wall_s", f64::NAN, "s"), ("setup_s", 0.5, "s")],
    ));
    assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
    assert_eq!(
        doc.get("metrics")
            .and_then(|m| m.get("wall_s"))
            .and_then(|v| v.get("value")),
        Some(&Value::Null)
    );
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let doc = parse(&result_line(true, 5, 0, &[("wall_s", 1.25, "s")])).expect("JSON");
    let Value::Obj(map) = &doc else {
        panic!("object")
    };
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        doc.get("metrics")
            .and_then(|m| m.get("wall_s"))
            .and_then(|v| v.get("value"))
            .and_then(Value::as_f64),
        Some(1.25)
    );
}
