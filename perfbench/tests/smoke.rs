//! Tiny-size runs of every workload: the correctness gates, the traced ≡
//! untraced identity and the ledger closure all run inside
//! `sqm_perfbench::run`, which fails on any of them; these tests also pin
//! the printed metric names to `BENCHMARK.json` and the benchmark's
//! population builders to the repository's own.

use sqm_bench::{ElasticExperiment, InferExperiment};
use sqm_core::elastic::ElasticRunner;
use sqm_perfbench::live::{self, Population};
use sqm_perfbench::micro::Micro;
use sqm_perfbench::serve::Serve;
use sqm_perfbench::{run, Report, Settings, WORKLOADS};

fn tiny(trace: bool) -> Settings {
    Settings {
        seed: 5,
        seconds: 0.05,
        trace,
        tiny: true,
        out_dir: None,
    }
}

/// The `name`s listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    let mut v: Vec<String> = report.metrics.0.iter().map(|m| m.0.clone()).collect();
    v.sort();
    v
}

fn check(workload: &str, trace: bool) {
    let report = run(workload, tiny(trace)).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(report.correct, "{workload}: {report:?}");
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    want.sort();
    assert_eq!(names(&report), want, "{workload} trace={trace}");
    for (name, value, _) in &report.metrics.0 {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    if !trace {
        for name in want {
            assert!(
                report.metrics.get(&name).unwrap() > 0.0,
                "{workload}: {name} is 0"
            );
        }
    }
    let json = report.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn mpeg_closed_untraced() {
    check("mpeg-closed", false);
}

#[test]
fn mpeg_closed_traced() {
    check("mpeg-closed", true);
}

#[test]
fn live_micro_untraced() {
    check("live-micro", false);
}

#[test]
fn live_micro_traced() {
    check("live-micro", true);
}

#[test]
fn serve_shed_untraced() {
    check("serve-shed", false);
}

#[test]
fn serve_shed_traced() {
    check("serve-shed", true);
}

#[test]
fn every_workload_is_declared_once() {
    assert_eq!(declared("workloads"), WORKLOADS);
    assert!(run("no-such-workload", tiny(false)).is_err());
}

#[test]
fn micro_population_is_the_repositorys() {
    let (micro, _) = Micro::build(0, true);
    let (ours, _) = live::run_plain(&micro, 1);
    let exp = ElasticExperiment::micro(300, 3);
    assert_eq!(ours, exp.run(1, micro.config()));
}

#[test]
fn serve_population_is_the_repositorys() {
    let (serve, _) = Serve::build(0, true);
    let (ours, _) = live::run_plain(&serve, 2);
    let exp = InferExperiment::tiny(0);
    let (theirs, _) = ElasticRunner::new(1, serve.config()).run(exp.elastic_population(40, 4, 2));
    assert_eq!(ours, theirs);
    assert!(ours.ledger().shed > 0, "the tiny overload sheds too");
}
