//! Tests of the benchmark itself: its op sequence, metric names,
//! percentile rule, result line, and the compiler pass times it reads.

use cypress_core::{CompilerOptions, CypressCompiler};
use cypress_sim::MachineConfig;
use perfbench::graphs::{self, Family};
use perfbench::metrics::{self, ResultLine, Value, END_TO_END, PER_LAYER};
use perfbench::seq::OpSequence;
use perfbench::{cold, pipeline, replay, serve, stats, Workload};

fn ops(seed: u64, population: usize, n: usize) -> Vec<usize> {
    let mut s = OpSequence::new(seed, population);
    (0..n).map(|i| s.get(i)).collect()
}

#[test]
fn same_seed_same_ops_and_different_seed_different_ops() {
    for round in [
        cold::PlanCold::ROUND,
        serve::ServeTiming::ROUND,
        replay::FunctionalReplay::ROUND,
    ] {
        let n = 10 * round;
        assert_eq!(ops(7, round, n), ops(7, round, n));
        assert_ne!(ops(7, round, n), ops(8, round, n));
    }
}

#[test]
fn every_round_is_a_permutation_of_the_population() {
    let round = cold::PlanCold::ROUND;
    let seq = ops(3, round, 3 * round);
    for chunk in seq.chunks(round) {
        let mut sorted = chunk.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..round).collect::<Vec<_>>());
    }
}

#[test]
fn every_metric_name_is_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    for n in &names {
        assert!(metrics::valid_name(n), "bad metric name {n}");
    }
    assert!(!metrics::valid_name("bad name"));
    assert!(!metrics::valid_name(""));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names repeat");
}

#[test]
fn benchmark_json_declares_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in perfbench::WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "workload {w}"
        );
    }
    let declared = text.matches("{\"name\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + perfbench::WORKLOADS.len()
    );
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::p90(&samples), Some(90.0));
    assert_eq!(
        stats::p90(&samples[..99]),
        None,
        "99 samples leave 9 beyond the p90"
    );
    // Ties at the top do not count as beyond.
    let mut tied = samples.clone();
    for x in tied.iter_mut().skip(85) {
        *x = 100.0;
    }
    assert_eq!(stats::p90(&tied), None);
    assert_eq!(stats::p90(&[]), None);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let line = ResultLine {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![Value {
            def: metrics::lookup("op_p50_ms").expect("declared"),
            value: 1.234_567_890_123,
        }],
    };
    assert_eq!(
        line.to_json().expect("finite"),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"op_p50_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
    );
    let nan = ResultLine {
        metrics: vec![Value {
            value: f64::NAN,
            ..line.metrics[0]
        }],
        ..line
    };
    assert!(nan.to_json().is_err());
}

#[test]
fn compiler_pass_times_map_onto_the_pass_metrics() {
    let machine = MachineConfig::h100_sxm5();
    let opts = CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    };
    let compiler = CypressCompiler::new(opts.clone());
    for family in [
        Family::Gemm,
        Family::GemmReduction,
        Family::Fa3,
        Family::RowReduction,
    ] {
        let graph = graphs::family_graph(family, 256, false, &machine).expect("builds");
        let p = &graph.nodes()[0].program;
        let c = compiler
            .compile(&p.registry, &p.mapping, &p.entry, &p.args)
            .expect("compiles");
        let passes = pipeline::pass_seconds(&c).expect("every pass timed, in order");
        let names: Vec<&str> = passes.iter().map(|(m, _)| *m).collect();
        let expected: Vec<&str> = pipeline::PASSES.iter().map(|(_, m)| *m).collect();
        assert_eq!(names, expected, "{family:?}");
        for m in names {
            assert!(metrics::lookup(m).is_some(), "{m} is a declared metric");
        }
        assert_eq!(c.fingerprint, pipeline::fingerprint(p, &opts));
    }
}
