//! `plan_cold`: what a new model's first launch costs.
//!
//! Each op builds a fresh session (fusion `Auto`, guided tuning) and
//! calls `Session::compile_graph` on the next graph of the seeded
//! sequence. The compile passes, the fusion gate and the tuner do nearly
//! all the work; functional apply does none.

use crate::graphs::{self, FAMILIES, SIZES};
use crate::oracle::{self, Outputs};
use crate::pipeline::{self, fingerprint};
use crate::record::{Record, Spans};
use crate::seq::{self, OpSequence};
use crate::{Mode, Op, Workload, TOP_K};
use cypress_core::{CompilerOptions, CypressCompiler};
use cypress_runtime::{FusionPolicy, MappingPolicy, Program, Session, TaskGraph, TunerBudget};
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::Tensor;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Problem size whose ops are also launched functionally and checked
/// against the host oracle (larger sizes would make the check dominate
/// the run).
pub const CHECKED_SIZE: usize = 256;

/// One `(family, size, mapping space or not)` member of the
/// population.
struct Item {
    graph: TaskGraph,
    flops: f64,
    /// Inputs and memoized oracle outputs, for checked sizes.
    check: Option<(HashMap<String, Tensor>, Outputs)>,
}

/// The `plan_cold` workload.
pub struct PlanCold {
    machine: MachineConfig,
    sequence: OpSequence,
    items: Vec<Item>,
    simulator: Simulator,
}

fn session(machine: &MachineConfig, fusion: FusionPolicy, mapping: MappingPolicy) -> Session {
    Session::new(machine.clone())
        .with_fusion_policy(fusion)
        .with_mapping_policy(mapping)
}

/// The graph's programs with duplicates (equal fingerprints) removed.
fn distinct<'g>(graph: &'g TaskGraph, opts: &CompilerOptions) -> Vec<&'g Program> {
    let mut seen = HashSet::new();
    graph
        .nodes()
        .iter()
        .map(|n| &n.program)
        .filter(|p| seen.insert(fingerprint(p, opts)))
        .collect()
}

impl Workload for PlanCold {
    const NAME: &'static str = "plan_cold";
    const ROUND: usize = FAMILIES.len() * SIZES.len() * 2;
    const WINDOW: usize = 2 * Self::ROUND + 1;
    const COVERED: &'static [&'static str] = &[
        "core.fingerprint",
        "coverage.untuned_compile",
        "runtime.fuse.gate",
        "runtime.tuner.sweep",
    ];

    fn setup(seed: u64) -> Result<Self, String> {
        let machine = MachineConfig::h100_sxm5();
        let mut items = Vec::new();
        for family in FAMILIES {
            for size in SIZES {
                // Half the programs carry their mapping space; the
                // programs are the same either way.
                for spaced in [false, true] {
                    let graph = graphs::family_graph(family, size, spaced, &machine)?;
                    let check = (size == CHECKED_SIZE).then(|| {
                        let mut rng = seq::rng(seed, seq::stream::DATA, items.len() as u64);
                        (graphs::inputs(&graph, &mut rng), Outputs::new())
                    });
                    items.push(Item {
                        flops: graphs::graph_flops(&graph)?,
                        graph,
                        check,
                    });
                }
            }
        }
        Ok(PlanCold {
            sequence: OpSequence::new(seed, items.len()),
            simulator: Simulator::new(machine.clone()),
            machine,
            items,
        })
    }

    fn op(&mut self, i: usize, mode: Mode<'_>) -> Result<Op, String> {
        let item = &mut self.items[self.sequence.get(i)];
        let graph = &item.graph;
        let guided = MappingPolicy::Guided { top_k: TOP_K };
        let mut s = session(&self.machine, FusionPolicy::Auto, guided);

        let before = s.metrics();
        let t = Instant::now();
        let compiled = s.compile_graph(graph);
        let wall = t.elapsed();
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) => return Ok(Op::failed(wall, &e)),
        };
        let mut record = Record::default();
        record.add_session(&before, &s.metrics());
        record.count("core.fingerprint.calls", graph.len() as u64);
        // What the op planned, priced by the simulator outside the timer.
        match s.launch_timing(graph) {
            Ok(report) => record.add_report(&report, item.flops),
            Err(e) => return Ok(Op::failed(wall, &e)),
        }
        let mut ok = true;
        if let Some((inputs, memo)) = &mut item.check {
            ok = match s.launch_compiled(&compiled, inputs) {
                Ok(run) => match oracle::check(graph, inputs, &run, &oracle::sinks(graph), memo)? {
                    Ok(_) => true,
                    Err(why) => {
                        eprintln!("plan_cold op {i}: {why}");
                        false
                    }
                },
                Err(e) => {
                    eprintln!("plan_cold op {i}: functional launch failed: {e}");
                    false
                }
            };
        }

        let opts = CompilerOptions {
            machine: self.machine.clone(),
            ..Default::default()
        };
        match mode {
            Mode::Plain => {}
            Mode::Counted => compile_each(graph, &opts, &mut record, None)?,
            Mode::Traced(spans) => {
                for node in graph.nodes() {
                    std::hint::black_box(
                        spans.time("core.fingerprint", || fingerprint(&node.program, &opts)),
                    );
                }
                compile_each(
                    graph,
                    &opts,
                    &mut record,
                    Some((&self.simulator, &mut *spans)),
                )?;
                probe(graph, &opts, &mut s, spans)?;
            }
        }
        Ok(Op { wall, ok, record })
    }
}

/// Compile each distinct program of `graph` with `CypressCompiler::compile`
/// and count what the compiler did. When traced, also add the compiler's
/// own pass times and time the timing engine on each kernel.
fn compile_each(
    graph: &TaskGraph,
    opts: &CompilerOptions,
    record: &mut Record,
    mut traced: Option<(&Simulator, &mut Spans)>,
) -> Result<(), String> {
    let compiler = CypressCompiler::new(opts.clone());
    for p in distinct(graph, opts) {
        let c = compiler
            .compile(&p.registry, &p.mapping, &p.entry, &p.args)
            .map_err(|e| e.to_string())?;
        record.add_compile(
            c.copyelim_stats.removed_copies,
            c.copyelim_stats.rounds,
            c.cuda.len(),
            c.lowered.num_instructions(),
        );
        let Some((simulator, spans)) = traced.as_mut() else {
            continue;
        };
        let passes = pipeline::pass_seconds(&c)?;
        for &(metric, seconds) in &passes {
            spans.add_seconds(metric, seconds);
        }
        // `compile_graph` compiles a program without a mapping space
        // once; one with a space is compiled inside the tuner sweep,
        // which its own span covers.
        if p.space.is_none() {
            spans.add_seconds(
                "coverage.untuned_compile",
                passes.iter().map(|(_, s)| s).sum(),
            );
        }
        let r = spans
            .time("sim.engine", || {
                simulator.run_timing_lowered(&c.kernel, &c.lowered)
            })
            .map_err(|e| e.to_string())?;
        spans.count("sim.engine.probe_events", r.events);
    }
    Ok(())
}

/// Time the cache hit, the fusion gate and the tuner on the op's graph.
fn probe(
    graph: &TaskGraph,
    opts: &CompilerOptions,
    s: &mut Session,
    spans: &mut Spans,
) -> Result<(), String> {
    // A cached program: the first lookup may compile, the second hits.
    let first = &graph.nodes()[0].program;
    s.compile(first).map_err(|e| e.to_string())?;
    spans
        .time("runtime.cache.hit", || s.compile(first))
        .map_err(|e| e.to_string())?;

    let cold = |fusion| -> Result<f64, String> {
        let mut fresh = session(&opts.machine, fusion, MappingPolicy::Default);
        let t = Instant::now();
        fresh.compile_graph(graph).map_err(|e| e.to_string())?;
        Ok(t.elapsed().as_secs_f64())
    };
    let off = cold(FusionPolicy::Off)?;
    let auto = cold(FusionPolicy::Auto)?;
    spans.add_seconds("runtime.fuse.gate", auto - off);

    for p in distinct(graph, opts).iter().filter(|p| p.space.is_some()) {
        let mut fresh = Session::new(opts.machine.clone());
        spans
            .time("runtime.tuner.sweep", || {
                fresh.autotune_with(p, TunerBudget::TopK(TOP_K))
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
