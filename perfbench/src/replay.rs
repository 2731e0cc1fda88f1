//! `functional_replay`: compile once, then run many times with fresh
//! data.
//!
//! Functional apply (the bytecode VM), the worker pool and the buffer
//! pool do all the work; the compiler, fingerprint, fusion gate and
//! tuner do none.

use crate::graphs;
use crate::oracle::{self, Outputs};
use crate::record::{Record, Spans};
use crate::seq::{self, OpSequence};
use crate::{Mode, Op, Workload};
use cypress_runtime::{Binding, CompiledGraph, Session, TaskGraph};
use cypress_sim::{MachineConfig, Simulator};
use cypress_tensor::Tensor;
use std::collections::HashMap;
use std::time::Instant;

/// Nodes of the GEMM fan-out.
pub const FAN_OUT: usize = 8;
/// Problem size of both graphs.
pub const SIZE: usize = 256;

/// One compiled graph of the replay mix.
struct Replayed {
    graph: TaskGraph,
    compiled: CompiledGraph,
    flops: f64,
    /// Nodes that can run at once, capped by the session's workers.
    lanes: usize,
    sinks: Vec<usize>,
    /// Check every sink per op, or one seeded sink (a full host check of
    /// the fan-out would cost several times the op).
    check_all: bool,
}

/// The `functional_replay` workload.
pub struct FunctionalReplay {
    seed: u64,
    sequence: OpSequence,
    session: Session,
    replayed: Vec<Replayed>,
    simulator: Simulator,
}

impl Workload for FunctionalReplay {
    const NAME: &'static str = "functional_replay";
    const ROUND: usize = 2;
    const WINDOW: usize = 12 * Self::ROUND + 1;
    const COVERED: &'static [&'static str] = &["sim.apply"];
    const COVERAGE_BASE: &'static str = "coverage.lane_seconds";

    fn setup(seed: u64) -> Result<Self, String> {
        let machine = MachineConfig::h100_sxm5();
        let mut session = Session::new(machine.clone());
        let mix = [
            (graphs::transformer_layer(SIZE, false, &machine)?, true),
            (cypress_bench::overlap_graph(FAN_OUT, SIZE, &machine), false),
        ];
        let mut replayed = Vec::with_capacity(mix.len());
        for (k, (graph, check_all)) in mix.into_iter().enumerate() {
            let compiled = session.compile_graph(&graph).map_err(|e| e.to_string())?;
            // One launch fills the buffer pool before timing starts.
            let mut rng = seq::rng(seed, seq::stream::DATA, u64::MAX - k as u64);
            session
                .launch_compiled(&compiled, &graphs::inputs(&graph, &mut rng))
                .map_err(|e| e.to_string())?;
            replayed.push(Replayed {
                flops: graphs::graph_flops(&graph)?,
                lanes: graphs::width(&graph).min(session.parallelism()),
                sinks: oracle::sinks(&graph),
                compiled,
                graph,
                check_all,
            });
        }
        Ok(FunctionalReplay {
            seed,
            sequence: OpSequence::new(seed, replayed.len()),
            session,
            replayed,
            simulator: Simulator::new(machine),
        })
    }

    fn op(&mut self, i: usize, mode: Mode<'_>) -> Result<Op, String> {
        let g = &self.replayed[self.sequence.get(i)];
        let inputs = graphs::inputs(
            &g.graph,
            &mut seq::rng(self.seed, seq::stream::DATA, i as u64),
        );
        let s = &mut self.session;
        let before = s.metrics();
        let t = Instant::now();
        let run = s.launch_compiled(&g.compiled, &inputs);
        let wall = t.elapsed();
        let run = match run {
            Ok(r) => r,
            Err(e) => return Ok(Op::failed(wall, &e)),
        };
        let mut record = Record::default();
        record.add_session(&before, &s.metrics());
        record.add_report(&run.report, g.flops);
        let checked = if g.check_all {
            g.sinks.clone()
        } else {
            let pick = seq::mix(self.seed, seq::stream::CHECK, i as u64) as usize % g.sinks.len();
            vec![g.sinks[pick]]
        };
        let ok = match oracle::check(&g.graph, &inputs, &run, &checked, &mut Outputs::new())? {
            Ok(_) => true,
            Err(why) => {
                eprintln!("functional_replay op {i}: {why}");
                false
            }
        };
        if let Mode::Traced(spans) = mode {
            spans.add("runtime.executor.launch", wall);
            spans.add_seconds("coverage.lane_seconds", wall.as_secs_f64() * g.lanes as f64);
            probe(&self.simulator, &g.graph, &inputs, s, spans)?;
        }
        Ok(Op { wall, ok, record })
    }
}

/// Replay the graph serially, one `Simulator::run_functional_lowered`
/// per node in schedule order, timing each kernel.
fn probe(
    simulator: &Simulator,
    graph: &TaskGraph,
    inputs: &HashMap<String, Tensor>,
    s: &mut Session,
    spans: &mut Spans,
) -> Result<(), String> {
    let mut outputs: HashMap<(usize, usize), Tensor> = HashMap::new();
    for id in graph.schedule() {
        let node = &graph.nodes()[id.index()];
        let compiled = s.compile(&node.program).map_err(|e| e.to_string())?;
        let mut params = Vec::with_capacity(node.bindings.len());
        for (j, b) in node.bindings.iter().enumerate() {
            params.push(match b {
                Binding::External(name) => inputs[name].clone(),
                Binding::Output { node: src, param } => outputs[&(src.index(), *param)].clone(),
                Binding::Zeros => graphs::zeros_for(&node.program, j),
            });
        }
        let run = spans
            .time("sim.apply", || {
                simulator.run_functional_lowered(&compiled.kernel, &compiled.lowered, params)
            })
            .map_err(|e| e.to_string())?;
        spans.count(
            "sim.apply.macs",
            (graphs::program_flops(&node.program)? / 2.0) as u64,
        );
        for (j, t) in run.params.into_iter().enumerate() {
            outputs.insert((id.index(), j), t);
        }
    }
    Ok(())
}
