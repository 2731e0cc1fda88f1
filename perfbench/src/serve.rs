//! `serve_timing`: repeated timing launches of known graphs on warm
//! sessions.
//!
//! Every kernel is a cache hit and every gate decision is memoized, so
//! host time goes to re-fingerprinting, planning, sharding, the
//! concurrent-engine simulation and report assembly.

use crate::graphs;
use crate::pipeline::fingerprint;
use crate::record::{Record, Spans};
use crate::seq::OpSequence;
use crate::{Mode, Op, Workload};
use cypress_runtime::{FusionPolicy, PlacementPolicy, SchedulePolicy, Session, TaskGraph};
use cypress_sim::{MachineConfig, Simulator};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Streams per device the sessions schedule onto.
pub const STREAMS: usize = 8;
/// Devices of the sharded session.
pub const DEVICES: usize = 2;

/// One graph of the serving mix.
struct Served {
    graph: TaskGraph,
    sharded: bool,
    flops: f64,
    /// The simulated makespan at set-up; every launch must repeat it
    /// bit for bit.
    makespan: f64,
}

/// The `serve_timing` workload.
pub struct ServeTiming {
    sequence: OpSequence,
    /// `[single device, sharded]`.
    sessions: [Session; 2],
    served: Vec<Served>,
    simulator: Simulator,
}

impl Workload for ServeTiming {
    const NAME: &'static str = "serve_timing";
    const ROUND: usize = 5;
    const WINDOW: usize = 40 * Self::ROUND + 1;
    const COVERED: &'static [&'static str] = &["runtime.cache.hit", "sim.engine"];

    fn setup(seed: u64) -> Result<Self, String> {
        let machine = MachineConfig::h100_sxm5();
        let concurrent = SchedulePolicy::Concurrent { streams: STREAMS };
        let single = Session::new(machine.clone())
            .with_fusion_policy(FusionPolicy::Auto)
            .with_policy(concurrent);
        let sharded = Session::new(machine.clone())
            .with_fusion_policy(FusionPolicy::Auto)
            .with_policy(concurrent)
            .with_placement_policy(PlacementPolicy::Sharded { devices: DEVICES });
        let mut sessions = [single, sharded];
        let mix = [
            (cypress_bench::overlap_graph(8, 256, &machine), false),
            (cypress_bench::overlap_graph(8, 1024, &machine), true),
            (cypress_bench::multi_gpu_comm_graph(8, 1024, &machine), true),
            (cypress_bench::chained_gemm_graph(512, &machine), false),
            (graphs::transformer_layer(256, false, &machine)?, false),
        ];
        let mut served = Vec::with_capacity(mix.len());
        for (graph, sharded) in mix {
            let s = &mut sessions[usize::from(sharded)];
            // Two launches: the first compiles and runs the fusion gate,
            // the second must already be a pure replay of the first.
            let first = s.launch_timing(&graph).map_err(|e| e.to_string())?;
            let second = s.launch_timing(&graph).map_err(|e| e.to_string())?;
            if first.makespan.to_bits() != second.makespan.to_bits() {
                return Err(format!(
                    "warm launch changed the makespan: {} vs {}",
                    first.makespan, second.makespan
                ));
            }
            served.push(Served {
                flops: graphs::graph_flops(&graph)?,
                graph,
                sharded,
                makespan: first.makespan,
            });
        }
        Ok(ServeTiming {
            sequence: OpSequence::new(seed, served.len()),
            sessions,
            served,
            simulator: Simulator::new(machine),
        })
    }

    fn op(&mut self, i: usize, mode: Mode<'_>) -> Result<Op, String> {
        let g = &self.served[self.sequence.get(i)];
        let s = &mut self.sessions[usize::from(g.sharded)];
        let before = s.metrics();
        let t = Instant::now();
        let report = s.launch_timing(&g.graph);
        let wall = t.elapsed();
        let report = match report {
            Ok(r) => r,
            Err(e) => return Ok(Op::failed(wall, &e)),
        };
        let mut record = Record::default();
        record.add_session(&before, &s.metrics());
        record.add_report(&report, g.flops);
        record.count("core.fingerprint.calls", g.graph.len() as u64);
        let ok = report.makespan.to_bits() == g.makespan.to_bits();
        if !ok {
            eprintln!(
                "serve_timing op {i}: makespan {} differs from set-up {}",
                report.makespan, g.makespan
            );
        }
        if let Mode::Traced(spans) = mode {
            let plan = probe(&self.simulator, &g.graph, s, spans)?;
            // The op minus its planning share is its execution share.
            spans.add_seconds("runtime.exec.timing", wall.as_secs_f64() - plan);
        }
        Ok(Op { wall, ok, record })
    }
}

/// Call each layer's public functions on the op's graph and session;
/// returns the seconds `compile_graph` took on the warm session.
fn probe(
    simulator: &Simulator,
    graph: &TaskGraph,
    s: &mut Session,
    spans: &mut Spans,
) -> Result<f64, String> {
    let opts = cypress_core::CompilerOptions {
        machine: s.machine().clone(),
        ..Default::default()
    };
    let mut kernels = Vec::new();
    let mut seen = HashSet::new();
    for node in graph.nodes() {
        let p = &node.program;
        std::hint::black_box(spans.time("core.fingerprint", || fingerprint(p, &opts)));
        let compiled = spans
            .time("runtime.cache.hit", || s.compile(p))
            .map_err(|e| e.to_string())?;
        if seen.insert(Arc::as_ptr(&compiled)) {
            kernels.push(compiled);
        }
    }
    for c in &kernels {
        let r = spans
            .time("sim.engine", || {
                simulator.run_timing_lowered(&c.kernel, &c.lowered)
            })
            .map_err(|e| e.to_string())?;
        spans.count("sim.engine.probe_events", r.events);
    }
    let t = Instant::now();
    s.compile_graph(graph).map_err(|e| e.to_string())?;
    let plan = t.elapsed();
    spans.add("runtime.plan.warm", plan);
    Ok(plan.as_secs_f64())
}
