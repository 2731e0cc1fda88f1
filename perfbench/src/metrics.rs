//! The benchmark's metric registry and its result line.
//!
//! Every metric the benchmark can report is declared here once, with its
//! unit, the direction that counts as better, and — for the per-layer
//! metrics — which end-to-end metric on which workload it should move.
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test keeps the two in step.

use std::fmt::Write as _;

/// Which direction of a metric counts as an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// What the metric measures and, for layer metrics, which
    /// end-to-end metric on which workload it should move.
    pub doc: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    doc: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        doc,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower,
        "median over repeated set-ups of building the programs, graphs and inputs and warming the sessions"),
    def("op_p50_ms", "ms", Lower, "median host latency of one op, over the run's fastest blocks"),
    def("op_p90_ms", "ms", Lower,
        "90th-percentile host latency of one op, same ops; needs at least ten samples beyond it"),
    def("ops_per_s", "1/s", Higher, "completed ops per host second spent in ops, same ops"),
    def("sim_tflops", "TFLOP/s", Higher,
        "algorithmic FLOPs over the simulated makespan of what the ops planned or launched, over the determinism window"),
    def("peak_rss_mb", "MiB", Lower, "peak resident memory of the benchmark process when its first block of ops completes"),
];

/// Per-layer metrics, measured in the separate traced run. Counts are
/// totals over the determinism window; times are per op (self time)
/// unless the doc names another base.
pub const PER_LAYER: &[MetricDef] = &[
    def("core.fingerprint.calls", "count", Lower,
        "cypress_core::fingerprint calls on the ops' programs -> op_p50_ms/ops_per_s on serve_timing; flat on functional_replay"),
    def("core.fingerprint.us", "us", Lower,
        "time per fingerprint call -> op_p50_ms/ops_per_s on serve_timing; flat on functional_replay"),
    def("core.passes.depan.ms", "ms", Lower,
        "dependence analysis per op -> op_p50_ms/op_p90_ms on plan_cold; zero elsewhere"),
    def("core.passes.vectorize.ms", "ms", Lower,
        "vectorization per op -> op_p50_ms/op_p90_ms on plan_cold; zero elsewhere"),
    def("core.passes.copyelim.ms", "ms", Lower,
        "copy elimination per op -> op_p50_ms/op_p90_ms on plan_cold; zero elsewhere"),
    def("core.passes.alloc.ms", "ms", Lower,
        "resource allocation per op -> op_p50_ms/op_p90_ms on plan_cold; zero elsewhere"),
    def("core.passes.warpspec.ms", "ms", Lower,
        "warp specialization and kernel validation per op -> op_p50_ms/op_p90_ms on plan_cold; zero elsewhere"),
    def("core.codegen.ms", "ms", Lower,
        "CUDA rendering per op -> op_p50_ms/op_p90_ms on plan_cold; zero elsewhere"),
    def("sim.bytecode.lower_ms", "ms", Lower,
        "bytecode lowering per op -> op_p50_ms/op_p90_ms on plan_cold; zero elsewhere"),
    def("core.copyelim.removed_copies", "count", Higher,
        "copies removed by copy elimination -> explains copyelim time and sim_tflops on plan_cold"),
    def("core.copyelim.rounds", "count", Lower,
        "copy-elimination fixpoint rounds -> explains copyelim time on plan_cold"),
    def("core.codegen.cuda_bytes", "bytes", Lower,
        "bytes of rendered CUDA -> explains codegen time on plan_cold"),
    def("sim.bytecode.instructions", "count", Lower,
        "lowered bytecode instructions -> explains lowering time and sim_tflops on plan_cold"),
    def("runtime.cache.lookups", "count", Lower,
        "kernel-cache lookups made by the ops -> op_p50_ms on serve_timing and plan_cold"),
    def("runtime.cache.hits", "count", Higher,
        "kernel-cache hits -> op_p50_ms on serve_timing"),
    def("runtime.cache.misses", "count", Lower,
        "kernel-cache misses -> op_p50_ms on plan_cold"),
    def("runtime.cache.hit_ratio", "ratio", Higher, "hits over lookups (0 without lookups)"),
    def("runtime.cache.hit_us", "us", Lower,
        "Session::compile on a cached program, per call -> op_p50_ms on serve_timing"),
    def("runtime.fuse.applied", "count", Higher,
        "fusion rewrites applied -> sim_tflops on plan_cold and serve_timing"),
    def("runtime.fuse.declined", "count", Lower, "fusion rewrites the simulator gate declined"),
    def("runtime.fuse.accept_ratio", "ratio", Higher,
        "applied over applied plus declined (0 without candidates)"),
    def("runtime.fuse.gate_ms", "ms", Lower,
        "cold compile_graph under FusionPolicy::Auto minus under Off on fresh sessions, per op -> op_p50_ms on plan_cold; flat on serve_timing"),
    def("runtime.tuner.sweeps", "count", Lower,
        "autotune sweeps run -> op_p90_ms tail on plan_cold"),
    def("runtime.tuner.ranked", "count", Lower, "candidates priced by the cost model"),
    def("runtime.tuner.pruned", "count", Higher, "candidates pruned before timing"),
    def("runtime.tuner.candidates_timed", "count", Lower,
        "candidates compiled and simulated -> op_p90_ms tail on plan_cold"),
    def("runtime.tuner.hits", "count", Higher, "tuning-table lookups that found a winner"),
    def("runtime.tuner.sweep_ms", "ms", Lower,
        "Session::autotune_with under the workload's budget on fresh sessions, per op -> op_p90_ms on plan_cold"),
    def("runtime.shard.comm_launches", "count", Lower,
        "transfer kernels the sharder inserted -> explains sim_tflops on serve_timing"),
    def("runtime.shard.link_bytes", "bytes", Lower,
        "bytes moved over device links -> explains sim_tflops on serve_timing"),
    def("runtime.plan.warm_ms", "ms", Lower,
        "compile_graph on the warm session, per op -> op_p50_ms on serve_timing (planning share); zero elsewhere"),
    def("runtime.exec.timing_ms", "ms", Lower,
        "launch_timing minus compile_graph on the same session, per op -> op_p50_ms on serve_timing (execution share); zero elsewhere"),
    def("sim.engine.kernel_us", "us", Lower,
        "Simulator::run_timing_lowered per distinct kernel of the op's graph -> op_p50_ms on serve_timing, gate and tuner share of plan_cold"),
    def("sim.engine.events", "count", Lower,
        "discrete events of the launched kernels' solo simulations -> op_p50_ms on serve_timing"),
    def("sim.engine.ns_per_event", "ns", Lower,
        "timing-engine host time per discrete event -> op_p50_ms on serve_timing"),
    def("sim.engine.tc_util", "ratio", Higher,
        "cycle-weighted Tensor Core busy fraction of the launched kernels -> explains sim_tflops"),
    def("sim.engine.tma_util", "ratio", Higher,
        "cycle-weighted TMA busy fraction of the launched kernels -> explains sim_tflops"),
    def("sim.engine.simt_util", "ratio", Higher,
        "cycle-weighted SIMT busy fraction of the launched kernels -> explains sim_tflops"),
    def("sim.engine.l2_hit", "ratio", Higher,
        "cycle-weighted L2 hit fraction of the launched kernels -> explains sim_tflops"),
    def("sim.apply.kernel_ms", "ms", Lower,
        "Simulator::run_functional_lowered per kernel, serial -> op_p50_ms/ops_per_s on functional_replay"),
    def("sim.apply.macs_per_s", "MAC/s", Higher,
        "algorithmic multiply-accumulates per second of serial functional apply -> ops_per_s on functional_replay"),
    def("sim.apply.bytes_f16", "bytes", Lower,
        "f16 bytes touched by functional applies -> op_p50_ms on functional_replay"),
    def("sim.apply.bytes_f32", "bytes", Lower,
        "f32 bytes touched by functional applies -> op_p50_ms on functional_replay"),
    def("runtime.executor.launch_ms", "ms", Lower,
        "Session::launch_compiled per op -> ops_per_s on functional_replay; zero elsewhere"),
    def("runtime.executor.parallel_speedup", "x", Higher,
        "serial apply time over launch time -> ops_per_s on functional_replay; zero elsewhere"),
    def("runtime.pool.acquired", "count", Lower,
        "buffers handed out by the pool -> peak_rss_mb and op_p50_ms on functional_replay"),
    def("runtime.pool.reused", "count", Higher,
        "acquisitions served by reuse -> peak_rss_mb and op_p50_ms on functional_replay"),
    def("runtime.pool.reuse_ratio", "ratio", Higher, "reused over acquired (0 without acquisitions)"),
    def("runtime.pool.evicted", "count", Lower,
        "buffers dropped by the pool bound -> peak_rss_mb on functional_replay"),
    def("trace.coverage", "ratio", Higher,
        "share of op wall time the measured layer spans account for (per-workload definition in perfbench/METRICS.md)"),
    def("trace.overhead", "ratio", Lower, "traced op_p50_ms over untraced op_p50_ms"),
];

/// Whether `name` is a well-formed metric name.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The declared metric called `name`, in either list.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A measured value of a declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The metric.
    pub def: &'static MetricDef,
    /// What was measured.
    pub value: f64,
}

/// The benchmark's final result line.
#[derive(Debug, Clone)]
pub struct ResultLine {
    /// Every output check passed and no op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or failed their output check.
    pub failed: u64,
    /// Reported metrics, in declaration order.
    pub metrics: Vec<Value>,
}

impl ResultLine {
    /// The one-line JSON object the benchmark prints last.
    ///
    /// # Errors
    ///
    /// A non-finite value, which JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.def.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // so every measured digit survives.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.def.name, m.value, m.def.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Escape `s` as the body of a JSON string.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
