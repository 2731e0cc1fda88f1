//! Host-time benchmark of the Cypress workspace.
//!
//! Three closed-loop workloads, each with one caller that waits for
//! every call to return, drive the public API on an H100 model:
//!
//! * `plan_cold` — a fresh session compiles the next graph of a seeded
//!   sequence: what a new model's first launch costs.
//! * `serve_timing` — warm sessions re-launch known graphs in timing
//!   mode: what a serving loop pays per launch.
//! * `functional_replay` — graphs compiled once are re-run on fresh
//!   data: what the functional data path costs.
//!
//! An untraced loop gives the end-to-end metrics. With tracing on, a
//! second loop also calls each layer's public functions around every op
//! and reports the per-layer metrics (see `METRICS.md`).

pub mod cold;
pub mod graphs;
pub mod metrics;
pub mod oracle;
pub mod pipeline;
pub mod record;
pub mod replay;
pub mod seq;
pub mod serve;
pub mod stats;

use metrics::{ResultLine, Value};
use record::{Record, Spans};
use std::time::{Duration, Instant};

/// Times set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// Fewest ops an untraced loop runs, so `op_p90_ms` has ten samples
/// beyond it.
pub const MIN_OPS: usize = 100;
/// Share of a loop's blocks, fastest first, its latencies are computed
/// over (see `LoopResult::latency`).
pub const FAST_BLOCKS: f64 = 0.1;
/// Wall-clock limit of one loop, whatever `--seconds` asks for: past
/// it a loop stops at the next point it may end, and fails if it has
/// not yet run the ops it needs.
pub const LOOP_LIMIT_S: f64 = 100.0;
/// Candidates the guided tuner times per sweep in `plan_cold`.
pub const TOP_K: usize = 3;

/// How an op is measured.
pub enum Mode<'a> {
    /// End-to-end only.
    Plain,
    /// End-to-end, plus the exact compile counts of the op's programs
    /// (the untraced half of a traced run, for the determinism check);
    /// the same compiles a traced op takes its pass times from.
    Counted,
    /// End-to-end, plus every layer probe.
    Traced(&'a mut Spans),
}

/// One measured op.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// Host time of the op's call.
    pub wall: Duration,
    /// The call succeeded and its outputs passed their check.
    pub ok: bool,
    /// The op's exact quantities.
    pub record: Record,
}

impl Op {
    /// An op whose call returned `error` after `wall`.
    #[must_use]
    pub fn failed(wall: Duration, error: &dyn std::fmt::Display) -> Self {
        eprintln!("op failed: {error}");
        Op {
            wall,
            ok: false,
            record: Record::default(),
        }
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// The name `--workload` selects it by.
    const NAME: &'static str;
    /// Ops in one round: one permutation of the population. Untraced
    /// loops end on a round boundary, so every run measures the same
    /// mix and the seed changes only its order and data.
    const ROUND: usize;
    /// Ops whose exact quantities form the determinism window: whole
    /// rounds plus one op, so the window moves a little with the seed.
    const WINDOW: usize;
    /// Span names whose time the ops' wall time should account for.
    const COVERED: &'static [&'static str];
    /// Span name of the time coverage is measured against.
    const COVERAGE_BASE: &'static str = "op";

    /// Build the programs, graphs and inputs and warm any sessions.
    ///
    /// # Errors
    ///
    /// Set-up failed; the run cannot start.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Run op `i` of the seeded sequence.
    ///
    /// # Errors
    ///
    /// The harness itself failed (a failing call under test is an
    /// [`Op`] with `ok == false`, not an error).
    fn op(&mut self, i: usize, mode: Mode<'_>) -> Result<Op, String>;
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed of the op sequence and inputs.
    pub seed: u64,
    /// Seconds each loop measures.
    pub seconds: f64,
    /// Whether to add the traced loop and report per-layer metrics.
    pub trace: bool,
}

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = [
    cold::PlanCold::NAME,
    serve::ServeTiming::NAME,
    replay::FunctionalReplay::NAME,
];

/// Everything a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable lines (metrics with units, notes).
    pub lines: Vec<String>,
    /// The self-describing context object.
    pub context: String,
    /// The final result line.
    pub result: ResultLine,
}

/// Run the workload `cfg` names.
///
/// # Errors
///
/// Unknown workload, a set-up failure, or a determinism mismatch.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        cold::PlanCold::NAME => run_workload::<cold::PlanCold>(cfg),
        serve::ServeTiming::NAME => run_workload::<serve::ServeTiming>(cfg),
        replay::FunctionalReplay::NAME => run_workload::<replay::FunctionalReplay>(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// What one loop measured.
struct LoopResult {
    /// Host seconds of each op, in order.
    walls: Vec<f64>,
    /// Whether each op succeeded and passed its check.
    oks: Vec<bool>,
    failed: u64,
    window: Record,
    /// Peak RSS when the first latency block completed: a fixed op
    /// count, so the figure does not grow with how many ops a run fits.
    first_block_rss: Option<f64>,
}

/// The latency metrics of an untraced loop.
struct Latency {
    p50: f64,
    p90: f64,
    ops_per_s: f64,
    blocks: usize,
    /// Blocks and ops the figures were computed over.
    pooled: (usize, usize),
}

impl LoopResult {
    /// p50, p90 and throughput over the ops of the loop's fastest
    /// blocks. Blocks are consecutive whole rounds with at least
    /// [`MIN_OPS`] ops (the remainder joins the last block), ranked by
    /// median latency; the fastest tenth of them, and at least two, are
    /// pooled. Best-of style: on a shared host a co-tenant can slow every
    /// op by half for tens of seconds, and that moves the result only
    /// when it covers nearly the whole run.
    fn latency<W: Workload>(&self) -> Result<Latency, String> {
        let blocks = stats::blocks(self.walls.len(), block_len::<W>());
        let mut ranked = Vec::with_capacity(blocks.len());
        for b in &blocks {
            ranked.push((
                stats::median(&self.walls[b.clone()]).ok_or("empty block")?,
                b.clone(),
            ));
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ((blocks.len() as f64 * FAST_BLOCKS).ceil() as usize)
            .max(2)
            .min(blocks.len());
        let (mut walls, mut ok_seconds, mut completed) = (Vec::new(), 0.0, 0u64);
        for (_, b) in &ranked[..keep] {
            for i in b.clone() {
                walls.push(self.walls[i]);
                if self.oks[i] {
                    ok_seconds += self.walls[i];
                    completed += 1;
                }
            }
        }
        Ok(Latency {
            p50: stats::median(&walls).ok_or("no ops ran")?,
            p90: stats::p90(&walls).ok_or_else(|| {
                format!(
                    "op_p90_ms needs {} samples beyond it; {} ops pooled",
                    stats::MIN_TAIL,
                    walls.len()
                )
            })?,
            ops_per_s: ratio(completed as f64, ok_seconds),
            blocks: blocks.len(),
            pooled: (keep, walls.len()),
        })
    }
}

/// Ops per latency block of `W`: whole rounds, at least [`MIN_OPS`].
fn block_len<W: Workload>() -> usize {
    MIN_OPS.div_ceil(W::ROUND) * W::ROUND
}

/// Run ops until at least `min_ops` ran and `seconds` passed; an
/// untraced loop also ends on a round boundary.
fn drive<W: Workload>(
    state: &mut W,
    seconds: f64,
    min_ops: usize,
    mut spans: Option<&mut Spans>,
    counted: bool,
) -> Result<LoopResult, String> {
    let started = Instant::now();
    let mut out = LoopResult {
        walls: Vec::new(),
        oks: Vec::new(),
        failed: 0,
        window: Record::default(),
        first_block_rss: None,
    };
    let traced = spans.is_some();
    let mut i = 0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let due = elapsed >= seconds.min(LOOP_LIMIT_S);
        if i >= min_ops && due && (traced || i % W::ROUND == 0) {
            break;
        }
        if i < min_ops && elapsed >= LOOP_LIMIT_S {
            return Err(format!(
                "{} completed {i} ops in {elapsed:.1} s, fewer than the {min_ops} it needs",
                W::NAME
            ));
        }
        let mode = match spans.as_deref_mut() {
            Some(s) => Mode::Traced(s),
            None if counted => Mode::Counted,
            None => Mode::Plain,
        };
        let op = state.op(i, mode)?;
        if let Some(s) = spans.as_deref_mut() {
            s.add("op", op.wall);
        }
        out.walls.push(op.wall.as_secs_f64());
        out.oks.push(op.ok);
        out.failed += u64::from(!op.ok);
        if i < W::WINDOW {
            out.window.merge(&op.record);
        }
        i += 1;
        if i == block_len::<W>() {
            out.first_block_rss = stats::peak_rss_mb();
        }
    }
    Ok(out)
}

fn value(name: &str, v: f64) -> Result<Value, String> {
    let def = metrics::lookup(name).ok_or_else(|| format!("undeclared metric {name}"))?;
    Ok(Value { def, value: v })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run_workload<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous state first so repeats do not stack memory.
        drop(state.take());
        let t = Instant::now();
        let s = W::setup(cfg.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    let mut state = state.expect("set-up ran at least once");
    let min_ops = block_len::<W>().max(W::WINDOW);
    // A traced run measures its traced loop; its untraced loop only
    // supplies the determinism window and the overhead baseline.
    let seconds = if cfg.trace { 0.0 } else { cfg.seconds };
    let plain = drive(&mut state, seconds, min_ops, None, cfg.trace)?;
    drop(state);

    let attempted = plain.walls.len() as u64;
    let failed_frac = plain.failed as f64 / attempted as f64;
    let mut lines = vec![format!(
        "{} seed {}: {} ops ({} failed), window of {} ops",
        W::NAME,
        cfg.seed,
        attempted,
        plain.failed,
        W::WINDOW
    )];
    let mut result = ResultLine {
        correct: plain.failed == 0,
        attempted,
        failed: plain.failed,
        metrics: Vec::new(),
    };
    let mut report = |name: &str, v: f64, lines: &mut Vec<String>| -> Result<(), String> {
        let m = value(name, v)?;
        lines.push(format!(
            "{:<34} {:>16.6} {:<7} {}",
            name, v, m.def.unit, m.def.doc
        ));
        result.metrics.push(m);
        Ok(())
    };

    let mut blocks = 0;
    if cfg.trace {
        let mut state = W::setup(cfg.seed)?;
        let mut spans = Spans::default();
        let traced = drive(&mut state, cfg.seconds, W::WINDOW, Some(&mut spans), false)?;
        if let Some(diff) = plain.window.first_difference(&traced.window) {
            return Err(format!(
                "determinism check failed: the traced and untraced windows differ at {diff}"
            ));
        }
        let traced_p50 = stats::median(&traced.walls).ok_or("no traced ops ran")?;
        let plain_p50 = stats::median(&plain.walls).ok_or("no ops ran")?;
        for (name, v) in layer_metrics::<W>(&traced, &spans, traced_p50 / plain_p50) {
            report(name, v, &mut lines)?;
        }
        result.correct &= traced.failed == 0;
        result.attempted += traced.walls.len() as u64;
        result.failed += traced.failed;
    } else {
        let latency = plain.latency::<W>()?;
        blocks = latency.blocks;
        let rss = plain
            .first_block_rss
            .ok_or("peak RSS unavailable (/proc/self/status)")?;
        report(
            "setup_s",
            stats::median(&setups).ok_or("no set-up ran")?,
            &mut lines,
        )?;
        report("op_p50_ms", latency.p50 * 1e3, &mut lines)?;
        report("op_p90_ms", latency.p90 * 1e3, &mut lines)?;
        report("ops_per_s", latency.ops_per_s, &mut lines)?;
        report("sim_tflops", plain.window.sim_tflops(), &mut lines)?;
        report("peak_rss_mb", rss, &mut lines)?;
        lines.push(format!("{:<34} {:>16.6} ratio", "failed_frac", failed_frac));
        lines.push(format!(
            "latencies over the {} ops of the fastest {} of {} blocks of {}+ ops \
             ({attempted} ops in all; at least {} lie beyond op_p90_ms)",
            latency.pooled.1,
            latency.pooled.0,
            latency.blocks,
            block_len::<W>(),
            stats::MIN_TAIL
        ));
    }

    let machine = cypress_sim::MachineConfig::h100_sxm5();
    let context = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"seconds\": {:?}, \
         \"nproc\": {}, \"session_parallelism\": {}, \"build_profile\": \"{}\", \"machine\": \"{}\", \
         \"commit\": \"{}\", \"ops\": {}, \"blocks\": {}, \"failed_frac\": {:?}, \"window_ops\": {}, \
         \"window_digest\": \"{:016x}\"}}}}",
        W::NAME,
        cfg.seed,
        cfg.trace,
        cfg.seconds,
        cypress_sim::par::available(),
        cypress_runtime::Session::new(machine.clone()).parallelism(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        metrics::json_escape(machine.name),
        metrics::json_escape(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        attempted,
        blocks,
        failed_frac,
        W::WINDOW,
        plain.window.digest(),
    );
    Ok(Outcome {
        lines,
        context,
        result,
    })
}

/// The per-layer metrics of a traced loop, in declaration order.
fn layer_metrics<W: Workload>(
    traced: &LoopResult,
    spans: &Spans,
    overhead: f64,
) -> Vec<(&'static str, f64)> {
    let w = &traced.window;
    let ops = traced.walls.len() as f64;
    let per_op_ms = |name: &str| spans.seconds(name) / ops * 1e3;
    let count = |name: &'static str| (name, w.get(name) as f64);
    let covered: f64 = W::COVERED.iter().map(|n| spans.seconds(n)).sum();
    let mut out = vec![
        count("core.fingerprint.calls"),
        (
            "core.fingerprint.us",
            spans.per_call("core.fingerprint") * 1e6,
        ),
    ];
    for (_, metric) in pipeline::PASSES {
        out.push((metric, per_op_ms(metric)));
    }
    out.extend([
        count("core.copyelim.removed_copies"),
        count("core.copyelim.rounds"),
        count("core.codegen.cuda_bytes"),
        count("sim.bytecode.instructions"),
        count("runtime.cache.lookups"),
        count("runtime.cache.hits"),
        count("runtime.cache.misses"),
        (
            "runtime.cache.hit_ratio",
            ratio(
                w.get("runtime.cache.hits") as f64,
                w.get("runtime.cache.lookups") as f64,
            ),
        ),
        (
            "runtime.cache.hit_us",
            spans.per_call("runtime.cache.hit") * 1e6,
        ),
        count("runtime.fuse.applied"),
        count("runtime.fuse.declined"),
        (
            "runtime.fuse.accept_ratio",
            ratio(
                w.get("runtime.fuse.applied") as f64,
                (w.get("runtime.fuse.applied") + w.get("runtime.fuse.declined")) as f64,
            ),
        ),
        ("runtime.fuse.gate_ms", per_op_ms("runtime.fuse.gate")),
        count("runtime.tuner.sweeps"),
        count("runtime.tuner.ranked"),
        count("runtime.tuner.pruned"),
        count("runtime.tuner.candidates_timed"),
        count("runtime.tuner.hits"),
        ("runtime.tuner.sweep_ms", per_op_ms("runtime.tuner.sweep")),
        count("runtime.shard.comm_launches"),
        count("runtime.shard.link_bytes"),
        ("runtime.plan.warm_ms", per_op_ms("runtime.plan.warm")),
        ("runtime.exec.timing_ms", per_op_ms("runtime.exec.timing")),
        ("sim.engine.kernel_us", spans.per_call("sim.engine") * 1e6),
        count("sim.engine.events"),
        (
            "sim.engine.ns_per_event",
            ratio(
                spans.seconds("sim.engine") * 1e9,
                spans.calls("sim.engine.probe_events") as f64,
            ),
        ),
        ("sim.engine.tc_util", w.fraction("sim.engine.tc_util")),
        ("sim.engine.tma_util", w.fraction("sim.engine.tma_util")),
        ("sim.engine.simt_util", w.fraction("sim.engine.simt_util")),
        ("sim.engine.l2_hit", w.fraction("sim.engine.l2_hit")),
        ("sim.apply.kernel_ms", spans.per_call("sim.apply") * 1e3),
        (
            "sim.apply.macs_per_s",
            ratio(
                spans.calls("sim.apply.macs") as f64,
                spans.seconds("sim.apply"),
            ),
        ),
        count("sim.apply.bytes_f16"),
        count("sim.apply.bytes_f32"),
        (
            "runtime.executor.launch_ms",
            per_op_ms("runtime.executor.launch"),
        ),
        (
            "runtime.executor.parallel_speedup",
            ratio(
                spans.seconds("sim.apply"),
                spans.seconds("runtime.executor.launch"),
            ),
        ),
        count("runtime.pool.acquired"),
        count("runtime.pool.reused"),
        (
            "runtime.pool.reuse_ratio",
            ratio(
                w.get("runtime.pool.reused") as f64,
                w.get("runtime.pool.acquired") as f64,
            ),
        ),
        count("runtime.pool.evicted"),
        (
            "trace.coverage",
            ratio(covered, spans.seconds(W::COVERAGE_BASE)),
        ),
        ("trace.overhead", overhead),
    ]);
    out
}
