//! What a run measures: exact per-op quantities summed over the
//! determinism window ([`Record`]) and host-time layer spans ([`Spans`]).

use cypress_runtime::{GraphReport, MetricsSnapshot};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Exact quantities of the ops in the determinism window: simulated
/// work, every count-type layer metric, and cycle-weighted unit
/// fractions. Two runs of the same seed must produce equal records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// Algorithmic FLOPs of the planned or launched graphs.
    pub flops: f64,
    /// Simulated makespan of those graphs, in seconds.
    pub sim_seconds: f64,
    /// Count-type layer metrics, by metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Solo cycles of the launched compute kernels.
    pub cycles: f64,
    /// `Σ fraction × cycles` for each unit fraction metric, by name.
    pub weighted: BTreeMap<&'static str, f64>,
}

impl Record {
    /// Add `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// The count `name` (0 when never counted).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Fold the session-counter growth from `before` to `after`.
    pub fn add_session(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        let (b, a) = (before, after);
        let hits = a.cache.hits - b.cache.hits;
        let misses = a.cache.misses - b.cache.misses;
        self.count("runtime.cache.lookups", hits + misses);
        self.count("runtime.cache.hits", hits);
        self.count("runtime.cache.misses", misses);
        self.count("runtime.fuse.applied", a.fusion_applied - b.fusion_applied);
        self.count(
            "runtime.fuse.declined",
            a.fusion_declined - b.fusion_declined,
        );
        self.count("runtime.tuner.sweeps", a.tuner.sweeps - b.tuner.sweeps);
        self.count("runtime.tuner.ranked", a.tuner.ranked - b.tuner.ranked);
        self.count("runtime.tuner.pruned", a.tuner.pruned - b.tuner.pruned);
        self.count(
            "runtime.tuner.candidates_timed",
            a.tuner.candidates_timed - b.tuner.candidates_timed,
        );
        self.count("runtime.tuner.hits", a.tuner.hits - b.tuner.hits);
        self.count(
            "runtime.shard.comm_launches",
            a.comm_launches - b.comm_launches,
        );
        self.count("runtime.shard.link_bytes", a.link_bytes - b.link_bytes);
        self.count("runtime.pool.acquired", a.pool.acquired - b.pool.acquired);
        self.count("runtime.pool.reused", a.pool.reused - b.pool.reused);
        self.count("runtime.pool.evicted", a.pool.evicted - b.pool.evicted);
        self.count("sim.apply.bytes_f16", a.apply_bytes.f16 - b.apply_bytes.f16);
        self.count("sim.apply.bytes_f32", a.apply_bytes.f32 - b.apply_bytes.f32);
    }

    /// Fold one graph report whose graph does `flops` algorithmic FLOPs.
    pub fn add_report(&mut self, report: &GraphReport, flops: f64) {
        self.flops += flops;
        self.sim_seconds += report.seconds;
        self.count("sim.engine.events", report.events());
        // Transfer nodes are priced from their links, not simulated:
        // they carry no unit activity to weigh.
        for n in report.nodes.iter().filter(|n| !n.node.starts_with("xfer:")) {
            let r = &n.report;
            self.cycles += r.cycles;
            for (name, fraction) in [
                ("sim.engine.tc_util", r.tc_utilization),
                ("sim.engine.tma_util", r.tma_utilization),
                ("sim.engine.simt_util", r.simt_utilization),
                ("sim.engine.l2_hit", r.l2_hit),
            ] {
                *self.weighted.entry(name).or_insert(0.0) += fraction * r.cycles;
            }
        }
    }

    /// Fold the compile statistics of one kernel.
    pub fn add_compile(
        &mut self,
        removed: usize,
        rounds: usize,
        cuda_bytes: usize,
        instructions: usize,
    ) {
        self.count("core.copyelim.removed_copies", removed as u64);
        self.count("core.copyelim.rounds", rounds as u64);
        self.count("core.codegen.cuda_bytes", cuda_bytes as u64);
        self.count("sim.bytecode.instructions", instructions as u64);
    }

    /// Fold another record into this one.
    pub fn merge(&mut self, other: &Record) {
        self.flops += other.flops;
        self.sim_seconds += other.sim_seconds;
        for (k, v) in &other.counts {
            self.count(k, *v);
        }
        self.cycles += other.cycles;
        for (k, v) in &other.weighted {
            *self.weighted.entry(k).or_insert(0.0) += v;
        }
    }

    /// Simulated TFLOP/s of the window.
    #[must_use]
    pub fn sim_tflops(&self) -> f64 {
        self.flops / self.sim_seconds / 1e12
    }

    /// Cycle-weighted mean of the unit fraction `name`.
    #[must_use]
    pub fn fraction(&self, name: &str) -> f64 {
        if self.cycles > 0.0 {
            self.weighted.get(name).copied().unwrap_or(0.0) / self.cycles
        } else {
            0.0
        }
    }

    /// The first quantity on which `self` and `other` differ, rendered.
    #[must_use]
    pub fn first_difference(&self, other: &Record) -> Option<String> {
        let f = |name: &str, a: f64, b: f64| {
            (a.to_bits() != b.to_bits()).then(|| format!("{name}: {a:?} vs {b:?}"))
        };
        f("flops", self.flops, other.flops)
            .or_else(|| f("sim_seconds", self.sim_seconds, other.sim_seconds))
            .or_else(|| f("cycles", self.cycles, other.cycles))
            .or_else(|| {
                let keys = self.counts.keys().chain(other.counts.keys());
                keys.map(|k| (k, self.get(k), other.get(k)))
                    .find(|(_, a, b)| a != b)
                    .map(|(k, a, b)| format!("{k}: {a} vs {b}"))
            })
            .or_else(|| {
                let keys = self.weighted.keys().chain(other.weighted.keys());
                keys.filter_map(|k| {
                    let a = self.weighted.get(k).copied().unwrap_or(0.0);
                    let b = other.weighted.get(k).copied().unwrap_or(0.0);
                    f(k, a, b)
                })
                .next()
            })
    }

    /// FNV-1a digest of the record, so runs of one seed can be compared
    /// from their printed context alone.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            self.flops.to_bits(),
            self.sim_seconds.to_bits(),
            self.counts,
            self.cycles.to_bits(),
            self.weighted
                .iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect::<Vec<_>>()
        );
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Host time spent in each layer probe of a traced run, with call and
/// work counts.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    seconds: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Add one call of `name` lasting `d`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        self.add_seconds(name, d.as_secs_f64());
        *self.calls.entry(name).or_insert(0) += 1;
    }

    /// Add `s` seconds (possibly negative, for a measured difference) to
    /// `name` without counting a call.
    pub fn add_seconds(&mut self, name: &'static str, s: f64) {
        *self.seconds.entry(name).or_insert(0.0) += s;
    }

    /// Add `n` units of work to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.calls.entry(name).or_insert(0) += n;
    }

    /// Time `f` as one call of `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }

    /// Total seconds of `name`.
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    /// Calls (or work units) of `name`.
    #[must_use]
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Mean seconds per call of `name` (0 without calls).
    #[must_use]
    pub fn per_call(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.seconds(name) / n as f64,
        }
    }
}
