//! The Fig. 6 pass pipeline as the benchmark sees it: the compiler's
//! own per-pass host times (`Compiled::pass_nanos`) mapped onto the
//! per-layer metrics, and the fingerprint the kernel cache keys on.

use cypress_core::{Compiled, CompilerOptions};
use cypress_runtime::Program;

/// Pass names in pipeline order, as `Compiled::pass_nanos` reports them,
/// with the per-layer metric each feeds.
pub const PASSES: [(&str, &str); 7] = [
    ("depan", "core.passes.depan.ms"),
    ("vectorize", "core.passes.vectorize.ms"),
    ("copyelim", "core.passes.copyelim.ms"),
    ("alloc", "core.passes.alloc.ms"),
    ("warpspec", "core.passes.warpspec.ms"),
    ("codegen", "core.codegen.ms"),
    ("lower", "sim.bytecode.lower_ms"),
];

/// `cypress_core::fingerprint` of `program` under `opts`: the key the
/// session's kernel cache looks programs up by.
#[must_use]
pub fn fingerprint(program: &Program, opts: &CompilerOptions) -> u64 {
    cypress_core::fingerprint(
        &program.registry,
        &program.mapping,
        &program.entry,
        &program.args,
        &opts.machine,
        opts.spill_first,
    )
}

/// The per-layer metric and host seconds of each pass `compiled` timed.
///
/// # Errors
///
/// The compiler reported a pass [`PASSES`] does not name, or left one
/// out.
pub fn pass_seconds(compiled: &Compiled) -> Result<Vec<(&'static str, f64)>, String> {
    let names: Vec<&str> = compiled
        .pass_nanos
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let expected: Vec<&str> = PASSES.iter().map(|(n, _)| *n).collect();
    if names != expected {
        return Err(format!(
            "compiler pass timings {names:?} differ from the expected {expected:?}"
        ));
    }
    Ok(PASSES
        .iter()
        .zip(&compiled.pass_nanos)
        .map(|((_, metric), (_, nanos))| (*metric, *nanos as f64 * 1e-9))
        .collect())
}
