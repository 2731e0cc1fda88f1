//! The task graphs the workloads run, their FLOP counts and inputs.

use cypress_core::kernels::{attention, batched, dual_gemm, gemm, gemm_reduction, reduction};
use cypress_core::{MappingSpace, Shape};
use cypress_runtime::{Binding, Program, TaskGraph};
use cypress_sim::MachineConfig;
use cypress_tensor::Tensor;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Problem sizes `plan_cold` draws from.
pub const SIZES: [usize; 3] = [256, 512, 1024];
/// Attention head dimension (head dim 256 exceeds H100 shared memory
/// under FA2).
pub const HEAD_DIM: usize = 128;
/// The transformer layer's MLP width: the dual-GEMM tile needs
/// `N % 256 == 0`.
pub const LAYER_WIDTH: usize = 256;
/// Batch count of the batched-GEMM family.
pub const BATCH: usize = 2;
/// Width of `plan_cold`'s GEMM fan-out.
pub const COLD_FAN_OUT: usize = 4;

/// The graph families `plan_cold` compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// One GEMM.
    Gemm,
    /// One batched GEMM.
    BatchedGemm,
    /// One dual GEMM (Fig. 13c).
    DualGemm,
    /// One GEMM+reduction (Fig. 13d).
    GemmReduction,
    /// One row reduction.
    RowReduction,
    /// One FlashAttention-2 kernel.
    Fa2,
    /// One FlashAttention-3 kernel.
    Fa3,
    /// GEMM→GEMM chain, a fusion candidate.
    ChainedGemm,
    /// GEMM beside a row reduction of its input, a fusion candidate.
    GemmReductionPair,
    /// Attention → dual GEMM → GEMM+reduction.
    TransformerLayer,
    /// Independent GEMMs.
    GemmFanOut,
}

/// Every family, in a fixed order.
pub const FAMILIES: [Family; 11] = [
    Family::Gemm,
    Family::BatchedGemm,
    Family::DualGemm,
    Family::GemmReduction,
    Family::RowReduction,
    Family::Fa2,
    Family::Fa3,
    Family::ChainedGemm,
    Family::GemmReductionPair,
    Family::TransformerLayer,
    Family::GemmFanOut,
];

/// A paper kernel program at the space's default mapping, carrying its
/// mapping space only when `spaced` (the two are the same program).
///
/// # Errors
///
/// The default mapping does not fit `machine` at `shape`.
pub fn program(
    space: Arc<dyn MappingSpace>,
    dims: &[usize],
    spaced: bool,
    machine: &MachineConfig,
) -> Result<Program, String> {
    let mut p = Program::from_space(space, Shape::of(dims), machine).map_err(|e| e.to_string())?;
    if !spaced {
        p.space = None;
    }
    Ok(p)
}

/// A one-node graph: outputs start zeroed, inputs are external tensors
/// named after the kernel's parameters.
///
/// # Errors
///
/// The node does not insert.
pub fn single(name: &str, program: Program) -> Result<TaskGraph, String> {
    let outputs = program.output_indices();
    let bindings = program
        .args
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if outputs.contains(&i) {
                Binding::Zeros
            } else {
                Binding::external(&a.name)
            }
        })
        .collect();
    let mut graph = TaskGraph::new();
    graph
        .add_node(name, program, bindings)
        .map_err(|e| e.to_string())?;
    Ok(graph)
}

/// `graph` with every GEMM and row-reduction node carrying its mapping
/// space (the programs themselves are unchanged).
///
/// # Errors
///
/// A node runs a kernel other than `gemm` or `reduce`.
pub fn with_spaces(graph: &TaskGraph) -> Result<TaskGraph, String> {
    let mut out = TaskGraph::new();
    for node in graph.nodes() {
        let p = &node.program;
        let (space, dims): (Arc<dyn MappingSpace>, Vec<usize>) = match p.entry.as_str() {
            "gemm" => (
                Arc::new(gemm::GemmSpace),
                vec![p.args[0].rows, p.args[0].cols, p.args[1].cols],
            ),
            "reduce" => (
                Arc::new(reduction::ReductionSpace),
                vec![p.args[1].rows, p.args[1].cols],
            ),
            other => return Err(format!("no mapping space known for kernel `{other}`")),
        };
        let program = p.clone().with_space(space, Shape::of(&dims));
        out.add_node(&node.name, program, node.bindings.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// Attention (sequence `seq`, one head) → dual GEMM (the GLU
/// up-projection) → GEMM+reduction (down-projection with a row
/// statistic).
///
/// # Errors
///
/// A kernel does not fit `machine` at these shapes.
pub fn transformer_layer(
    seq: usize,
    spaced: bool,
    machine: &MachineConfig,
) -> Result<TaskGraph, String> {
    let attn = program(
        Arc::new(attention::AttentionSpace {
            algorithm: attention::Algorithm::Fa2,
        }),
        &[1, seq, HEAD_DIM],
        spaced,
        machine,
    )?;
    let glu = program(
        Arc::new(dual_gemm::DualGemmSpace),
        &[seq, LAYER_WIDTH, HEAD_DIM],
        spaced,
        machine,
    )?;
    let proj = program(
        Arc::new(gemm_reduction::GemmReductionSpace),
        &[seq, LAYER_WIDTH, LAYER_WIDTH],
        spaced,
        machine,
    )?;
    let mut graph = TaskGraph::new();
    let e = |r: Result<_, cypress_runtime::RuntimeError>| r.map_err(|e| e.to_string());
    let n_attn = e(graph.add_node(
        "attention",
        attn,
        vec![
            Binding::Zeros,
            Binding::external("Q"),
            Binding::external("K"),
            Binding::external("V"),
        ],
    ))?;
    let n_glu = e(graph.add_node(
        "glu",
        glu,
        vec![
            Binding::Zeros,
            Binding::output(n_attn, 0),
            Binding::external("W1"),
            Binding::external("W2"),
        ],
    ))?;
    e(graph.add_node(
        "proj",
        proj,
        vec![
            Binding::Zeros,
            Binding::Zeros,
            Binding::output(n_glu, 0),
            Binding::external("W3"),
        ],
    ))?;
    Ok(graph)
}

/// The `plan_cold` graph of `family` at `size`.
///
/// # Errors
///
/// A kernel does not fit `machine` at this size.
pub fn family_graph(
    family: Family,
    size: usize,
    spaced: bool,
    machine: &MachineConfig,
) -> Result<TaskGraph, String> {
    let s = size;
    let spaced_if = |g: TaskGraph| if spaced { with_spaces(&g) } else { Ok(g) };
    match family {
        Family::Gemm => single(
            "gemm",
            program(Arc::new(gemm::GemmSpace), &[s, s, s], spaced, machine)?,
        ),
        Family::BatchedGemm => single(
            "bgemm",
            program(
                Arc::new(batched::BatchedGemmSpace),
                &[BATCH, s, s, s],
                spaced,
                machine,
            )?,
        ),
        Family::DualGemm => single(
            "dual",
            program(
                Arc::new(dual_gemm::DualGemmSpace),
                &[s, s, s],
                spaced,
                machine,
            )?,
        ),
        Family::GemmReduction => single(
            "gr",
            program(
                Arc::new(gemm_reduction::GemmReductionSpace),
                &[s, s, s],
                spaced,
                machine,
            )?,
        ),
        Family::RowReduction => single(
            "reduce",
            program(
                Arc::new(reduction::ReductionSpace),
                &[s, s],
                spaced,
                machine,
            )?,
        ),
        Family::Fa2 | Family::Fa3 => {
            let algorithm = if family == Family::Fa2 {
                attention::Algorithm::Fa2
            } else {
                attention::Algorithm::Fa3
            };
            single(
                "attention",
                program(
                    Arc::new(attention::AttentionSpace { algorithm }),
                    &[1, s, HEAD_DIM],
                    spaced,
                    machine,
                )?,
            )
        }
        Family::ChainedGemm => spaced_if(cypress_bench::chained_gemm_graph(s, machine)),
        Family::GemmReductionPair => {
            spaced_if(cypress_bench::gemm_reduction_pair_graph(s, machine))
        }
        Family::TransformerLayer => transformer_layer(s, spaced, machine),
        Family::GemmFanOut => spaced_if(cypress_bench::overlap_graph(COLD_FAN_OUT, s, machine)),
    }
}

/// Algorithmic FLOPs of one program, from its kernel and parameter
/// shapes (attention programs here have one head).
///
/// # Errors
///
/// A kernel this benchmark does not build.
pub fn program_flops(p: &Program) -> Result<f64, String> {
    let a = &p.args;
    Ok(match p.entry.as_str() {
        "gemm" => gemm::flops(a[0].rows, a[0].cols, a[1].cols),
        "bgemm" => {
            let (k, n) = (a[1].cols, a[0].cols);
            let l = a[2].rows / k;
            batched::flops(l, a[0].rows / l, n, k)
        }
        "dual" => dual_gemm::flops(a[0].rows, a[0].cols, a[1].cols),
        "gr" => gemm_reduction::flops(a[0].rows, a[0].cols, a[2].cols),
        "reduce" => reduction::flops(a[1].rows, a[1].cols),
        "fa" => attention::flops(1, a[0].rows, a[0].cols),
        other => return Err(format!("no FLOP count for kernel `{other}`")),
    })
}

/// Algorithmic FLOPs of every node of `graph`.
///
/// # Errors
///
/// See [`program_flops`].
pub fn graph_flops(graph: &TaskGraph) -> Result<f64, String> {
    graph
        .nodes()
        .iter()
        .map(|n| program_flops(&n.program))
        .sum()
}

/// Uniform random inputs for every external tensor `graph` reads.
pub fn inputs(graph: &TaskGraph, rng: &mut impl Rng) -> HashMap<String, Tensor> {
    let mut out = HashMap::new();
    for node in graph.nodes() {
        for (b, arg) in node.bindings.iter().zip(&node.program.args) {
            if let Binding::External(name) = b {
                out.entry(name.clone()).or_insert_with(|| {
                    Tensor::random(arg.dtype, &[arg.rows, arg.cols], rng, -1.0, 1.0)
                });
            }
        }
    }
    out
}

/// The most nodes of `graph` that can run at once: the widest level of
/// its dependency DAG.
#[must_use]
pub fn width(graph: &TaskGraph) -> usize {
    let mut level = vec![0usize; graph.len()];
    for node in graph.schedule() {
        let i = node.index();
        level[i] = graph
            .dependencies(node)
            .iter()
            .map(|d| level[d.index()] + 1)
            .max()
            .unwrap_or(0);
    }
    let mut counts = HashMap::new();
    for l in level {
        *counts.entry(l).or_insert(0usize) += 1;
    }
    counts.into_values().max().unwrap_or(1)
}

/// A zeroed tensor shaped like parameter `param` of `p`.
#[must_use]
pub fn zeros_for(p: &Program, param: usize) -> Tensor {
    let a = &p.args[param];
    Tensor::zeros(a.dtype, &[a.rows, a.cols])
}
