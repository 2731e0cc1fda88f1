//! Output checks against the independent host oracle
//! (`cypress_tensor::tensor::reference`).

use cypress_runtime::{Binding, GraphRun, TaskGraph};
use cypress_tensor::tensor::reference;
use cypress_tensor::{DType, Tensor};
use std::collections::HashMap;

/// Largest relative error a checked output may have (the bound
/// `examples/transformer_layer.rs` uses).
pub const MAX_RELATIVE_ERROR: f32 = 3e-2;

/// Host-oracle outputs of a graph's nodes, keyed by `(node, param)`.
pub type Outputs = HashMap<(usize, usize), Tensor>;

fn terr(e: cypress_tensor::TensorError) -> String {
    e.to_string()
}

/// Compute the outputs of node `node` (and, memoized in `memo`, of
/// every node it depends on) on the host.
///
/// # Errors
///
/// A kernel the oracle does not model, or a missing input.
pub fn evaluate(
    graph: &TaskGraph,
    inputs: &HashMap<String, Tensor>,
    node: usize,
    memo: &mut Outputs,
) -> Result<(), String> {
    let n = &graph.nodes()[node];
    if n.program
        .output_indices()
        .iter()
        .all(|&p| memo.contains_key(&(node, p)))
    {
        return Ok(());
    }
    let mut params = Vec::with_capacity(n.bindings.len());
    for (i, b) in n.bindings.iter().enumerate() {
        params.push(match b {
            Binding::External(name) => inputs
                .get(name)
                .cloned()
                .ok_or_else(|| format!("missing input `{name}`"))?,
            Binding::Output { node: src, param } => {
                evaluate(graph, inputs, src.index(), memo)?;
                memo[&(src.index(), *param)].clone()
            }
            Binding::Zeros => crate::graphs::zeros_for(&n.program, i),
        });
    }
    let p = &params;
    let outs: Vec<(usize, Tensor)> = match n.program.entry.as_str() {
        "gemm" => vec![(
            0,
            reference::matmul(&p[1], &p[2], DType::F16).map_err(terr)?,
        )],
        "bgemm" => vec![(0, batched_matmul(&p[1], &p[2])?)],
        "dual" => {
            let g1 = reference::matmul(&p[1], &p[2], DType::F32).map_err(terr)?;
            let g2 = reference::matmul(&p[1], &p[3], DType::F32).map_err(terr)?;
            let data = g1
                .data()
                .iter()
                .zip(g2.data())
                .map(|(a, b)| DType::F16.quantize(a + b))
                .collect();
            vec![(
                0,
                Tensor::from_data(DType::F16, g1.shape(), data).map_err(terr)?,
            )]
        }
        "gr" => vec![
            (
                0,
                reference::matmul(&p[2], &p[3], DType::F16).map_err(terr)?,
            ),
            (1, reference::row_sum(&p[2], DType::F32).map_err(terr)?),
        ],
        "reduce" => vec![(0, reference::row_sum(&p[1], DType::F32).map_err(terr)?)],
        "fa" => vec![(
            0,
            reference::attention(&p[1], &p[2], &p[3], DType::F16).map_err(terr)?,
        )],
        other => return Err(format!("the host oracle has no model of kernel `{other}`")),
    };
    for (param, t) in outs {
        memo.insert((node, param), t);
    }
    Ok(())
}

/// `C[l] = A[l] · B[l]` over the batch stacked along the rows.
fn batched_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, String> {
    let (k, n) = (a.shape()[1], b.shape()[1]);
    let batch = b.shape()[0] / k;
    let m = a.shape()[0] / batch;
    let mut data = Vec::with_capacity(batch * m * n);
    for l in 0..batch {
        let al = Tensor::from_data(
            DType::F16,
            &[m, k],
            a.data()[l * m * k..(l + 1) * m * k].to_vec(),
        )
        .map_err(terr)?;
        let bl = Tensor::from_data(
            DType::F16,
            &[k, n],
            b.data()[l * k * n..(l + 1) * k * n].to_vec(),
        )
        .map_err(terr)?;
        data.extend_from_slice(
            reference::matmul(&al, &bl, DType::F16)
                .map_err(terr)?
                .data(),
        );
    }
    Tensor::from_data(DType::F16, &[batch * m, n], data).map_err(terr)
}

/// Row sums of `t` when it holds per-block partial sums of a `[m, 1]`
/// reduction (the GEMM+reduction kernel's `Y`); `t` itself otherwise.
fn collapse_partials(t: &Tensor, want: &Tensor) -> Result<Tensor, String> {
    if t.shape() == want.shape() || want.shape()[1] != 1 || t.shape()[0] != want.shape()[0] {
        return Ok(t.clone());
    }
    let cols = t.shape()[1];
    let data = t.data().chunks(cols).map(|row| row.iter().sum()).collect();
    Tensor::from_data(DType::F32, want.shape(), data).map_err(terr)
}

/// Check every sink output of the nodes in `check` against the oracle.
/// Returns the largest relative error seen, or a description of the
/// first output that is missing or off by more than
/// [`MAX_RELATIVE_ERROR`].
///
/// # Errors
///
/// The oracle cannot evaluate the graph.
pub fn check(
    graph: &TaskGraph,
    inputs: &HashMap<String, Tensor>,
    run: &GraphRun,
    check: &[usize],
    memo: &mut Outputs,
) -> Result<Result<f32, String>, String> {
    let consumers = graph.consumer_counts();
    let mut worst = 0.0f32;
    for &node in check {
        evaluate(graph, inputs, node, memo)?;
        let n = &graph.nodes()[node];
        for param in n.program.output_indices() {
            if consumers[node][param] > 0 && !n.retain {
                continue;
            }
            let want = &memo[&(node, param)];
            let Some(got) = run.tensor_of(&n.name, param) else {
                return Ok(Err(format!("{}[{param}] missing from the run", n.name)));
            };
            let got = collapse_partials(got, want)?;
            let err = got.relative_error(want).map_err(terr)?;
            if err.is_nan() || err >= MAX_RELATIVE_ERROR {
                return Ok(Err(format!(
                    "{}[{param}] relative error {err} exceeds {MAX_RELATIVE_ERROR}",
                    n.name
                )));
            }
            worst = worst.max(err);
        }
    }
    Ok(Ok(worst))
}

/// Indices of the nodes with at least one unconsumed output.
#[must_use]
pub fn sinks(graph: &TaskGraph) -> Vec<usize> {
    graph
        .consumer_counts()
        .iter()
        .enumerate()
        .filter(|(i, counts)| {
            graph.nodes()[*i]
                .program
                .output_indices()
                .iter()
                .any(|&p| counts[p] == 0)
        })
        .map(|(i, _)| i)
        .collect()
}
