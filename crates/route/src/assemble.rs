//! The one route-and-assemble core: a logical [`Circuit`] in, a
//! physical-site [`Circuit`] plus the router's final placement out.
//!
//! Every compile entry point of the workspace (`ashn::Compiler`, the
//! `ashn-qv` experiment, `ashn_service::CompileService`) runs this one
//! function and differs only in the two-qubit fragments it supplies.

use crate::grid::Grid;
use crate::router::{RouteOp, Router};
use ashn_ir::{Circuit, Instruction, IrError, SynthError};
use std::fmt;

/// A routed circuit.
#[derive(Clone, Debug)]
pub struct Routed {
    /// Circuit over the physical grid sites.
    pub circuit: Circuit,
    /// `positions[l]` = physical site holding logical qubit `l` at the end.
    pub positions: Vec<usize>,
}

/// Why a circuit could not be routed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The grid has fewer sites than the circuit has qubits.
    GridTooSmall {
        /// Sites on the grid.
        sites: usize,
        /// Qubits in the circuit's register.
        qubits: usize,
    },
    /// Instruction `index` names a wire outside the register or the same
    /// wire twice.
    BadWires {
        /// Position of the instruction in the circuit.
        index: usize,
        /// The wires it names.
        wires: Vec<usize>,
        /// Register size.
        n: usize,
    },
    /// Instruction `index` acts on three or more qubits; the router places
    /// 1q and 2q instructions only.
    TooWide {
        /// Position of the instruction in the circuit.
        index: usize,
        /// Its label.
        label: String,
        /// Number of qubits it acts on.
        qubits: usize,
    },
    /// Embedding a fragment at its physical sites failed.
    Ir(IrError),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::GridTooSmall { sites, qubits } => {
                write!(f, "grid has {sites} sites but the circuit needs {qubits}")
            }
            RouteError::BadWires { index, wires, n } => {
                write!(f, "instruction {index} has bad wires {wires:?} on {n} qubits")
            }
            RouteError::TooWide {
                index,
                label,
                qubits,
            } => write!(
                f,
                "instruction {index} ({label:?}) acts on {qubits} qubits; routing places 1q/2q instructions only"
            ),
            RouteError::Ir(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

/// Callers whose fragments come from a [`ashn_ir::Basis`] report routing
/// failures through the same error: assembly errors stay structural, and a
/// circuit the router cannot place is an invalid synthesis target.
impl From<RouteError> for SynthError {
    fn from(e: RouteError) -> Self {
        match e {
            RouteError::Ir(ir) => SynthError::Ir(ir),
            other => SynthError::InvalidTarget {
                basis: "router".into(),
                detail: other.to_string(),
            },
        }
    }
}

/// Routes `circuit` on `grid` and assembles it on the physical register.
///
/// Instructions are taken in order from the identity placement:
///
/// * scalar (0-qubit) instructions fold into the global phase;
/// * 1q instructions move to their wire's current site;
/// * each 2q instruction is routed with the greedy [`Router`]: the SWAPs
///   that bring its wires together are emitted as `swap` (a circuit on
///   qubits `{0, 1}`) embedded at their sites, then `gate(i, inst)` — the
///   fragment for the `i`-th two-qubit instruction `inst`, also on
///   `{0, 1}` — is embedded at the pair's sites.
///
/// One `route` span and the `route.pairs`/`route.swaps` counters are
/// recorded per routed circuit.
///
/// # Errors
///
/// [`RouteError::GridTooSmall`], [`RouteError::BadWires`],
/// [`RouteError::TooWide`] and [`RouteError::Ir`] converted into `E`, and
/// whatever `gate` returns.
pub fn route_circuit<E: From<RouteError>>(
    circuit: &Circuit,
    grid: Grid,
    swap: &Circuit,
    mut gate: impl FnMut(usize, &Instruction) -> Result<Circuit, E>,
) -> Result<Routed, E> {
    let n = circuit.n_qubits();
    let sites = grid.len();
    if sites < n {
        return Err(RouteError::GridTooSmall { sites, qubits: n }.into());
    }
    let telemetry = ashn_telemetry::current();
    let _span = telemetry.span("route");
    let mut router = Router::new(grid, n);
    let mut out = Circuit::new(sites);
    out.phase = circuit.phase;
    let mut ops = Vec::new();
    let mut pairs = 0usize;
    let mut swaps = 0u64;
    for (index, inst) in circuit.instructions.iter().enumerate() {
        match *inst.qubits.as_slice() {
            [] => out.phase *= inst.matrix[(0, 0)],
            [q] if q < n => {
                let mut moved = inst.clone();
                moved.qubits = vec![router.position(q)];
                out.try_push(moved).map_err(RouteError::Ir)?;
            }
            [a, b] if a != b && a < n && b < n => {
                ops.clear();
                router.route_pair(pairs, a, b, &mut ops);
                for op in &ops {
                    let embedded = match *op {
                        RouteOp::Swap(x, y) => {
                            swaps += 1;
                            swap.embed(sites, &[x, y])
                        }
                        RouteOp::Gate { index, a, b } => gate(index, inst)?.embed(sites, &[a, b]),
                    };
                    out.append(embedded.map_err(RouteError::Ir)?)
                        .map_err(RouteError::Ir)?;
                }
                pairs += 1;
            }
            [_] | [_, _] => {
                let wires = inst.qubits.clone();
                return Err(RouteError::BadWires { index, wires, n }.into());
            }
            _ => {
                let label = inst.label.clone();
                let qubits = inst.qubits.len();
                return Err(RouteError::TooWide {
                    index,
                    label,
                    qubits,
                }
                .into());
            }
        }
    }
    telemetry.add("route.pairs", pairs as u64);
    telemetry.add("route.swaps", swaps);
    let positions = (0..n).map(|l| router.position(l)).collect();
    Ok(Routed {
        circuit: out,
        positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::CMat;

    fn x() -> CMat {
        CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    fn swap_fragment() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], swap_matrix(), "SWAP").with_duration(1.0));
        c
    }

    fn swap_matrix() -> CMat {
        CMat::from_rows_f64(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ])
    }

    fn verbatim(_: usize, inst: &Instruction) -> Result<Circuit, RouteError> {
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], inst.matrix.clone(), "2q"));
        Ok(c)
    }

    #[test]
    fn swaps_and_gates_land_at_their_sites() {
        // A 1×3 strip: (0, 2) needs one SWAP, which moves wire 0 to site 1.
        let mut c = Circuit::new(3);
        c.push(Instruction::new(vec![0, 2], swap_matrix(), "g"));
        c.push(Instruction::new(vec![0], x(), "X"));
        let routed = route_circuit(&c, Grid::new(1, 3), &swap_fragment(), verbatim).unwrap();
        let wires: Vec<Vec<usize>> = routed
            .circuit
            .instructions
            .iter()
            .map(|i| i.qubits.clone())
            .collect();
        assert_eq!(wires, [vec![0, 1], vec![1, 2], vec![1]]);
        assert_eq!(routed.positions, [1, 0, 2]);
        assert!((routed.circuit.total_duration() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn gate_indices_count_two_qubit_instructions_only() {
        let mut c = Circuit::new(2);
        for _ in 0..3 {
            c.push(Instruction::new(vec![1], x(), "X"));
            c.push(Instruction::new(vec![0, 1], swap_matrix(), "g"));
        }
        let mut seen = Vec::new();
        route_circuit(&c, Grid::new(1, 2), &swap_fragment(), |i, inst| {
            seen.push(i);
            verbatim(i, inst)
        })
        .unwrap();
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn malformed_circuits_are_typed_errors() {
        let swap = swap_fragment();
        let c = Circuit::new(5);
        assert_eq!(
            route_circuit(&c, Grid::new(2, 2), &swap, verbatim).unwrap_err(),
            RouteError::GridTooSmall {
                sites: 4,
                qubits: 5
            }
        );
        let mut repeated = Instruction::new(vec![0, 1], CMat::identity(4), "bad");
        repeated.qubits = vec![1, 1];
        let mut c = Circuit::new(2);
        c.instructions.push(repeated);
        assert!(matches!(
            route_circuit(&c, Grid::new(1, 2), &swap, verbatim),
            Err(RouteError::BadWires { index: 0, .. })
        ));
        let mut c = Circuit::new(3);
        c.push(Instruction::new(vec![0, 1, 2], CMat::identity(8), "ccx"));
        assert!(matches!(
            route_circuit(&c, Grid::new(1, 3), &swap, verbatim),
            Err(RouteError::TooWide { qubits: 3, .. })
        ));
        // A fragment on the wrong register is an assembly error.
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], CMat::identity(4), "g"));
        let err = route_circuit(&c, Grid::new(1, 2), &swap, |_, _| Ok(Circuit::new(3)));
        assert!(matches!(err, Err(RouteError::Ir(_))));
    }
}
