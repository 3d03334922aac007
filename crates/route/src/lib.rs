//! # ashn-route
//!
//! Qubit routing on 2-D grid topologies: the substrate for the paper's
//! quantum-volume experiment (§6.3), where each layer of a square random
//! circuit pairs qubits uniformly at random and the pairs must be brought
//! together with SWAP gates.
//!
//! [`route_circuit`] is the one route-and-assemble core every compile path
//! runs; [`Router`] is the greedy SWAP router behind it.
//!
//! ```
//! use ashn_route::{Grid, Router, random_pairing};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let grid = Grid::for_qubits(6);
//! let mut router = Router::new(grid, 6);
//! let ops = router.route_layer(&random_pairing(6, &mut rng));
//! assert!(!ops.is_empty());
//! ```

pub mod assemble;
pub mod grid;
pub mod router;

pub use assemble::{route_circuit, RouteError, Routed};
pub use grid::Grid;
pub use router::{random_pairing, RouteOp, Router};
