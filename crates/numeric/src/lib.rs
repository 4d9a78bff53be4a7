//! Minimal numerical kernels for the `rcs-sim` solvers.
//!
//! Implemented from scratch so that the workspace has no external numeric
//! dependencies: a sparse graph-elimination kernel with reusable
//! symbolic analysis ([`SparseSymbolic`]), one classic fourth-order
//! Runge-Kutta step ([`ode::rk4_step`]) for the stepping kernel to
//! drive, a deterministic xoshiro256++ generator with the
//! exponential/Poisson draws and the stream-splitting jumps the
//! Monte-Carlo studies need ([`rng`]), the content hash the query cache
//! keys on ([`hash`]), and the shared order statistics the studies
//! report ([`stats`]).
//!
//! The kernels are sized for the problems in this workspace — thermal
//! networks of a few nodes and hydraulic networks of a few dozen
//! junctions. Solvers that re-factor the same incidence structure every
//! Newton iteration use [`SparseSymbolic`] to pay the symbolic analysis
//! once and replay a precomputed elimination schedule per iteration.
//!
//! # Examples
//!
//! ```
//! use rcs_numeric::SparseSymbolic;
//!
//! // diag(2, 4): no off-diagonal structure at all
//! let sym = SparseSymbolic::analyze(2, &[]);
//! let mut values = vec![0.0; sym.nnz()];
//! values[sym.diag_index(0)] = 2.0;
//! values[sym.diag_index(1)] = 4.0;
//! let mut x = vec![2.0, 8.0];
//! sym.factor_solve(&mut values, &mut x)?;
//! assert_eq!(x, vec![1.0, 2.0]);
//! # Ok::<(), rcs_numeric::NumericError>(())
//! ```

#![warn(missing_docs)]

mod error;
pub mod hash;
pub mod ode;
pub mod rng;
mod sparse;
pub mod stats;

pub use error::NumericError;
pub use sparse::SparseSymbolic;
