//! Small dense linear-algebra kernel used across the workspace.
//!
//! The paper's cost model (§3.2) solves small linear systems of instance
//! prices, and the Gaussian-process surrogate (§5.1) needs Cholesky
//! factorization of kernel matrices. Rather than pulling a heavyweight
//! dependency, this crate provides exactly the dense routines those users
//! need, with a fallible API (`Result`) and no panics on singular inputs.
//!
//! # Examples
//!
//! ```
//! use freedom_linalg::{Matrix, lu_solve};
//!
//! // Solve the 2x2 system { x + y = 3, x - y = 1 } => x = 2, y = 1.
//! let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]).unwrap();
//! let x = lu_solve(&a, &[3.0, 1.0]).unwrap();
//! assert!((x[0] - 2.0).abs() < 1e-12);
//! assert!((x[1] - 1.0).abs() < 1e-12);
//! ```

mod cholesky;
mod error;
mod lu;
mod matrix;
pub mod normal;
pub mod stats;

pub use cholesky::{cholesky, cholesky_into, Cholesky};
pub use error::LinalgError;
pub use lu::{lu_solve, LuFactors};
pub use matrix::Matrix;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
