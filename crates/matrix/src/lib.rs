//! Sparse trust-matrix substrate for the multi-dimensional reputation
//! system.
//!
//! Every reputation mechanism in the paper is a linear-algebra statement
//! about *row-stochastic sparse matrices* over user ids:
//!
//! - Equations 3, 5 and 6 row-normalize raw trust scores into the one-step
//!   matrices `FM`, `DM`, `UM` — fused into the freeze,
//!   [`CsrMatrix::freeze_normalized_sharded`].
//! - Equation 7 blends them: `TM = α·FM + β·DM + γ·UM` — [`blend_frozen`].
//! - Equation 8 raises the result to the n-th power: `RM = TM^n` —
//!   [`CsrMatrix::power`].
//! - EigenTrust (the baseline) computes the left principal eigenvector of
//!   the trust matrix — [`principal_eigenvector`].
//!
//! Raw scores are collected row by row in a [`SparseMatrix`] builder and
//! frozen once into a [`CsrMatrix`] — user ids interned into dense sorted
//! positions, rows stored in contiguous arrays — which every kernel reads.
//! Rows and columns iterate in ascending user id, which keeps every result
//! deterministic — important for reproducible experiments.
//!
//! # Examples
//!
//! ```
//! use mdrep_matrix::{CsrMatrix, SparseMatrix, UserIndex};
//! use mdrep_types::UserId;
//! use std::sync::Arc;
//!
//! let mut m = SparseMatrix::new();
//! m.set(UserId::new(0), UserId::new(1), 3.0)?;
//! m.set(UserId::new(0), UserId::new(2), 1.0)?;
//! let index = Arc::new(UserIndex::from_matrices(&[&m]));
//! let stochastic = CsrMatrix::freeze_normalized_sharded(&index, &m, 1);
//! assert_eq!(stochastic.get(UserId::new(0), UserId::new(1)), 0.75);
//! assert_eq!(stochastic.get(UserId::new(0), UserId::new(2)), 0.25);
//! # Ok::<(), mdrep_matrix::MatrixError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod eigen;
mod ops;
mod sparse;

pub use csr::{blend_frozen, ColumnSet, CsrMatrix, UserIndex};
pub use eigen::{principal_eigenvector, EigenOptions, EigenResult};
pub use ops::{par_chunks, BlendError, PowerOptions};
pub use sparse::{approx_row_bytes, normalize_row_mut, MatrixError, SparseMatrix, SparseVector};
