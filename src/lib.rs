//! `mdrep-repro` — facade over the full reproduction of *"A
//! Multi-dimensional Reputation System Combined with Trust and Incentive
//! Mechanisms in P2P File Sharing Systems"* (Yang, Feng, Dai, Zhang;
//! ICDCS 2007).
//!
//! The workspace is organized bottom-up; this crate re-exports every layer
//! under one roof for examples and integration tests:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `mdrep-types` | ids, evaluations, simulated time |
//! | [`crypto`] | `mdrep-crypto` | SHA-256, HMAC, keyed signatures |
//! | [`matrix`] | `mdrep-matrix` | sparse trust matrices, eigenvectors |
//! | [`workload`] | `mdrep-workload` | synthetic Maze-like traces |
//! | [`core`] | `mdrep` | **the paper's reputation system** |
//! | [`baselines`] | `mdrep-baselines` | Tit-for-Tat, EigenTrust, multi-trust, LIP |
//! | [`dht`] | `mdrep-dht` | Kademlia-style overlay with evaluation co-publication |
//! | [`node`] | `mdrep-node` | full P2P client node (engine + DHT + incentive composed) |
//! | [`sim`] | `mdrep-sim` | discrete-event overlay simulator |
//!
//! # Quick start
//!
//! ```
//! use mdrep_repro::core::{Params, ReputationEngine};
//! use mdrep_repro::types::{Evaluation, FileId, FileSize, SimTime, UserId};
//!
//! let mut engine = ReputationEngine::new(Params::default());
//! let (alice, bob) = (UserId::new(0), UserId::new(1));
//! engine.observe_download(SimTime::ZERO, alice, bob, FileId::new(0), FileSize::from_mib(100));
//! engine.observe_vote(SimTime::ZERO, alice, FileId::new(0), Evaluation::BEST);
//! engine.recompute(SimTime::ZERO);
//! assert!(engine.view().reputation(alice, bob) > 0.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mdrep as core;
pub use mdrep_baselines as baselines;
pub use mdrep_crypto as crypto;
pub use mdrep_dht as dht;
pub use mdrep_matrix as matrix;
pub use mdrep_node as node;
pub use mdrep_sim as sim;
pub use mdrep_types as types;
pub use mdrep_workload as workload;
