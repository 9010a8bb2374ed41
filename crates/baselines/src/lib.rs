//! Baseline reputation systems the paper compares against (Section 2), all
//! behind one [`ReputationSystem`] trait so the overlay simulator and the
//! experiment harness can swap them freely:
//!
//! - [`NoReputation`] — the control: every peer is a stranger.
//! - [`TitForTat`] — private download history (BitTorrent/Maze style).
//!   Q. Lian et al. found even a month of history covers only ≈2% of
//!   uploads; experiment TFT2 reproduces that gap.
//! - [`EigenTrust`] — the global PageRank-style eigenvector (Kamvar et
//!   al.); suffers false positives/negatives under collusion.
//! - [`MultiTrustHybrid`] — Lian et al.'s tiered hybrid between the two,
//!   built on the *download-volume* one-step matrix only (which is why it
//!   "does not solve the one-step sparse matrix problem" the paper fixes
//!   with multi-dimensional trust).
//! - [`Lip`] — Feng & Dai's lifetime-and-popularity file ranking, a
//!   reputation-free pollution filter.
//! - [`MultiDimensional`] — the paper's system (an adapter over
//!   [`mdrep::ReputationEngine`]) so it plugs into the same harness.
//!
//! # Examples
//!
//! ```
//! use mdrep_baselines::{ReputationSystem, TitForTat};
//! use mdrep_types::{FileSize, SimTime, UserId};
//!
//! let mut tft = TitForTat::new();
//! tft.record_download(UserId::new(0), UserId::new(1), FileSize::from_mib(100));
//! tft.recompute(SimTime::ZERO);
//! assert!(tft.reputation(UserId::new(0), UserId::new(1)) > 0.0);
//! assert_eq!(tft.reputation(UserId::new(1), UserId::new(0)), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eigentrust;
mod lip;
mod mdrep_adapter;
mod multi_trust;
mod no_rep;
mod system;
mod tit_for_tat;

pub use eigentrust::{EigenTrust, EigenTrustConfig};
pub use lip::{Lip, LipConfig};
pub use mdrep_adapter::MultiDimensional;
pub use multi_trust::MultiTrustHybrid;
pub use no_rep::NoReputation;
pub use system::ReputationSystem;
pub use tit_for_tat::TitForTat;
