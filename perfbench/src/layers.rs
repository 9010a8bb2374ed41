//! Per-layer measurement from outside the program: the epoch phase ledger
//! read from the timers the engine already keeps in `mdrep_obs::global()`,
//! kernel timings on a final engine state, and bit-exact `RM` comparison.

use crate::report::{Metrics, Sample, NS_PER_MS};
use mdrep::{EngineSnapshot, FileTrust, FileTrustOptions, ReputationMatrix, ShardedEngine};
use mdrep_matrix::{blend_frozen, CsrMatrix};
use mdrep_obs::Snapshot;
use mdrep_types::SimTime;
use std::time::Instant;

/// The epoch's top-level phases: `(metric, engine timer)`. They are
/// disjoint intervals inside `engine.sharded.epoch_total`, so the rest of
/// that total is time no phase span covers.
pub const PHASES: [(&str, &str); 8] = [
    ("phase.drain_ms", "engine.sharded.drain"),
    ("phase.apply_ms", "engine.sharded.apply"),
    ("phase.fm_build_ms", "engine.recompute.fm_build"),
    ("phase.dm_build_ms", "engine.recompute.dm_build"),
    ("phase.um_build_ms", "engine.recompute.um_build"),
    ("phase.integrate_ms", "engine.recompute.integrate"),
    ("phase.merge_ms", "engine.recompute.merge"),
    ("phase.publish_ms", "engine.sharded.publish"),
];
const EPOCH_TOTAL: &str = "engine.sharded.epoch_total";
/// Nested inside `merge` on the dirty-row path and only timed at
/// `steps > 1`, so it is reported beside the ledger, not inside its sum.
const MATRIX_POWER: &str = "engine.recompute.matrix_power";

fn timer_ns(snap: &Snapshot, name: &str) -> u64 {
    snap.timer(name).map_or(0, |t| t.total_ns)
}

fn diff_ms(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    timer_ns(after, name).saturating_sub(timer_ns(before, name)) as f64 / NS_PER_MS
}

/// Per-epoch phase times of the traced epochs.
#[derive(Debug)]
pub struct Ledger {
    phases: Vec<Sample>,
    matrix_power: Sample,
    total: Sample,
    unattributed: Sample,
}

impl Default for Ledger {
    fn default() -> Self {
        Self {
            phases: vec![Sample::default(); PHASES.len()],
            matrix_power: Sample::default(),
            total: Sample::default(),
            unattributed: Sample::default(),
        }
    }
}

impl Ledger {
    /// Records one epoch from registry snapshots taken around it.
    pub fn record(&mut self, before: &Snapshot, after: &Snapshot) {
        let total = diff_ms(before, after, EPOCH_TOTAL);
        let mut named = 0.0;
        for (slot, (_, timer)) in self.phases.iter_mut().zip(PHASES) {
            let ms = diff_ms(before, after, timer);
            named += ms;
            slot.push(ms);
        }
        let unattributed = total - named;
        self.unattributed.push(unattributed);
        self.total.push(total);
        self.matrix_power.push(diff_ms(before, after, MATRIX_POWER));
    }

    pub fn epochs(&self) -> usize {
        self.total.len()
    }

    /// Mean per-epoch phase times (means, so that phases add up to the
    /// epoch total exactly).
    pub fn metrics(&self, out: &mut Metrics) {
        let n = self.epochs();
        for ((name, _), sample) in PHASES.iter().zip(&self.phases) {
            out.push(name, sample.mean(), "ms", n);
        }
        out.push("phase.unattributed_ms", self.unattributed.mean(), "ms", n);
        out.push("phase.epoch_total_ms", self.total.mean(), "ms", n);
        out.push("phase.matrix_power_ms", self.matrix_power.mean(), "ms", n);
    }

    /// One line showing that the phases and the unattributed rest add up
    /// to the engine's epoch total.
    pub fn sum_check(&self) -> String {
        let named: f64 = self.phases.iter().map(Sample::mean).sum();
        format!(
            "ledger: sum(phases) {:.4} ms + unattributed {:.4} ms = {:.4} ms; \
             engine.sharded.epoch_total {:.4} ms (mean of {} epochs)",
            named,
            self.unattributed.mean(),
            named + self.unattributed.mean(),
            self.total.mean(),
            self.epochs()
        )
    }
}

/// Times the batch kernels once per repetition on the engine's current
/// state and checks each against the matrix the engine holds. Returns the
/// kernel metrics and whether every kernel reproduced the engine's matrix
/// bit for bit.
pub fn kernels(engine: &ShardedEngine, now: SimTime, reps: usize) -> (Metrics, bool) {
    engine.with_master(|e| {
        let params = e.params();
        let threads = params.effective_threads();
        let comps = e.components().expect("engine has recomputed");
        let evals = e.evaluations();
        let (mut eq2, mut eq3, mut eq7, mut eq8) = (
            Sample::default(),
            Sample::default(),
            Sample::default(),
            Sample::default(),
        );
        let mut consistent = true;
        for _ in 0..reps.max(1) {
            let span = mdrep_obs::trace_span("bench.kernel.eq2");
            let t = Instant::now();
            let ft = FileTrust::compute_with(evals, now, params, FileTrustOptions::default());
            eq2.push_duration(t.elapsed(), NS_PER_MS);
            drop(span);

            let span = mdrep_obs::trace_span("bench.kernel.eq3_freeze");
            let t = Instant::now();
            let fm = CsrMatrix::freeze_normalized_sharded(comps.fm.index(), ft.raw(), threads);
            eq3.push_duration(t.elapsed(), NS_PER_MS);
            drop(span);

            let w = params.weights();
            let span = mdrep_obs::trace_span("bench.kernel.eq7_blend");
            let t = Instant::now();
            let tm = blend_frozen(
                &[
                    (w.alpha(), &comps.fm),
                    (w.beta(), &comps.dm),
                    (w.gamma(), &comps.um),
                ],
                threads,
            )
            .expect("engine weights form a convex combination");
            eq7.push_duration(t.elapsed(), NS_PER_MS);
            drop(span);

            let span = mdrep_obs::trace_span("bench.kernel.eq8");
            let t = Instant::now();
            let rm = ReputationMatrix::compute_csr(tm.clone(), params);
            eq8.push_duration(t.elapsed(), NS_PER_MS);
            drop(span);

            let engine_rm = e.reputation_matrix().expect("engine has recomputed");
            consistent &= same_matrix(&fm, &comps.fm)
                && same_matrix(&tm, &comps.tm)
                && same_matrix(rm.matrix(), engine_rm.matrix());
        }
        let pairs: u64 = evals
            .files()
            .map(|f| {
                let n = evals.evaluators_of(f).count() as u64;
                n * n.saturating_sub(1) / 2
            })
            .sum();
        let rm_nnz = e.reputation_matrix().map_or(0, |rm| rm.matrix().nnz());
        let n = eq2.len();
        let mut m = Metrics::default();
        m.push("kernel.eq2_ms", eq2.pct(50.0), "ms", n);
        m.push("kernel.eq2_pairs", pairs as f64, "count", 1);
        m.push("kernel.eq3_freeze_ms", eq3.pct(50.0), "ms", n);
        m.push("kernel.eq7_blend_ms", eq7.pct(50.0), "ms", n);
        m.push("kernel.eq8_ms", eq8.pct(50.0), "ms", n);
        m.push("kernel.tm_nnz", comps.tm.nnz() as f64, "count", 1);
        m.push("kernel.rm_nnz", rm_nnz as f64, "count", 1);
        (m, consistent)
    })
}

/// Whether two matrices hold the same entries, bit for bit.
pub fn same_matrix(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.nnz() == b.nnz()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
}

/// FNV-1a over every `RM` entry's row, column and exact bits (no epoch
/// stamp, unlike `EngineSnapshot::digest`).
pub fn rm_digest(snap: &EngineSnapshot) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    if let Some(rm) = snap.reputation_matrix() {
        for (r, c, v) in rm.matrix().iter() {
            for word in [r.as_u64(), c.as_u64(), v.to_bits()] {
                for byte in word.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Rows of `next`'s `RM` whose entries differ from `prev`'s.
pub fn changed_rows(prev: &EngineSnapshot, next: &EngineSnapshot) -> usize {
    let (Some(a), Some(b)) = (prev.reputation_matrix(), next.reputation_matrix()) else {
        return 0;
    };
    let (a, b) = (a.matrix(), b.matrix());
    let mut rows = a.row_ids();
    rows.extend(b.row_ids());
    rows.sort_unstable();
    rows.dedup();
    rows.into_iter()
        .filter(|&r| {
            !a.row_entries(r)
                .map(|(c, v)| (c, v.to_bits()))
                .eq(b.row_entries(r).map(|(c, v)| (c, v.to_bits())))
        })
        .count()
}
