//! [`ChangeLog`]: which phase-2 cells one recompute rewrote, stamped
//! with the provenance tokens that let a consumer holding an older copy
//! of the planes bring it up to date cell by cell.
//!
//! Every [`RoutingState`](crate::RoutingState) carries a *generation*
//! token drawn from a process-wide counter. The router draws a fresh
//! token each time it recomputes a state and records, in the state's
//! log, the token the recompute started from (the log's
//! [`base`](ChangeLog::base)) plus the `(source, target)` cells of the
//! distance and successor planes it may have rewritten:
//!
//! * a repaired source logs its `touched_nodes()` — every entry outside
//!   that set is bit-identical to the pre-repair row (the decrease
//!   half's improved nodes are a subset);
//! * a re-run source (repair gate, decrease gate) logs its whole row;
//! * full recomputes, affected-sources frames and cold repair trees log
//!   "all", as does any log that outgrows a quarter of the `K²` cells.
//!
//! Two states with the same generation therefore hold identical
//! phase-2 planes (only the router mutates them, and every mutation
//! draws a new token), and a copy taken at generation `g` becomes a copy
//! of generation `h` by copying the cells of the chain of logs from `g`
//! to `h`. The log describes the phase-2 planes only; the phase-3 table
//! (`K × modules` entries) is small enough that consumers refill it.

use core::sync::atomic::{AtomicU64, Ordering};

/// Generation 0 is never drawn, so it can stand for "no state". The
/// counter publishes no other data, so `Relaxed` suffices for
/// uniqueness.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A process-wide unique generation token.
pub(crate) fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// The phase-2 cells the most recent recompute of a
/// [`RoutingState`](crate::RoutingState) may have rewritten, relative
/// to the state at generation [`ChangeLog::base`] (see the module
/// docs). Over-approximate by design: an unlisted cell is guaranteed
/// unchanged, a listed one may hold its old value.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    base: u64,
    all: bool,
    /// Sources whose whole row was rewritten.
    rows: Vec<u32>,
    /// `(source, end)` runs: the source's rewritten targets are
    /// `targets[previous end..end]`.
    runs: Vec<(u32, u32)>,
    targets: Vec<u32>,
    /// Row length (`K`) of the logged planes.
    n: usize,
    /// Cells named so far (`rows × K + targets`).
    cells: usize,
    /// Saturation bound on `cells`.
    cap: usize,
}

impl ChangeLog {
    /// The log of a recompute that rewrote nothing.
    pub const EMPTY: ChangeLog = ChangeLog {
        base: 0,
        all: false,
        rows: Vec::new(),
        runs: Vec::new(),
        targets: Vec::new(),
        n: 0,
        cells: 0,
        cap: 0,
    };

    /// The generation of the state this log's recompute started from
    /// (0 when the state was not derived from an earlier one).
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// `true` when the recompute may have rewritten every cell.
    #[must_use]
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Sources whose whole distance/successor row was rewritten.
    #[must_use]
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Per-source runs of individually rewritten targets, as
    /// `(source, targets)`.
    pub fn cell_runs(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let mut start = 0usize;
        self.runs.iter().map(move |&(source, end)| {
            let run = &self.targets[start..end as usize];
            start = end as usize;
            (source as usize, run)
        })
    }

    /// Number of cells the log names (whole rows count `K` each);
    /// meaningless when [`ChangeLog::is_all`].
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells
    }

    /// Copies `other` into `self`, reusing this log's buffers: once
    /// `self` has copied a log of the same dimensions, no further copy
    /// allocates (capacity is matched to `other`'s, not to its length).
    pub fn copy_from(&mut self, other: &ChangeLog) {
        self.base = other.base;
        self.all = other.all;
        self.n = other.n;
        self.cells = other.cells;
        self.cap = other.cap;
        for (dst, src) in [(&mut self.rows, &other.rows), (&mut self.targets, &other.targets)] {
            dst.clear();
            dst.reserve(src.capacity());
            dst.extend_from_slice(src);
        }
        self.runs.clear();
        self.runs.reserve(other.runs.capacity());
        self.runs.extend_from_slice(&other.runs);
    }

    /// A log whose base is unknown and whose every cell may differ.
    pub(crate) fn all() -> Self {
        ChangeLog { all: true, ..ChangeLog::default() }
    }

    /// Starts a fresh (empty) log from generation `base` over `n × n`
    /// planes. The log saturates to "all" once it names more than a
    /// quarter of the cells — past that a consumer copies the planes
    /// wholesale anyway — and its buffers are reserved for that bound
    /// up front, so logging never grows them mid-recompute.
    pub(crate) fn begin(&mut self, base: u64, n: usize) {
        self.base = base;
        self.all = false;
        self.n = n;
        self.cells = 0;
        let cap = n * n / 4;
        self.cap = cap;
        self.rows.clear();
        self.runs.clear();
        self.targets.clear();
        self.rows.reserve(cap / n.max(1));
        self.runs.reserve(n);
        self.targets.reserve(cap);
    }

    /// Marks every cell as possibly rewritten.
    pub(crate) fn mark_all(&mut self) {
        self.all = true;
        self.rows.clear();
        self.runs.clear();
        self.targets.clear();
    }

    /// Logs `source`'s whole row.
    pub(crate) fn push_row(&mut self, source: usize) {
        if self.admit(self.n) {
            self.rows.push(u32::try_from(source).expect("node index fits u32"));
        }
    }

    /// Logs `targets` of `source`'s row. A source is logged at most once
    /// per recompute.
    pub(crate) fn push_cells(&mut self, source: usize, targets: &[u32]) {
        if !targets.is_empty() && self.admit(targets.len()) {
            self.targets.extend_from_slice(targets);
            let end = u32::try_from(self.targets.len()).expect("log capped below u32 cells");
            self.runs.push((u32::try_from(source).expect("node index fits u32"), end));
        }
    }

    /// Counts `cells` more, saturating to "all" past the cap.
    fn admit(&mut self, cells: usize) -> bool {
        if self.all {
            return false;
        }
        self.cells += cells;
        if self.cells > self.cap {
            self.mark_all();
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_split_targets_per_source() {
        let mut log = ChangeLog::default();
        log.begin(7, 16);
        log.push_cells(2, &[1, 5]);
        log.push_row(4);
        log.push_cells(9, &[0]);
        log.push_cells(11, &[]);
        assert_eq!(log.base(), 7);
        assert!(!log.is_all());
        assert_eq!(log.rows(), &[4]);
        let runs: Vec<_> = log.cell_runs().collect();
        assert_eq!(runs, vec![(2, &[1u32, 5][..]), (9, &[0u32][..])]);
        assert_eq!(log.cell_count(), 3 + 16);
    }

    #[test]
    fn past_the_cap_the_log_saturates() {
        let mut log = ChangeLog::default();
        log.begin(1, 8); // cap: 16 of 64 cells
        log.push_row(0);
        log.push_cells(1, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(!log.is_all());
        log.push_cells(2, &[0]);
        assert!(log.is_all());
        assert!(log.rows().is_empty() && log.cell_runs().next().is_none());
        // Saturation is sticky until the next begin.
        log.push_row(3);
        assert!(log.is_all());
        log.begin(2, 8);
        assert!(!log.is_all());
    }

    #[test]
    fn copies_reuse_capacity() {
        let mut src = ChangeLog::default();
        src.begin(3, 32);
        src.push_cells(1, &[2, 3]);
        let mut dst = ChangeLog::all();
        dst.copy_from(&src);
        assert_eq!(dst.base(), 3);
        assert!(!dst.is_all());
        assert!(dst.cell_runs().eq(src.cell_runs()));
        assert!(dst.targets.capacity() >= src.targets.capacity());
    }

    #[test]
    fn generations_are_unique() {
        let a = fresh_generation();
        let b = fresh_generation();
        assert!(a != 0 && b > a);
    }
}
