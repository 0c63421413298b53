//! Job state tracking inside the simulator.

use etx_graph::NodeId;

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobPhase {
    /// The job needs its next operation's destination resolved from the
    /// current routing tables.
    AwaitingRoute,
    /// The job's packet is moving hop-by-hop toward `dest`.
    Traveling {
        /// The chosen duplicate for the next operation.
        dest: NodeId,
    },
    /// One hop is on the wire.
    HopInFlight {
        /// Final destination (re-checked on arrival).
        dest: NodeId,
        /// The node this hop lands on.
        to: NodeId,
        /// Arrival cycle.
        arrive: u64,
    },
    /// The job is being computed at its holder.
    Computing {
        /// Completion cycle.
        until: u64,
    },
}

/// One application job walking the operation sequence.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Job {
    pub id: u64,
    /// Index of the *next* (or currently executing) operation.
    pub op_index: usize,
    /// Node currently holding the job's packet.
    pub location: NodeId,
    pub phase: JobPhase,
    /// First cycle at which the job found itself unable to progress.
    pub stuck_since: Option<u64>,
    /// Routing-table version the job's current destination was resolved
    /// against; stuck jobs re-resolve when fresher tables arrive.
    pub seen_routing_version: u64,
}

impl Job {
    pub fn new(id: u64, location: NodeId) -> Self {
        Job {
            id,
            op_index: 0,
            location,
            phase: JobPhase::AwaitingRoute,
            stuck_since: None,
            seen_routing_version: 0,
        }
    }

    /// Fraction of the job's operations already completed.
    pub fn progress(&self, total_ops: usize) -> f64 {
        if total_ops == 0 {
            0.0
        } else {
            self.op_index as f64 / total_ops as f64
        }
    }

    /// Marks the job as making progress (clears the stall clock).
    pub fn mark_progress(&mut self) {
        self.stuck_since = None;
    }

    /// Marks the job as stalled at `now` (keeps the earliest stall time).
    /// Returns `true` when this started the stall clock, `false` when the
    /// job was already stalled (and so did not change).
    pub fn mark_stuck(&mut self, now: u64) -> bool {
        let started = self.stuck_since.is_none();
        if started {
            self.stuck_since = Some(now);
        }
        started
    }

    /// How long the job has been stalled, as of `now`.
    pub fn stuck_for(&self, now: u64) -> u64 {
        self.stuck_since.map_or(0, |s| now.saturating_sub(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_fraction() {
        let mut j = Job::new(1, NodeId::new(0));
        assert_eq!(j.progress(30), 0.0);
        j.op_index = 15;
        assert_eq!(j.progress(30), 0.5);
        assert_eq!(j.progress(0), 0.0);
    }

    #[test]
    fn stall_clock() {
        let mut j = Job::new(1, NodeId::new(0));
        assert_eq!(j.stuck_for(100), 0);
        assert!(j.mark_stuck(100));
        assert!(!j.mark_stuck(150)); // keeps the earliest
        assert_eq!(j.stuck_for(160), 60);
        j.mark_progress();
        assert_eq!(j.stuck_for(200), 0);
    }
}
