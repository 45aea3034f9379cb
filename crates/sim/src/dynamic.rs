//! Dynamic link detectors (Section 8).
//!
//! Long-lived networks see link quality change: a link that behaved reliably
//! for a long time may degrade (multipath changes, interference). Section 8
//! models this by redefining the link detector as a *service* that outputs a
//! set every round. A dynamic detector **stabilizes** at round `r` if from
//! `r` on its output matches a static τ-complete detector and never changes
//! again.
//!
//! [`DetectorProvider`] is the round-indexed interface the engine consumes;
//! a static [`LinkDetectorAssignment`] trivially implements it, and
//! [`DynamicDetector`] implements a piecewise-constant schedule of
//! assignments.

use crate::detector::LinkDetectorAssignment;
use crate::ids::NodeId;
use std::collections::BTreeSet;

/// Round-indexed source of link detector sets.
pub trait DetectorProvider {
    /// The detector set of node `u` at round `round`.
    fn set_at(&self, u: NodeId, round: u64) -> &BTreeSet<u32>;

    /// Number of nodes covered.
    fn n(&self) -> usize;

    /// The round at which output stops changing, if known. Static detectors
    /// return `Some(1)`.
    fn stabilization_round(&self) -> Option<u64>;

    /// The provider's output as a shared [`LinkDetectorAssignment`] handle,
    /// if it never changes from round 1 on. An engine indexes such sets
    /// directly instead of calling [`DetectorProvider::set_at`] every
    /// round; the default `None` keeps the per-round calls.
    fn static_assignment(&self) -> Option<LinkDetectorAssignment> {
        None
    }
}

impl DetectorProvider for LinkDetectorAssignment {
    fn set_at(&self, u: NodeId, _round: u64) -> &BTreeSet<u32> {
        self.set(u)
    }

    fn n(&self) -> usize {
        LinkDetectorAssignment::n(self)
    }

    fn stabilization_round(&self) -> Option<u64> {
        Some(1)
    }

    fn static_assignment(&self) -> Option<LinkDetectorAssignment> {
        Some(self.clone())
    }
}

/// A piecewise-constant dynamic link detector.
///
/// The schedule is a sequence of `(start_round, assignment)` stages; the
/// detector outputs the assignment of the last stage whose start is `≤` the
/// query round. The final stage's start round is the stabilization round.
///
/// # Examples
///
/// ```
/// use radio_sim::{DynamicDetector, DetectorProvider, LinkDetectorAssignment, NodeId};
/// use std::collections::BTreeSet;
/// let early = LinkDetectorAssignment::from_sets(vec![BTreeSet::from([2u32]); 2]);
/// let late = LinkDetectorAssignment::from_sets(vec![BTreeSet::from([1u32]); 2]);
/// let dyn_det = DynamicDetector::new(vec![(1, early), (10, late)]).unwrap();
/// assert!(dyn_det.set_at(NodeId(0), 5).contains(&2));
/// assert!(dyn_det.set_at(NodeId(0), 10).contains(&1));
/// assert_eq!(dyn_det.stabilization_round(), Some(10));
/// ```
#[derive(Debug, Clone)]
pub struct DynamicDetector {
    stages: Vec<(u64, LinkDetectorAssignment)>,
}

/// Error building a [`DynamicDetector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicDetectorError {
    /// No stages were provided.
    Empty,
    /// Stage start rounds were not strictly increasing, or the first stage
    /// did not start at round 1.
    BadSchedule,
    /// Stages cover different numbers of nodes.
    SizeMismatch,
}

impl std::fmt::Display for DynamicDetectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicDetectorError::Empty => write!(f, "dynamic detector needs at least one stage"),
            DynamicDetectorError::BadSchedule => write!(
                f,
                "stage starts must begin at round 1 and strictly increase"
            ),
            DynamicDetectorError::SizeMismatch => write!(f, "stages cover different node counts"),
        }
    }
}

impl std::error::Error for DynamicDetectorError {}

impl DynamicDetector {
    /// Builds a dynamic detector from `(start_round, assignment)` stages.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicDetectorError`] if the schedule is empty, does not
    /// start at round 1, is not strictly increasing, or mixes node counts.
    pub fn new(stages: Vec<(u64, LinkDetectorAssignment)>) -> Result<Self, DynamicDetectorError> {
        if stages.is_empty() {
            return Err(DynamicDetectorError::Empty);
        }
        if stages[0].0 != 1 {
            return Err(DynamicDetectorError::BadSchedule);
        }
        for w in stages.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(DynamicDetectorError::BadSchedule);
            }
        }
        let n = stages[0].1.n();
        if stages.iter().any(|(_, a)| a.n() != n) {
            return Err(DynamicDetectorError::SizeMismatch);
        }
        Ok(DynamicDetector { stages })
    }

    /// The assignment active at `round`.
    pub fn assignment_at(&self, round: u64) -> &LinkDetectorAssignment {
        let idx = match self.stages.binary_search_by_key(&round, |(r, _)| *r) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        &self.stages[idx].1
    }

    /// The final (stable) assignment.
    pub fn final_assignment(&self) -> &LinkDetectorAssignment {
        &self.stages.last().expect("nonempty by construction").1
    }
}

impl DetectorProvider for DynamicDetector {
    fn set_at(&self, u: NodeId, round: u64) -> &BTreeSet<u32> {
        self.assignment_at(round).set(u)
    }

    fn n(&self) -> usize {
        self.stages[0].1.n()
    }

    fn stabilization_round(&self) -> Option<u64> {
        Some(self.stages.last().expect("nonempty").0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(v: u32, n: usize) -> LinkDetectorAssignment {
        LinkDetectorAssignment::from_sets(vec![BTreeSet::from([v]); n])
    }

    #[test]
    fn schedule_lookup() {
        let d = DynamicDetector::new(vec![
            (1, assignment(10, 3)),
            (5, assignment(20, 3)),
            (9, assignment(30, 3)),
        ])
        .unwrap();
        assert!(d.set_at(NodeId(0), 1).contains(&10));
        assert!(d.set_at(NodeId(0), 4).contains(&10));
        assert!(d.set_at(NodeId(0), 5).contains(&20));
        assert!(d.set_at(NodeId(0), 100).contains(&30));
        assert_eq!(d.stabilization_round(), Some(9));
        assert!(d.final_assignment().set(NodeId(2)).contains(&30));
    }

    #[test]
    fn rejects_bad_schedules() {
        assert_eq!(
            DynamicDetector::new(vec![]).unwrap_err(),
            DynamicDetectorError::Empty
        );
        assert_eq!(
            DynamicDetector::new(vec![(2, assignment(1, 2))]).unwrap_err(),
            DynamicDetectorError::BadSchedule
        );
        assert_eq!(
            DynamicDetector::new(vec![(1, assignment(1, 2)), (1, assignment(2, 2))]).unwrap_err(),
            DynamicDetectorError::BadSchedule
        );
        assert_eq!(
            DynamicDetector::new(vec![(1, assignment(1, 2)), (3, assignment(2, 3))]).unwrap_err(),
            DynamicDetectorError::SizeMismatch
        );
    }

    #[test]
    fn static_assignment_is_a_provider() {
        let a = assignment(7, 2);
        assert_eq!(DetectorProvider::n(&a), 2);
        assert_eq!(a.stabilization_round(), Some(1));
        assert!(a.set_at(NodeId(1), 99).contains(&7));
        assert_eq!(a.static_assignment(), Some(a.clone()));
    }
}
