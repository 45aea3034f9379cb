//! The Section 8 continuous CCDS for dynamic link detectors.
//!
//! Long-lived networks see links degrade; Section 8 models this as a
//! *dynamic* link detector that outputs a set every round and eventually
//! **stabilizes**. The continuous CCDS simply re-runs the Section 5
//! algorithm every `δ_CDS` rounds, holding back the new outputs until the
//! end of each run so the published structure switches atomically from the
//! old CCDS to the new one.
//!
//! Theorem 8.1: if the dynamic 0-complete detector stabilizes by round `r`,
//! the continuous algorithm solves the CCDS problem by round `r + 2·δ_CDS`
//! w.h.p. — one possibly-corrupted cycle in flight at stabilization plus one
//! clean cycle.

use crate::ccds::{Ccds, CcdsConfig, CcdsMsg, ScheduleError};
use crate::messages::Wire;
use radio_sim::{Action, Context, Process, ProcessId};

/// A process that runs the CCDS algorithm in back-to-back cycles and
/// atomically publishes each cycle's output when it completes.
///
/// [`Process::output`] reports the *published* output: `None` until the
/// first cycle completes, then the latest completed cycle's structure. Use
/// [`ContinuousCcds::cycle_len`] to locate cycle boundaries when checking
/// Theorem 8.1's bound.
#[derive(Debug, Clone)]
pub struct ContinuousCcds {
    cfg: CcdsConfig,
    my_id: ProcessId,
    inner: Ccds,
    cycle_len: u64,
    committed: Option<bool>,
    cycles_completed: u64,
}

impl ContinuousCcds {
    /// Creates a continuous CCDS process.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the configuration's message bound is too
    /// small.
    pub fn new(cfg: &CcdsConfig, my_id: ProcessId) -> Result<Self, ScheduleError> {
        let inner = Ccds::new(cfg, my_id)?;
        // One schedule plus the output-settling round.
        let cycle_len = inner.schedule().total + 1;
        Ok(ContinuousCcds {
            cfg: *cfg,
            my_id,
            inner,
            cycle_len,
            committed: None,
            cycles_completed: 0,
        })
    }

    /// Rounds per cycle (`δ_CDS` in the paper's notation).
    pub fn cycle_len(&self) -> u64 {
        self.cycle_len
    }

    /// Number of completed (published) cycles.
    pub fn cycles_completed(&self) -> u64 {
        self.cycles_completed
    }

    /// The in-progress (not yet published) run.
    pub fn current_run(&self) -> &Ccds {
        &self.inner
    }
}

impl Process for ContinuousCcds {
    type Msg = Wire<CcdsMsg>;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<Self::Msg> {
        let r0 = ctx.local_round - 1;
        let cycle_pos = r0 % self.cycle_len;
        if cycle_pos == 0 && r0 > 0 {
            // Publish the finished cycle and start a fresh run.
            self.committed = self.inner.output();
            self.cycles_completed += 1;
            self.inner =
                Ccds::new(&self.cfg, self.my_id).expect("configuration validated at construction");
        }
        let mut shifted = Context {
            local_round: cycle_pos + 1,
            n: ctx.n,
            my_id: ctx.my_id,
            detector: ctx.detector,
            rng: ctx.rng,
        };
        self.inner.decide(&mut shifted)
    }

    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&Self::Msg>) {
        let r0 = ctx.local_round - 1;
        let cycle_pos = r0 % self.cycle_len;
        let mut shifted = Context {
            local_round: cycle_pos + 1,
            n: ctx.n,
            my_id: ctx.my_id,
            detector: ctx.detector,
            rng: ctx.rng,
        };
        self.inner.receive(&mut shifted, msg);
    }

    fn output(&self) -> Option<bool> {
        self.committed
    }

    /// The continuous algorithm never terminates.
    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_ccds;
    use radio_sim::{
        DualGraph, DynamicDetector, EngineBuilder, Graph, IdAssignment, LinkDetectorAssignment,
    };

    /// Build a path network whose detector initially reports a *wrong*
    /// (but still 0-complete-shaped) view, then stabilizes to the true
    /// 0-complete detector at a chosen round.
    #[test]
    fn recovers_within_two_cycles_of_stabilization() {
        let n = 8;
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let ids = IdAssignment::identity(n);
        let good = LinkDetectorAssignment::zero_complete(&net, &ids);
        // A "pre-stabilization" detector missing some true neighbors
        // (modeling links that had not yet been classified).
        let sparse = {
            let mut sets: Vec<std::collections::BTreeSet<u32>> = (0..n)
                .map(|v| good.set(radio_sim::NodeId(v)).iter().copied().collect())
                .collect();
            for set in sets.iter_mut().skip(2) {
                let first = *set.iter().next().unwrap();
                set.remove(&first);
            }
            LinkDetectorAssignment::from_sets(sets)
        };

        let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
        let probe = ContinuousCcds::new(&cfg, ProcessId::new(1).unwrap()).unwrap();
        let delta = probe.cycle_len();
        // Stabilize mid-way through the first cycle.
        let stabilize_at = delta / 2;
        let dyn_det =
            DynamicDetector::new(vec![(1, sparse), (stabilize_at.max(2), good.clone())]).unwrap();

        let h = good.h_graph(&ids);
        let mut engine = EngineBuilder::new(net)
            .seed(17)
            .detector(dyn_det)
            .spawn(|info| ContinuousCcds::new(&cfg, info.id).unwrap())
            .unwrap();
        // Theorem 8.1: solved by stabilization + 2δ. Run just past that.
        let deadline = stabilize_at + 2 * delta;
        engine.run_rounds(deadline + 1);
        let report = check_ccds(engine.net(), &h, &engine.outputs());
        assert!(report.terminated, "undecided: {}", report.undecided);
        assert!(report.connected);
        assert!(
            report.dominating,
            "violations: {:?}",
            report.domination_violations
        );
    }

    #[test]
    fn publishes_atomically_at_cycle_boundaries() {
        let n = 6;
        let g = Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let net = DualGraph::classic(g).unwrap();
        let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
        let mut engine = EngineBuilder::new(net)
            .seed(3)
            .spawn(|info| ContinuousCcds::new(&cfg, info.id).unwrap())
            .unwrap();
        let delta = engine.procs()[0].cycle_len();
        // Before the first cycle completes: nothing published.
        engine.run_rounds(delta - 1);
        assert!(engine.outputs().iter().all(Option::is_none));
        assert!(engine.procs().iter().all(|p| p.cycles_completed() == 0));
        // Crossing the boundary publishes everywhere.
        engine.run_rounds(2);
        assert!(engine.outputs().iter().all(Option::is_some));
        assert!(engine.procs().iter().all(|p| p.cycles_completed() == 1));
    }
}
