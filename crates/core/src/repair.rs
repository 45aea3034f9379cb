//! Localized structure repair — a prototype for the Section 8/10 open
//! question.
//!
//! The continuous CCDS re-runs *everything* every `δ_CDS` rounds, paying the
//! `O(log³ n)` MIS prefix each cycle even when the MIS itself is unaffected
//! by the link churn. The paper asks (§8): "we might also want to design
//! efficient repair protocols that can fix breaks in the structure in a
//! localized fashion."
//!
//! [`RepairingCcds`] is one such design: run the full algorithm once, then
//! keep the MIS fixed and re-run **only the search stage** (banned lists are
//! reset, replicas rebuilt from the *current* detector output) every
//! `δ_repair = ℓ_SE · epoch_len` rounds — a cycle shorter than the full
//! schedule by the entire MIS prefix. Relay membership is re-derived each
//! repair cycle and published atomically, so paths broken by churn are
//! replaced as soon as the next repair cycle completes.
//!
//! **Soundness condition** (inherited from keeping the MIS): the churn must
//! leave the established MIS valid — i.e. the reliable graph is static (the
//! model's assumption) and detector changes do not misreport MIS-relevant
//! coverage. Under churn that breaks the MIS itself, fall back to
//! [`ContinuousCcds`](crate::ContinuousCcds).

use crate::ccds::{Ccds, CcdsConfig, CcdsMsg, ScheduleError};
use crate::messages::Wire;
use radio_sim::{Action, Context, Process, ProcessId};
use std::collections::BTreeSet;

/// A CCDS process that bootstraps once, then repairs its search structure
/// in short cycles while keeping the MIS fixed.
///
/// [`Process::output`] reports the published structure: `None` until the
/// bootstrap cycle completes, then MIS membership plus the relays of the
/// latest completed cycle.
#[derive(Debug, Clone)]
pub struct RepairingCcds {
    cfg: CcdsConfig,
    my_id: ProcessId,
    inner: Ccds,
    /// Rounds of the bootstrap (full) cycle, including the settling round.
    full_len: u64,
    /// Rounds of each repair (search-only) cycle, including settling.
    repair_len: u64,
    bootstrapped: bool,
    committed: Option<bool>,
    in_mis: bool,
    mis_set: BTreeSet<u32>,
    repairs_completed: u64,
}

impl RepairingCcds {
    /// Creates a repairing CCDS process.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the configuration's message bound is too
    /// small.
    pub fn new(cfg: &CcdsConfig, my_id: ProcessId) -> Result<Self, ScheduleError> {
        let inner = Ccds::new(cfg, my_id)?;
        let full = inner.schedule().total + 1;
        let repair = (inner.schedule().total - inner.schedule().mis_total) + 1;
        Ok(RepairingCcds {
            cfg: *cfg,
            my_id,
            inner,
            full_len: full,
            repair_len: repair,
            bootstrapped: false,
            committed: None,
            in_mis: false,
            mis_set: BTreeSet::new(),
            repairs_completed: 0,
        })
    }

    /// Length of the bootstrap cycle in rounds.
    pub fn bootstrap_len(&self) -> u64 {
        self.full_len
    }

    /// Length of each repair cycle in rounds — shorter than the bootstrap
    /// by the whole MIS prefix.
    pub fn repair_len(&self) -> u64 {
        self.repair_len
    }

    /// Completed repair cycles.
    pub fn repairs_completed(&self) -> u64 {
        self.repairs_completed
    }

    /// Position within the current cycle and whether a publish boundary is
    /// crossed at this round.
    fn cycle_pos(&self, r0: u64) -> (u64, bool) {
        if r0 < self.full_len {
            (r0, false)
        } else {
            let s = (r0 - self.full_len) % self.repair_len;
            (s, s == 0)
        }
    }

    fn publish_and_restart(&mut self) {
        if !self.bootstrapped {
            // End of bootstrap: freeze the MIS, publish everything.
            self.bootstrapped = true;
            self.in_mis = self.inner.mis().in_mis();
            self.mis_set = self.inner.mis().mis_set().clone();
        }
        self.committed = self.inner.output();
        self.repairs_completed += if self.repairs_completed > 0 || self.bootstrapped {
            1
        } else {
            0
        };
        self.inner = Ccds::resume_search(&self.cfg, self.my_id, self.in_mis, self.mis_set.clone())
            .expect("configuration validated at construction");
    }
}

impl Process for RepairingCcds {
    type Msg = Wire<CcdsMsg>;

    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<Self::Msg> {
        let r0 = ctx.local_round - 1;
        let (pos, boundary) = self.cycle_pos(r0);
        if boundary {
            self.publish_and_restart();
        }
        let mut shifted = Context {
            local_round: pos + 1,
            n: ctx.n,
            my_id: ctx.my_id,
            detector: ctx.detector,
            rng: ctx.rng,
        };
        self.inner.decide(&mut shifted)
    }

    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&Self::Msg>) {
        let r0 = ctx.local_round - 1;
        let (pos, _) = self.cycle_pos(r0);
        let mut shifted = Context {
            local_round: pos + 1,
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

    /// The repair loop never terminates.
    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_ccds;
    use radio_sim::{DualGraph, EngineBuilder, Graph};

    fn path_net(n: usize) -> DualGraph {
        DualGraph::classic(Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()).unwrap()
    }

    #[test]
    fn repair_cycles_are_much_shorter_than_bootstrap() {
        let cfg = CcdsConfig::new(16, 2, 256);
        let p = RepairingCcds::new(&cfg, ProcessId::new(1).unwrap()).unwrap();
        // The repair cycle omits exactly the O(log^3 n) MIS prefix.
        let sched = cfg.schedule().unwrap();
        assert_eq!(p.bootstrap_len() - p.repair_len(), sched.mis_total);
        assert!(p.repair_len() < p.bootstrap_len());
    }

    #[test]
    fn bootstrap_then_repairs_stay_valid() {
        let n = 8usize;
        let net = path_net(n);
        let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
        let mut engine = EngineBuilder::new(net.clone())
            .seed(3)
            .spawn(|info| RepairingCcds::new(&cfg, info.id).unwrap())
            .unwrap();
        let boot = engine.procs()[0].bootstrap_len();
        let repair = engine.procs()[0].repair_len();
        // Nothing published during bootstrap.
        engine.run_rounds(boot - 1);
        assert!(engine.outputs().iter().all(Option::is_none));
        // After the boundary: a valid structure.
        engine.run_rounds(2);
        let report = check_ccds(&net, net.g(), &engine.outputs());
        assert!(
            report.terminated && report.connected && report.dominating,
            "{report:?}"
        );
        // Each subsequent repair cycle republishes a valid structure.
        for cycle in 1..=2u64 {
            engine.run_rounds(repair);
            let report = check_ccds(&net, net.g(), &engine.outputs());
            assert!(
                report.terminated && report.connected && report.dominating,
                "repair cycle {cycle}: {report:?}"
            );
            assert!(engine
                .procs()
                .iter()
                .all(|p| p.repairs_completed() >= cycle));
        }
    }

    #[test]
    fn mis_membership_is_stable_across_repairs() {
        let n = 8usize;
        let net = path_net(n);
        let cfg = CcdsConfig::new(n, net.max_degree_g(), 256);
        let mut engine = EngineBuilder::new(net)
            .seed(5)
            .spawn(|info| RepairingCcds::new(&cfg, info.id).unwrap())
            .unwrap();
        let boot = engine.procs()[0].bootstrap_len();
        let repair = engine.procs()[0].repair_len();
        engine.run_rounds(boot + 1);
        let mis_after_boot: Vec<bool> = engine.procs().iter().map(|p| p.in_mis).collect();
        engine.run_rounds(2 * repair);
        let mis_later: Vec<bool> = engine.procs().iter().map(|p| p.in_mis).collect();
        assert_eq!(mis_after_boot, mis_later, "the MIS must not churn");
        assert!(mis_after_boot.iter().any(|&m| m));
    }
}
