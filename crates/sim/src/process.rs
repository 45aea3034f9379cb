//! The process abstraction: the per-node automata that algorithms implement.
//!
//! An algorithm in the paper is a collection of `n` processes; an execution
//! assigns them to nodes and proceeds in synchronous rounds. Each round a
//! process decides whether to broadcast ([`Process::decide`]); afterwards
//! non-broadcasters learn what the channel delivered
//! ([`Process::receive`]) — either a single message or `⊥` (silence and
//! collision are indistinguishable: there is no collision detection).

use crate::detector::DetectorSet;
use crate::ids::ProcessId;

/// The generator backing each process's private randomness.
///
/// Process randomness is the highest-volume RNG use in the simulator (every
/// `gen_bool` coin of every process of every round), so it uses the cheap
/// single-word [`rand::rngs::SmallRng`]. Per-process *seeds* are still
/// derived from the engine's master [`rand::rngs::StdRng`], so executions
/// remain deterministic per engine seed.
pub type ProcessRng = rand::rngs::SmallRng;

/// Sizing of messages in bits, used to enforce the model's bound `b`.
///
/// The paper parameterizes results by the maximum message size `b` (e.g. the
/// CCDS running time `O(Δ·log²n / b + log³n)`). Implementations should
/// return the size of the *encoded* message: ids count as `⌈log₂ n⌉` bits
/// (the standard convention), so a message carrying `k` ids plus a
/// constant-size tag reports roughly `k·⌈log₂ n⌉ + O(1)` bits.
pub trait MessageSize {
    /// Encoded size of this message in bits.
    fn bits(&self) -> u64;
}

impl MessageSize for () {
    fn bits(&self) -> u64 {
        1
    }
}

impl MessageSize for u32 {
    fn bits(&self) -> u64 {
        32
    }
}

/// A process's decision for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Stay silent and listen this round.
    Idle,
    /// Broadcast the message this round.
    Broadcast(M),
}

impl<M> Action<M> {
    /// Whether this action is a broadcast.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Action::Broadcast(_))
    }
}

/// Per-round execution context handed to a process.
///
/// Contains everything the model lets a process see: the global network size
/// `n`, its own id, its link detector output *for this round* (static
/// detectors never change; dynamic ones may), its private randomness, and
/// the number of rounds it has been awake (processes with asynchronous
/// starts cannot see the global round number, so that is all we expose).
#[derive(Debug)]
pub struct Context<'a> {
    /// Rounds since this process woke (1 for its first round).
    pub local_round: u64,
    /// Network size `n`, known to all processes (standard assumption).
    pub n: usize,
    /// This process's unique id.
    pub my_id: ProcessId,
    /// Current link detector output `L_u` (raw process-id numbers): a view
    /// on the assignment's frozen sets, whose `contains` is one word load on
    /// dense sets and a binary search of a sorted slice on sparse ones.
    pub detector: DetectorSet<'a>,
    /// Private randomness for this process.
    pub rng: &'a mut ProcessRng,
}

/// A per-node automaton participating in a synchronous execution.
///
/// The engine calls [`Process::decide`] for every awake process at the start
/// of each round, then [`Process::receive`] for every awake process that did
/// *not* broadcast. Broadcasters receive only their own message (the model's
/// rule), so they get no `receive` call — they already know what they sent.
///
/// Implementations should be deterministic given the context's RNG so
/// executions are reproducible from the engine seed.
///
/// # Idle promises
///
/// A process that sits out stretches of rounds may promise so, and the
/// production tiers (`Engine::step`, `Engine::step_bitset`) then stop
/// visiting it while the promise holds. The contract:
///
/// * [`Process::IDLES`] is `true` only for a process that overrides
///   [`Process::idle_until`]; the engine reads promises only then, so a
///   process that keeps the default pays nothing.
/// * [`Process::idle_until`] names the first local round in which
///   `decide` must run again. Until that round, every `decide` call would
///   return [`Action::Idle`], change nothing and draw nothing from
///   `ctx.rng`, and every `receive(ctx, None)` call would do nothing.
/// * The engine re-reads the promise after every `decide` and `receive`
///   call it makes. While a promise holds it skips the process's `decide`
///   and any `receive` that would hand it `⊥`; a message always reaches
///   its listener, and that `receive` may cut the nap short.
/// * [`Process::output`] and [`Process::is_done`] change only inside the
///   process's own `decide` and `receive` calls, or through
///   `Engine::procs_mut`. The engine relies on this: for a promising
///   process it records first-output rounds right after each call, and
///   rescans every output only after spawn, after `procs_mut` and in
///   `step_legacy` rounds.
///
/// `Engine::step_legacy` ignores promises and calls everyone, so a false
/// promise shows up as a divergence from it.
pub trait Process {
    /// Message type broadcast by this algorithm.
    type Msg: Clone + MessageSize;

    /// Whether this process makes idle promises through
    /// [`Process::idle_until`] (see *Idle promises* above).
    const IDLES: bool = false;

    /// Choose this round's action.
    fn decide(&mut self, ctx: &mut Context<'_>) -> Action<Self::Msg>;

    /// Observe the channel: `Some(m)` if exactly one reachable neighbor
    /// broadcast, `None` for `⊥` (silence or collision — indistinguishable).
    fn receive(&mut self, ctx: &mut Context<'_>, msg: Option<&Self::Msg>);

    /// The process's problem output (`1` = in the structure), once decided.
    ///
    /// `None` while undecided. Outputs are irrevocable in the one-shot
    /// problems; the continuous CCDS wrapper manages transitions itself.
    fn output(&self) -> Option<bool>;

    /// Whether the process has finished its protocol. Defaults to "has
    /// output", which is right for one-shot algorithms; long-lived
    /// algorithms (e.g. perpetual MIS announcement, Section 9) override
    /// this.
    fn is_done(&self) -> bool {
        self.output().is_some()
    }

    /// The first local round in which [`Process::decide`] must run again
    /// (`u64::MAX` for never). Read only when [`Process::IDLES`] is set;
    /// the default `0` promises nothing.
    fn idle_until(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_message_size() {
        assert_eq!(().bits(), 1);
        assert_eq!(7u32.bits(), 32);
    }

    #[test]
    fn action_kind() {
        assert!(Action::Broadcast(()).is_broadcast());
        assert!(!Action::<()>::Idle.is_broadcast());
    }
}
