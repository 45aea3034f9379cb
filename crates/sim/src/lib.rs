//! # radio-sim — a dual graph radio network simulator
//!
//! This crate implements the network model of *Structuring Unreliable Radio
//! Networks* (Censor-Hillel, Gilbert, Kuhn, Lynch, Newport; PODC 2011): a
//! static ad hoc radio network described by **two** graphs over the same
//! nodes — `G = (V, E)` of *reliable* links and `G' = (V, E')` with `E ⊆
//! E'` of all links, the extras being *unreliable*. Executions proceed in
//! synchronous rounds; each round an adversary chooses a *reach set* (all of
//! `E` plus any subset of `E' \ E`), and a listener receives a message iff
//! exactly one reachable neighbor broadcast — otherwise it observes `⊥`,
//! with no collision detection.
//!
//! The crate provides:
//!
//! - the model itself: [`DualGraph`], the delivery rule, adversaries
//!   ([`adversary`]), and the synchronous [`Engine`];
//! - the **link detector** formalism ([`LinkDetectorAssignment`]):
//!   τ-complete estimates of each node's reliable neighborhood, plus dynamic
//!   (per-round) detectors ([`DynamicDetector`]);
//! - topology generators ([`topology`]), including the two-clique reduction
//!   network used by the paper's Ω(Δ) lower bound;
//! - the geometric toolkit of the paper's analysis ([`geometry`]): the
//!   hexagonal disk overlay and the `I_r` constants.
//!
//! Algorithms (MIS, CCDS, …) live in the companion crate
//! `radio-structures`; this crate is the substrate they run on.
//!
//! ## Quickstart
//!
//! ```
//! use radio_sim::{
//!     topology::{random_geometric, RandomGeometricConfig},
//!     Action, Context, DualGraph, EngineBuilder, Process,
//! };
//! use rand::SeedableRng;
//!
//! // A process that broadcasts its id once, in its first round.
//! struct Hello { sent: bool }
//! impl Process for Hello {
//!     type Msg = u32;
//!     fn decide(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
//!         if !self.sent {
//!             self.sent = true;
//!             Action::Broadcast(ctx.my_id.get())
//!         } else {
//!             Action::Idle
//!         }
//!     }
//!     fn receive(&mut self, _: &mut Context<'_>, _: Option<&u32>) {}
//!     fn output(&self) -> Option<bool> { if self.sent { Some(false) } else { None } }
//! }
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let net = random_geometric(&RandomGeometricConfig::dense(32), &mut rng)?;
//! let mut engine = EngineBuilder::new(net).seed(7).spawn(|_| Hello { sent: false })?;
//! engine.run(10);
//! assert!(engine.outputs().iter().all(Option::is_some));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
mod detector;
mod dynamic;
mod engine;
pub mod export;
pub mod geometry;
mod graph;
mod ids;
mod network;
mod process;
pub mod spec;
pub mod topology;
mod trace;

pub use adversary::Adversary;
pub use detector::{DetectorSet, LinkDetectorAssignment, SpuriousSource};
pub use dynamic::{DetectorProvider, DynamicDetector, DynamicDetectorError};
pub use engine::{Engine, EngineBuilder, EngineError, RunOutcome, SpawnInfo, StepMode, StopReason};
pub use graph::{BitRows, CsrGraph, Graph, GraphError};
pub use ids::{IdAssignment, NodeId, ProcessId};
pub use network::{DualGraph, NetworkError};
pub use process::{Action, Context, MessageSize, Process, ProcessRng};
pub use spec::{AdversaryKind, TopologyKind};
pub use trace::{ExecutionMetrics, RoundRecord, Trace};
