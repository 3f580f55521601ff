//! Deterministic fault injection: churn, bursty channels, clock skew,
//! radio lockups and frame corruption — all seed-driven.
//!
//! A [`FaultPlan`] is a *pure description* of what goes wrong during a run:
//! which nodes crash and when, how links degrade, which clocks drift. A
//! checkpoint echoes it field by field, and restore refuses a world whose
//! plan differs. The runtime state ([`FaultState`]) derives
//! every random draw from the world's master seed via dedicated streams, so
//! installing a fault plan never perturbs the per-node RNG streams — and a
//! given (topology, MACs, seed, plan) is still bit-deterministic.
//!
//! Fault taxonomy (DESIGN.md §7):
//! * **Churn** — a node powers off at `down_at` and back on at `up_at`. Its
//!   radio goes deaf immediately; frames it already has on the air finish
//!   (the energy is physically committed). While down, its MAC receives no
//!   callbacks and pending timers are swallowed; on restart the MAC's
//!   [`crate::mac::Mac::on_restart`] runs with protocol state reset.
//! * **Lockup** — the radio front-end wedges mid-frame: reception stops,
//!   carrier reads busy, `transmit` fails, but the MAC keeps running (timers
//!   still fire). Models firmware hangs that heal.
//! * **Gilbert–Elliott** — per-link two-state Markov chain stepped on a
//!   fixed clock; the *bad* state adds `bad_extra_loss_db` of attenuation.
//!   Models bursty interference from non-network sources.
//! * **Shadowing** — stepped log-normal: every `step_ns` each link draws a
//!   fresh `N(0, sigma_db)` offset, constant within the step. Models people
//!   and doors moving through the environment.
//! * **Clock skew** — each node's timer delays stretch by `ppm` parts per
//!   million. Models real oscillator tolerance (±100 ppm is commodity).
//! * **Corruption / duplication** — a decoded frame is flipped to an error
//!   with `corrupt_prob`, or delivered twice with `dup_frame_prob`. Models
//!   CRC escapes and MAC-level retransmit races.

// BTreeMap, as `clippy.toml` requires: fault bookkeeping feeds the
// simulation, so iteration order must not depend on hash seeds.
use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::ckpt::{CkptError, CkptReader, CkptWriter};
use crate::node::NodeId;
use crate::persist;
use crate::rng::{normal, stream_rng};
use crate::time::Time;

/// RNG stream indices far above the per-node streams (node `i` uses stream
/// `i + 1`), so fault randomness never collides with node randomness.
const STREAM_CORRUPT: u64 = 1 << 40;
const STREAM_GE_BASE: u64 = 1 << 41;
const STREAM_SHADOW_BASE: u64 = 1 << 42;

/// One node outage: down at `down_at`, restart at `up_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The node that crashes.
    pub node: NodeId,
    /// When it powers off.
    pub down_at: Time,
    /// When it powers back on (MAC restarts from scratch).
    pub up_at: Time,
}

/// One radio lockup: the front-end wedges at `at` and heals at `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lockup {
    /// The affected node.
    pub node: NodeId,
    /// When the radio wedges.
    pub at: Time,
    /// When it heals.
    pub until: Time,
}

/// Gilbert–Elliott bursty degradation applied to every link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Chain step interval.
    pub(crate) step_ns: Time,
    /// P(good → bad) per step.
    pub(crate) p_enter_bad: f64,
    /// P(bad → good) per step.
    pub(crate) p_exit_bad: f64,
    /// Extra attenuation while a link is in the bad state, in dB.
    pub(crate) bad_extra_loss_db: f64,
}

/// Stepped log-normal shadowing applied to every link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shadowing {
    /// How long each drawn offset holds.
    pub(crate) step_ns: Time,
    /// Standard deviation of the per-step offset, in dB.
    pub(crate) sigma_db: f64,
}

/// A complete description of the faults injected into a run.
///
/// The default plan is empty ("clean"): installing it changes nothing about
/// a run except arming the invariant watchdog.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Node crash/restart schedule.
    pub churn: Vec<Outage>,
    /// Radio lockup schedule.
    pub lockups: Vec<Lockup>,
    /// Bursty link degradation, if any.
    pub gilbert_elliott: Option<GilbertElliott>,
    /// Stepped shadowing, if any.
    pub shadowing: Option<Shadowing>,
    /// Per-node clock skew in parts per million.
    pub clock_skew_ppm: Vec<(NodeId, i64)>,
    /// Probability a decoded frame is corrupted to an rx error.
    pub corrupt_prob: f64,
    /// Probability a decoded frame is delivered twice to the MAC.
    pub dup_frame_prob: f64,
}

impl FaultPlan {
    /// The empty plan: no faults, watchdog armed.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// Every node suffers one outage, staggered across the run.
    pub fn churn_heavy(nodes: usize, duration: Time) -> FaultPlan {
        let n = nodes as u64;
        let churn = (0..n)
            .map(|i| {
                let down_at = duration * (i + 1) / (n + 2);
                Outage {
                    node: NodeId::new(i as usize),
                    down_at,
                    up_at: down_at + duration / 12,
                }
            })
            .collect();
        FaultPlan {
            churn,
            ..FaultPlan::default()
        }
    }

    /// Bursty Gilbert–Elliott loss plus slow shadowing on every link.
    pub(crate) fn bursty_channel() -> FaultPlan {
        FaultPlan {
            gilbert_elliott: Some(GilbertElliott {
                step_ns: crate::time::millis(5),
                p_enter_bad: 0.08,
                p_exit_bad: 0.35,
                bad_extra_loss_db: 25.0,
            }),
            shadowing: Some(Shadowing {
                step_ns: crate::time::millis(200),
                sigma_db: 4.0,
            }),
            ..FaultPlan::default()
        }
    }

    /// Clock skew, lockups, mild burst loss, corruption and duplication.
    pub fn mixed(nodes: usize, duration: Time) -> FaultPlan {
        let n = nodes as u64;
        let lockups = (0..n)
            .map(|i| {
                let at = duration * (2 * i + 3) / (2 * n + 4);
                Lockup {
                    node: NodeId::new(i as usize),
                    at,
                    until: at + duration / 20,
                }
            })
            .collect();
        let clock_skew_ppm = (0..nodes)
            .map(|i| {
                let ppm = if i % 2 == 0 { 150 } else { -150 };
                (NodeId::new(i), ppm)
            })
            .collect();
        FaultPlan {
            lockups,
            clock_skew_ppm,
            gilbert_elliott: Some(GilbertElliott {
                step_ns: crate::time::millis(10),
                p_enter_bad: 0.03,
                p_exit_bad: 0.5,
                bad_extra_loss_db: 20.0,
            }),
            corrupt_prob: 0.02,
            dup_frame_prob: 0.02,
            ..FaultPlan::default()
        }
    }

    /// The canonical chaos-soak plan set: `(name, plan)` pairs.
    pub fn canonical(nodes: usize, duration: Time) -> Vec<(&'static str, FaultPlan)> {
        vec![
            ("churn-heavy", FaultPlan::churn_heavy(nodes, duration)),
            ("bursty-channel", FaultPlan::bursty_channel()),
            ("mixed", FaultPlan::mixed(nodes, duration)),
        ]
    }

    /// True when the plan injects nothing.
    pub fn is_clean(&self) -> bool {
        *self == FaultPlan::default()
    }
}

persist!(struct Outage { node, down_at, up_at });
persist!(struct Lockup { node, at, until });
persist!(struct GilbertElliott { step_ns, p_enter_bad, p_exit_bad, bad_extra_loss_db });
persist!(struct Shadowing { step_ns, sigma_db });
persist!(struct FaultPlan {
    churn,
    lockups,
    gilbert_elliott,
    shadowing,
    clock_skew_ppm,
    corrupt_prob,
    dup_frame_prob
});

/// One scheduled state change derived from a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    NodeDown(NodeId),
    NodeUp(NodeId),
    LockupStart(NodeId),
    LockupEnd(NodeId),
}

/// Lazily-advanced per-link Gilbert–Elliott chain. Each link owns its RNG,
/// so the chain's trajectory is independent of query order.
#[derive(Debug)]
struct GeChain {
    rng: SmallRng,
    step: u64,
    bad: bool,
}

persist!(struct GeChain { rng, step, bad });

/// Runtime fault state owned by the world while a plan is installed.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// Master-seed-derived salt for link-indexed randomness.
    salt: u64,
    n: usize,
    /// Scheduled actions, time-ordered; index is carried by `Event::Fault`.
    pub(crate) actions: Vec<(Time, FaultAction)>,
    /// False while a node is crashed (MAC callbacks suppressed).
    pub(crate) node_up: Vec<bool>,
    /// Per-node clock skew in ppm (0 = nominal).
    pub(crate) skew_ppm: Vec<i64>,
    /// Dedicated stream for corruption/duplication draws.
    pub(crate) corrupt_rng: SmallRng,
    /// Per-link GE chains, created on first query.
    ge_chains: BTreeMap<(NodeId, NodeId), GeChain>,
    /// Last time each node's MAC got any callback (liveness watchdog).
    pub(crate) last_dispatch: Vec<Time>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, seed: u64, n: usize) -> FaultState {
        let mut actions: Vec<(Time, FaultAction)> = Vec::new();
        for o in &plan.churn {
            assert!(o.node.index() < n, "churn node out of range");
            assert!(o.down_at < o.up_at, "outage must end after it starts");
            actions.push((o.down_at, FaultAction::NodeDown(o.node)));
            actions.push((o.up_at, FaultAction::NodeUp(o.node)));
        }
        for l in &plan.lockups {
            assert!(l.node.index() < n, "lockup node out of range");
            assert!(l.at < l.until, "lockup must end after it starts");
            actions.push((l.at, FaultAction::LockupStart(l.node)));
            actions.push((l.until, FaultAction::LockupEnd(l.node)));
        }
        // Stable sort by time: equal-time actions apply in plan order.
        actions.sort_by_key(|&(t, _)| t);
        let mut skew_ppm = vec![0i64; n];
        for &(node, ppm) in &plan.clock_skew_ppm {
            assert!(node.index() < n, "skew node out of range");
            skew_ppm[node.index()] = ppm;
        }
        FaultState {
            salt: crate::rng::derive_seed(seed, STREAM_GE_BASE - 1),
            n,
            actions,
            node_up: vec![true; n],
            skew_ppm,
            corrupt_rng: stream_rng(seed, STREAM_CORRUPT),
            ge_chains: BTreeMap::new(),
            last_dispatch: vec![0; n],
            plan,
        }
    }

    /// Symmetric link key (faults hit both directions alike).
    fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Total extra attenuation (dB, >= 0 means loss) for a frame from `tx`
    /// arriving at `rx` at time `now`.
    pub(crate) fn link_offset_db(&mut self, tx: NodeId, rx: NodeId, now: Time) -> f64 {
        let mut db = 0.0;
        let key = Self::link_key(tx, rx);
        let link_index = (key.0.index() * self.n + key.1.index()) as u64;
        if let Some(ge) = self.plan.gilbert_elliott {
            let step = now / ge.step_ns.max(1);
            let chain = self.ge_chains.entry(key).or_insert_with(|| GeChain {
                rng: stream_rng(self.salt, STREAM_GE_BASE + link_index),
                step: 0,
                bad: false,
            });
            while chain.step < step {
                let p = if chain.bad {
                    ge.p_exit_bad
                } else {
                    ge.p_enter_bad
                };
                if chain.rng.gen_bool(p.clamp(0.0, 1.0)) {
                    chain.bad = !chain.bad;
                }
                chain.step += 1;
            }
            if chain.bad {
                db -= ge.bad_extra_loss_db;
            }
        }
        if let Some(sh) = self.plan.shadowing {
            let step = now / sh.step_ns.max(1);
            // Stateless: the offset for (link, step) is a pure function of
            // the salt, so it is identical however often it is queried.
            let mut rng = stream_rng(
                self.salt ^ STREAM_SHADOW_BASE,
                link_index
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(step),
            );
            db += normal(&mut rng, 0.0, sh.sigma_db);
        }
        db
    }

    /// Stretch a timer delay by the node's clock skew.
    pub(crate) fn skew_delay(&self, node: NodeId, delay: Time) -> Time {
        let ppm = self.skew_ppm[node.index()];
        if ppm == 0 {
            return delay;
        }
        let extra = (i128::from(delay) * i128::from(ppm)) / 1_000_000;
        (i128::from(delay) + extra).max(0) as Time
    }

    // ---- cmap-ckpt/v8 ---------------------------------------------------

    /// Serialize the dynamic cursors: everything [`FaultState::new`] cannot
    /// rebuild from the plan alone (liveness flags, the corruption stream's
    /// position, lazily-created GE chains, dispatch watermarks). The static
    /// derivation (salt, action schedule, skew table) is re-derived on
    /// restore from the same plan and seed.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        self.save_fields(w);
        // One watermark per node and no count: `node_up` already carried it.
        for t in &self.last_dispatch {
            w.put(t);
        }
    }

    /// Overlay checkpointed cursors onto a state freshly built (same plan,
    /// seed and node count) by [`FaultState::new`].
    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.load_fields(r)?;
        if self.node_up.len() != self.n {
            return Err(CkptError::Mismatch(format!(
                "checkpoint fault state covers {} nodes, world has {}",
                self.node_up.len(),
                self.n
            )));
        }
        for t in &mut self.last_dispatch {
            *t = r.get()?;
        }
        Ok(())
    }
}

persist!(fields FaultState { node_up, corrupt_rng, ge_chains });

/// Invariant watchdog configuration: how often to audit and how long a MAC
/// with pending data may go without any callback before it counts as
/// stalled. 2 s comfortably exceeds the longest legitimate quiet period
/// (CMAP's retransmission wait tops out near 0.5 s).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WatchdogConfig {
    /// Interval between audits.
    pub(crate) audit_period: Time,
    /// Quiet period after which a node with data counts as stalled.
    pub(crate) liveness_window: Time,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            audit_period: crate::time::millis(500),
            liveness_window: crate::time::secs(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{millis, secs};

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn actions_sorted_by_time() {
        let plan = FaultPlan::churn_heavy(4, secs(10));
        let fs = FaultState::new(plan, 7, 4);
        for w in fs.actions.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(fs.actions.len(), 8); // down + up per node
    }

    #[test]
    fn ge_chain_is_query_order_independent() {
        let plan = FaultPlan::bursty_channel();
        let t = secs(3);
        // Query link (0,1) directly at t…
        let mut a = FaultState::new(plan.clone(), 9, 4);
        let direct = a.link_offset_db(nid(0), nid(1), t);
        // …vs. stepping through many intermediate queries first.
        let mut b = FaultState::new(plan, 9, 4);
        for ms in (0..3000).step_by(7) {
            let _ = b.link_offset_db(nid(2), nid(3), millis(ms));
            let _ = b.link_offset_db(nid(0), nid(1), millis(ms));
        }
        let stepped = b.link_offset_db(nid(0), nid(1), t);
        assert!((direct - stepped).abs() < 1e-12, "{direct} vs {stepped}");
        // Symmetric: (1,0) matches (0,1).
        let sym = b.link_offset_db(nid(1), nid(0), t);
        assert!((stepped - sym).abs() < 1e-12);
    }

    #[test]
    fn ge_chain_visits_bad_state() {
        let mut fs = FaultState::new(FaultPlan::bursty_channel(), 11, 2);
        let mut bad_steps = 0;
        for ms in 0..5000 {
            // Shadowing contributes ±sigma; the GE bad state is -25 dB, so
            // anything below -10 dB means the chain is bad.
            if fs.link_offset_db(nid(0), nid(1), millis(ms)) < -10.0 {
                bad_steps += 1;
            }
        }
        assert!(bad_steps > 50, "chain never went bad: {bad_steps}");
        assert!(bad_steps < 4000, "chain stuck bad: {bad_steps}");
    }

    #[test]
    fn skew_stretches_delays() {
        let plan = FaultPlan {
            clock_skew_ppm: vec![(nid(0), 150), (nid(1), -150)],
            ..FaultPlan::default()
        };
        let fs = FaultState::new(plan, 1, 3);
        let d = secs(1);
        assert_eq!(fs.skew_delay(nid(0), d), d + 150_000); // +150 us per second
        assert_eq!(fs.skew_delay(nid(1), d), d - 150_000);
        assert_eq!(fs.skew_delay(nid(2), d), d); // no skew configured
    }

    #[test]
    fn canonical_plans_are_distinct_and_nontrivial() {
        let plans = FaultPlan::canonical(4, secs(10));
        assert_eq!(plans.len(), 3);
        for (name, plan) in &plans {
            assert!(!plan.is_clean(), "{name} is empty");
        }
        assert_ne!(plans[0].1, plans[1].1);
        assert_ne!(plans[1].1, plans[2].1);
    }
}
