//! The shared wireless medium: who hears whom, and how loudly.
//!
//! The [`Medium`] enum answers gain, delay, reachability and spatial
//! neighborhood queries from one of two engines:
//!
//! * [`DenseMedium`] — the original `n × n` matrix of frozen large-scale
//!   channel gains (path loss + shadowing, computed by `cmap-topo` or
//!   built directly in tests) plus per-link propagation delays. Exact,
//!   O(n²) memory; the regression baseline at testbed scale (≤ 50
//!   nodes), byte-identical to the pre-redesign engine.
//! * [`SparseMedium`] — CSR link lists over a uniform-grid spatial
//!   index. Links whose received power falls below the delivery floor
//!   *plus a configurable epsilon margin* are pruned at build time, and
//!   the worst-case interference power dropped at any receiver is
//!   recorded as an error bound ([`SparseStats`]) so run artifacts can
//!   state exactly how much physics the pruning discarded. Memory and
//!   event fan-out scale with the *link* count, which is what makes
//!   10k–100k-node deployments tractable.
//!
//! Both engines pre-compute, for every transmitter, the list of nodes
//! whose received power clears the pruning threshold — the only nodes
//! for which frame events are generated.
//!
//! Construction goes through [`MediumBuilder`].

use std::sync::OnceLock;

use crate::config::PhyConfig;
use crate::node::NodeId;
use cmap_phy::units::db_to_ratio;
use cmap_phy::{dbm_to_mw, mw_to_dbm, propagation};

/// One receiver of a transmission, as the event path reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Arrival {
    pub rx: NodeId,
    /// Position of `rx` in `reachable(tx)`.
    pub pos: u32,
    pub delay_ns: u64,
    /// Received power before fading: `tx_power_mw * gain`.
    pub rss_mw: f64,
}

/// Every CSR row's positions `0..len` sorted by `(delay, position)`, rows
/// concatenated; `delay_of(tx, i)` is the delay of the link at CSR index
/// `i`. Position `j` holds a transmission's `j`-th reserved sequence
/// number, so this is the `(time, seq)` order of its per-receiver events.
fn arrival_order(off: &[u32], delay_of: impl Fn(usize, usize) -> u64) -> Vec<u32> {
    let mut order: Vec<u32> = Vec::with_capacity(off.last().map_or(0, |&n| n as usize));
    for (tx, row) in off.windows(2).enumerate() {
        let start = order.len();
        order.extend(0..row[1] - row[0]);
        // Stable sort: equal delays stay in position order.
        order[start..].sort_by_key(|&pos| delay_of(tx, start + pos as usize));
    }
    order
}

// ---- dense engine --------------------------------------------------------

/// The exact `n × n` medium: every pair's gain and delay is stored.
///
/// The per-transmitter reachability lists are stored in CSR form — one
/// flat index array plus `n + 1` offsets — instead of a
/// `Vec<Vec<NodeId>>`, so the fan-out walk at every transmission start
/// reads one contiguous slice with no per-transmitter pointer chase.
#[derive(Debug, Clone)]
pub struct DenseMedium {
    n: usize,
    /// Linear power gain from tx to rx, row-major `[tx * n + rx]`.
    gain: Vec<f64>,
    /// Propagation delay in ns, same layout.
    delay_ns: Vec<u64>,
    /// Receivers above the delivery floor, all transmitters concatenated.
    reach_idx: Vec<NodeId>,
    /// CSR offsets: tx's receivers are `reach_idx[reach_off[tx]..reach_off[tx + 1]]`.
    reach_off: Vec<u32>,
    /// Row positions in arrival order, parallel to `reach_idx`.
    arrive: Vec<u32>,
    tx_power_mw: f64,
    /// [`Medium::fingerprint`], hashed on first use.
    fingerprint: OnceLock<u64>,
}

impl DenseMedium {
    /// Build from a matrix of link gains in dB (negative = loss),
    /// row-major `[tx * n + rx]`, and per-link delays in nanoseconds.
    /// Diagonal entries are ignored.
    pub fn from_gains_db(
        n: usize,
        gains_db: &[f64],
        delay_ns: &[u64],
        phy: &PhyConfig,
    ) -> DenseMedium {
        assert_eq!(gains_db.len(), n * n, "gain matrix must be n*n");
        assert_eq!(delay_ns.len(), n * n, "delay matrix must be n*n");
        let gain: Vec<f64> = gains_db.iter().map(|&db| dbm_to_mw(db)).collect();
        let tx_power_mw = dbm_to_mw(phy.tx_power_dbm);
        let floor_mw = dbm_to_mw(phy.delivery_floor_dbm);
        let mut reach_idx = Vec::new();
        let mut reach_off = Vec::with_capacity(n + 1);
        reach_off.push(0u32);
        for tx in 0..n {
            for rx in 0..n {
                if tx != rx && tx_power_mw * gain[tx * n + rx] >= floor_mw {
                    reach_idx.push(NodeId::new(rx));
                }
            }
            reach_off.push(u32::try_from(reach_idx.len()).expect("reachability fits u32"));
        }
        DenseMedium {
            n,
            gain,
            delay_ns: delay_ns.to_vec(),
            arrive: arrival_order(&reach_off, |tx, i| delay_ns[tx * n + reach_idx[i].index()]),
            reach_idx,
            reach_off,
            tx_power_mw,
            fingerprint: OnceLock::new(),
        }
    }
}

/// The queries [`Medium`] dispatches (documented there).
impl DenseMedium {
    fn len(&self) -> usize {
        self.n
    }

    fn tx_power_mw(&self) -> f64 {
        self.tx_power_mw
    }

    fn gain(&self, tx: NodeId, rx: NodeId) -> f64 {
        debug_assert!(
            tx.index() < self.n && rx.index() < self.n,
            "DenseMedium::gain(tx {tx}, rx {rx}) out of bounds for {} nodes",
            self.n
        );
        self.gain[tx.index() * self.n + rx.index()]
    }

    fn delay_ns(&self, tx: NodeId, rx: NodeId) -> u64 {
        debug_assert!(
            tx.index() < self.n && rx.index() < self.n,
            "DenseMedium::delay_ns(tx {tx}, rx {rx}) out of bounds for {} nodes",
            self.n
        );
        self.delay_ns[tx.index() * self.n + rx.index()]
    }

    fn reachable(&self, tx: NodeId) -> &[NodeId] {
        &self.reach_idx
            [self.reach_off[tx.index()] as usize..self.reach_off[tx.index() + 1] as usize]
    }

    fn arrival(&self, tx: NodeId, k: u32) -> Option<Arrival> {
        let start = self.reach_off[tx.index()] as usize;
        let pos = *self.arrive[start..self.reach_off[tx.index() + 1] as usize].get(k as usize)?;
        let rx = self.reach_idx[start + pos as usize];
        let link = tx.index() * self.n + rx.index();
        Some(Arrival {
            rx,
            pos,
            delay_ns: self.delay_ns[link],
            rss_mw: self.tx_power_mw * self.gain[link],
        })
    }
}

// ---- sparse engine -------------------------------------------------------

/// Build-time accounting of what sparse pruning discarded, recorded in
/// run artifacts so a pruned run states its own physics error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseStats {
    /// Directed links kept (above the pruning threshold).
    pub links: u64,
    /// Directed links evaluated but pruned while a dense medium would
    /// have kept them (received power in `[delivery floor, threshold)`).
    pub pruned: u64,
    /// Directed pairs never evaluated (outside the spatial candidate
    /// range of a generator-fed build); bounded by the tail gain.
    pub tail_pairs: u64,
    /// The configured pruning margin above the delivery floor, in dB.
    pub epsilon_db: f64,
    /// Worst-case accumulated interference power dropped at any single
    /// receiver, expressed as the SINR-denominator inflation it could
    /// cause: `10·log10(1 + max_rx dropped_mw / noise_mw)` dB. `0.0`
    /// when epsilon is zero and every pair was evaluated.
    pub error_bound_db: f64,
}

/// Uniform-grid spatial index over node positions.
#[derive(Debug, Clone)]
struct Grid {
    cell_m: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// CSR buckets: cell `c`'s nodes are `nodes[off[c]..off[c + 1]]`,
    /// ascending.
    off: Vec<u32>,
    nodes: Vec<NodeId>,
    pos: Vec<(f64, f64)>,
}

impl Grid {
    fn build(pos: &[(f64, f64)], cell_m: f64) -> Grid {
        assert!(cell_m > 0.0, "grid cell must be positive");
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &(x, y) in pos {
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        if pos.is_empty() {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let cols = (((max_x - min_x) / cell_m).floor() as usize + 1).max(1);
        let rows = (((max_y - min_y) / cell_m).floor() as usize + 1).max(1);
        // Counting sort into CSR buckets: two passes, no per-cell Vec.
        let cell_of = |x: f64, y: f64| {
            let cx = (((x - min_x) / cell_m).floor() as usize).min(cols - 1);
            let cy = (((y - min_y) / cell_m).floor() as usize).min(rows - 1);
            cy * cols + cx
        };
        let mut counts = vec![0u32; cols * rows + 1];
        for &(x, y) in pos {
            counts[cell_of(x, y) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let off = counts.clone();
        let mut cursor = counts;
        let mut nodes = vec![NodeId::default(); pos.len()];
        for (i, &(x, y)) in pos.iter().enumerate() {
            let c = cell_of(x, y);
            nodes[cursor[c] as usize] = NodeId::new(i);
            cursor[c] += 1;
        }
        Grid {
            cell_m,
            min_x,
            min_y,
            cols,
            rows,
            off,
            nodes,
            pos: pos.to_vec(),
        }
    }

    fn dist_m(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = self.pos[a.index()];
        let (bx, by) = self.pos[b.index()];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Nodes (other than `node`) within `radius_m`, appended to `out` in
    /// ascending node order.
    fn neighbors_within(&self, node: NodeId, radius_m: f64, out: &mut Vec<NodeId>) {
        out.clear();
        let (x, y) = self.pos[node.index()];
        let reach = (radius_m / self.cell_m).ceil() as isize;
        let cx = (((x - self.min_x) / self.cell_m).floor() as usize).min(self.cols - 1) as isize;
        let cy = (((y - self.min_y) / self.cell_m).floor() as usize).min(self.rows - 1) as isize;
        let r2 = radius_m * radius_m;
        for gy in (cy - reach).max(0)..=(cy + reach).min(self.rows as isize - 1) {
            for gx in (cx - reach).max(0)..=(cx + reach).min(self.cols as isize - 1) {
                let c = gy as usize * self.cols + gx as usize;
                for &other in &self.nodes[self.off[c] as usize..self.off[c + 1] as usize] {
                    if other == node {
                        continue;
                    }
                    let (ox, oy) = self.pos[other.index()];
                    if (ox - x).powi(2) + (oy - y).powi(2) <= r2 {
                        out.push(other);
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

/// The spatially indexed sparse medium: only links above the pruning
/// threshold are materialised, in CSR form per transmitter.
#[derive(Debug, Clone)]
pub struct SparseMedium {
    n: usize,
    tx_power_mw: f64,
    /// CSR offsets: tx's links are index range `link_off[tx]..link_off[tx+1]`.
    link_off: Vec<u32>,
    /// Link receivers, ascending within each transmitter's row.
    link_rx: Vec<NodeId>,
    /// Linear power gain per link, parallel to `link_rx`.
    link_gain: Vec<f64>,
    /// Propagation delay per link in ns, parallel to `link_rx`.
    link_delay: Vec<u64>,
    /// Row positions in arrival order, parallel to `link_rx`.
    arrive: Vec<u32>,
    stats: SparseStats,
    /// [`Medium::fingerprint`], hashed on first use.
    fingerprint: OnceLock<u64>,
}

impl SparseMedium {
    /// Row slice of link array indices for `tx`.
    fn row(&self, tx: NodeId) -> std::ops::Range<usize> {
        self.link_off[tx.index()] as usize..self.link_off[tx.index() + 1] as usize
    }

    /// Position of `rx` within `tx`'s sorted link row, if the link is
    /// stored.
    fn find(&self, tx: NodeId, rx: NodeId) -> Option<usize> {
        let row = self.row(tx);
        self.link_rx[row.clone()]
            .binary_search(&rx)
            .ok()
            .map(|i| row.start + i)
    }

    /// Pruning accounting for this medium.
    pub fn stats(&self) -> &SparseStats {
        &self.stats
    }

    /// Build by sparsifying a dense gain/delay matrix (test-scale `n`;
    /// the matrix is O(n²) to hand over in the first place). With
    /// `epsilon_db == 0` the kept link set, gains and delays are
    /// bit-identical to [`DenseMedium::from_gains_db`] over the same
    /// inputs.
    pub fn from_gains_db(
        n: usize,
        gains_db: &[f64],
        delay_ns: &[u64],
        phy: &PhyConfig,
        epsilon_db: f64,
    ) -> SparseMedium {
        assert_eq!(gains_db.len(), n * n, "gain matrix must be n*n");
        assert_eq!(delay_ns.len(), n * n, "delay matrix must be n*n");
        assert!(epsilon_db >= 0.0, "epsilon is a margin above the floor");
        let tx_power_mw = dbm_to_mw(phy.tx_power_dbm);
        let floor_mw = dbm_to_mw(phy.delivery_floor_dbm);
        let threshold_mw = floor_mw * db_to_ratio(epsilon_db);
        let mut link_off = Vec::with_capacity(n + 1);
        link_off.push(0u32);
        let mut link_rx = Vec::new();
        let mut link_gain = Vec::new();
        let mut link_delay = Vec::new();
        let mut pruned = 0u64;
        let mut dropped_mw = vec![0.0f64; n];
        for tx in 0..n {
            for rx in 0..n {
                if tx == rx {
                    continue;
                }
                let gain = dbm_to_mw(gains_db[tx * n + rx]);
                let rss = tx_power_mw * gain;
                if rss >= threshold_mw {
                    link_rx.push(NodeId::new(rx));
                    link_gain.push(gain);
                    link_delay.push(delay_ns[tx * n + rx]);
                } else if rss >= floor_mw {
                    pruned += 1;
                    dropped_mw[rx] += rss;
                }
            }
            link_off.push(u32::try_from(link_rx.len()).expect("links fit u32"));
        }
        let stats = finish_stats(
            link_rx.len() as u64,
            pruned,
            0,
            epsilon_db,
            &dropped_mw,
            phy.noise_mw(),
        );
        SparseMedium {
            n,
            tx_power_mw,
            arrive: arrival_order(&link_off, |_, link| link_delay[link]),
            link_off,
            link_rx,
            link_gain,
            link_delay,
            stats,
            fingerprint: OnceLock::new(),
        }
    }

    /// Build from node positions and a link-gain model, evaluating only
    /// candidate pairs within `eval_range_m` of each other (via the grid
    /// index) — the path that never materialises an O(n²) matrix.
    ///
    /// `model(tx, rx, dist_m)` returns the frozen link gain in dB
    /// (negative = loss) and must be a pure function of its arguments so
    /// the build is deterministic and order-independent. Delays come
    /// from straight-line geometry. Pairs beyond `eval_range_m` are
    /// never evaluated; each is assumed to contribute at most
    /// `tail_gain_db` (the caller's bound on the model's gain at the
    /// evaluation range) to the recorded error bound.
    pub fn from_positions(
        positions: &[(f64, f64)],
        phy: &PhyConfig,
        epsilon_db: f64,
        eval_range_m: f64,
        tail_gain_db: f64,
        model: &dyn Fn(usize, usize, f64) -> f64,
    ) -> SparseMedium {
        assert!(epsilon_db >= 0.0, "epsilon is a margin above the floor");
        assert!(eval_range_m > 0.0, "evaluation range must be positive");
        let n = positions.len();
        let tx_power_mw = dbm_to_mw(phy.tx_power_dbm);
        let floor_mw = dbm_to_mw(phy.delivery_floor_dbm);
        let threshold_mw = floor_mw * db_to_ratio(epsilon_db);
        // Cell size = evaluation range keeps the candidate scan to the
        // 3×3 cell neighborhood.
        let grid = Grid::build(positions, eval_range_m);
        let mut link_off = Vec::with_capacity(n + 1);
        link_off.push(0u32);
        let mut link_rx = Vec::new();
        let mut link_gain = Vec::new();
        let mut link_delay = Vec::new();
        let mut pruned = 0u64;
        let mut tail_pairs = 0u64;
        let mut dropped_mw = vec![0.0f64; n];
        let tail_rss_mw = tx_power_mw * dbm_to_mw(tail_gain_db);
        let mut candidates = Vec::new();
        for tx in 0..n {
            let tx_id = NodeId::new(tx);
            grid.neighbors_within(tx_id, eval_range_m, &mut candidates);
            for &rx in &candidates {
                let dist = grid.dist_m(tx_id, rx);
                let gain = dbm_to_mw(model(tx, rx.index(), dist));
                let rss = tx_power_mw * gain;
                if rss >= threshold_mw {
                    link_rx.push(rx);
                    link_gain.push(gain);
                    link_delay.push(propagation::propagation_delay_ns(dist));
                } else if rss >= floor_mw {
                    pruned += 1;
                    dropped_mw[rx.index()] += rss;
                }
            }
            // Every never-evaluated pair is bounded by the tail gain.
            let beyond = (n - 1 - candidates.len()) as u64;
            tail_pairs += beyond;
            link_off.push(u32::try_from(link_rx.len()).expect("links fit u32"));
        }
        // The tail bound is per *receiver*: a node can absorb at most
        // one tail contribution from each never-evaluated transmitter,
        // and the candidate relation is symmetric, so the per-tx count
        // mirrors the per-rx count.
        if tail_rss_mw > 0.0 {
            let mut evaluated = vec![0u64; n];
            for (tx, count) in evaluated.iter_mut().enumerate() {
                grid.neighbors_within(NodeId::new(tx), eval_range_m, &mut candidates);
                *count = candidates.len() as u64;
            }
            for rx in 0..n {
                let beyond = (n as u64 - 1).saturating_sub(evaluated[rx]);
                // cmap-lint: allow(unit-cast) — `beyond` is a dimensionless pair count scaling the per-pair tail power
                dropped_mw[rx] += beyond as f64 * tail_rss_mw;
            }
        }
        let stats = finish_stats(
            link_rx.len() as u64,
            pruned,
            tail_pairs,
            epsilon_db,
            &dropped_mw,
            phy.noise_mw(),
        );
        SparseMedium {
            n,
            tx_power_mw,
            arrive: arrival_order(&link_off, |_, link| link_delay[link]),
            link_off,
            link_rx,
            link_gain,
            link_delay,
            stats,
            fingerprint: OnceLock::new(),
        }
    }
}

/// Fold per-receiver dropped power into the recorded [`SparseStats`].
fn finish_stats(
    links: u64,
    pruned: u64,
    tail_pairs: u64,
    epsilon_db: f64,
    dropped_mw: &[f64],
    noise_mw: f64,
) -> SparseStats {
    let worst = dropped_mw.iter().fold(0.0f64, |a, &b| a.max(b));
    SparseStats {
        links,
        pruned,
        tail_pairs,
        epsilon_db,
        error_bound_db: 10.0 * (1.0 + worst / noise_mw).log10(),
    }
}

/// The queries [`Medium`] dispatches (documented there).
impl SparseMedium {
    fn len(&self) -> usize {
        self.n
    }

    fn tx_power_mw(&self) -> f64 {
        self.tx_power_mw
    }

    fn gain(&self, tx: NodeId, rx: NodeId) -> f64 {
        debug_assert!(
            tx.index() < self.n && rx.index() < self.n,
            "SparseMedium::gain(tx {tx}, rx {rx}) out of bounds for {} nodes",
            self.n
        );
        match self.find(tx, rx) {
            Some(i) => self.link_gain[i],
            None => 0.0,
        }
    }

    fn delay_ns(&self, tx: NodeId, rx: NodeId) -> u64 {
        debug_assert!(
            tx.index() < self.n && rx.index() < self.n,
            "SparseMedium::delay_ns(tx {tx}, rx {rx}) out of bounds for {} nodes",
            self.n
        );
        match self.find(tx, rx) {
            Some(i) => self.link_delay[i],
            None => 0,
        }
    }

    fn reachable(&self, tx: NodeId) -> &[NodeId] {
        &self.link_rx[self.row(tx)]
    }

    fn arrival(&self, tx: NodeId, k: u32) -> Option<Arrival> {
        let row = self.row(tx);
        let pos = *self.arrive[row.clone()].get(k as usize)?;
        let link = row.start + pos as usize;
        Some(Arrival {
            rx: self.link_rx[link],
            pos,
            delay_ns: self.link_delay[link],
            rss_mw: self.tx_power_mw * self.link_gain[link],
        })
    }
}

// ---- the dispatching enum ------------------------------------------------

/// The medium a [`World`](crate::World) runs over: one of the two
/// propagation engines behind one concrete type (no fat pointers or
/// virtual dispatch on the event hot path — each accessor is a single
/// two-arm match). All power quantities are linear mW (gains are linear
/// power ratios); conversions to dB happen at the edges.
#[derive(Debug, Clone)]
pub enum Medium {
    /// Exact O(n²) matrix engine.
    Dense(DenseMedium),
    /// Spatially indexed, epsilon-pruned CSR engine.
    Sparse(SparseMedium),
}

macro_rules! on_engine {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            Medium::Dense($m) => $body,
            Medium::Sparse($m) => $body,
        }
    };
}

impl Medium {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        on_engine!(self, m => m.len())
    }

    /// True when the medium has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured transmit power in linear mW.
    pub fn tx_power_mw(&self) -> f64 {
        on_engine!(self, m => m.tx_power_mw())
    }

    /// Linear power gain from `tx` to `rx`. For a pruned (sparse) link
    /// this is exactly `0.0` — the link contributes no energy.
    pub fn gain(&self, tx: NodeId, rx: NodeId) -> f64 {
        on_engine!(self, m => m.gain(tx, rx))
    }

    /// Propagation delay from `tx` to `rx` in nanoseconds. Pruned links
    /// report `0` (they generate no events, so the value is never used
    /// on the simulation path).
    pub fn delay_ns(&self, tx: NodeId, rx: NodeId) -> u64 {
        on_engine!(self, m => m.delay_ns(tx, rx))
    }

    /// Receivers that get events for transmissions from `tx`, in
    /// ascending node order (one contiguous CSR slice).
    pub fn reachable(&self, tx: NodeId) -> &[NodeId] {
        on_engine!(self, m => m.reachable(tx))
    }

    /// The `k`-th receiver of `tx` in arrival order — `reachable(tx)` by
    /// `(delay_ns, position)` — or `None` past the last one.
    pub(crate) fn arrival(&self, tx: NodeId, k: u32) -> Option<Arrival> {
        on_engine!(self, m => m.arrival(tx, k))
    }

    /// Received power in linear mW at `rx` from `tx`, before fading.
    pub fn rss_mw(&self, tx: NodeId, rx: NodeId) -> f64 {
        self.tx_power_mw() * self.gain(tx, rx)
    }

    /// Received power in dBm at `rx` from `tx`, before fading.
    pub fn rss_dbm(&self, tx: NodeId, rx: NodeId) -> f64 {
        mw_to_dbm(self.rss_mw(tx, rx))
    }

    /// `"dense"` or `"sparse"`, for artifacts and error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Medium::Dense(_) => "dense",
            Medium::Sparse(_) => "sparse",
        }
    }

    /// Pruning accounting, when this is a sparse medium.
    pub fn sparse_stats(&self) -> Option<&SparseStats> {
        match self {
            Medium::Dense(_) => None,
            Medium::Sparse(m) => Some(m.stats()),
        }
    }

    /// Structural fingerprint: FNV-1a over the engine kind, node count,
    /// transmit power and every stored link. Two media with the same
    /// fingerprint produce the same event fan-out, so checkpoints echo
    /// it to reject restores into a differently-built world
    /// (`cmap-ckpt/v4`). A medium never changes once built, so the hash
    /// runs once, at the first checkpoint or restore — not at build, which
    /// runs that never checkpoint would pay for.
    pub fn fingerprint(&self) -> u64 {
        *on_engine!(self, m => &m.fingerprint).get_or_init(|| self.hash_links())
    }

    fn hash_links(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.len() as u64);
        h.u64(self.tx_power_mw().to_bits());
        match self {
            Medium::Dense(m) => {
                h.u64(1);
                for &g in &m.gain {
                    h.u64(g.to_bits());
                }
                for &d in &m.delay_ns {
                    h.u64(d);
                }
                for &r in &m.reach_idx {
                    h.u64(r.index() as u64);
                }
            }
            Medium::Sparse(m) => {
                h.u64(2);
                for &off in &m.link_off {
                    h.u64(u64::from(off));
                }
                for i in 0..m.link_rx.len() {
                    h.u64(m.link_rx[i].index() as u64);
                    h.u64(m.link_gain[i].to_bits());
                    h.u64(m.link_delay[i]);
                }
            }
        }
        h.finish()
    }
}

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

// ---- builder -------------------------------------------------------------

/// Where the builder's channel data comes from.
enum Source<'m> {
    None,
    GainsDb {
        n: usize,
        gains_db: Vec<f64>,
        delay_ns: Vec<u64>,
    },
    Uniform {
        n: usize,
        gain_db: f64,
    },
    Positions {
        positions: Vec<(f64, f64)>,
        eval_range_m: f64,
        tail_gain_db: f64,
        model: Box<dyn Fn(usize, usize, f64) -> f64 + 'm>,
    },
}

/// Builds a [`Medium`]: pick a source (gain matrix, uniform gain, or
/// positions + link model), an engine (dense or sparse), the transmit
/// power and the sparse pruning epsilon.
///
/// Matrix and uniform sources default to the dense engine; position
/// sources default to sparse.
///
/// ```
/// use cmap_sim::{MediumBuilder, PhyConfig};
/// let phy = PhyConfig::default();
/// let medium = MediumBuilder::new(&phy).uniform(3, -70.0).build();
/// assert_eq!(medium.len(), 3);
/// assert_eq!(medium.kind_name(), "dense");
/// ```
pub struct MediumBuilder<'m> {
    phy: PhyConfig,
    epsilon_db: f64,
    sparse: Option<bool>,
    source: Source<'m>,
}

impl<'m> MediumBuilder<'m> {
    /// Start from a PHY configuration (transmit power, delivery floor
    /// and noise floor are taken from it).
    pub fn new(phy: &PhyConfig) -> MediumBuilder<'m> {
        MediumBuilder {
            phy: phy.clone(),
            epsilon_db: 0.0,
            sparse: None,
            source: Source::None,
        }
    }

    /// Sparse pruning margin above the delivery floor, in dB (≥ 0).
    /// Links whose received power is below `delivery_floor + epsilon`
    /// are dropped; `0` keeps the sparse engine bit-identical to dense.
    pub fn epsilon_db(mut self, db: f64) -> Self {
        assert!(db >= 0.0, "epsilon is a margin above the floor");
        self.epsilon_db = db;
        self
    }

    /// Source: a row-major `n × n` gain matrix in dB plus per-link
    /// delays in ns (diagonal ignored).
    pub fn gains_db(mut self, n: usize, gains_db: &[f64], delay_ns: &[u64]) -> Self {
        assert_eq!(gains_db.len(), n * n, "gain matrix must be n*n");
        assert_eq!(delay_ns.len(), n * n, "delay matrix must be n*n");
        self.source = Source::GainsDb {
            n,
            gains_db: gains_db.to_vec(),
            delay_ns: delay_ns.to_vec(),
        };
        self
    }

    /// Source: every distinct pair shares one gain (dB) and a 100 ns
    /// delay.
    pub fn uniform(mut self, n: usize, gain_db: f64) -> Self {
        self.source = Source::Uniform { n, gain_db };
        self
    }

    /// Source: node coordinates (metres) plus a pure link-gain model
    /// `model(tx, rx, dist_m) -> gain dB`. Candidate pairs are
    /// enumerated within `eval_range_m` via the grid index;
    /// `tail_gain_db` bounds the model's gain at that range so
    /// never-evaluated pairs are accounted in the recorded error bound.
    pub fn positions(
        mut self,
        positions: Vec<(f64, f64)>,
        eval_range_m: f64,
        tail_gain_db: f64,
        model: impl Fn(usize, usize, f64) -> f64 + 'm,
    ) -> Self {
        self.source = Source::Positions {
            positions,
            eval_range_m,
            tail_gain_db,
            model: Box::new(model),
        };
        self
    }

    /// Force the dense engine.
    pub fn dense(mut self) -> Self {
        self.sparse = Some(false);
        self
    }

    /// Force the sparse engine.
    pub fn sparse(mut self) -> Self {
        self.sparse = Some(true);
        self
    }

    /// Build the medium. Panics when no source was given, or when a
    /// position source is forced dense at a size where the O(n²) matrix
    /// is plainly a mistake.
    pub fn build(self) -> Medium {
        let phy = &self.phy;
        match self.source {
            Source::None => {
                panic!("MediumBuilder: no source configured (gains_db/uniform/positions)")
            }
            Source::GainsDb {
                n,
                gains_db,
                delay_ns,
            } => {
                if self.sparse == Some(true) {
                    Medium::Sparse(SparseMedium::from_gains_db(
                        n,
                        &gains_db,
                        &delay_ns,
                        phy,
                        self.epsilon_db,
                    ))
                } else {
                    Medium::Dense(DenseMedium::from_gains_db(n, &gains_db, &delay_ns, phy))
                }
            }
            Source::Uniform { n, gain_db } => {
                let mut gains = vec![gain_db; n * n];
                for i in 0..n {
                    gains[i * n + i] = f64::NEG_INFINITY;
                }
                let delays = vec![100u64; n * n];
                if self.sparse == Some(true) {
                    Medium::Sparse(SparseMedium::from_gains_db(
                        n,
                        &gains,
                        &delays,
                        phy,
                        self.epsilon_db,
                    ))
                } else {
                    Medium::Dense(DenseMedium::from_gains_db(n, &gains, &delays, phy))
                }
            }
            Source::Positions {
                positions,
                eval_range_m,
                tail_gain_db,
                model,
            } => {
                if self.sparse == Some(false) {
                    let n = positions.len();
                    assert!(
                        n <= 8192,
                        "dense medium from {n} positions would allocate an O(n²) matrix; \
                         use the sparse engine"
                    );
                    let mut gains = vec![f64::NEG_INFINITY; n * n];
                    let mut delays = vec![0u64; n * n];
                    for tx in 0..n {
                        for rx in 0..n {
                            if tx == rx {
                                continue;
                            }
                            let (ax, ay) = positions[tx];
                            let (bx, by) = positions[rx];
                            let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                            gains[tx * n + rx] = model(tx, rx, dist);
                            delays[tx * n + rx] = propagation::propagation_delay_ns(dist);
                        }
                    }
                    Medium::Dense(DenseMedium::from_gains_db(n, &gains, &delays, phy))
                } else {
                    Medium::Sparse(SparseMedium::from_positions(
                        &positions,
                        phy,
                        self.epsilon_db,
                        eval_range_m,
                        tail_gain_db,
                        &model,
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn uniform_medium_reaches_everyone() {
        let phy = PhyConfig::default();
        let m = MediumBuilder::new(&phy).uniform(4, -80.0).build();
        assert_eq!(m.len(), 4);
        for tx in 0..4 {
            let mut r = m.reachable(nid(tx)).to_vec();
            r.sort_unstable();
            let expect: Vec<NodeId> = (0..4).filter(|&x| x != tx).map(nid).collect();
            assert_eq!(r, expect);
            // 15 dBm - 80 dB = -65 dBm at each receiver.
            for rx in 0..4 {
                if rx != tx {
                    assert!((m.rss_dbm(nid(tx), nid(rx)) + 65.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn weak_links_fall_below_delivery_floor() {
        let phy = PhyConfig::default();
        // 15 dBm - 125 dB = -110 dBm, below the -105 dBm delivery floor.
        let gains = vec![f64::NEG_INFINITY, -125.0, -80.0, f64::NEG_INFINITY];
        let m = MediumBuilder::new(&phy)
            .gains_db(2, &gains, &[0, 10, 10, 0])
            .build();
        assert!(m.reachable(nid(0)).is_empty());
        assert_eq!(m.reachable(nid(1)), &[nid(0)]);
    }

    #[test]
    fn asymmetric_gains_are_respected() {
        let phy = PhyConfig::default();
        let gains = vec![f64::NEG_INFINITY, -70.0, -90.0, f64::NEG_INFINITY];
        let m = MediumBuilder::new(&phy)
            .gains_db(2, &gains, &[0, 33, 33, 0])
            .build();
        assert!(m.rss_dbm(nid(0), nid(1)) > m.rss_dbm(nid(1), nid(0)));
        assert_eq!(m.delay_ns(nid(0), nid(1)), 33);
    }

    #[test]
    fn delays_are_directional() {
        // A waveguide-ish link: the two directions carry different delays
        // (row-major [tx * n + rx]), and the accessor must not mix them up.
        let phy = PhyConfig::default();
        let gains = vec![f64::NEG_INFINITY, -70.0, -70.0, f64::NEG_INFINITY];
        let m = MediumBuilder::new(&phy)
            .gains_db(2, &gains, &[0, 120, 450, 0])
            .build();
        assert_eq!(m.delay_ns(nid(0), nid(1)), 120);
        assert_eq!(m.delay_ns(nid(1), nid(0)), 450);
        assert_eq!(m.delay_ns(nid(0), nid(0)), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn out_of_bounds_delay_is_caught() {
        let phy = PhyConfig::default();
        let m = MediumBuilder::new(&phy).uniform(2, -70.0).build();
        let _ = m.delay_ns(nid(0), nid(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn bounds_panic_names_the_offending_pair() {
        let phy = PhyConfig::default();
        let m = MediumBuilder::new(&phy).uniform(3, -70.0).build();
        let err = std::panic::catch_unwind(|| m.gain(nid(1), nid(9))).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("tx 1") && msg.contains("rx 9") && msg.contains("3 nodes"),
            "panic message must name tx, rx and n: {msg}"
        );
    }

    #[test]
    fn sparse_epsilon_zero_matches_dense_exactly() {
        let phy = PhyConfig::default();
        let n = 5;
        let mut gains = vec![f64::NEG_INFINITY; n * n];
        let mut delays = vec![0u64; n * n];
        // A spread of strong, weak and sub-floor links.
        let levels = [-60.0, -80.0, -100.0, -118.0, -126.0];
        for tx in 0..n {
            for rx in 0..n {
                if tx != rx {
                    gains[tx * n + rx] = levels[(tx * 3 + rx) % levels.len()];
                    delays[tx * n + rx] = 30 + (tx * 7 + rx) as u64;
                }
            }
        }
        let dense = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .build();
        let sparse = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .sparse()
            .build();
        assert_eq!(sparse.kind_name(), "sparse");
        for tx in 0..n {
            assert_eq!(dense.reachable(nid(tx)), sparse.reachable(nid(tx)));
            for &rx in dense.reachable(nid(tx)) {
                assert_eq!(
                    dense.gain(nid(tx), rx).to_bits(),
                    sparse.gain(nid(tx), rx).to_bits()
                );
                assert_eq!(dense.delay_ns(nid(tx), rx), sparse.delay_ns(nid(tx), rx));
            }
        }
        let st = sparse.sparse_stats().unwrap();
        assert_eq!(st.pruned, 0);
        assert_eq!(st.error_bound_db.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn sparse_epsilon_prunes_and_records_the_bound() {
        let phy = PhyConfig::default();
        let n = 3;
        // 0→1 strong; 2→1 sits between the floor (-105) and floor+15.
        let mut gains = vec![f64::NEG_INFINITY; n * n];
        gains[1] = -60.0; // 0→1
        gains[2 * n + 1] = -117.0; // 2→1: rss = -102 dBm
        let delays = vec![50u64; n * n];
        let sparse = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .sparse()
            .epsilon_db(15.0)
            .build();
        assert_eq!(sparse.reachable(nid(2)), &[] as &[NodeId]);
        assert_eq!(sparse.gain(nid(2), nid(1)).to_bits(), 0.0f64.to_bits());
        let st = sparse.sparse_stats().unwrap();
        assert_eq!(st.pruned, 1);
        assert_eq!(st.epsilon_db.to_bits(), 15.0f64.to_bits());
        // Dropped -102 dBm against the noise floor: a small but nonzero
        // SINR-denominator inflation.
        assert!(st.error_bound_db > 0.0, "{}", st.error_bound_db);
        assert!(st.error_bound_db < 3.0, "{}", st.error_bound_db);
    }

    #[test]
    fn positions_build_matches_dense_materialisation() {
        let phy = PhyConfig::default();
        // A 4-node square, 20 m sides; a pure path-loss model.
        let pos = vec![(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)];
        let model = |_tx: usize, _rx: usize, dist: f64| -propagation::path_loss_db(dist, 3.3);
        let sparse = MediumBuilder::new(&phy)
            .positions(pos.clone(), 100.0, -120.0, model)
            .build();
        let dense = MediumBuilder::new(&phy)
            .positions(pos, 100.0, -120.0, model)
            .dense()
            .build();
        assert_eq!(sparse.kind_name(), "sparse");
        for tx in 0..4 {
            assert_eq!(dense.reachable(nid(tx)), sparse.reachable(nid(tx)));
            for &rx in dense.reachable(nid(tx)) {
                assert_eq!(
                    dense.gain(nid(tx), rx).to_bits(),
                    sparse.gain(nid(tx), rx).to_bits()
                );
                assert_eq!(dense.delay_ns(nid(tx), rx), sparse.delay_ns(nid(tx), rx));
            }
        }
    }

    /// `arrival(tx, 0..)` walks `reachable(tx)` in `(delay_ns, position)`
    /// order, each entry carrying what the pairwise accessors answer.
    fn assert_arrival_order(m: &Medium) {
        for tx in (0..m.len()).map(nid) {
            let reach = m.reachable(tx);
            let mut expect: Vec<(u64, u32)> = (0u32..)
                .zip(reach)
                .map(|(pos, &rx)| (m.delay_ns(tx, rx), pos))
                .collect();
            expect.sort_unstable();
            let got: Vec<Arrival> = (0u32..).map_while(|k| m.arrival(tx, k)).collect();
            assert_eq!(
                got.iter().map(|a| (a.delay_ns, a.pos)).collect::<Vec<_>>(),
                expect,
                "tx {tx}"
            );
            for a in &got {
                assert_eq!(a.rx, reach[a.pos as usize]);
                assert_eq!(a.rss_mw.to_bits(), m.rss_mw(tx, a.rx).to_bits());
            }
            assert_eq!(m.arrival(tx, reach.len() as u32 + 1), None);
        }
    }

    #[test]
    fn arrival_order_is_reachable_sorted_by_delay_then_position() {
        let phy = PhyConfig::default();
        // Coarse delays, so ties are common and position has to break
        // them; a few links below the delivery floor, so rows differ.
        let n = 9;
        let mut gains = vec![f64::NEG_INFINITY; n * n];
        let mut delays = vec![0u64; n * n];
        for tx in 0..n {
            for rx in (0..n).filter(|&rx| rx != tx) {
                gains[tx * n + rx] = if (tx + 2 * rx) % 7 == 0 {
                    -126.0
                } else {
                    -80.0
                };
                delays[tx * n + rx] = 40 * ((tx * 5 + rx * 3) % 4) as u64;
            }
        }
        let dense = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .build();
        let sparse = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .sparse()
            .build();
        assert!((0..n).any(|tx| dense.reachable(nid(tx)).len() < n - 1));
        assert_arrival_order(&dense);
        assert_arrival_order(&sparse);
        for tx in (0..n).map(nid) {
            for k in 0..n as u32 {
                assert_eq!(dense.arrival(tx, k), sparse.arrival(tx, k), "tx {tx} k {k}");
            }
        }
        // Geometry-fed sparse build: delays come from distances.
        let pos: Vec<(f64, f64)> = (0..30)
            .map(|i| (f64::from(i % 6) * 17.0, f64::from(i / 6) * 23.0))
            .collect();
        let model = |_: usize, _: usize, dist: f64| -propagation::path_loss_db(dist, 3.3);
        let city = MediumBuilder::new(&phy)
            .positions(pos, 90.0, -130.0, model)
            .build();
        assert!(city.reachable(nid(0)).len() > 3);
        assert_arrival_order(&city);
    }

    #[test]
    fn grid_neighbors_match_brute_force() {
        // Deterministic pseudo-random scatter (LCG) over a 200×200 m box.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let pos: Vec<(f64, f64)> = (0..80).map(|_| (next() * 200.0, next() * 200.0)).collect();
        let grid = Grid::build(&pos, 60.0);
        let mut out = Vec::new();
        for node in 0..pos.len() {
            for radius in [10.0, 35.0, 59.0] {
                grid.neighbors_within(nid(node), radius, &mut out);
                let brute: Vec<NodeId> = (0..pos.len())
                    .filter(|&o| o != node)
                    .filter(|&o| {
                        let (ax, ay) = pos[node];
                        let (bx, by) = pos[o];
                        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() <= radius
                    })
                    .map(nid)
                    .collect();
                assert_eq!(out, brute, "node {node} radius {radius}");
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_media() {
        let phy = PhyConfig::default();
        let a = MediumBuilder::new(&phy).uniform(3, -70.0).build();
        let b = MediumBuilder::new(&phy).uniform(3, -70.0).build();
        let c = MediumBuilder::new(&phy).uniform(3, -71.0).build();
        let d = MediumBuilder::new(&phy).uniform(3, -70.0).sparse().build();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(
            a.fingerprint(),
            d.fingerprint(),
            "engine kind is part of identity"
        );
    }

    #[test]
    #[should_panic(expected = "no source")]
    fn builder_without_source_panics() {
        let phy = PhyConfig::default();
        let _ = MediumBuilder::new(&phy).build();
    }
}
