//! The shared wireless medium: who hears whom, and how loudly.
//!
//! A [`Medium`] is one link list: for every transmitter, the receivers
//! whose received power clears the pruning threshold — the delivery floor
//! plus a configurable epsilon margin — with the frozen large-scale gain
//! (path loss + shadowing) and propagation delay of each link, in CSR
//! form. Those are the only nodes frame events are generated for, so
//! memory and event fan-out scale with the *link* count, at 50 nodes and
//! at 100k alike.
//!
//! The event path reads each transmitter's row as [`Arrival`] records in
//! arrival order, built the first time that transmitter sends.
//!
//! With `epsilon_db == 0` (the default) the list is exact: every pair at
//! or above the delivery floor is a link. With a positive epsilon, links
//! inside the margin are pruned at build time and the worst-case
//! interference power dropped at any receiver is recorded as an error
//! bound ([`SparseStats`]), so run artifacts can state exactly how much
//! physics the pruning discarded.
//!
//! Construction goes through [`MediumBuilder`], from a gain matrix
//! (computed by `cmap-topo` or built directly in tests) or from node
//! positions and a link-gain model over a uniform-grid spatial index,
//! which never materialises an O(n²) matrix.

use std::sync::OnceLock;

use crate::config::{PhyConfig, DELIVERY_FLOOR_DBM};
use crate::node::NodeId;
use cmap_phy::{db_to_ratio, dbm_to_mw, mw_to_dbm, propagation, PLCP_PREAMBLE_NS, PLCP_SIG_NS};

/// One receiver of a transmission, as the event path reads it: a row of
/// these per transmitter, in arrival order ([`Medium::arrivals`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Arrival {
    pub(crate) rx: NodeId,
    /// Position of `rx` in `reachable(tx)`.
    pub(crate) pos: u32,
    pub(crate) delay_ns: u64,
    /// Received power before fading: `tx_power_mw * gain`.
    pub(crate) rss_mw: f64,
}

/// Build-time accounting of what pruning discarded, recorded in run
/// artifacts so a pruned run states its own physics error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseStats {
    /// Directed links kept (above the pruning threshold).
    pub links: u64,
    /// Directed links evaluated but pruned while `epsilon_db == 0` would
    /// have kept them (received power in `[delivery floor, threshold)`).
    pub pruned: u64,
    /// Directed pairs never evaluated (outside the spatial candidate
    /// range of a position-fed build); each is charged the tail gain.
    pub tail_pairs: u64,
    /// The configured pruning margin above the delivery floor, in dB.
    pub(crate) epsilon_db: f64,
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
    /// CSR buckets: cell `c`'s nodes are `nodes[off[c]..off[c + 1]]`, ascending.
    off: Vec<u32>,
    nodes: Vec<NodeId>,
    pos: Vec<(f64, f64)>,
}

impl Grid {
    fn build(pos: &[(f64, f64)], cell_m: f64) -> Grid {
        assert!(cell_m > 0.0, "grid cell must be positive");
        // With no nodes the span is −∞, which `as usize` takes to 0.
        let inf = f64::INFINITY;
        let (min_x, min_y, max_x, max_y) = pos.iter().fold((inf, inf, -inf, -inf), |b, &(x, y)| {
            (b.0.min(x), b.1.min(y), b.2.max(x), b.3.max(y))
        });
        let cols = (((max_x - min_x) / cell_m).floor() as usize + 1).max(1);
        let rows = (((max_y - min_y) / cell_m).floor() as usize + 1).max(1);
        // Counting sort into CSR buckets: two passes, no per-cell Vec.
        let cell_of = |x: f64, y: f64| {
            let cx = (((x - min_x) / cell_m).floor() as usize).min(cols - 1);
            let cy = (((y - min_y) / cell_m).floor() as usize).min(rows - 1);
            cy * cols + cx
        };
        let mut off = vec![0u32; cols * rows + 1];
        for &(x, y) in pos {
            off[cell_of(x, y)] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        // Filled from the back, each cell's end moves down to its start.
        let mut nodes = vec![NodeId::default(); pos.len()];
        for (i, &(x, y)) in pos.iter().enumerate().rev() {
            let c = cell_of(x, y);
            off[c] -= 1;
            nodes[off[c] as usize] = NodeId::new(i);
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

    /// Each node above `node` within `radius_m`, handed to `visit` with
    /// its squared distance, in scan order (cell by cell, each bucket
    /// ascending): half of the (symmetric) in-range relation.
    fn each_above(&self, node: NodeId, radius_m: f64, mut visit: impl FnMut(NodeId, f64)) {
        let (x, y) = self.pos[node.index()];
        let reach = (radius_m / self.cell_m).ceil() as isize;
        let cx = (((x - self.min_x) / self.cell_m).floor() as usize).min(self.cols - 1) as isize;
        let cy = (((y - self.min_y) / self.cell_m).floor() as usize).min(self.rows - 1) as isize;
        let r2 = radius_m * radius_m;
        for gy in (cy - reach).max(0)..=(cy + reach).min(self.rows as isize - 1) {
            for gx in (cx - reach).max(0)..=(cx + reach).min(self.cols as isize - 1) {
                let c = gy as usize * self.cols + gx as usize;
                let bucket = &self.nodes[self.off[c] as usize..self.off[c + 1] as usize];
                // Buckets are ascending: skip straight past `node`.
                for &other in &bucket[bucket.partition_point(|&o| o <= node)..] {
                    let (ox, oy) = self.pos[other.index()];
                    let d2 = (ox - x).powi(2) + (oy - y).powi(2);
                    if d2 <= r2 {
                        visit(other, d2);
                    }
                }
            }
        }
    }
}

/// The medium a [`World`](crate::World) runs over: per transmitter, the
/// links above the pruning threshold, stored in CSR form — flat arrays
/// plus `n + 1` offsets, receivers in ascending order — and, once the
/// transmitter has sent, the same row as `Arrival` records in arrival
/// order, so each fan-out event reads one record of one contiguous slice.
/// All power quantities are linear mW (gains are linear power ratios);
/// conversions to dB happen at the edges.
#[derive(Debug, Clone)]
pub struct Medium {
    n: usize,
    tx_power_mw: f64,
    /// Per transmitter `(offset, row_at)`: its links are index range
    /// `link_off[tx].0..link_off[tx + 1].0`, and its arrival row starts at
    /// `arrive[row_at]`, or is not built while `row_at == UNBUILT`.
    link_off: Vec<(u32, u32)>,
    /// Link receivers, ascending within each transmitter's row.
    link_rx: Vec<NodeId>,
    /// Linear power gain per link, parallel to `link_rx`.
    link_gain: Vec<f64>,
    /// Propagation delay per link in ns, parallel to `link_rx`.
    link_delay: Vec<u64>,
    /// The arrival rows built so far, in the order they were built; its
    /// capacity, one record per link, is reserved at build.
    arrive: Vec<Arrival>,
    stats: SparseStats,
    /// [`Medium::fingerprint`], hashed on first use.
    fingerprint: OnceLock<u64>,
}

/// `row_at` of a transmitter whose arrival row is not built yet.
const UNBUILT: u32 = u32::MAX;

/// The link rows of a [`Medium`] under construction, and what it prunes.
struct Rows {
    tx_power_mw: f64,
    floor_mw: f64,
    threshold_mw: f64,
    sub_floor_db: f64,
    link_off: Vec<(u32, u32)>,
    link_rx: Vec<NodeId>,
    link_gain: Vec<f64>,
    link_delay: Vec<u64>,
    pruned: u64,
    /// Power dropped per receiver, over its partners in ascending order;
    /// empty while nothing can be (ε = 0: the threshold *is* the floor).
    dropped_mw: Vec<f64>,
}

impl Rows {
    fn new(n: usize, phy: &PhyConfig, epsilon_db: f64) -> Rows {
        let floor_mw = dbm_to_mw(DELIVERY_FLOOR_DBM);
        let mut link_off = Vec::with_capacity(n + 1);
        link_off.push((0, UNBUILT));
        Rows {
            tx_power_mw: dbm_to_mw(phy.tx_power_dbm),
            floor_mw,
            threshold_mw: floor_mw * db_to_ratio(epsilon_db),
            sub_floor_db: DELIVERY_FLOOR_DBM - phy.tx_power_dbm - 0.5,
            link_off,
            link_rx: Vec::new(),
            link_gain: Vec::new(),
            link_delay: Vec::new(),
            pruned: 0,
            dropped_mw: vec![0.0; if epsilon_db > 0.0 { n } else { 0 }],
        }
    }

    /// `gain_db` as a linear power gain; `0.0` (no link and no charge, as
    /// the true value) below `sub_floor_db`, clearly under the floor.
    fn linear(&self, gain_db: f64) -> f64 {
        if gain_db < self.sub_floor_db {
            0.0
        } else {
            dbm_to_mw(gain_db)
        }
    }

    fn finish(self, phy: &PhyConfig, epsilon_db: f64, tail_pairs: u64) -> Medium {
        let worst = self.dropped_mw.iter().fold(0.0f64, |a, &b| a.max(b));
        Medium {
            n: self.link_off.len() - 1,
            tx_power_mw: self.tx_power_mw,
            // Reserved, not written: a page is touched when a row lands on it.
            arrive: Vec::with_capacity(self.link_rx.len()),
            stats: SparseStats {
                links: self.link_rx.len() as u64,
                pruned: self.pruned,
                tail_pairs,
                epsilon_db,
                error_bound_db: 10.0 * (1.0 + worst / phy.noise_mw()).log10(),
            },
            link_off: self.link_off,
            link_rx: self.link_rx,
            link_gain: self.link_gain,
            link_delay: self.link_delay,
            fingerprint: OnceLock::new(),
        }
    }
}

/// A link's delay is below the shortest frame's 20 µs (6 km), so a
/// transmission's events fall due in one order (`pool::Stream`).
fn assert_below_frame(tx: usize, rx: NodeId, delay_ns: u64) {
    let frame_ns = PLCP_PREAMBLE_NS + PLCP_SIG_NS;
    assert!(
        delay_ns < frame_ns,
        "MediumBuilder: link ({tx}, {rx}) delay {delay_ns} ns is not below the shortest frame's {frame_ns} ns"
    );
}

impl Medium {
    /// Build from a row-major `[tx * n + rx]` matrix of link gains in dB
    /// (negative = loss) and per-link delays in nanoseconds. Diagonal
    /// entries are ignored.
    fn from_matrix(
        n: usize,
        gains_db: Vec<f64>,
        delay_ns: &[u64],
        phy: &PhyConfig,
        epsilon_db: f64,
    ) -> Medium {
        let mut rows = Rows::new(n, phy, epsilon_db);
        // To linear once, in the matrix's allocation: both passes read it.
        let gain: Vec<f64> = gains_db.into_iter().map(|g| rows.linear(g)).collect();
        let links = (0..n * n)
            .filter(|&i| i / n != i % n && rows.tx_power_mw * gain[i] >= rows.threshold_mw)
            .count();
        rows.link_rx.reserve_exact(links);
        rows.link_gain.reserve_exact(links);
        rows.link_delay.reserve_exact(links);
        // A link, a pruned link, or below the floor (which no medium delivers).
        for tx in 0..n {
            for (rx, i) in (0..n).filter(|&rx| rx != tx).map(|rx| (rx, tx * n + rx)) {
                let rss = rows.tx_power_mw * gain[i];
                if rss >= rows.threshold_mw {
                    assert_below_frame(tx, NodeId::new(rx), delay_ns[i]);
                    rows.link_rx.push(NodeId::new(rx));
                    rows.link_gain.push(gain[i]);
                    rows.link_delay.push(delay_ns[i]);
                } else if rss >= rows.floor_mw {
                    rows.pruned += 1;
                    rows.dropped_mw[rx] += rss;
                }
            }
            let end = u32::try_from(rows.link_rx.len()).expect("links fit u32");
            rows.link_off.push((end, UNBUILT));
        }
        rows.finish(phy, epsilon_db, 0)
    }

    /// Build from node positions and a reciprocal link-gain model
    /// ([`MediumBuilder::positions`]): each unordered pair within
    /// `eval_range_m`, found through the grid index, priced once, then
    /// exact-size rows filled by counting sort (DESIGN.md §12.2).
    fn from_positions(
        positions: &[(f64, f64)],
        phy: &PhyConfig,
        epsilon_db: f64,
        eval_range_m: f64,
        tail_gain_db: f64,
        model: &dyn Fn(usize, usize, f64) -> f64,
    ) -> Medium {
        assert!(eval_range_m > 0.0, "evaluation range must be positive");
        let n = positions.len();
        // Cells as wide as the range: the scan is a 3×3 neighborhood.
        let grid = Grid::build(positions, eval_range_m);
        let mut rows = Rows::new(n, phy, epsilon_db);
        // Pass 1: per row `a`, its links `(b, delay, gain)` up to `row_end[a + 1]`;
        // per node its link count and the partners it was evaluated against.
        let (mut fill, mut evaluated) = (vec![0u32; n], vec![0u32; n]);
        let (mut links, mut row_end, mut dropped_above) = (Vec::new(), vec![0], Vec::new());
        for a in 0..n {
            grid.each_above(NodeId::new(a), eval_range_m, |b_id, d2| {
                let (b, dist) = (b_id.index(), d2.sqrt());
                evaluated[a] += 1;
                evaluated[b] += 1;
                let gain_db = model(a, b, dist);
                debug_assert!(
                    gain_db.to_bits() == model(b, a, dist).to_bits(),
                    "link model is not reciprocal: ({a}, {b}) and ({b}, {a}) differ at {dist} m"
                );
                let gain = rows.linear(gain_db);
                let rss = rows.tx_power_mw * gain;
                if rss >= rows.threshold_mw {
                    let delay_ns = propagation::propagation_delay_ns(dist);
                    assert_below_frame(a, b_id, delay_ns);
                    links.push((b_id, u32::try_from(delay_ns).expect("checked above"), gain));
                    fill[a] += 1;
                    fill[b] += 1;
                } else if rss >= rows.floor_mw {
                    // Partners ascending: `b`'s as `a` ascends, `a`'s once sorted.
                    rows.pruned += 2;
                    rows.dropped_mw[b] += rss;
                    dropped_above.push((b_id, rss));
                }
            });
            row_end.push(links.len());
            dropped_above.sort_unstable_by_key(|&(b, _)| b);
            for (_, rss) in dropped_above.drain(..) {
                rows.dropped_mw[a] += rss;
            }
        }
        // Pass 2: exact-size rows, `fill[r]` turned from row `r`'s link count
        // into its next free slot. Row `b`'s lower half comes in list order.
        let mut end = 0u32;
        for slot in &mut fill {
            (*slot, end) = (end, end.checked_add(*slot).expect("links fit u32"));
            rows.link_off.push((end, UNBUILT));
        }
        rows.link_rx = vec![NodeId::default(); end as usize];
        rows.link_gain = vec![0.0; end as usize];
        rows.link_delay = vec![0; end as usize];
        for (a, ends) in row_end.windows(2).enumerate() {
            for &(b, delay, gain) in &links[ends[0]..ends[1]] {
                let i = fill[b.index()] as usize;
                fill[b.index()] += 1;
                let link = (NodeId::new(a), gain, u64::from(delay));
                (rows.link_rx[i], rows.link_gain[i], rows.link_delay[i]) = link;
            }
        }
        // Upper halves, ascending: `b` joins each row of its lower half in turn.
        for b in 0..n {
            for i in rows.link_off[b].0 as usize..fill[b] as usize {
                let a = rows.link_rx[i].index();
                let j = fill[a] as usize;
                fill[a] += 1;
                rows.link_rx[j] = NodeId::new(b);
                (rows.link_gain[j], rows.link_delay[j]) = (rows.link_gain[i], rows.link_delay[i]);
            }
        }
        debug_assert!((0..n).all(|r| fill[r] == rows.link_off[r + 1].0));
        // Every never-evaluated pair is charged the tail gain, summed per
        // receiver: one pair can beat the charge, the receiver's sum must
        // not (DESIGN.md §12.4). A count is below `n`, which fits `u32`.
        let beyond = || evaluated.iter().map(|&e| (n - 1 - e as usize) as u32);
        let tail_rss_mw = rows.tx_power_mw * dbm_to_mw(tail_gain_db);
        rows.dropped_mw.resize(n, 0.0);
        for (dropped, pairs) in rows.dropped_mw.iter_mut().zip(beyond()) {
            *dropped += f64::from(pairs) * tail_rss_mw;
        }
        rows.finish(phy, epsilon_db, beyond().map(u64::from).sum())
    }

    /// Row slice of link array indices for `tx`.
    fn row(&self, tx: NodeId) -> std::ops::Range<usize> {
        self.link_off[tx.index()].0 as usize..self.link_off[tx.index() + 1].0 as usize
    }

    /// Index of the link `tx → rx` in the link arrays, if it is stored.
    fn find(&self, tx: NodeId, rx: NodeId) -> Option<usize> {
        debug_assert!(
            tx.index() < self.n && rx.index() < self.n,
            "Medium: pair (tx {tx}, rx {rx}) out of bounds for {} nodes",
            self.n
        );
        let row = self.row(tx);
        self.link_rx[row.clone()]
            .binary_search(&rx)
            .ok()
            .map(|i| row.start + i)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the medium has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Linear power gain from `tx` to `rx`; exactly `0.0` for any pair not
    /// in `reachable(tx)` — below the threshold a pair carries no energy.
    pub fn gain(&self, tx: NodeId, rx: NodeId) -> f64 {
        self.find(tx, rx).map_or(0.0, |i| self.link_gain[i])
    }

    /// Propagation delay from `tx` to `rx` in nanoseconds; `0` for any
    /// pair not in `reachable(tx)` (it generates no events, so the value
    /// is never used on the simulation path).
    pub fn delay_ns(&self, tx: NodeId, rx: NodeId) -> u64 {
        self.find(tx, rx).map_or(0, |i| self.link_delay[i])
    }

    /// Receivers that get events for transmissions from `tx`, in
    /// ascending node order (one contiguous CSR slice).
    pub fn reachable(&self, tx: NodeId) -> &[NodeId] {
        &self.link_rx[self.row(tx)]
    }

    /// The most receivers any one transmitter's row holds.
    pub(crate) fn widest_row(&self) -> usize {
        let rows = self.link_off.windows(2).map(|w| (w[1].0 - w[0].0) as usize);
        rows.max().unwrap_or(0)
    }

    /// `tx`'s receivers in arrival order: `reachable(tx)` sorted by
    /// `(delay_ns, position)`. The row is built on the first call for `tx`.
    #[inline]
    pub(crate) fn arrivals(&mut self, tx: NodeId) -> &[Arrival] {
        let (start, at) = self.link_off[tx.index()];
        let len = (self.link_off[tx.index() + 1].0 - start) as usize;
        let at = if at == UNBUILT {
            self.build_arrivals(tx)
        } else {
            at as usize
        };
        &self.arrive[at..at + len]
    }

    /// Append `tx`'s arrival row to `arrive`, record where it starts and
    /// return that. Position `j` holds a transmission's `j`-th reserved
    /// sequence number, so `(delay, position)` is the `(time, seq)` order
    /// of its per-receiver events. The key is unique, so an unstable sort
    /// gives the stable order, in place: no scratch buffer for any row.
    #[cold]
    #[inline(never)]
    fn build_arrivals(&mut self, tx: NodeId) -> usize {
        let (at, links, power_mw) = (self.arrive.len(), self.row(tx), self.tx_power_mw);
        let delay = &self.link_delay[links.clone()];
        let (rx, gain) = (&self.link_rx[links.clone()], &self.link_gain[links]);
        self.arrive.extend((0..rx.len()).map(|p| Arrival {
            rx: rx[p],
            pos: p as u32,
            delay_ns: delay[p],
            rss_mw: power_mw * gain[p],
        }));
        let row = &mut self.arrive[at..];
        row.sort_unstable_by_key(|a| (a.delay_ns, a.pos));
        // Strictly ascending keys whose delays are their positions' own:
        // no position is missing or repeated.
        debug_assert!(
            row.windows(2)
                .all(|w| (w[0].delay_ns, w[0].pos) < (w[1].delay_ns, w[1].pos))
                && row
                    .iter()
                    .all(|a| delay.get(a.pos as usize) == Some(&a.delay_ns)),
            "arrival row of {tx} is not its positions sorted by (delay, position)"
        );
        self.link_off[tx.index()].1 = u32::try_from(at).expect("links fit u32");
        at
    }

    /// Received power in linear mW at `rx` from `tx`, before fading.
    pub fn rss_mw(&self, tx: NodeId, rx: NodeId) -> f64 {
        self.tx_power_mw * self.gain(tx, rx)
    }

    /// Received power in dBm at `rx` from `tx`, before fading.
    pub fn rss_dbm(&self, tx: NodeId, rx: NodeId) -> f64 {
        mw_to_dbm(self.rss_mw(tx, rx))
    }

    /// Pruning accounting. `Some` for every medium — there is one engine;
    /// the `Option` stays only because `benchmark/src/replay.rs`, frozen,
    /// matches on it (ROADMAP item 7).
    pub fn sparse_stats(&self) -> Option<&SparseStats> {
        Some(&self.stats)
    }

    /// Structural fingerprint: word-wise FNV-1a over the link set — node count,
    /// transmit power, row offsets and every link's receiver, gain bits
    /// and delay. Two media with the same fingerprint produce the same
    /// event fan-out however they were fed, so checkpoints echo it to
    /// reject restores into a differently-built world (`cmap-ckpt/v8`). A
    /// medium never changes once built, so the hash runs once, at the
    /// first checkpoint or restore — not at build, which runs that never
    /// checkpoint would pay for.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv::new();
            h.u64(self.n as u64);
            h.u64(self.tx_power_mw.to_bits());
            for &(off, _) in &self.link_off {
                h.u64(u64::from(off));
            }
            for i in 0..self.link_rx.len() {
                h.u64(self.link_rx[i].index() as u64);
                h.u64(self.link_gain[i].to_bits());
                h.u64(self.link_delay[i]);
            }
            h.finish()
        })
    }
}

/// FNV-1a over a stream of `u64` words, a word a step (a bijection of the
/// state, so a change to any one word always changes the hash).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

// ---- builder -------------------------------------------------------------

/// Where the builder's channel data comes from.
enum Source<'m> {
    None,
    Matrix {
        n: usize,
        gains_db: Vec<f64>,
        delay_ns: Vec<u64>,
    },
    Positions {
        positions: Vec<(f64, f64)>,
        eval_range_m: f64,
        tail_gain_db: f64,
        model: Box<dyn Fn(usize, usize, f64) -> f64 + 'm>,
    },
}

/// Builds a [`Medium`]: pick a source (gain matrix, uniform gain, RSS
/// list, or positions + link model) and the pruning epsilon; transmit
/// power and noise floor come from the PHY configuration.
///
/// ```
/// use cmap_sim::{MediumBuilder, NodeId, PhyConfig};
/// let phy = PhyConfig::default();
/// let medium = MediumBuilder::new(&phy).uniform(3, -70.0).build();
/// assert_eq!(medium.len(), 3);
/// assert_eq!(medium.reachable(NodeId::new(0)).len(), 2);
/// ```
pub struct MediumBuilder<'m> {
    phy: PhyConfig,
    epsilon_db: f64,
    source: Source<'m>,
}

impl<'m> MediumBuilder<'m> {
    /// Start from a PHY configuration (transmit power and noise floor
    /// are taken from it).
    pub fn new(phy: &PhyConfig) -> MediumBuilder<'m> {
        MediumBuilder {
            phy: phy.clone(),
            epsilon_db: 0.0,
            source: Source::None,
        }
    }

    /// Pruning margin above the delivery floor, in dB (≥ 0), for any
    /// source. Links whose received power is below `delivery_floor +
    /// epsilon` are dropped and accounted in [`SparseStats`]; `0`, the
    /// default, is exact.
    pub fn epsilon_db(mut self, db: f64) -> Self {
        assert!(db >= 0.0, "epsilon is a margin above the floor");
        self.epsilon_db = db;
        self
    }

    /// Source: a row-major `n × n` gain matrix in dB plus per-link
    /// delays in ns (diagonal ignored).
    pub fn gains_db(self, n: usize, gains_db: &[f64], delay_ns: &[u64]) -> Self {
        self.matrix(n, gains_db.to_vec(), delay_ns.to_vec())
    }

    /// Source: every distinct pair shares one gain (dB) and a 100 ns
    /// delay.
    pub fn uniform(self, n: usize, gain_db: f64) -> Self {
        self.matrix(n, vec![gain_db; n * n], vec![100; n * n])
    }

    /// Source: `n` nodes linked only as `links` lists them, each `(a, b,
    /// rss_dbm)` in both directions with gain `rss_dbm − tx_power_dbm`
    /// and a 100 ns delay; any pair not listed is out of range.
    pub fn rss_links(self, n: usize, links: &[(usize, usize, f64)]) -> Self {
        let mut gains_db = vec![f64::NEG_INFINITY; n * n];
        for &(a, b, rss_dbm) in links {
            gains_db[a * n + b] = rss_dbm - self.phy.tx_power_dbm;
            gains_db[b * n + a] = rss_dbm - self.phy.tx_power_dbm;
        }
        self.matrix(n, gains_db, vec![100; n * n])
    }

    fn matrix(mut self, n: usize, gains_db: Vec<f64>, delay_ns: Vec<u64>) -> Self {
        assert_eq!(gains_db.len(), n * n, "gain matrix must be n*n");
        assert_eq!(delay_ns.len(), n * n, "delay matrix must be n*n");
        self.source = Source::Matrix {
            n,
            gains_db,
            delay_ns,
        };
        self
    }

    /// Source: node coordinates (metres) plus a pure, *reciprocal*
    /// link-gain model `model(a, b, dist_m) -> gain dB`: called once per
    /// pair within `eval_range_m` (found via the grid index), with `a <
    /// b`, its value is both directions' gain — debug builds also call
    /// `model(b, a, dist_m)` and panic unless the bits match; a
    /// direction-dependent channel goes through [`gains_db`](Self::gains_db).
    /// Each never-evaluated pair is charged `tail_gain_db` in the recorded
    /// error bound.
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

    /// Build the medium. Panics when no source was given.
    pub fn build(self) -> Medium {
        match self.source {
            Source::None => {
                panic!("MediumBuilder: no source configured (gains_db/uniform/rss_links/positions)")
            }
            Source::Matrix {
                n,
                gains_db,
                delay_ns,
            } => Medium::from_matrix(n, gains_db, &delay_ns, &self.phy, self.epsilon_db),
            Source::Positions {
                positions,
                eval_range_m,
                tail_gain_db,
                model,
            } => Medium::from_positions(
                &positions,
                &self.phy,
                self.epsilon_db,
                eval_range_m,
                tail_gain_db,
                &model,
            ),
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
    fn rss_links_are_both_directions_at_the_listed_rss() {
        let phy = PhyConfig::default();
        // The third link is below the delivery floor; 1–3 is not listed.
        let links = [(0, 1, -60.0), (2, 1, -93.0), (3, 0, -110.0)];
        let m = MediumBuilder::new(&phy).rss_links(4, &links).build();
        for (tx, rx) in (0..4).flat_map(|a| (0..4).map(move |b| (a, b))) {
            let listed = links
                .iter()
                .find(|&&(a, b, _)| (a, b) == (tx, rx) || (b, a) == (tx, rx));
            let linked = m.reachable(nid(tx)).contains(&nid(rx));
            match listed {
                Some(&(_, _, rss)) if rss >= DELIVERY_FLOOR_DBM => {
                    assert!(linked, "{tx}->{rx}");
                    assert!((m.rss_dbm(nid(tx), nid(rx)) - rss).abs() < 1e-9);
                    assert_eq!(m.delay_ns(nid(tx), nid(rx)), 100);
                }
                _ => assert!(!linked, "{tx}->{rx}"),
            }
        }
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
    fn epsilon_zero_keeps_exactly_the_links_at_or_above_the_floor() {
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
        let m = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .build();
        let floor_mw = dbm_to_mw(DELIVERY_FLOOR_DBM);
        for tx in 0..n {
            let above: Vec<NodeId> = (0..n)
                .filter(|&rx| rx != tx)
                .filter(|&rx| m.tx_power_mw * dbm_to_mw(gains[tx * n + rx]) >= floor_mw)
                .map(nid)
                .collect();
            assert_eq!(m.reachable(nid(tx)), above);
            for rx in (0..n).map(nid) {
                let link = tx * n + rx.index();
                let (gain, delay) = if above.contains(&rx) {
                    (dbm_to_mw(gains[link]), delays[link])
                } else {
                    (0.0, 0)
                };
                assert_eq!(m.gain(nid(tx), rx).to_bits(), gain.to_bits());
                assert_eq!(m.delay_ns(nid(tx), rx), delay);
            }
        }
        assert!((0..n).any(|tx| m.reachable(nid(tx)).len() < n - 1));
        let st = m.sparse_stats().unwrap();
        assert_eq!(st.pruned, 0);
        assert_eq!(st.error_bound_db.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn epsilon_prunes_a_matrix_source_and_records_the_bound() {
        let phy = PhyConfig::default();
        let n = 3;
        // 0→1 strong; 2→1 sits between the floor (-105) and floor+15.
        let mut gains = vec![f64::NEG_INFINITY; n * n];
        gains[1] = -60.0; // 0→1
        gains[2 * n + 1] = -117.0; // 2→1: rss = -102 dBm
        let delays = vec![50u64; n * n];
        let m = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .epsilon_db(15.0)
            .build();
        assert_eq!(m.reachable(nid(2)), &[] as &[NodeId]);
        assert_eq!(m.gain(nid(2), nid(1)).to_bits(), 0.0f64.to_bits());
        let st = m.sparse_stats().unwrap();
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
        let n = pos.len();
        let mut gains = vec![f64::NEG_INFINITY; n * n];
        let mut delays = vec![0u64; n * n];
        for tx in 0..n {
            for rx in (0..n).filter(|&rx| rx != tx) {
                let (ax, ay): (f64, f64) = pos[tx];
                let (bx, by) = pos[rx];
                let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                gains[tx * n + rx] = model(tx, rx, dist);
                delays[tx * n + rx] = propagation::propagation_delay_ns(dist);
            }
        }
        let matrix = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .build();
        let placed = MediumBuilder::new(&phy)
            .positions(pos, 100.0, -120.0, model)
            .build();
        for tx in 0..n {
            assert_eq!(matrix.reachable(nid(tx)).len(), n - 1);
            assert_eq!(matrix.reachable(nid(tx)), placed.reachable(nid(tx)));
            for &rx in matrix.reachable(nid(tx)) {
                assert_eq!(
                    matrix.gain(nid(tx), rx).to_bits(),
                    placed.gain(nid(tx), rx).to_bits()
                );
                assert_eq!(matrix.delay_ns(nid(tx), rx), placed.delay_ns(nid(tx), rx));
            }
        }
        assert_eq!(matrix.fingerprint(), placed.fingerprint());
    }

    /// Builds `m`'s arrival rows in a shuffled transmitter order, cloning
    /// the medium halfway and finishing on the clone, then holds every row
    /// to an eager sort of `reachable(tx)` by `(delay_ns, position)`, each
    /// record carrying what the pairwise accessors answer.
    fn assert_arrival_order(m: &Medium, shuffle: u64) {
        let mut order: Vec<NodeId> = (0..m.len()).map(nid).collect();
        let mut state = shuffle;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let (early, late) = order.split_at(order.len() / 2);
        let mut half = m.clone();
        for &tx in early {
            half.arrivals(tx);
        }
        let mut built = half.clone();
        for &tx in late {
            built.arrivals(tx);
        }
        for &tx in &order {
            let reach = m.reachable(tx);
            let mut expect: Vec<(u64, u32)> = (0u32..)
                .zip(reach)
                .map(|(pos, &rx)| (m.delay_ns(tx, rx), pos))
                .collect();
            expect.sort_unstable();
            let got = built.arrivals(tx);
            assert_eq!(
                got.iter().map(|a| (a.delay_ns, a.pos)).collect::<Vec<_>>(),
                expect,
                "tx {tx}"
            );
            for a in got {
                assert_eq!(a.rx, reach[a.pos as usize]);
                assert_eq!(a.rss_mw.to_bits(), m.rss_mw(tx, a.rx).to_bits());
            }
        }
        // Each row was built once, and nothing the fingerprint hashes moved.
        assert_eq!(built.arrive.len() as u64, m.stats.links);
        assert_eq!(built.fingerprint(), m.fingerprint());
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
        let m = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .build();
        assert!((0..n).any(|tx| m.reachable(nid(tx)).len() < n - 1));
        for shuffle in 1..4 {
            assert_arrival_order(&m, shuffle);
        }
        // Position-fed build: delays come from distances.
        let pos: Vec<(f64, f64)> = (0..30)
            .map(|i| (f64::from(i % 6) * 17.0, f64::from(i / 6) * 23.0))
            .collect();
        let model = |_: usize, _: usize, dist: f64| -propagation::path_loss_db(dist, 3.3);
        let city = MediumBuilder::new(&phy)
            .positions(pos, 90.0, -130.0, model)
            .build();
        assert!(city.reachable(nid(0)).len() > 3);
        for shuffle in 1..4 {
            assert_arrival_order(&city, shuffle);
        }
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
        // The squared distance measured from either end: the same bits.
        let d2 = |a: usize, b: usize| (pos[a].0 - pos[b].0).powi(2) + (pos[a].1 - pos[b].1).powi(2);
        for node in 0..pos.len() {
            for radius in [10.0, 35.0, 59.0] {
                let mut out = Vec::new();
                grid.each_above(nid(node), radius, |o, dist2| out.push((o, dist2.to_bits())));
                out.sort_unstable();
                let brute: Vec<(NodeId, u64)> = (node + 1..pos.len())
                    .filter(|&o| d2(node, o).sqrt() <= radius)
                    .map(|o| (nid(o), d2(o, node).to_bits()))
                    .collect();
                assert_eq!(out, brute, "node {node} radius {radius}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not reciprocal")]
    fn an_asymmetric_link_model_is_refused() {
        let phy = PhyConfig::default();
        let pos = vec![(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)];
        // One dB louder from the lower-numbered end.
        let model = |a: usize, b: usize, dist: f64| {
            -propagation::path_loss_db(dist, 3.3) + if a < b { 1.0 } else { 0.0 }
        };
        let _ = MediumBuilder::new(&phy)
            .positions(pos, 100.0, -120.0, model)
            .build();
    }

    #[test]
    fn fingerprint_distinguishes_media() {
        let phy = PhyConfig::default();
        let a = MediumBuilder::new(&phy).uniform(3, -70.0).build();
        let b = MediumBuilder::new(&phy).uniform(3, -70.0).build();
        let c = MediumBuilder::new(&phy).uniform(3, -71.0).build();
        // The same links fed as an explicit matrix: the source is not
        // part of identity.
        let mut gains = vec![-70.0; 9];
        gains[4] = 0.0;
        let d = MediumBuilder::new(&phy)
            .gains_db(3, &gains, &[100; 9])
            .build();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), d.fingerprint());
    }

    /// A link as long in flight as the shortest frame on the air (20 µs)
    /// would let a `FrameStart` fall due after its transmission's `TxEnd`.
    #[test]
    #[should_panic(expected = "link (2, 1) delay 20000 ns is not below")]
    fn a_link_as_long_as_the_shortest_frame_is_refused() {
        let phy = PhyConfig::default();
        let mut delays = vec![19_999; 9];
        delays[2 * 3 + 1] = 20_000;
        let _ = MediumBuilder::new(&phy)
            .gains_db(3, &[-70.0; 9], &delays)
            .build();
    }

    /// The same from positions: 6 km of flight is 20 µs.
    #[test]
    #[should_panic(expected = "is not below the shortest frame's 20000 ns")]
    fn a_pair_six_km_apart_is_refused() {
        let phy = PhyConfig::default();
        let pos = vec![(0.0, 0.0), (6_000.0, 0.0)];
        let _ = MediumBuilder::new(&phy)
            .positions(pos, 7_000.0, -120.0, |_, _, _| -70.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "no source")]
    fn builder_without_source_panics() {
        let phy = PhyConfig::default();
        let _ = MediumBuilder::new(&phy).build();
    }
}
