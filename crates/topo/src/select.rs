//! Experiment topology selection: the constraints of Fig 11 and §5.6.
//!
//! Each evaluation experiment picks sender/receiver sets from the testbed
//! subject to PRR and signal-strength constraints measured beforehand. The
//! selectors here enumerate every candidate configuration satisfying the
//! figure's constraints and sample the requested number uniformly (without
//! replacement) from a caller-supplied RNG, mirroring "chosen at random from
//! all possible configurations" (§5.2).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::measure::LinkMeasurements;
use crate::testbed::Testbed;

/// Two sender→receiver links evaluated concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkPair {
    /// First sender.
    pub s1: usize,
    /// First receiver.
    pub r1: usize,
    /// Second sender.
    pub s2: usize,
    /// Second receiver.
    pub r2: usize,
}

impl LinkPair {
    fn nodes(&self) -> [usize; 4] {
        [self.s1, self.r1, self.s2, self.r2]
    }
}

/// A sender→receiver link plus an interferer (§5.4, Fig 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfererTriple {
    /// The measured link's sender.
    pub s: usize,
    /// The measured link's receiver.
    pub r: usize,
    /// The interfering node, transmitting continuously.
    pub i: usize,
}

/// A two-hop content-dissemination tree (§5.7, Fig 11(d)): `source`
/// transmits a batch to each relay `a[k]`, which forwards to leaf `b[k]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshTopology {
    /// The content source S.
    pub source: usize,
    /// First-hop relays A1..Ak.
    pub relays: Vec<usize>,
    /// Second-hop leaves B1..Bk.
    pub leaves: Vec<usize>,
}

/// One access-point experiment instance (§5.6): `links[k]` is the
/// (sender, receiver) pair in cell `k`; one endpoint of each is the AP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApTopology {
    /// The access points, one per selected region.
    pub aps: Vec<usize>,
    /// The active link in each cell: (sender, receiver).
    pub links: Vec<(usize, usize)>,
}

fn all_distinct(nodes: &[usize]) -> bool {
    nodes
        .iter()
        .enumerate()
        .all(|(i, &a)| nodes[..i].iter().all(|&b| b != a))
}

/// Directed links that are potential transmission links.
fn potential_links(lm: &LinkMeasurements) -> Vec<(usize, usize)> {
    let n = lm.len();
    let mut v = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b && lm.potential_link(a, b) {
                v.push((a, b));
            }
        }
    }
    v
}

/// Up to `count` pairs of `links`, sampled uniformly: every pair of two
/// distinct links over four distinct nodes, with `s1 < s2`, that `keep`
/// accepts.
fn sample_pairs(
    links: &[(usize, usize)],
    count: usize,
    rng: &mut SmallRng,
    keep: impl Fn(&LinkPair) -> bool,
) -> Vec<LinkPair> {
    let mut candidates = Vec::new();
    for &(s1, r1) in links {
        for &(s2, r2) in links {
            let pair = LinkPair { s1, r1, s2, r2 };
            if s1 < s2 && all_distinct(&pair.nodes()) && keep(&pair) {
                candidates.push(pair);
            }
        }
    }
    candidates.shuffle(rng);
    candidates.truncate(count);
    candidates
}

/// Fig 11(a): exposed-terminal pairs. Senders in range of each other, each
/// link a potential transmission link with strong (top-decile) signal, and
/// every other pairing among the four nodes weak.
pub fn exposed_pairs(lm: &LinkMeasurements, count: usize, rng: &mut SmallRng) -> Vec<LinkPair> {
    let strong_links: Vec<(usize, usize)> = potential_links(lm)
        .into_iter()
        .filter(|&(s, r)| lm.strong(s, r))
        .collect();
    sample_pairs(&strong_links, count, rng, |&LinkPair { s1, r1, s2, r2 }| {
        // All non-link pairings weak in both directions.
        let others = [(s1, r2), (s2, r1), (r1, r2), (s1, s2)];
        lm.in_range(s1, s2) && others.iter().all(|&(a, b)| lm.weak(a, b) && lm.weak(b, a))
    })
}

/// Fig 11(b): two senders in range of each other, both links potential
/// transmission links, signal strengths otherwise unconstrained.
pub fn in_range_pairs(lm: &LinkMeasurements, count: usize, rng: &mut SmallRng) -> Vec<LinkPair> {
    let links = potential_links(lm);
    sample_pairs(&links, count, rng, |p| lm.in_range(p.s1, p.s2))
}

/// Fig 11(c): hidden-terminal pairs. Each receiver has a potential
/// transmission link to *both* senders (so the transmissions almost always
/// collide at the receivers) while the senders are out of range of each
/// other (so they cannot defer).
pub fn hidden_pairs(lm: &LinkMeasurements, count: usize, rng: &mut SmallRng) -> Vec<LinkPair> {
    let links = potential_links(lm);
    sample_pairs(&links, count, rng, |&LinkPair { s1, r1, s2, r2 }| {
        !lm.in_range(s1, s2) && lm.potential_link(s2, r1) && lm.potential_link(s1, r2)
    })
}

/// §5.4: potential transmission links paired with a uniformly random
/// interferer node.
pub fn interferer_triples(
    lm: &LinkMeasurements,
    count: usize,
    rng: &mut SmallRng,
) -> Vec<InterfererTriple> {
    let links = potential_links(lm);
    assert!(!links.is_empty(), "no potential links in testbed");
    let n = lm.len();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let &(s, r) = links.choose(rng).expect("non-empty");
        let i = loop {
            let i = rng.gen_range(0..n);
            if i != s && i != r {
                break i;
            }
        };
        out.push(InterfererTriple { s, r, i });
    }
    out
}

/// §5.7, Fig 11(d): two-hop dissemination trees with `fanout` branches.
/// `S → Ai` and `Ai → Bi` are potential transmission links; the leaves are
/// genuinely two hops out (no potential link from the source).
pub fn mesh_topologies(
    lm: &LinkMeasurements,
    fanout: usize,
    count: usize,
    rng: &mut SmallRng,
) -> Vec<MeshTopology> {
    let n = lm.len();
    let mut out = Vec::new();
    let mut attempts = 0;
    while out.len() < count && attempts < count * 400 {
        attempts += 1;
        let source = rng.gen_range(0..n);
        let relay_candidates: Vec<usize> = (0..n)
            .filter(|&a| a != source && lm.potential_link(source, a))
            .collect();
        if relay_candidates.len() < fanout {
            continue;
        }
        let mut relays = relay_candidates;
        relays.shuffle(rng);
        relays.truncate(fanout);
        let mut used: Vec<usize> = vec![source];
        used.extend_from_slice(&relays);
        let mut leaves = Vec::with_capacity(fanout);
        let mut ok = true;
        for &a in &relays {
            let leaf_candidates: Vec<usize> = (0..n)
                .filter(|&b| {
                    !used.contains(&b) && lm.potential_link(a, b) && !lm.potential_link(source, b)
                })
                .collect();
            match leaf_candidates.choose(rng) {
                Some(&b) => {
                    leaves.push(b);
                    used.push(b);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            out.push(MeshTopology {
                source,
                relays,
                leaves,
            });
        }
    }
    out
}

/// Assign each node to one of six floor regions (3 columns × 2 rows).
pub fn regions(tb: &Testbed) -> Vec<usize> {
    tb.positions
        .iter()
        .map(|&(x, y)| {
            let col = ((x / Testbed::WIDTH_M * 3.0) as usize).min(2);
            let row = ((y / Testbed::DEPTH_M * 2.0) as usize).min(1);
            row * 3 + col
        })
        .collect()
}

/// Walk order over the six regions such that consecutive entries are
/// spatially adjacent (a Hamiltonian path on the 3×2 grid).
const REGION_PATH: [usize; 6] = [0, 1, 2, 5, 4, 3];

/// §5.6: build one AP experiment with `n_aps` access points in adjacent
/// regions, each with one randomly chosen client and a random transfer
/// direction. APs are mutually out of range. Returns `None` if the testbed
/// draw cannot satisfy the constraints (caller retries with another seed).
pub fn ap_topology(
    tb: &Testbed,
    lm: &LinkMeasurements,
    n_aps: usize,
    rng: &mut SmallRng,
) -> Option<ApTopology> {
    assert!((1..=6).contains(&n_aps));
    let region_of = regions(tb);
    let start = rng.gen_range(0..REGION_PATH.len());
    'window: for w in 0..REGION_PATH.len() {
        let window: Vec<usize> = (0..n_aps)
            .map(|k| REGION_PATH[(start + w + k) % REGION_PATH.len()])
            .collect();
        for _try in 0..60 {
            let mut aps = Vec::with_capacity(n_aps);
            let mut links = Vec::with_capacity(n_aps);
            let mut ok = true;
            for &region in &window {
                let members: Vec<usize> =
                    (0..tb.len()).filter(|&v| region_of[v] == region).collect();
                // Candidate APs: region members with at least one potential
                // client in the same region, out of range of chosen APs.
                let candidates: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&ap| {
                        aps.iter().all(|&other| !lm.in_range(ap, other))
                            && members.iter().any(|&c| c != ap && lm.potential_link(ap, c))
                    })
                    .collect();
                let Some(&ap) = candidates.choose(rng) else {
                    ok = false;
                    break;
                };
                let clients: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&c| c != ap && lm.potential_link(ap, c))
                    .collect();
                let &client = clients.choose(rng).expect("candidate AP has a client");
                let link = if rng.gen_bool(0.5) {
                    (ap, client)
                } else {
                    (client, ap)
                };
                aps.push(ap);
                links.push(link);
            }
            if ok {
                return Some(ApTopology { aps, links });
            }
            if aps.is_empty() {
                // This window has an impossible region; try the next window.
                continue 'window;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::RadioEnv;
    use cmap_phy::Rate;
    use rand::SeedableRng;

    fn setup() -> (Testbed, LinkMeasurements) {
        let tb = Testbed::office_floor(42);
        let lm = LinkMeasurements::analyze(&tb, &RadioEnv::default(), Rate::R6, 1400);
        (tb, lm)
    }

    #[test]
    fn exposed_pairs_satisfy_constraints() {
        let (_tb, lm) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        let pairs = exposed_pairs(&lm, 20, &mut rng);
        assert!(!pairs.is_empty(), "no exposed pairs found");
        for p in &pairs {
            assert!(lm.in_range(p.s1, p.s2));
            assert!(lm.potential_link(p.s1, p.r1) && lm.potential_link(p.s2, p.r2));
            assert!(lm.strong(p.s1, p.r1) && lm.strong(p.s2, p.r2));
            assert!(lm.weak(p.s1, p.r2) && lm.weak(p.s2, p.r1));
            assert!(lm.weak(p.r1, p.r2) && lm.weak(p.r2, p.r1));
        }
    }

    #[test]
    fn in_range_pairs_satisfy_constraints() {
        let (_tb, lm) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        let pairs = in_range_pairs(&lm, 50, &mut rng);
        assert!(pairs.len() >= 20, "{}", pairs.len());
        for p in &pairs {
            assert!(lm.in_range(p.s1, p.s2));
            assert!(lm.potential_link(p.s1, p.r1) && lm.potential_link(p.s2, p.r2));
        }
    }

    #[test]
    fn hidden_pairs_satisfy_constraints() {
        let (_tb, lm) = setup();
        let mut rng = SmallRng::seed_from_u64(3);
        let pairs = hidden_pairs(&lm, 50, &mut rng);
        assert!(!pairs.is_empty(), "no hidden pairs found");
        for p in &pairs {
            assert!(!lm.in_range(p.s1, p.s2), "senders must be hidden");
            assert!(lm.potential_link(p.s1, p.r1) && lm.potential_link(p.s2, p.r2));
            assert!(lm.potential_link(p.s1, p.r2) && lm.potential_link(p.s2, p.r1));
        }
    }

    #[test]
    fn triples_are_valid_and_plentiful() {
        let (_tb, lm) = setup();
        let mut rng = SmallRng::seed_from_u64(4);
        let triples = interferer_triples(&lm, 500, &mut rng);
        assert_eq!(triples.len(), 500);
        for t in &triples {
            assert!(lm.potential_link(t.s, t.r));
            assert!(t.i != t.s && t.i != t.r);
        }
    }

    #[test]
    fn mesh_trees_are_two_hop() {
        let (_tb, lm) = setup();
        let mut rng = SmallRng::seed_from_u64(5);
        let meshes = mesh_topologies(&lm, 3, 10, &mut rng);
        assert!(!meshes.is_empty(), "no mesh topologies found");
        for m in &meshes {
            assert_eq!(m.relays.len(), 3);
            assert_eq!(m.leaves.len(), 3);
            let mut all = vec![m.source];
            all.extend(&m.relays);
            all.extend(&m.leaves);
            assert!(all_distinct(&all));
            for (k, &a) in m.relays.iter().enumerate() {
                assert!(lm.potential_link(m.source, a));
                assert!(lm.potential_link(a, m.leaves[k]));
                assert!(!lm.potential_link(m.source, m.leaves[k]));
            }
        }
    }

    #[test]
    fn regions_partition_the_floor() {
        let (tb, _lm) = setup();
        let r = regions(&tb);
        assert_eq!(r.len(), tb.len());
        assert!(r.iter().all(|&x| x < 6));
        // All six regions populated on the default floor.
        for region in 0..6 {
            assert!(r.contains(&region), "region {region} empty");
        }
    }

    #[test]
    fn ap_topologies_satisfy_constraints() {
        let (tb, lm) = setup();
        let mut rng = SmallRng::seed_from_u64(6);
        for n_aps in 3..=6 {
            let topo = ap_topology(&tb, &lm, n_aps, &mut rng)
                .unwrap_or_else(|| panic!("no AP topology with {n_aps} APs"));
            assert_eq!(topo.aps.len(), n_aps);
            assert_eq!(topo.links.len(), n_aps);
            for (k, &(s, r)) in topo.links.iter().enumerate() {
                let ap = topo.aps[k];
                assert!(s == ap || r == ap, "link must touch its AP");
                assert!(lm.potential_link(s, r));
            }
            for i in 0..n_aps {
                for j in (i + 1)..n_aps {
                    assert!(!lm.in_range(topo.aps[i], topo.aps[j]));
                }
            }
        }
    }
}
