//! The paper's three four-node configurations (Fig 1, §2, §5): two
//! sender → receiver pairs, 0 → 1 and 2 → 3, that differ only in who
//! hears whom. Each is a list of `(a, b, rss_dbm)` links, each in both
//! directions; any pair not listed is out of range. A simulator medium is
//! built from one with `MediumBuilder::rss_links`.

/// Exposed terminals (Fig 12): the senders hear each other, so carrier
/// sense serialises them, but each receiver barely hears the other
/// sender, so both pairs can (and should) run concurrently.
pub const EXPOSED: &[(usize, usize, f64)] = &[
    (0, 1, -60.0),
    (2, 3, -60.0),
    (0, 2, -75.0),
    (0, 3, -93.0),
    (2, 1, -93.0),
    (1, 3, -95.0),
];

/// Conflicting pairs: the senders hear each other and each one drowns the
/// other pair's receiver, so concurrent transmissions destroy each other.
pub const CONFLICTING: &[(usize, usize, f64)] = &[
    (0, 1, -60.0),
    (2, 3, -60.0),
    (0, 2, -65.0),
    (0, 3, -63.0),
    (2, 1, -63.0),
    (1, 3, -80.0),
];

/// Hidden terminals: the senders cannot hear each other, but each
/// receiver hears both senders loudly.
pub const HIDDEN: &[(usize, usize, f64)] = &[
    (0, 1, -60.0),
    (2, 3, -60.0),
    (0, 3, -62.0),
    (2, 1, -62.0),
    (1, 3, -70.0),
];
