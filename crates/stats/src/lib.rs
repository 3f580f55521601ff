//! # cmap-stats — statistics toolkit for the evaluation harness
//!
//! Small, dependency-free building blocks used by `cmap-experiments` and the
//! figure-regeneration binaries: summary statistics ([`summary`]), empirical
//! CDFs ([`Cdf`]), and a plain-text renderer for figure series ([`series`]).
//! Every figure in the paper is either a CDF (Figs 12, 13, 15, 16, 18, 20),
//! a scatter (Fig 14), or a mean/percentile series (Figs 17, 19) — these
//! types cover all three.

pub mod cdf;
pub mod series;
pub mod summary;

pub use cdf::Cdf;
pub use series::{Series, Table};
pub use summary::{mean, median, percentile, std_dev, Summary};
