//! # cmap-stats — statistics toolkit for the evaluation harness
//!
//! Small, dependency-free building blocks used by `cmap-bench`'s figure
//! modules and its `repro_all` binary: summary statistics ([`Summary`]), empirical
//! CDFs ([`Cdf`]), and a plain-text renderer for figure series ([`Table`]).
//! Every figure in the paper is either a CDF (Figs 12, 13, 15, 16, 18, 20),
//! a scatter (Fig 14), or a mean/percentile series (Figs 17, 19) — these
//! types cover all three.

mod cdf;
mod series;
mod summary;

pub use cdf::Cdf;
pub use series::{Series, Table};
pub use summary::{mean, percentile, std_dev, Summary};
