//! Tree learning over the star schema: CART decision trees and
//! gradient-boosted trees, trained two bit-for-bit identical ways.
//!
//! * **Materialized** — from `Dataset` rows of the join output, like
//!   every other classifier in `hamlet_ml`.
//! * **Factorized** — over a `FactorizedView`, with CART split
//!   statistics assembled from pushed-down per-table class-conditional
//!   count aggregates (the JoinBoost recipe) and GBT's exact
//!   fixed-point residual sums folded through each FK the same way, so
//!   **no join is ever materialized** and peak allocation does not
//!   scale with fanout.
//!
//! Both learners implement `Classifier` and `SweepFit`, so
//! forward/backward/filter selection sweeps run on trees through the
//! `hamlet_fs` engine unchanged, with thread-count-invariant parallel
//! split scoring (chunked over candidate features, reduced in feature
//! order).
//!
//! This family is why per-family join-avoidance thresholds exist: trees
//! are high-capacity learners, and "Are KFK Joins Safe to Avoid when
//! Learning High-Capacity Classifiers?" (arXiv 1704.00485) shows the
//! paper's linear-model TR/ROR thresholds are too permissive for them.
//! The Monte-Carlo revalidation in `hamlet_experiments::family` fits
//! the tree-specific `(rho, tau)` the advisor quotes.

pub mod cart;
pub mod factorized;
pub mod gbt;
pub mod sweep;

pub use cart::{CartModel, CartNode, CartTree, TreeError};
pub use factorized::{fit_factorized_gbt, fit_factorized_tree};
pub use gbt::{Gbt, GbtModel, RegNode, RegTree, DEFAULT_GBT_ROUNDS};
