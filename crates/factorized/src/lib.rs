//! Factorized learning over a [`hamlet_relational::catalog::StarSchema`].
//!
//! Trains classifiers with JoinAll semantics while never materializing
//! the KFK joins: logical columns of joined attribute tables are resolved
//! through FK indirection at access time ([`view::FactorizedView`]).
//! The view is a [`hamlet_ml::CodeSource`] that reports each foreign
//! feature as a [`hamlet_ml::Column::Via`], so every learner trains on
//! it through the one entry point, `learner.fit(&view, rows, feats)`,
//! and its own generic code does the rest: naive Bayes, TAN, ID3 and
//! CART count through [`hamlet_ml::class_count_table`], which pushes
//! `count(FK, Y)` down to the entity table and folds it through the
//! attribute table; logistic regression streams codes through the FK;
//! GBT folds its residual sums through the FK the same way. Each model
//! equals the one fitted on the materialized join.

pub mod execute;
pub mod naive_bayes;
pub mod view;

pub use execute::view_for_plan;
pub use naive_bayes::fit_factorized_nb;
pub use view::FactorizedView;
