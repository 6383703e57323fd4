//! Factorized learning over a [`hamlet_relational::catalog::StarSchema`].
//!
//! Trains classifiers with JoinAll semantics while never materializing
//! the KFK joins: logical columns of joined attribute tables are resolved
//! through FK indirection at access time ([`view::FactorizedView`]).
//! The view reports each foreign feature as a [`hamlet_ml::Column::Via`],
//! so the learners' own generic code does the rest: naive Bayes and CART
//! count through [`hamlet_ml::class_count_table`], which pushes
//! `count(FK, Y)` down to the entity table and folds it through the
//! attribute table ([`naive_bayes`]); logistic regression and GBT stream
//! codes through the FK ([`logreg`], `hamlet_trees::fit_factorized_gbt`).

pub mod execute;
pub mod logreg;
pub mod naive_bayes;
pub mod view;

pub use execute::view_for_plan;
pub use logreg::fit_factorized_logreg;
pub use naive_bayes::fit_factorized_nb;
pub use view::FactorizedView;
