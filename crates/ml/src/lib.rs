//! # hamlet-ml
//!
//! ML substrate for the SIGMOD 2016 "To Join or Not to Join?" reproduction:
//! the classifiers, metrics, and statistical machinery the paper's analysis
//! and experiments need, implemented from scratch over all-nominal data.
//!
//! * [`Dataset`] — single-table view with index-set row/feature subsetting
//!   (no copies during greedy feature selection);
//! * [`NaiveBayes`] — the paper's running classifier, with Laplace
//!   smoothing (Sec 2.1), fitted from [`class_count_table`] — the one
//!   count primitive, over materialized or factorized sources alike —
//!   through [`smoothed_log_table`], the one smoothing recipe;
//! * [`LogisticRegression`] — sparse multinomial SGD with lazy L1/L2
//!   regularization (Secs 2.2, 5.3);
//! * [`Tan`] — Tree-Augmented Naive Bayes (appendix E);
//! * [`HoldoutSplit`] — the 50%:25%:25% protocol (Sec 5);
//! * [`ErrorMetric`] — zero-one for binary targets, RMSE for ordinal
//!   multi-class targets (Sec 5.1);
//! * [`SuffStats`] / [`SweepFit`] — per-(fold, feature) class-conditional
//!   count tables cached for the lifetime of a selection run: NB models
//!   assemble from them with zero row scans, filter scores read them, and
//!   logreg fits warm-start from the parent subset's weights;
//! * [`bias_variance`] — Domingos-style decomposition used by the
//!   simulation study (Sec 4.1);
//! * [`info`] — entropy / mutual information / information gain ratio /
//!   conditional MI (Secs 2.2, 3.1, appendices B, E).

pub mod bias_variance;
pub mod classifier;
pub mod dataset;
pub mod encoding;
pub mod evaluation;
pub mod incremental;
pub mod info;
pub mod logreg;
pub mod model_selection;
pub mod naive_bayes;
pub mod redundancy;
pub mod source;
pub mod split;
pub mod suffstats;
pub mod tan;
pub mod tree;

pub use bias_variance::{decompose, decompose_observed, BiasVarianceReport};
pub use classifier::{rmse, zero_one_error, Classifier, ErrorMetric, Model};
pub use dataset::{Dataset, Feature};
pub use encoding::{EncodeError, Encoder, Encoding};
pub use evaluation::{cross_validate, kfold_indices, ConfusionMatrix};
pub use incremental::{fit_incremental, IncrementalNaiveBayes};
pub use logreg::{LogisticRegression, LogisticRegressionModel, Penalty};
pub use model_selection::{grid_search, grid_search_test_error, GridSearchResult};
pub use naive_bayes::{smoothed_log_table, NaiveBayes, NaiveBayesModel};
pub use redundancy::{is_markov_blanket, is_redundant_given_fk, is_weakly_relevant};
pub use source::{class_count_table, class_count_tables, class_histogram, CodeSource, Column};
pub use split::{disjoint_train_sets, HoldoutSplit};
pub use suffstats::{SuffStats, SweepFit};
pub use tan::{Tan, TanModel};
pub use tree::{DecisionTree, DecisionTreeModel};
