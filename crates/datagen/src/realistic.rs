//! Synthetic analogs of the paper's seven real datasets (Sec 5, Fig 6).
//!
//! The originals (Kaggle / GroupLens / openflights / last.fm dumps) are
//! not redistributable here, so each dataset is synthesized with the
//! exact Figure 6 shape statistics — `#Y`, `(n_S, d_S)`, `k`, `k'`,
//! `(n_Ri, d_Ri)` — and a **planted ground truth** that reproduces the
//! paper's qualitative outcome for every join (see DESIGN.md §3).
//!
//! ## The planted concept
//!
//! The target is an equal-mass ordinal bucketing of a Gaussian score
//!
//! ```text
//! score = Σ w_e · value(X_S feature)                  (entity signal)
//!       + Σ_i [ w_hidden_i · hidden_i(FK_i)           (FK-identity signal)
//!             + Σ w_v · value(visible R_i feature) ]  (foreign-feature signal)
//!       + noise · N(0, 1)
//! ```
//!
//! where `value(·)` is the feature's uniformly distributed code scaled to
//! unit variance and `hidden_i(rid) ~ N(0,1)` is a per-row latent of the
//! attribute table that is *not recorded as a feature* (store/user/movie
//! identity effects). The three signal channels decide each join's fate:
//!
//! * **hidden-only** signal (Walmart, MovieLens1M, LastFM users): the FK
//!   is indispensable (dropping FKs is catastrophic, Fig 8C) but the join
//!   adds nothing — safe to avoid whenever `n_S/n_R` is large;
//! * **visible** signal with a *small* tuple ratio (Yelp, BookCrossing
//!   users): the FK-as-representative overfits, so avoiding the join
//!   blows up the error — exactly the paper's variance argument;
//! * **weak/no** signal (Flights airports, BookCrossing books, LastFM
//!   artists): avoidable in hindsight; a conservative rule may still say
//!   "join" (the paper's missed opportunities).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hamlet_relational::{AttributeDef, AttributeTable, Domain, StarSchema, TableBuilder};

use crate::stats::normal_quantile;

/// One feature's name and domain size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSpec {
    /// Attribute name (taken from the paper's schema listings).
    pub name: &'static str,
    /// Nominal domain size (numeric originals are pre-binned).
    pub domain: usize,
}

impl FeatureSpec {
    const fn new(name: &'static str, domain: usize) -> Self {
        Self { name, domain }
    }
}

/// Specification of one attribute table `R_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrTableSpec {
    /// Table name.
    pub table: &'static str,
    /// Foreign-key column name in the entity table.
    pub fk: &'static str,
    /// Full-scale row count `n_Ri` (Fig 6).
    pub n_rows: usize,
    /// Foreign features `X_Ri`.
    pub features: Vec<FeatureSpec>,
    /// Whether the FK domain is closed w.r.t. the prediction task (`k'`).
    pub closed: bool,
    /// Concept weight on the hidden per-RID latent.
    pub hidden_weight: f64,
    /// Concept weights on visible features: `(feature index, weight)`.
    pub visible_weights: Vec<(usize, f64)>,
    /// Ground truth: does avoiding this join leave the test error
    /// essentially unchanged? (Used by integration tests and the
    /// robustness experiment's expectations.)
    pub safe_to_avoid_in_hindsight: bool,
}

/// Specification of one full dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as in Fig 6.
    pub name: &'static str,
    /// Number of target classes `#Y`.
    pub n_classes: usize,
    /// Full-scale entity rows `n_S`.
    pub n_s: usize,
    /// Target attribute name.
    pub target: &'static str,
    /// Entity features `X_S`.
    pub entity_features: Vec<FeatureSpec>,
    /// Concept weights on entity features: `(feature index, weight)`.
    pub entity_weights: Vec<(usize, f64)>,
    /// Attribute tables `R_1..R_k`.
    pub tables: Vec<AttrTableSpec>,
    /// Standard deviation of the additive Gaussian score noise.
    pub noise: f64,
}

/// A generated dataset: the star schema plus its spec.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The validated star schema at the requested scale.
    pub star: StarSchema,
    /// The specification it was generated from.
    pub spec: DatasetSpec,
    /// The scale factor applied to `n_S` and every `n_Ri`.
    pub scale: f64,
}

impl DatasetSpec {
    /// All seven datasets in the paper's Figure 6 order.
    pub fn all() -> Vec<DatasetSpec> {
        vec![
            Self::walmart(),
            Self::expedia(),
            Self::flights(),
            Self::yelp(),
            Self::movielens(),
            Self::lastfm(),
            Self::bookcrossing(),
        ]
    }

    /// Looks a dataset up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        Self::all()
            .into_iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
    }

    /// Walmart (Fig 6 row 1): predict department-wise sales levels.
    /// Signal lives in `Dept` plus hidden store/indicator identity —
    /// both joins are safe to avoid; dropping FKs is catastrophic.
    pub fn walmart() -> DatasetSpec {
        DatasetSpec {
            name: "Walmart",
            n_classes: 7,
            n_s: 421_570,
            target: "SalesLevel",
            entity_features: vec![FeatureSpec::new("Dept", 81)],
            entity_weights: vec![(0, 1.0)],
            tables: vec![
                AttrTableSpec {
                    table: "Indicators",
                    fk: "IndicatorID",
                    n_rows: 2_340,
                    features: vec![
                        FeatureSpec::new("TempAvg", 16),
                        FeatureSpec::new("TempStdev", 16),
                        FeatureSpec::new("CPIAvg", 16),
                        FeatureSpec::new("CPIStdev", 16),
                        FeatureSpec::new("FuelPriceAvg", 16),
                        FeatureSpec::new("FuelPriceStdev", 16),
                        FeatureSpec::new("UnempRateAvg", 16),
                        FeatureSpec::new("UnempRateStdev", 16),
                        FeatureSpec::new("IsHoliday", 2),
                    ],
                    closed: true,
                    hidden_weight: 0.8,
                    visible_weights: vec![],
                    safe_to_avoid_in_hindsight: true,
                },
                AttrTableSpec {
                    table: "Stores",
                    fk: "StoreID",
                    n_rows: 45,
                    features: vec![FeatureSpec::new("Type", 4), FeatureSpec::new("Size", 10)],
                    closed: true,
                    hidden_weight: 0.8,
                    visible_weights: vec![],
                    safe_to_avoid_in_hindsight: true,
                },
            ],
            noise: 0.8,
        }
    }

    /// Expedia (row 2): predict high hotel rank. Hotel signal is mostly
    /// hotel identity (HotelID-representable, join avoidable); search
    /// features matter but `SearchID` has an open domain, so that join is
    /// mandatory.
    pub fn expedia() -> DatasetSpec {
        DatasetSpec {
            name: "Expedia",
            n_classes: 2,
            n_s: 942_142,
            target: "Position",
            entity_features: vec![
                FeatureSpec::new("Score1", 16),
                FeatureSpec::new("Score2", 16),
                FeatureSpec::new("LogHistoricalPrice", 16),
                FeatureSpec::new("PriceUSD", 16),
                FeatureSpec::new("PromoFlag", 2),
                FeatureSpec::new("OrigDestDistance", 16),
            ],
            entity_weights: vec![(1, 0.8)],
            tables: vec![
                AttrTableSpec {
                    table: "Hotels",
                    fk: "HotelID",
                    n_rows: 11_939,
                    features: vec![
                        FeatureSpec::new("Country", 150),
                        FeatureSpec::new("Stars", 5),
                        FeatureSpec::new("ReviewScore", 16),
                        FeatureSpec::new("BookingUSDAvg", 16),
                        FeatureSpec::new("BookingUSDStdev", 16),
                        FeatureSpec::new("BookingCount", 16),
                        FeatureSpec::new("BrandBool", 2),
                        FeatureSpec::new("ClickCount", 16),
                    ],
                    closed: true,
                    hidden_weight: 0.7,
                    visible_weights: vec![(1, 0.4)],
                    safe_to_avoid_in_hindsight: true,
                },
                AttrTableSpec {
                    table: "Searches",
                    fk: "SearchID",
                    n_rows: 37_021,
                    features: vec![
                        FeatureSpec::new("Year", 3),
                        FeatureSpec::new("Month", 12),
                        FeatureSpec::new("WeekOfYear", 52),
                        FeatureSpec::new("TimeOfDay", 24),
                        FeatureSpec::new("VisitorCountry", 150),
                        FeatureSpec::new("SearchDest", 100),
                        FeatureSpec::new("LengthOfStay", 16),
                        FeatureSpec::new("ChildrenCount", 5),
                        FeatureSpec::new("AdultsCount", 5),
                        FeatureSpec::new("RoomCount", 4),
                        FeatureSpec::new("SiteID", 20),
                        FeatureSpec::new("BookingWindow", 16),
                        FeatureSpec::new("SatNightBool", 2),
                        FeatureSpec::new("RandomBool", 2),
                    ],
                    closed: false, // SearchID's domain is open (Sec 5)
                    hidden_weight: 0.0,
                    visible_weights: vec![(13, 0.6), (11, 0.4), (0, 0.3)],
                    safe_to_avoid_in_hindsight: false,
                },
            ],
            noise: 0.9,
        }
    }

    /// Flights (row 3): predict codeshare. Signal lives in airline
    /// features (AirlineID-representable) and entity equipment flags;
    /// airport features carry only a weak signal, so all three joins are
    /// avoidable in hindsight — but the rules conservatively keep the two
    /// airport joins (the paper's missed opportunities).
    pub fn flights() -> DatasetSpec {
        let airport_features = |prefix: &'static str| {
            vec![
                FeatureSpec::new(leak(format!("{prefix}City")), 2_000),
                FeatureSpec::new(leak(format!("{prefix}Country")), 200),
                FeatureSpec::new(leak(format!("{prefix}DST")), 7),
                FeatureSpec::new(leak(format!("{prefix}TimeZone")), 25),
                FeatureSpec::new(leak(format!("{prefix}Longitude")), 16),
                FeatureSpec::new(leak(format!("{prefix}Latitude")), 16),
            ]
        };
        DatasetSpec {
            name: "Flights",
            n_classes: 2,
            n_s: 66_548,
            target: "CodeShare",
            entity_features: (1..=20)
                .map(|i| FeatureSpec::new(leak(format!("Equipment{i}")), 2))
                .collect(),
            entity_weights: vec![(0, 0.5), (1, 0.4)],
            tables: vec![
                AttrTableSpec {
                    table: "Airlines",
                    fk: "AirlineID",
                    n_rows: 540,
                    features: vec![
                        FeatureSpec::new("AirCountry", 100),
                        FeatureSpec::new("Active", 2),
                        FeatureSpec::new("NameWords", 8),
                        FeatureSpec::new("NameHasAir", 2),
                        FeatureSpec::new("NameHasAirlines", 2),
                    ],
                    closed: true,
                    hidden_weight: 0.0,
                    visible_weights: vec![(1, 0.8), (0, 0.4)],
                    safe_to_avoid_in_hindsight: true,
                },
                AttrTableSpec {
                    table: "SrcAirports",
                    fk: "SrcAirportID",
                    n_rows: 3_182,
                    features: airport_features("Src"),
                    closed: true,
                    hidden_weight: 0.0,
                    visible_weights: vec![(1, 0.15)],
                    safe_to_avoid_in_hindsight: true,
                },
                AttrTableSpec {
                    table: "DestAirports",
                    fk: "DestAirportID",
                    n_rows: 3_182,
                    features: airport_features("Dest"),
                    closed: true,
                    hidden_weight: 0.0,
                    visible_weights: vec![(1, 0.15)],
                    safe_to_avoid_in_hindsight: true,
                },
            ],
            noise: 0.9,
        }
    }

    /// Yelp (row 4): predict business ratings. Strong *visible* user and
    /// business quality signals with small tuple ratios: neither join is
    /// safe to avoid — avoiding either blows up the error (Fig 8A).
    pub fn yelp() -> DatasetSpec {
        let mut business_features = vec![
            FeatureSpec::new("BusinessStars", 9),
            FeatureSpec::new("BusinessReviewCount", 16),
            FeatureSpec::new("Latitude", 16),
            FeatureSpec::new("Longitude", 16),
            FeatureSpec::new("City", 300),
            FeatureSpec::new("State", 30),
        ];
        for i in 1..=5 {
            business_features.push(FeatureSpec::new(leak(format!("WeekdayCheckins{i}")), 8));
        }
        for i in 1..=5 {
            business_features.push(FeatureSpec::new(leak(format!("WeekendCheckins{i}")), 8));
        }
        for i in 1..=15 {
            business_features.push(FeatureSpec::new(leak(format!("Category{i}")), 30));
        }
        business_features.push(FeatureSpec::new("IsOpen", 2));
        DatasetSpec {
            name: "Yelp",
            n_classes: 5,
            n_s: 215_879,
            target: "Stars",
            entity_features: vec![],
            entity_weights: vec![],
            tables: vec![
                AttrTableSpec {
                    table: "Businesses",
                    fk: "BusinessID",
                    n_rows: 11_537,
                    features: business_features,
                    closed: true,
                    hidden_weight: 0.3,
                    visible_weights: vec![(0, 1.0)],
                    safe_to_avoid_in_hindsight: false,
                },
                AttrTableSpec {
                    table: "Users",
                    fk: "UserID",
                    n_rows: 43_873,
                    features: vec![
                        FeatureSpec::new("Gender", 2),
                        FeatureSpec::new("UserStars", 9),
                        FeatureSpec::new("UserReviewCount", 16),
                        FeatureSpec::new("VotesUseful", 16),
                        FeatureSpec::new("VotesFunny", 16),
                        FeatureSpec::new("VotesCool", 16),
                    ],
                    closed: true,
                    hidden_weight: 0.3,
                    visible_weights: vec![(1, 1.0)],
                    safe_to_avoid_in_hindsight: false,
                },
            ],
            noise: 0.8,
        }
    }

    /// MovieLens1M (row 5): predict movie ratings. Signal is almost
    /// entirely user/movie identity (hidden latents): both joins are safe
    /// to avoid; dropping FKs is catastrophic.
    pub fn movielens() -> DatasetSpec {
        let mut movie_features = vec![
            FeatureSpec::new("NameWords", 12),
            FeatureSpec::new("NameHasParentheses", 2),
            FeatureSpec::new("Year", 10),
        ];
        for i in 1..=18 {
            movie_features.push(FeatureSpec::new(leak(format!("Genre{i}")), 2));
        }
        DatasetSpec {
            name: "MovieLens1M",
            n_classes: 5,
            n_s: 1_000_209,
            target: "Stars",
            entity_features: vec![],
            entity_weights: vec![],
            tables: vec![
                AttrTableSpec {
                    table: "Movies",
                    fk: "MovieID",
                    n_rows: 3_706,
                    features: movie_features,
                    closed: true,
                    hidden_weight: 0.8,
                    visible_weights: vec![(3, 0.15)],
                    safe_to_avoid_in_hindsight: true,
                },
                AttrTableSpec {
                    table: "Users",
                    fk: "UserID",
                    n_rows: 6_040,
                    features: vec![
                        FeatureSpec::new("Gender", 2),
                        FeatureSpec::new("Age", 7),
                        FeatureSpec::new("Zipcode", 500),
                        FeatureSpec::new("Occupation", 21),
                    ],
                    closed: true,
                    hidden_weight: 0.8,
                    visible_weights: vec![],
                    safe_to_avoid_in_hindsight: true,
                },
            ],
            noise: 0.8,
        }
    }

    /// LastFM (row 6): predict play levels. All signal is user identity:
    /// the artists join is avoidable (and predicted so); the users join
    /// is avoidable in hindsight too — since the signal *is* `UserID` —
    /// but its tuple ratio is tiny, so the conservative rules keep it
    /// (the paper's missed opportunity).
    pub fn lastfm() -> DatasetSpec {
        let mut artist_features = vec![
            FeatureSpec::new("Listens", 32),
            FeatureSpec::new("Scrobbles", 32),
        ];
        for i in 1..=5 {
            artist_features.push(FeatureSpec::new(leak(format!("Genre{i}")), 30));
        }
        DatasetSpec {
            name: "LastFM",
            n_classes: 5,
            n_s: 343_747,
            target: "PlayLevel",
            entity_features: vec![],
            entity_weights: vec![],
            tables: vec![
                AttrTableSpec {
                    table: "Artists",
                    fk: "ArtistID",
                    n_rows: 4_999,
                    features: artist_features,
                    closed: true,
                    hidden_weight: 0.0,
                    visible_weights: vec![],
                    safe_to_avoid_in_hindsight: true,
                },
                AttrTableSpec {
                    table: "Users",
                    fk: "UserID",
                    n_rows: 50_000,
                    features: vec![
                        FeatureSpec::new("Gender", 2),
                        FeatureSpec::new("Age", 7),
                        FeatureSpec::new("Country", 100),
                        FeatureSpec::new("JoinYear", 10),
                    ],
                    closed: true,
                    hidden_weight: 1.0,
                    visible_weights: vec![],
                    safe_to_avoid_in_hindsight: true,
                },
            ],
            noise: 0.7,
        }
    }

    /// BookCrossing (row 7): predict book ratings. Strong visible reader
    /// demographics at a tiny tuple ratio: the users join is genuinely
    /// unsafe to avoid; book features are useless, so that join is
    /// avoidable in hindsight (missed opportunity for the rules).
    pub fn bookcrossing() -> DatasetSpec {
        DatasetSpec {
            name: "BookCrossing",
            n_classes: 5,
            n_s: 253_120,
            target: "Stars",
            entity_features: vec![],
            entity_weights: vec![],
            tables: vec![
                AttrTableSpec {
                    table: "Users",
                    fk: "UserID",
                    n_rows: 49_972,
                    features: vec![FeatureSpec::new("Age", 10), FeatureSpec::new("Country", 60)],
                    closed: true,
                    hidden_weight: 0.25,
                    visible_weights: vec![(0, 0.8), (1, 0.5)],
                    safe_to_avoid_in_hindsight: false,
                },
                AttrTableSpec {
                    table: "Books",
                    fk: "BookID",
                    n_rows: 27_876,
                    features: vec![
                        FeatureSpec::new("Year", 12),
                        FeatureSpec::new("Publisher", 300),
                        FeatureSpec::new("NumTitleWords", 12),
                        FeatureSpec::new("NumAuthorWords", 6),
                    ],
                    closed: true,
                    hidden_weight: 0.0,
                    visible_weights: vec![],
                    safe_to_avoid_in_hindsight: true,
                },
            ],
            noise: 0.8,
        }
    }

    /// Scaled row counts: `n_S` and every `n_Ri` are shrunk **jointly**
    /// so the tuple ratios (and, to first order, the RORs) are preserved
    /// — see DESIGN.md §3.
    pub fn scaled_n_s(&self, scale: f64) -> usize {
        scale_rows(self.n_s, scale)
    }

    /// Scaled attribute-table row count for table `i`.
    pub fn scaled_n_r(&self, i: usize, scale: f64) -> usize {
        scale_rows(self.tables[i].n_rows, scale)
    }

    /// Total standard deviation of the concept score.
    fn score_sigma(&self) -> f64 {
        let mut var = self.noise * self.noise;
        for &(_, w) in &self.entity_weights {
            var += w * w;
        }
        for t in &self.tables {
            var += t.hidden_weight * t.hidden_weight;
            for &(_, w) in &t.visible_weights {
                var += w * w;
            }
        }
        var.sqrt()
    }

    /// Generates the dataset at the given scale. Deterministic in
    /// `seed`. Scales above 1 grow the star past the paper's full size
    /// — the out-of-core stress regime where the dense working set can
    /// exceed a configured `HAMLET_MEM_BUDGET_MB`.
    ///
    /// # Panics
    /// Panics if `scale` is not in `(0, 100]`.
    pub fn generate(&self, scale: f64, seed: u64) -> GeneratedDataset {
        assert!(scale > 0.0 && scale <= 100.0, "scale must be in (0, 100]");
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(self.name));

        let n_s = self.scaled_n_s(scale);
        let feats = self.entity_features.len()
            + self.tables.iter().map(|t| t.features.len()).sum::<usize>();
        let _span = hamlet_obs::span!("datagen.generate", rows = n_s, feats = feats);

        // Attribute tables: codes + hidden latents + visible values.
        let mut attr_tables = Vec::with_capacity(self.tables.len());
        let mut hidden: Vec<Vec<f64>> = Vec::with_capacity(self.tables.len());
        let mut visible_vals: Vec<Vec<Vec<f64>>> = Vec::with_capacity(self.tables.len());
        for (ti, t) in self.tables.iter().enumerate() {
            let n_r = self.scaled_n_r(ti, scale);
            let rid_domain = Domain::indexed(t.fk, n_r).shared();
            let mut builder =
                TableBuilder::new(t.table).primary_key(t.fk, rid_domain, (0..n_r as u32).collect());
            let mut table_visible = vec![Vec::new(); t.features.len()];
            for (fi, f) in t.features.iter().enumerate() {
                let codes: Vec<u32> = (0..n_r)
                    .map(|_| rng.gen_range(0..f.domain as u32))
                    .collect();
                if t.visible_weights.iter().any(|&(i, _)| i == fi) {
                    table_visible[fi] = codes.iter().map(|&c| unit_value(c, f.domain)).collect();
                }
                builder =
                    builder.feature(f.name, Domain::indexed(f.name, f.domain).shared(), codes);
            }
            hidden.push((0..n_r).map(|_| standard_normal(&mut rng)).collect());
            visible_vals.push(table_visible);
            attr_tables.push(AttributeTable {
                fk: t.fk.to_string(),
                table: builder.build().expect("generated attribute table is valid"),
            });
        }

        // Entity table.
        let mut entity_codes: Vec<Vec<u32>> = self
            .entity_features
            .iter()
            .map(|f| {
                (0..n_s)
                    .map(|_| rng.gen_range(0..f.domain as u32))
                    .collect()
            })
            .collect();
        let fk_codes: Vec<Vec<u32>> = (0..self.tables.len())
            .map(|ti| {
                let n_r = attr_tables[ti].table.n_rows();
                (0..n_s).map(|_| rng.gen_range(0..n_r as u32)).collect()
            })
            .collect();

        // Concept score -> equal-mass ordinal classes.
        let sigma = self.score_sigma();
        let thresholds: Vec<f64> = (1..self.n_classes)
            .map(|k| sigma * normal_quantile(k as f64 / self.n_classes as f64))
            .collect();
        let mut labels = Vec::with_capacity(n_s);
        for row in 0..n_s {
            let mut score = self.noise * standard_normal(&mut rng);
            for &(fi, w) in &self.entity_weights {
                score += w * unit_value(entity_codes[fi][row], self.entity_features[fi].domain);
            }
            for (ti, t) in self.tables.iter().enumerate() {
                let rid = fk_codes[ti][row] as usize;
                score += t.hidden_weight * hidden[ti][rid];
                for &(fi, w) in &t.visible_weights {
                    score += w * visible_vals[ti][fi][rid];
                }
            }
            let class = thresholds.iter().filter(|&&th| score > th).count() as u32;
            labels.push(class);
        }

        let mut builder = TableBuilder::new(self.name).target(
            self.target,
            Domain::indexed(self.target, self.n_classes).shared(),
            labels,
        );
        for (fi, f) in self.entity_features.iter().enumerate() {
            builder = builder.feature(
                f.name,
                Domain::indexed(f.name, f.domain).shared(),
                std::mem::take(&mut entity_codes[fi]),
            );
        }
        for (ti, t) in self.tables.iter().enumerate() {
            let n_r = attr_tables[ti].table.n_rows();
            let def = if t.closed {
                AttributeDef::foreign_key(t.fk, t.table)
            } else {
                AttributeDef::open_foreign_key(t.fk, t.table)
            };
            builder = builder.column(
                def,
                Domain::indexed(t.fk, n_r).shared(),
                fk_codes[ti].clone(),
            );
        }
        let entity = builder.build().expect("generated entity table is valid");
        let star = StarSchema::new(entity, attr_tables).expect("generated star schema is valid");

        GeneratedDataset {
            star,
            spec: self.clone(),
            scale,
        }
    }
}

/// Scales a row count, keeping at least a handful of rows.
fn scale_rows(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(4)
}

/// Maps a uniform code over `0..domain` to a zero-mean, unit-variance
/// value; monotone in the code so simple classifiers can pick it up.
fn unit_value(code: u32, domain: usize) -> f64 {
    if domain <= 1 {
        return 0.0;
    }
    let d = domain as f64;
    let mean = (d - 1.0) / 2.0;
    let sd = ((d * d - 1.0) / 12.0).sqrt();
    (code as f64 - mean) / sd
}

/// Box–Muller standard normal (rand 0.8 core has no normal sampler).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Stable per-dataset seed component.
fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Interns a generated feature name as a `&'static str`. The name set is
/// small and fixed (the paper's schemas), but `DatasetSpec::all()` runs
/// once per CLI invocation and thousands of times in bench loops — a
/// naive `Box::leak` per call would grow memory without bound, so leaked
/// strings are cached and reused.
fn leak(s: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let set = INTERNED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = set.lock().expect("interner lock never poisoned");
    if let Some(&existing) = set.get(s.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    set.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_shape_statistics_match() {
        // (#Y, n_S, d_S, k, k', [(n_Ri, d_Ri)])
        type Row = (
            &'static str,
            usize,
            usize,
            usize,
            usize,
            usize,
            Vec<(usize, usize)>,
        );
        let expected: Vec<Row> = vec![
            ("Walmart", 7, 421_570, 1, 2, 2, vec![(2_340, 9), (45, 2)]),
            (
                "Expedia",
                2,
                942_142,
                6,
                2,
                1,
                vec![(11_939, 8), (37_021, 14)],
            ),
            (
                "Flights",
                2,
                66_548,
                20,
                3,
                3,
                vec![(540, 5), (3_182, 6), (3_182, 6)],
            ),
            ("Yelp", 5, 215_879, 0, 2, 2, vec![(11_537, 32), (43_873, 6)]),
            (
                "MovieLens1M",
                5,
                1_000_209,
                0,
                2,
                2,
                vec![(3_706, 21), (6_040, 4)],
            ),
            ("LastFM", 5, 343_747, 0, 2, 2, vec![(4_999, 7), (50_000, 4)]),
            (
                "BookCrossing",
                5,
                253_120,
                0,
                2,
                2,
                vec![(49_972, 2), (27_876, 4)],
            ),
        ];
        let all = DatasetSpec::all();
        assert_eq!(all.len(), 7);
        for (spec, (name, ny, ns, ds, k, kc, tables)) in all.iter().zip(expected) {
            assert_eq!(spec.name, name);
            assert_eq!(spec.n_classes, ny, "{name} #Y");
            assert_eq!(spec.n_s, ns, "{name} n_S");
            assert_eq!(spec.entity_features.len(), ds, "{name} d_S");
            assert_eq!(spec.tables.len(), k, "{name} k");
            assert_eq!(
                spec.tables.iter().filter(|t| t.closed).count(),
                kc,
                "{name} k'"
            );
            for (t, (nr, dr)) in spec.tables.iter().zip(tables) {
                assert_eq!(t.n_rows, nr, "{name}/{} n_R", t.table);
                assert_eq!(t.features.len(), dr, "{name}/{} d_R", t.table);
            }
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(DatasetSpec::by_name("yelp").is_some());
        assert!(DatasetSpec::by_name("Walmart").is_some());
        assert!(DatasetSpec::by_name("nope").is_none());
    }

    #[test]
    fn generation_is_valid_and_scaled() {
        let spec = DatasetSpec::walmart();
        let g = spec.generate(0.01, 42);
        let n_s = spec.scaled_n_s(0.01);
        assert_eq!(g.star.n_s(), n_s);
        assert_eq!(g.star.k(), 2);
        assert_eq!(g.star.attributes()[0].n_rows(), spec.scaled_n_r(0, 0.01));
        // Tuple ratios preserved within rounding.
        let tr_full = spec.n_s as f64 / spec.tables[0].n_rows as f64;
        let tr_scaled = g.star.n_s() as f64 / g.star.attributes()[0].n_rows() as f64;
        assert!((tr_full - tr_scaled).abs() / tr_full < 0.05);
        // Materializable.
        let t = g.star.materialize_all().unwrap();
        assert_eq!(t.n_rows(), n_s);
    }

    #[test]
    fn open_fk_flag_propagates() {
        let g = DatasetSpec::expedia().generate(0.005, 1);
        assert!(g.star.fk_closed(0), "HotelID should be closed");
        assert!(!g.star.fk_closed(1), "SearchID should be open");
        assert_eq!(g.star.k_closed(), 1);
    }

    #[test]
    fn labels_are_roughly_balanced() {
        // Equal-mass bucketing should produce near-uniform classes.
        let g = DatasetSpec::yelp().generate(0.02, 7);
        let hist = g.star.entity().target_column().unwrap().histogram();
        let n: u64 = hist.iter().sum();
        for (c, &h) in hist.iter().enumerate() {
            let frac = h as f64 / n as f64;
            assert!(
                (frac - 0.2).abs() < 0.05,
                "class {c} fraction {frac} far from 0.2"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = DatasetSpec::flights().generate(0.01, 9);
        let b = DatasetSpec::flights().generate(0.01, 9);
        assert_eq!(
            a.star.entity().target_column().unwrap().codes(),
            b.star.entity().target_column().unwrap().codes()
        );
        let c = DatasetSpec::flights().generate(0.01, 10);
        assert_ne!(
            a.star.entity().target_column().unwrap().codes(),
            c.star.entity().target_column().unwrap().codes()
        );
    }

    #[test]
    fn visible_signal_is_learnable() {
        // Yelp plants BusinessStars with weight 1.0: the label must
        // correlate with the joined feature.
        let g = DatasetSpec::yelp().generate(0.02, 3);
        let t = g.star.materialize_all().unwrap();
        let stars = t.column_by_name("BusinessStars").unwrap();
        let y = t.column_by_name("Stars").unwrap();
        let xs: Vec<f64> = stars.codes().iter().map(|&c| c as f64).collect();
        let ys: Vec<f64> = y.codes().iter().map(|&c| c as f64).collect();
        let r = crate::stats::pearson(&xs, &ys);
        assert!(r > 0.3, "planted visible signal too weak: r = {r}");
    }

    #[test]
    fn hidden_signal_reaches_label() {
        // MovieLens: per-user hidden latent must influence the label —
        // users' mean labels should vary much more than chance.
        let g = DatasetSpec::movielens().generate(0.01, 5);
        let ent = g.star.entity();
        let fk = ent.column_by_name("UserID").unwrap();
        let y = ent.column_by_name("Stars").unwrap();
        let n_r = g.star.attributes()[1].n_rows();
        let mut sums = vec![0f64; n_r];
        let mut counts = vec![0usize; n_r];
        for i in 0..ent.n_rows() {
            sums[fk.get(i) as usize] += y.get(i) as f64;
            counts[fk.get(i) as usize] += 1;
        }
        let means: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .filter(|&(_, &c)| c >= 20)
            .map(|(&s, &c)| s / c as f64)
            .collect();
        assert!(means.len() > 10, "need enough well-observed users");
        let grand = crate::stats::mean(&means);
        let var = means.iter().map(|m| (m - grand).powi(2)).sum::<f64>() / means.len() as f64;
        assert!(var > 0.1, "per-user label means barely vary: var = {var}");
    }

    #[test]
    fn unit_value_is_normalized() {
        // Mean ~0 and variance ~1 over the domain.
        for d in [2usize, 5, 16, 101] {
            let vals: Vec<f64> = (0..d as u32).map(|c| unit_value(c, d)).collect();
            let m = crate::stats::mean(&vals);
            let v = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / d as f64;
            assert!(m.abs() < 1e-9, "mean {m} for d={d}");
            assert!((v - 1.0).abs() < 1e-9, "var {v} for d={d}");
        }
        assert_eq!(unit_value(0, 1), 0.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let xs: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        let m = crate::stats::mean(&xs);
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((v - 1.0).abs() < 0.05, "variance {v}");
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 100]")]
    fn bad_scale_panics() {
        DatasetSpec::walmart().generate(0.0, 1);
    }
}
