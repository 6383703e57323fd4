//! Finite discrete domains for nominal attributes.
//!
//! The paper assumes every feature (including the target `Y` and all foreign
//! keys) is a discrete random variable with a *known finite domain* that is
//! closed with respect to the prediction task (Sec 2.1). A [`Domain`] makes
//! that assumption explicit: it is the set of categories an attribute may
//! take, and columns store dense `u32` codes into it.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

/// A finite, ordered set of categories for one nominal attribute.
///
/// Two representations are supported:
/// * **labelled** — an explicit list of category names (e.g. countries);
/// * **indexed** — an anonymous domain of a given size whose labels are
///   synthesized on demand (e.g. a surrogate-key domain with 50 000 values,
///   where materializing 50 000 strings would be wasteful).
///
/// Codes are `0..size`. Equality of domains is structural; for indexed
/// domains only name and size matter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    name: String,
    kind: DomainKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DomainKind {
    Labelled(Vec<String>),
    Indexed(usize),
}

impl Domain {
    /// Builds a labelled domain from category names.
    ///
    /// # Panics
    /// Panics if `labels` is empty: the paper's setting has no empty domains
    /// (every feature takes at least one value).
    pub fn labelled(name: impl Into<String>, labels: Vec<String>) -> Self {
        assert!(
            !labels.is_empty(),
            "a domain must have at least one category"
        );
        Self {
            name: name.into(),
            kind: DomainKind::Labelled(labels),
        }
    }

    /// Builds a labelled domain from string slices.
    pub fn from_labels(name: impl Into<String>, labels: &[&str]) -> Self {
        Self::labelled(name, labels.iter().map(|s| s.to_string()).collect())
    }

    /// Builds an anonymous indexed domain of `size` categories.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn indexed(name: impl Into<String>, size: usize) -> Self {
        assert!(size > 0, "a domain must have at least one category");
        Self {
            name: name.into(),
            kind: DomainKind::Indexed(size),
        }
    }

    /// A boolean domain `{false, true}` — the domain used throughout the
    /// paper's simulation study.
    pub fn boolean(name: impl Into<String>) -> Self {
        Self::from_labels(name, &["false", "true"])
    }

    /// The attribute-type name of this domain (e.g. `"Country"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of categories, written `|D_F|` in the paper.
    pub fn size(&self) -> usize {
        match &self.kind {
            DomainKind::Labelled(l) => l.len(),
            DomainKind::Indexed(n) => *n,
        }
    }

    /// Whether `code` is a valid category code.
    pub fn contains(&self, code: u32) -> bool {
        (code as usize) < self.size()
    }

    /// Whether this domain carries explicit labels (as opposed to an
    /// anonymous indexed domain that synthesizes them).
    pub fn is_labelled(&self) -> bool {
        matches!(self.kind, DomainKind::Labelled(_))
    }

    /// Human-readable label for `code`.
    ///
    /// Indexed domains synthesize `"<name>#<code>"`.
    pub fn label(&self, code: u32) -> Cow<'_, str> {
        match &self.kind {
            DomainKind::Labelled(l) => Cow::Borrowed(&l[code as usize]),
            DomainKind::Indexed(_) => {
                let mut label = String::new();
                self.push_label(code, &mut label);
                Cow::Owned(label)
            }
        }
    }

    /// Appends the label of `code` to `out`: what [`Domain::label`]
    /// returns, without allocating it.
    pub fn push_label(&self, code: u32, out: &mut String) {
        match &self.kind {
            DomainKind::Labelled(l) => out.push_str(&l[code as usize]),
            DomainKind::Indexed(_) => {
                let _ = write!(out, "{}#{}", self.name, code);
            }
        }
    }

    /// Looks up a label's code in a labelled domain (linear scan; intended
    /// for tests and small domains).
    pub fn code_of(&self, label: &str) -> Option<u32> {
        match &self.kind {
            DomainKind::Labelled(l) => l.iter().position(|x| x == label).map(|i| i as u32),
            DomainKind::Indexed(n) => {
                let prefix = format!("{}#", self.name);
                let idx: usize = label.strip_prefix(&prefix)?.parse().ok()?;
                (idx < *n).then_some(idx as u32)
            }
        }
    }

    /// Shares this domain behind an [`Arc`] for cheap column cloning.
    pub fn shared(self) -> Arc<Domain> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labelled_roundtrip() {
        let d = Domain::from_labels("Country", &["NZ", "IN", "US"]);
        assert_eq!(d.size(), 3);
        assert_eq!(d.label(1), "IN");
        assert_eq!(d.code_of("US"), Some(2));
        assert_eq!(d.code_of("FR"), None);
        assert!(d.contains(2));
        assert!(!d.contains(3));
    }

    #[test]
    fn indexed_synthesizes_labels() {
        let d = Domain::indexed("EmployerID", 1000);
        assert_eq!(d.size(), 1000);
        assert_eq!(d.label(7), "EmployerID#7");
        assert_eq!(d.code_of("EmployerID#999"), Some(999));
        assert_eq!(d.code_of("EmployerID#1000"), None);
        assert_eq!(d.code_of("Other#3"), None);
    }

    #[test]
    fn boolean_has_two_values() {
        let d = Domain::boolean("Churn");
        assert_eq!(d.size(), 2);
        assert_eq!(d.code_of("true"), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn empty_domain_rejected() {
        let _ = Domain::labelled("X", vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn zero_indexed_domain_rejected() {
        let _ = Domain::indexed("X", 0);
    }

    #[test]
    fn structural_equality() {
        assert_eq!(Domain::indexed("A", 4), Domain::indexed("A", 4));
        assert_ne!(Domain::indexed("A", 4), Domain::indexed("A", 5));
        assert_ne!(
            Domain::from_labels("A", &["x"]),
            Domain::from_labels("B", &["x"])
        );
    }
}
