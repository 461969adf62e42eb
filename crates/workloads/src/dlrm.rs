//! DLRM query workloads: six Amazon-Review dataset stand-ins (Sec. VI-D).
//!
//! The real datasets are review logs; what the evaluation depends on is
//! (1) the query length ("pooling factor") distribution, (2) the popularity
//! skew of item accesses, and (3) the co-occurrence clustering of each
//! category, which decides how much of the lookup traffic MERCI's
//! memoization tables absorb. Each profile captures those three quantities,
//! calibrated to the ranges the MERCI paper reports for the same six
//! categories. Queries are sampled by `rambda_dlrm`'s MERCI module over a
//! scaled-down functional table.

use serde::{Deserialize, Serialize};

/// A dataset profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DlrmProfile {
    /// Dataset name as the paper abbreviates it.
    pub name: &'static str,
    /// Mean features per query (pooling factor).
    pub mean_features: f64,
    /// Popularity skew of item accesses.
    pub zipf_theta: f64,
    /// Probability that a feature's cluster partner co-occurs in the same
    /// query — the co-occurrence structure MERCI's memoization exploits.
    pub co_occur: f64,
}

/// One inference query: the feature (row) indices to gather and reduce.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DlrmQuery {
    /// Embedding rows to gather.
    pub features: Vec<u32>,
}

impl DlrmQuery {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the query is empty (never produced by the generator).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Request wire size: 4 B per feature id plus a small header.
    pub fn wire_bytes(&self) -> u64 {
        8 + 4 * self.features.len() as u64
    }
}

impl DlrmProfile {
    /// The six evaluation datasets, in the paper's Fig. 13 order.
    pub fn all() -> Vec<DlrmProfile> {
        vec![
            DlrmProfile { name: "Electro.", mean_features: 40.0, zipf_theta: 0.8, co_occur: 0.72 },
            DlrmProfile { name: "Clothing", mean_features: 30.0, zipf_theta: 0.8, co_occur: 0.65 },
            DlrmProfile { name: "Home.", mean_features: 35.0, zipf_theta: 0.8, co_occur: 0.68 },
            DlrmProfile { name: "Books", mean_features: 80.0, zipf_theta: 0.85, co_occur: 0.8 },
            DlrmProfile { name: "Sports.", mean_features: 32.0, zipf_theta: 0.8, co_occur: 0.7 },
            DlrmProfile { name: "Office.", mean_features: 26.0, zipf_theta: 0.75, co_occur: 0.62 },
        ]
    }

    /// Looks a profile up by name.
    pub fn by_name(name: &str) -> Option<DlrmProfile> {
        Self::all().into_iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_profiles_in_paper_order() {
        let all = DlrmProfile::all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].name, "Electro.");
        assert_eq!(all[3].name, "Books");
        assert!(DlrmProfile::by_name("Books").is_some());
        assert!(DlrmProfile::by_name("Nope").is_none());
    }
}
