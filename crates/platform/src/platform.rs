//! The multi-cluster platform aggregate.

use crate::cluster::{Cluster, ClusterId};
use crate::error::PlatformError;
use crate::network::NetworkTopology;
use serde::{Deserialize, Serialize};

/// A multi-cluster platform: a named set of [`Cluster`]s interconnected
/// through a [`NetworkTopology`].
///
/// All scheduling and simulation code addresses clusters by their index in
/// [`Platform::clusters`] and processors by their index within the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    name: String,
    clusters: Vec<Cluster>,
    topology: NetworkTopology,
}

impl Platform {
    /// Assembles a platform after validating the cluster descriptions.
    ///
    /// # Errors
    ///
    /// Returns a [`PlatformError`] if the platform has no cluster, a cluster
    /// has no processor, a speed/bandwidth is non-positive, a latency is
    /// negative or non-finite, or two clusters share the same name.
    pub fn new(
        name: impl Into<String>,
        clusters: Vec<Cluster>,
        topology: NetworkTopology,
    ) -> Result<Self, PlatformError> {
        if clusters.is_empty() {
            return Err(PlatformError::NoClusters);
        }
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            if c.num_procs() == 0 {
                return Err(PlatformError::EmptyCluster {
                    name: c.name().to_string(),
                });
            }
            if c.speed() <= 0.0 || c.speed().is_nan() {
                return Err(PlatformError::NonPositiveSpeed {
                    name: c.name().to_string(),
                    speed: c.speed(),
                });
            }
            if c.link_bandwidth() <= 0.0 || c.link_bandwidth().is_nan() {
                return Err(PlatformError::NonPositiveBandwidth {
                    name: c.name().to_string(),
                    bandwidth: c.link_bandwidth(),
                });
            }
            if !c.link_latency().is_finite() || c.link_latency() < 0.0 {
                return Err(PlatformError::InvalidLatency {
                    name: c.name().to_string(),
                    latency: c.link_latency(),
                });
            }
            if !seen.insert(c.name().to_string()) {
                return Err(PlatformError::DuplicateClusterName {
                    name: c.name().to_string(),
                });
            }
        }
        Ok(Self {
            name: name.into(),
            clusters,
            topology,
        })
    }

    /// Platform (site) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clusters composing the platform.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Returns a cluster by index.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownCluster`] when the index is out of bounds.
    pub fn cluster(&self, id: ClusterId) -> Result<&Cluster, PlatformError> {
        self.clusters.get(id).ok_or(PlatformError::UnknownCluster {
            index: id,
            clusters: self.clusters.len(),
        })
    }

    /// Network topology of the site.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// Total number of processors across all clusters.
    pub fn total_procs(&self) -> usize {
        self.clusters.iter().map(Cluster::num_procs).sum()
    }

    /// Total processing power of the platform in flop/s (Σ p_k · s_k).
    ///
    /// Resource constraints β are expressed as fractions of this quantity:
    /// the paper argues that in a heterogeneous platform a constraint
    /// expressed in *processing power* is more meaningful than a processor
    /// count.
    pub fn total_power(&self) -> f64 {
        self.clusters.iter().map(Cluster::total_power).sum()
    }

    /// Speed of the fastest processor of the platform (flop/s).
    fn max_speed(&self) -> f64 {
        self.clusters
            .iter()
            .map(Cluster::speed)
            .fold(f64::MIN, f64::max)
    }

    /// Speed of the slowest processor of the platform (flop/s).
    fn min_speed(&self) -> f64 {
        self.clusters
            .iter()
            .map(Cluster::speed)
            .fold(f64::MAX, f64::min)
    }

    /// Heterogeneity of the platform, defined in the paper as the ratio
    /// between the speeds of the fastest and slowest processors, expressed
    /// here as the excess percentage (e.g. `0.202` for Lille's 20.2%).
    pub fn heterogeneity(&self) -> f64 {
        self.max_speed() / self.min_speed() - 1.0
    }

    /// Number of processors of the *reference cluster* used by
    /// HCPA-style allocation procedures: the equivalent number of processors
    /// of speed [`Platform::reference_speed`] that matches the platform's
    /// total power.
    pub fn reference_procs(&self) -> usize {
        (self.total_power() / self.reference_speed()).round() as usize
    }

    /// Speed of a processor of the homogeneous reference cluster (flop/s).
    ///
    /// We use the slowest processor speed so that translating a reference
    /// allocation onto any concrete cluster never requires *more* processors
    /// than the reference allocation (the concrete processors are at least as
    /// fast).
    pub fn reference_speed(&self) -> f64 {
        self.min_speed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkTopology;

    fn toy() -> Platform {
        Platform::new(
            "toy",
            vec![
                Cluster::from_gflops("a", 10, 1.0),
                Cluster::from_gflops("b", 20, 2.0),
            ],
            NetworkTopology::shared_gigabit(),
        )
        .unwrap()
    }

    #[test]
    fn totals() {
        let p = toy();
        assert_eq!(p.total_procs(), 30);
        assert!((p.total_power() - (10.0 * 1.0e9 + 20.0 * 2.0e9)).abs() < 1.0);
        assert_eq!(p.num_clusters(), 2);
    }

    #[test]
    fn heterogeneity_ratio() {
        let p = toy();
        assert!((p.heterogeneity() - 1.0).abs() < 1e-12); // 2x faster => 100%
    }

    #[test]
    fn reference_cluster_uses_slowest_speed() {
        let p = toy();
        assert_eq!(p.reference_speed(), 1.0e9);
        // total power 50 GFlop/s => 50 reference processors of 1 GFlop/s
        assert_eq!(p.reference_procs(), 50);
    }

    #[test]
    fn rejects_empty_platform() {
        let err = Platform::new("x", vec![], NetworkTopology::shared_gigabit());
        assert_eq!(err.unwrap_err(), PlatformError::NoClusters);
    }

    #[test]
    fn rejects_empty_cluster() {
        let err = Platform::new(
            "x",
            vec![Cluster::from_gflops("a", 0, 1.0)],
            NetworkTopology::shared_gigabit(),
        );
        assert!(matches!(err, Err(PlatformError::EmptyCluster { .. })));
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Platform::new(
            "x",
            vec![
                Cluster::from_gflops("a", 1, 1.0),
                Cluster::from_gflops("a", 2, 2.0),
            ],
            NetworkTopology::shared_gigabit(),
        );
        assert!(matches!(
            err,
            Err(PlatformError::DuplicateClusterName { .. })
        ));
    }

    #[test]
    fn rejects_bad_speed() {
        let err = Platform::new(
            "x",
            vec![Cluster::from_gflops("a", 1, 0.0)],
            NetworkTopology::shared_gigabit(),
        );
        assert!(matches!(err, Err(PlatformError::NonPositiveSpeed { .. })));
    }

    #[test]
    fn cluster_lookup() {
        let p = toy();
        assert_eq!(p.cluster(1).unwrap().name(), "b");
        assert!(p.cluster(7).is_err());
    }
}
