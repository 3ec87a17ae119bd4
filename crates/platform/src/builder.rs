//! Fluent builder for [`Platform`] instances.

use crate::cluster::Cluster;
use crate::error::PlatformError;
use crate::network::NetworkTopology;
use crate::platform::Platform;

/// Incrementally assembles a [`Platform`].
///
/// ```
/// use mcsched_platform::{PlatformBuilder, NetworkTopology};
///
/// let platform = PlatformBuilder::new("my-site")
///     .topology(NetworkTopology::shared_gigabit())
///     .cluster("alpha", 32, 3.2)
///     .cluster("beta", 64, 2.4)
///     .build()
///     .unwrap();
/// assert_eq!(platform.total_procs(), 96);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    name: String,
    clusters: Vec<Cluster>,
    topology: NetworkTopology,
}

impl PlatformBuilder {
    /// Starts a new builder for a platform with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            clusters: Vec::new(),
            topology: NetworkTopology::shared_gigabit(),
        }
    }

    /// Sets the site topology (shared switch or per-cluster switches).
    pub fn topology(mut self, topology: NetworkTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Adds a cluster with `num_procs` processors at `gflops` GFlop/s and a
    /// gigabit uplink ([`Cluster::from_gflops`]).
    pub fn cluster(mut self, name: impl Into<String>, num_procs: usize, gflops: f64) -> Self {
        self.clusters
            .push(Cluster::from_gflops(name, num_procs, gflops));
        self
    }

    /// Number of clusters added so far.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether no cluster has been added yet.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Validates and builds the platform.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Platform::new`].
    pub fn build(self) -> Result<Platform, PlatformError> {
        Platform::new(self.name, self.clusters, self.topology)
    }
}

/// Builds a homogeneous single-cluster platform, convenient for tests and for
/// the reference-cluster reasoning of HCPA-style allocation.
pub fn homogeneous(name: impl Into<String>, num_procs: usize, gflops: f64) -> Platform {
    PlatformBuilder::new(name)
        .cluster("c0", num_procs, gflops)
        .build()
        .expect("homogeneous platform parameters are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_clusters() {
        let p = PlatformBuilder::new("site")
            .cluster("a", 8, 2.0)
            .cluster("b", 16, 3.0)
            .build()
            .unwrap();
        assert_eq!(p.num_clusters(), 2);
        assert_eq!(p.total_procs(), 24);
    }

    #[test]
    fn empty_builder_fails() {
        assert!(PlatformBuilder::new("site").build().is_err());
    }

    #[test]
    fn homogeneous_helper() {
        let p = homogeneous("h", 42, 1.5);
        assert_eq!(p.num_clusters(), 1);
        assert_eq!(p.total_procs(), 42);
        assert!((p.heterogeneity()).abs() < 1e-12);
    }

    #[test]
    fn len_and_is_empty() {
        let b = PlatformBuilder::new("x");
        assert!(b.is_empty());
        let b = b.cluster("a", 1, 1.0);
        assert_eq!(b.len(), 1);
    }
}
