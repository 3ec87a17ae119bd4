//! Homogeneous cluster description.

use serde::{Deserialize, Serialize};

/// Index of a cluster within a [`crate::Platform`].
pub type ClusterId = usize;

/// Index of a processor within a cluster.
pub type ProcId = usize;

/// A homogeneous cluster: `num_procs` identical processors computing at
/// `speed` flop/s, attached to the site network through a link of given
/// bandwidth and latency.
///
/// The speed is stored in flop/s (not GFlop/s) so that execution times can be
/// obtained directly as `flops / speed`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    name: String,
    num_procs: usize,
    speed: f64,
    link_bandwidth: f64,
    link_latency: f64,
}

impl Cluster {
    /// Creates a new cluster description.
    ///
    /// * `name` — human readable identifier (e.g. `"grelon"`).
    /// * `num_procs` — number of identical processors.
    /// * `speed` — per-processor speed in flop/s.
    /// * `link_bandwidth` — bandwidth of the link connecting the cluster to
    ///   its switch, in bytes/s.
    /// * `link_latency` — latency of that link in seconds.
    pub fn new(
        name: impl Into<String>,
        num_procs: usize,
        speed: f64,
        link_bandwidth: f64,
        link_latency: f64,
    ) -> Self {
        Self {
            name: name.into(),
            num_procs,
            speed,
            link_bandwidth,
            link_latency,
        }
    }

    /// Convenience constructor taking the speed in GFlop/s as printed in
    /// Table 1 of the paper, with default Grid'5000-like gigabit links.
    pub fn from_gflops(name: impl Into<String>, num_procs: usize, gflops: f64) -> Self {
        Self::new(
            name,
            num_procs,
            gflops * crate::GFLOPS,
            crate::GBIT_PER_S,
            1.0e-4,
        )
    }

    /// Cluster name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors in the cluster.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Per-processor speed in flop/s.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Per-processor speed in GFlop/s (as printed in the paper's Table 1).
    pub fn speed_gflops(&self) -> f64 {
        self.speed / crate::GFLOPS
    }

    /// Aggregate processing power of the cluster in flop/s
    /// (`num_procs * speed`).
    pub fn total_power(&self) -> f64 {
        self.num_procs as f64 * self.speed
    }

    /// Bandwidth of the cluster's uplink in bytes/s.
    pub fn link_bandwidth(&self) -> f64 {
        self.link_bandwidth
    }

    /// Latency of the cluster's uplink in seconds.
    pub fn link_latency(&self) -> f64 {
        self.link_latency
    }

    /// Time (in seconds) to execute `flops` floating point operations on a
    /// single processor of this cluster.
    pub fn sequential_time(&self, flops: f64) -> f64 {
        flops / self.speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_roundtrip() {
        let c = Cluster::from_gflops("grelon", 120, 3.185);
        assert_eq!(c.num_procs(), 120);
        assert!((c.speed_gflops() - 3.185).abs() < 1e-12);
        assert!((c.speed() - 3.185e9).abs() < 1.0);
    }

    #[test]
    fn total_power_is_procs_times_speed() {
        let c = Cluster::from_gflops("chti", 20, 4.311);
        assert!((c.total_power() - 20.0 * 4.311e9).abs() < 1.0);
    }

    #[test]
    fn sequential_time_scales_with_speed() {
        let slow = Cluster::from_gflops("slow", 1, 1.0);
        let fast = Cluster::from_gflops("fast", 1, 4.0);
        let flops = 8.0e9;
        assert!((slow.sequential_time(flops) - 8.0).abs() < 1e-9);
        assert!((fast.sequential_time(flops) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn name_is_preserved() {
        let c = Cluster::from_gflops("paraquad", 66, 4.603);
        assert_eq!(c.name(), "paraquad");
    }
}
