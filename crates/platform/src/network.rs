//! Site-level interconnection topology.
//!
//! The paper distinguishes two interconnection styles among its Grid'5000
//! subsets: in Rennes and Lille all clusters are plugged into **one shared
//! switch**, while in Nancy and Sophia **each cluster has its own switch**
//! and the switches are joined by a backbone. The distinction matters because
//! it "leads to different contention conditions": with a shared switch every
//! inter-cluster transfer of the site competes for the same switching fabric,
//! whereas per-cluster switches only share the backbone.

use serde::{Deserialize, Serialize};

/// A point-to-point link specification (bandwidth in bytes/s, latency in s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// Creates a new link specification.
    pub fn new(bandwidth: f64, latency: f64) -> Self {
        Self { bandwidth, latency }
    }

    /// A 1 Gbit/s LAN link with 100 µs latency (Grid'5000-like default).
    pub fn gigabit() -> Self {
        Self::new(crate::GBIT_PER_S, 1.0e-4)
    }

    /// A 10 Gbit/s backbone link with 100 µs latency.
    fn ten_gigabit() -> Self {
        Self::new(10.0 * crate::GBIT_PER_S, 1.0e-4)
    }
}

/// How the clusters of a site are interconnected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetworkTopology {
    /// All clusters are connected to a single shared switch
    /// (Rennes and Lille in the paper). Every inter-cluster transfer crosses
    /// the shared switch, whose fabric bandwidth is shared among all ongoing
    /// transfers of the site.
    SharedSwitch {
        /// Switching fabric specification shared by all transfers.
        switch: LinkSpec,
    },
    /// Each cluster has its own switch; the switches are connected through a
    /// backbone (Nancy and Sophia in the paper). Transfers between two
    /// clusters cross both cluster uplinks and the backbone; only the
    /// backbone is shared site-wide.
    PerClusterSwitch {
        /// Backbone specification connecting the per-cluster switches.
        backbone: LinkSpec,
    },
}

impl NetworkTopology {
    /// A shared gigabit switch.
    pub fn shared_gigabit() -> Self {
        NetworkTopology::SharedSwitch {
            switch: LinkSpec::gigabit(),
        }
    }

    /// Per-cluster switches joined by a 10 Gbit/s backbone.
    pub fn per_cluster_ten_gigabit() -> Self {
        NetworkTopology::PerClusterSwitch {
            backbone: LinkSpec::ten_gigabit(),
        }
    }

    /// Returns `true` if all clusters share a single switch.
    pub fn is_shared(&self) -> bool {
        matches!(self, NetworkTopology::SharedSwitch { .. })
    }

    /// The link specification of the shared element of the topology
    /// (the switch fabric or the backbone).
    pub fn shared_link(&self) -> LinkSpec {
        match self {
            NetworkTopology::SharedSwitch { switch } => *switch,
            NetworkTopology::PerClusterSwitch { backbone } => *backbone,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_flag() {
        assert!(NetworkTopology::shared_gigabit().is_shared());
        assert!(!NetworkTopology::per_cluster_ten_gigabit().is_shared());
    }

    #[test]
    fn backbone_is_faster_than_switch_default() {
        let shared = NetworkTopology::shared_gigabit().shared_link();
        let backbone = NetworkTopology::per_cluster_ten_gigabit().shared_link();
        assert!(backbone.bandwidth > shared.bandwidth);
    }
}
