//! Network resources of a site and route computation.
//!
//! The site network is flattened into a set of *links* with capacities:
//!
//! * one **intra-cluster** link per cluster, crossed by transfers whose
//!   endpoints are both in that cluster (data redistribution between two
//!   different processor sets of the same cluster);
//! * one **uplink** per cluster, crossed by every transfer entering or
//!   leaving the cluster;
//! * one **shared fabric** — the shared switch of Rennes/Lille or the
//!   backbone joining the per-cluster switches of Nancy/Sophia — crossed by
//!   every inter-cluster transfer of the site.
//!
//! Capacities come from the platform description. The distinction between
//! the two topologies is carried by the fabric capacity (switch fabric vs
//! 10 Gbit backbone), which yields the "different contention conditions"
//! mentioned in the paper.

use mcsched_platform::{Platform, ProcSet};

/// Index of a link in the flattened site network.
pub type LinkId = usize;

/// A route across the site network: the links crossed plus the end-to-end
/// latency paid once at the start of the transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Links crossed by the transfer.
    pub links: Vec<LinkId>,
    /// One-shot latency in seconds.
    pub latency: f64,
}

impl Route {
    /// A route crossing no link (local, in-memory transfer).
    pub fn local() -> Self {
        Route {
            links: Vec::new(),
            latency: 0.0,
        }
    }

    /// Whether the route crosses no network link.
    pub fn is_local(&self) -> bool {
        self.links.is_empty()
    }
}

/// The flattened network of a site: link capacities and route computation.
#[derive(Debug, Clone)]
pub struct SiteNetwork {
    /// Capacity of each link in bytes/s.
    capacities: Vec<f64>,
    /// Index of the intra-cluster link of each cluster.
    intra: Vec<LinkId>,
    /// Index of the uplink of each cluster.
    uplink: Vec<LinkId>,
    /// Index of the shared fabric (switch or backbone).
    fabric: LinkId,
    /// Uplink latency of each cluster.
    uplink_latency: Vec<f64>,
    /// Latency of the shared fabric.
    fabric_latency: f64,
}

impl SiteNetwork {
    /// Builds the flattened network of `platform`.
    pub fn new(platform: &Platform) -> Self {
        let nc = platform.num_clusters();
        let mut capacities = Vec::with_capacity(2 * nc + 1);
        let mut intra = Vec::with_capacity(nc);
        let mut uplink = Vec::with_capacity(nc);
        let mut uplink_latency = Vec::with_capacity(nc);
        for c in platform.clusters() {
            intra.push(capacities.len());
            capacities.push(c.link_bandwidth());
            uplink.push(capacities.len());
            capacities.push(c.link_bandwidth());
            uplink_latency.push(c.link_latency());
        }
        let shared = platform.topology().shared_link();
        let fabric = capacities.len();
        capacities.push(shared.bandwidth);
        Self {
            capacities,
            intra,
            uplink,
            fabric,
            uplink_latency,
            fabric_latency: shared.latency,
        }
    }

    /// Number of links of the flattened network.
    pub fn num_links(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity of a link in bytes/s.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.capacities[link]
    }

    /// Capacities of all links, indexed by [`LinkId`].
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Index of the shared fabric link.
    pub fn fabric(&self) -> LinkId {
        self.fabric
    }

    /// Index of the uplink of cluster `c`.
    pub fn uplink(&self, c: usize) -> LinkId {
        self.uplink[c]
    }

    /// Computes the route taken by a transfer from processor set `src` to
    /// processor set `dst`.
    ///
    /// * identical sets on the same cluster → local, no network involved;
    /// * different sets on the same cluster → the cluster's intra link;
    /// * different clusters → source uplink, shared fabric, destination
    ///   uplink.
    pub fn route(&self, src: &ProcSet, dst: &ProcSet) -> Route {
        if src.cluster() == dst.cluster() {
            if src == dst {
                Route::local()
            } else {
                Route {
                    links: vec![self.intra[src.cluster()]],
                    latency: self.uplink_latency[src.cluster()],
                }
            }
        } else {
            Route {
                links: vec![
                    self.uplink[src.cluster()],
                    self.fabric,
                    self.uplink[dst.cluster()],
                ],
                latency: self.uplink_latency[src.cluster()]
                    + self.fabric_latency
                    + self.uplink_latency[dst.cluster()],
            }
        }
    }

    /// Lower bound of the time needed to move `bytes` bytes over `route`,
    /// assuming no contention. Used by the scheduler to estimate
    /// redistribution costs.
    pub fn uncontended_time(&self, route: &Route, bytes: f64) -> f64 {
        if route.is_local() || bytes <= 0.0 {
            return 0.0;
        }
        let min_cap = route
            .links
            .iter()
            .map(|&l| self.capacities[l])
            .fold(f64::MAX, f64::min);
        route.latency + bytes / min_cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_platform::{grid5000, PlatformBuilder};

    fn two_cluster_platform() -> Platform {
        PlatformBuilder::new("two")
            .cluster("a", 8, 2.0)
            .cluster("b", 8, 3.0)
            .build()
            .unwrap()
    }

    #[test]
    fn link_count_is_two_per_cluster_plus_fabric() {
        let net = SiteNetwork::new(&two_cluster_platform());
        assert_eq!(net.num_links(), 5);
    }

    #[test]
    fn local_route_for_identical_procsets() {
        let net = SiteNetwork::new(&two_cluster_platform());
        let s = ProcSet::contiguous(0, 0, 4);
        let r = net.route(&s, &s);
        assert!(r.is_local());
        assert_eq!(net.uncontended_time(&r, 1e9), 0.0);
    }

    #[test]
    fn intra_cluster_route_uses_intra_link() {
        let net = SiteNetwork::new(&two_cluster_platform());
        let a = ProcSet::contiguous(0, 0, 4);
        let b = ProcSet::contiguous(0, 4, 4);
        let r = net.route(&a, &b);
        assert_eq!(r.links, vec![net.intra[0]]);
    }

    #[test]
    fn inter_cluster_route_crosses_three_links() {
        let net = SiteNetwork::new(&two_cluster_platform());
        let a = ProcSet::contiguous(0, 0, 4);
        let b = ProcSet::contiguous(1, 0, 4);
        let r = net.route(&a, &b);
        assert_eq!(r.links.len(), 3);
        assert!(r.links.contains(&net.fabric()));
        assert!(r.links.contains(&net.uplink(0)));
        assert!(r.links.contains(&net.uplink(1)));
    }

    #[test]
    fn uncontended_time_uses_bottleneck() {
        let net = SiteNetwork::new(&two_cluster_platform());
        let a = ProcSet::contiguous(0, 0, 4);
        let b = ProcSet::contiguous(1, 0, 4);
        let r = net.route(&a, &b);
        // All links are 1 Gbit/s (125 MB/s) except the fabric which is also
        // gigabit on the default shared topology => bottleneck 1.25e8.
        let t = net.uncontended_time(&r, 1.25e8);
        assert!(t > 1.0 && t < 1.01);
    }

    #[test]
    fn grid5000_topology_capacities_differ() {
        let lille = SiteNetwork::new(&grid5000::lille());
        let nancy = SiteNetwork::new(&grid5000::nancy());
        // Lille's fabric is the shared gigabit switch, Nancy's is the
        // 10 Gbit backbone.
        assert!(nancy.capacity(nancy.fabric()) > lille.capacity(lille.fabric()));
    }

    #[test]
    fn zero_bytes_transfer_is_free() {
        let net = SiteNetwork::new(&two_cluster_platform());
        let a = ProcSet::contiguous(0, 0, 4);
        let b = ProcSet::contiguous(1, 0, 4);
        let r = net.route(&a, &b);
        assert_eq!(net.uncontended_time(&r, 0.0), 0.0);
    }
}
