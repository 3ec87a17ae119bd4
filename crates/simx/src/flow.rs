//! Max-min fair bandwidth sharing between concurrent transfers.
//!
//! Every active transfer (a *flow*) crosses a set of links. When the set of
//! active flows changes, the per-flow rates are recomputed with the
//! classical **progressive filling** algorithm: the most contended link is
//! saturated first, the flows crossing it are frozen at the fair share of
//! that link, its capacity is removed, and the process repeats. This is the
//! same fluid model SimGrid uses for TCP-level simulation and is what makes
//! the shared-switch sites exhibit more contention than the
//! per-cluster-switch sites.
//!
//! Two implementations live here:
//!
//! * [`max_min_fair_rates`] — the pure, allocating specification of the
//!   progressive-filling computation. Kept as the reference the network is
//!   tested against (and reused verbatim by the frozen engine in
//!   [`crate::reference`]);
//! * [`FlowNetwork`] — the engine's network. It runs progressive filling
//!   over *route classes* instead of flows, reuses internal buffers so that
//!   starting/completing a flow allocates nothing once warm, and caches the
//!   next-completion horizon so [`FlowNetwork::next_completion`] is O(1)
//!   between changes.
//!
//! # Route classes
//!
//! A route class is the set of in-flight flows crossing one link list. A
//! site's flows cross few distinct routes (one per ordered cluster pair,
//! plus one intra-cluster link per cluster), so a contended network with a
//! hundred flows in flight has about five classes. Progressive filling
//! cannot tell the flows of a class apart: they count on the same links and
//! freeze in the same round at the same share. The network therefore counts
//! a class of `m` flows as `m` users of each link it lists (twice for a link
//! listed twice, as the specification does), freezes whole classes, and
//! keeps one rate per class. The result is bit-identical to
//! [`max_min_fair_rates`]:
//!
//! * user counts are integers, so counting a class at once changes nothing,
//!   and the bottleneck scan (the first link with the smallest share) is
//!   the specification's;
//! * every flow frozen in a round subtracts the same share from each of its
//!   links, as `c = max(c - share, 0)`, so the order of a round's
//!   subtractions cannot change a link's capacity, and applying them class
//!   by class gives the specification's bits;
//! * a link no unfrozen flow crosses after a round is never a bottleneck
//!   again and its capacity is never read again, so those subtractions are
//!   skipped.
//!
//! The flows of a class also drain in lockstep: `rate * dt` is computed
//! once per class, and the residual update `max(rem - step, 0)` is monotone,
//! so flows never change order by residual within their class. Each class
//! keeps its flows sorted by descending residual; since the finish time is
//! monotone in the residual, the class's earliest finish is its tail's, and
//! the next completion looks at each class's tail run instead of dividing
//! for every flow. Ties go to the flow started first, as in the
//! specification's start-order scan, through a start sequence number, so a
//! completed flow is removed without shifting every other.

use crate::resources::LinkId;

/// Maximum number of links a route may cross (uplink, fabric, downlink).
pub const MAX_ROUTE_LINKS: usize = 3;

/// A flow crossing a set of links with some bytes left to transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Links crossed by the flow.
    pub links: Vec<LinkId>,
    /// Bytes remaining to transfer.
    pub remaining: f64,
}

/// Computes the max-min fair rate (bytes/s) of each flow given the link
/// capacities (bytes/s).
///
/// Flows crossing no link (local transfers) get an infinite rate. The
/// returned vector is indexed like `flows`.
///
/// This is the executable specification: [`FlowNetwork`] implements the
/// same computation over route classes without allocating, and its tests
/// check the two agree bit for bit.
pub fn max_min_fair_rates(capacities: &[f64], flows: &[Flow]) -> Vec<f64> {
    let mut rates = vec![f64::INFINITY; flows.len()];
    if flows.is_empty() {
        return rates;
    }

    let mut remaining_capacity: Vec<f64> = capacities.to_vec();
    let mut frozen = vec![false; flows.len()];
    // A flow with no links is never constrained.
    for (i, f) in flows.iter().enumerate() {
        if f.links.is_empty() {
            frozen[i] = true;
        }
    }

    loop {
        // Count unfrozen flows per link.
        let mut users = vec![0usize; capacities.len()];
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            for &l in &f.links {
                users[l] += 1;
            }
        }
        // Find the bottleneck link: smallest fair share among used links.
        let mut bottleneck: Option<(LinkId, f64)> = None;
        for (l, &u) in users.iter().enumerate() {
            if u == 0 {
                continue;
            }
            let share = remaining_capacity[l] / u as f64;
            match bottleneck {
                None => bottleneck = Some((l, share)),
                Some((_, best)) if share < best => bottleneck = Some((l, share)),
                _ => {}
            }
        }
        let Some((bl, share)) = bottleneck else {
            break; // every flow is frozen
        };
        // Freeze every unfrozen flow crossing the bottleneck at `share` and
        // subtract its consumption from the other links it crosses.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] || !f.links.contains(&bl) {
                continue;
            }
            rates[i] = share;
            frozen[i] = true;
            for &l in &f.links {
                remaining_capacity[l] = (remaining_capacity[l] - share).max(0.0);
            }
        }
    }
    rates
}

/// The flows crossing one link list. Max-min fairness gives them all the
/// same rate, so progressive filling runs over classes, not flows, and a
/// class's flows drain in lockstep: their order by residual bytes never
/// changes. Flows are kept sorted by descending residual, so the class's
/// next completion sits at the tail.
#[derive(Debug, Clone, Default)]
struct RouteClass {
    links: [LinkId; MAX_ROUTE_LINKS],
    num_links: u8,
    rate: f64,
    /// Caller key, bytes remaining and start sequence number of each flow,
    /// by descending residual.
    keys: Vec<usize>,
    remaining: Vec<f64>,
    seq: Vec<u64>,
}

impl RouteClass {
    fn links(&self) -> &[LinkId] {
        &self.links[..self.num_links as usize]
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn insert(&mut self, i: usize, key: usize, remaining: f64, seq: u64) {
        self.keys.insert(i, key);
        self.remaining.insert(i, remaining);
        self.seq.insert(i, seq);
    }

    /// Removes the flow at index `i`; the tail, where completions happen,
    /// moves nothing.
    fn remove(&mut self, i: usize) {
        if i + 1 == self.len() {
            self.keys.pop();
            self.remaining.pop();
            self.seq.pop();
        } else {
            self.keys.remove(i);
            self.remaining.remove(i);
            self.seq.remove(i);
        }
    }
}

/// When a flow with `rem` bytes left at time `now` finishes at `rate`.
/// Non-decreasing in `rem` for a fixed rate.
fn finish_time(now: f64, rem: f64, rate: f64) -> f64 {
    if rem <= 0.0 || rate.is_infinite() {
        now
    } else if rate <= 0.0 {
        f64::INFINITY
    } else {
        now + rem / rate
    }
}

/// The set of in-flight transfers, advancing them in simulated time under
/// max-min fair sharing.
///
/// Flows are grouped by route class (see the [module docs](self)); the
/// fair-rate recomputation runs over the classes and reusable scratch
/// buffers, so the per-event cost allocates nothing once the buffers are
/// warm. The next-completion horizon is cached after every change, making
/// [`FlowNetwork::next_completion`] constant-time (the engine polls it
/// several times per event step).
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    capacities: Vec<f64>,
    /// Route classes met so far. A reset empties them but keeps them (and
    /// their storage): a reused network meets the same routes again.
    classes: Vec<RouteClass>,
    /// Indices of the classes with flows in flight, in no particular order:
    /// the rates and the next completion do not depend on it.
    active: Vec<usize>,
    in_flight: usize,
    next_seq: u64,
    last_update: f64,
    /// Cached `(time, key)` of the earliest-finishing flow and its
    /// `(class, index)`; valid until the flow set changes (rates and
    /// residuals only move on start/complete).
    next_done: Option<(f64, usize)>,
    next_done_at: (usize, usize),
    // Scratch for the progressive-filling computation, reused across calls.
    scratch_capacity: Vec<f64>,
    scratch_users: Vec<usize>,
    scratch_frozen: Vec<bool>,
    scratch_round: Vec<usize>,
}

impl FlowNetwork {
    /// Creates a flow network over links with the given capacities.
    pub fn new(capacities: Vec<f64>) -> Self {
        Self {
            capacities,
            ..Self::default()
        }
    }

    /// Number of in-flight flows.
    pub fn len(&self) -> usize {
        self.in_flight
    }

    /// Whether no flow is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Drops all flows and rewinds the clock to 0, keeping the capacities
    /// and every internal buffer's storage (so a reused network allocates
    /// nothing on its next run).
    pub fn reset(&mut self) {
        for &c in &self.active {
            let class = &mut self.classes[c];
            class.keys.clear();
            class.remaining.clear();
            class.seq.clear();
        }
        self.active.clear();
        self.in_flight = 0;
        self.next_seq = 0;
        self.last_update = 0.0;
        self.next_done = None;
    }

    /// Advances all flows to time `now`. A class's `rate * dt` is computed
    /// once; an infinite step drains every flow of the class to 0, as an
    /// infinite rate does. The update is monotone in the residual, so each
    /// class stays sorted.
    fn advance(&mut self, now: f64) {
        let dt = now - self.last_update;
        if dt > 0.0 {
            for &c in &self.active {
                let class = &mut self.classes[c];
                let step = if class.rate.is_finite() {
                    class.rate * dt
                } else {
                    f64::INFINITY
                };
                for rem in &mut class.remaining {
                    *rem = (*rem - step).max(0.0);
                }
            }
        }
        self.last_update = now;
    }

    /// Progressive filling over the route classes — the same computation
    /// as [`max_min_fair_rates`], without allocating.
    ///
    /// A class of `m` flows counts `m` users on each link it lists and
    /// freezes whole at a round's share. Every flow frozen in a round
    /// subtracts the same share from its links, so the order of those
    /// subtractions does not change the result, and they are skipped on
    /// links no unfrozen flow crosses any more: those capacities are never
    /// read again.
    fn recompute(&mut self) {
        self.scratch_users.clear();
        self.scratch_users.resize(self.capacities.len(), 0);
        self.scratch_frozen.clear();
        for &c in &self.active {
            let class = &mut self.classes[c];
            class.rate = f64::INFINITY;
            // Local routes never take part.
            let frozen = class.num_links == 0;
            self.scratch_frozen.push(frozen);
            if !frozen {
                for &l in class.links() {
                    self.scratch_users[l] += class.len();
                }
            }
        }
        self.scratch_capacity.clear();
        self.scratch_capacity.extend_from_slice(&self.capacities);

        loop {
            let mut bottleneck: Option<(LinkId, f64)> = None;
            for (l, &u) in self.scratch_users.iter().enumerate() {
                if u == 0 {
                    continue;
                }
                let share = self.scratch_capacity[l] / u as f64;
                match bottleneck {
                    None => bottleneck = Some((l, share)),
                    Some((_, best)) if share < best => bottleneck = Some((l, share)),
                    _ => {}
                }
            }
            let Some((bl, share)) = bottleneck else {
                break; // every flow is frozen
            };
            self.scratch_round.clear();
            for (a, &c) in self.active.iter().enumerate() {
                let class = &mut self.classes[c];
                if self.scratch_frozen[a] || !class.links().contains(&bl) {
                    continue;
                }
                class.rate = share;
                self.scratch_frozen[a] = true;
                self.scratch_round.push(c);
                for &l in class.links() {
                    self.scratch_users[l] -= class.len();
                }
            }
            for &c in &self.scratch_round {
                let class = &self.classes[c];
                for &l in class.links() {
                    if self.scratch_users[l] == 0 {
                        continue;
                    }
                    let capacity = &mut self.scratch_capacity[l];
                    for _ in 0..class.len() {
                        *capacity = (*capacity - share).max(0.0);
                    }
                }
            }
        }
    }

    /// Recomputes the cached next-completion horizon: the earliest finish
    /// time, ties going to the flow started first. A class's earliest
    /// finish is its tail's; only the tail run finishing at that same time
    /// is scanned for the first-started flow. Rates and residuals only
    /// change on [`FlowNetwork::start`]/[`FlowNetwork::complete`], so the
    /// cache stays valid between them.
    fn refresh_next_done(&mut self) {
        let now = self.last_update;
        // (finish, seq, class, index)
        let mut best: Option<(f64, u64, usize, usize)> = None;
        for &c in &self.active {
            let class = &self.classes[c];
            let last = class.len() - 1;
            let tail = class.remaining[last];
            let t = finish_time(now, tail, class.rate);
            if best.is_some_and(|(bt, ..)| t > bt) {
                continue;
            }
            let mut pick = last;
            for i in (0..last).rev() {
                let rem = class.remaining[i];
                if rem != tail && finish_time(now, rem, class.rate) != t {
                    break;
                }
                if class.seq[i] < class.seq[pick] {
                    pick = i;
                }
            }
            let seq = class.seq[pick];
            match best {
                Some((bt, bs, ..)) if t == bt && seq > bs => {}
                _ => best = Some((t, seq, c, pick)),
            }
        }
        self.next_done = best.map(|(t, _, c, i)| {
            self.next_done_at = (c, i);
            (t, self.classes[c].keys[i])
        });
    }

    /// Starts a new flow identified by `key` at time `now`, transferring
    /// `bytes` bytes across `links`. Keys of flows in flight must differ.
    ///
    /// # Panics
    ///
    /// Panics if the route crosses more than [`MAX_ROUTE_LINKS`] links (site
    /// routes never do).
    pub fn start(&mut self, now: f64, key: usize, links: &[LinkId], bytes: f64) {
        self.advance(now);
        let mut route = [0; MAX_ROUTE_LINKS];
        route[..links.len()].copy_from_slice(links);
        let num_links = links.len() as u8;
        let found = self
            .classes
            .iter()
            .position(|class| class.num_links == num_links && class.links == route);
        let c = found.unwrap_or_else(|| {
            self.classes.push(RouteClass {
                links: route,
                num_links,
                ..RouteClass::default()
            });
            self.classes.len() - 1
        });
        let class = &mut self.classes[c];
        if class.len() == 0 {
            self.active.push(c);
        }
        let bytes = bytes.max(0.0);
        let i = class.remaining.partition_point(|&rem| rem > bytes);
        class.insert(i, key, bytes, self.next_seq);
        self.next_seq += 1;
        self.in_flight += 1;
        self.recompute();
        self.refresh_next_done();
    }

    /// Time at which the next flow completes, together with its key, if any
    /// flow is in flight.
    pub fn next_completion(&self) -> Option<(f64, usize)> {
        self.next_done
    }

    /// Completes the flow identified by `key` at time `now` (removes it and
    /// recomputes the rates of the survivors).
    pub fn complete(&mut self, now: f64, key: usize) {
        self.advance(now);
        let at = match self.next_done {
            Some((_, k)) if k == key => Some(self.next_done_at),
            _ => self.active.iter().find_map(|&c| {
                let i = self.classes[c].keys.iter().position(|&k| k == key)?;
                Some((c, i))
            }),
        };
        if let Some((c, i)) = at {
            let class = &mut self.classes[c];
            class.remove(i);
            if class.len() == 0 {
                let a = self.active.iter().position(|&x| x == c).expect("active");
                self.active.swap_remove(a);
            }
            self.in_flight -= 1;
        }
        self.recompute();
        self.refresh_next_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_stats::QuickCheck;
    use rand::Rng;

    /// `(key, rate, remaining bytes)` of every flow, in start order.
    fn flows_in_start_order(net: &FlowNetwork) -> Vec<(usize, f64, f64)> {
        let mut flows: Vec<(u64, usize, f64, f64)> = net
            .classes
            .iter()
            .flat_map(|class| {
                (0..class.len())
                    .map(|i| (class.seq[i], class.keys[i], class.rate, class.remaining[i]))
            })
            .collect();
        flows.sort_by_key(|f| f.0);
        flows
            .into_iter()
            .map(|(_, k, r, rem)| (k, r, rem))
            .collect()
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_fair_rates(
            &[100.0],
            &[Flow {
                links: vec![0],
                remaining: 1.0,
            }],
        );
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let f = Flow {
            links: vec![0],
            remaining: 1.0,
        };
        let rates = max_min_fair_rates(&[100.0], &[f.clone(), f]);
        assert_eq!(rates, vec![50.0, 50.0]);
    }

    #[test]
    fn local_flow_is_unconstrained() {
        let rates = max_min_fair_rates(
            &[100.0],
            &[Flow {
                links: vec![],
                remaining: 1.0,
            }],
        );
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn max_min_respects_bottleneck_then_redistributes() {
        // Flow A crosses links 0 and 1; flow B crosses only link 0; link 0 is
        // large (200), link 1 is small (50).
        // A is limited to 50 by link 1; B then gets the rest of link 0 (150).
        let flows = [
            Flow {
                links: vec![0, 1],
                remaining: 1.0,
            },
            Flow {
                links: vec![0],
                remaining: 1.0,
            },
        ];
        let rates = max_min_fair_rates(&[200.0, 50.0], &flows);
        assert!((rates[0] - 50.0).abs() < 1e-9);
        assert!((rates[1] - 150.0).abs() < 1e-9);
    }

    #[test]
    fn three_flows_one_link() {
        let f = Flow {
            links: vec![0],
            remaining: 1.0,
        };
        let rates = max_min_fair_rates(&[90.0], &[f.clone(), f.clone(), f]);
        for r in rates {
            assert!((r - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn network_rates_match_the_specification_bit_for_bit() {
        // A contended mix over 4 links: some flows share every link, some
        // only the fabric, one is local. The network's in-place progressive
        // filling must produce exactly the rates of the pure specification.
        let capacities = vec![125.0e6, 1.0e9, 125.0e6, 50.0e6];
        let link_sets: Vec<Vec<LinkId>> = vec![
            vec![0, 1, 2],
            vec![1],
            vec![0, 3],
            vec![],
            vec![2, 3],
            vec![1, 3],
        ];
        let mut net = FlowNetwork::new(capacities.clone());
        let mut spec_flows = Vec::new();
        for (i, links) in link_sets.iter().enumerate() {
            let bytes = 1.0e8 * (i + 1) as f64;
            net.start(0.0, i, links, bytes);
            spec_flows.push(Flow {
                links: links.clone(),
                remaining: bytes,
            });
        }
        let spec = max_min_fair_rates(&capacities, &spec_flows);
        let rates: Vec<f64> = flows_in_start_order(&net).iter().map(|f| f.1).collect();
        assert_eq!(rates.len(), spec.len());
        for (i, (&got, &want)) in rates.iter().zip(spec.iter()).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "flow {i}: {got} vs {want}");
        }
    }

    #[test]
    fn flow_network_completion_times_with_contention() {
        // Two 100-byte flows on a 100 B/s link starting together: both
        // progress at 50 B/s; the first completes at t=2; after it leaves the
        // second would already be done too (it also finished its 100 bytes
        // by t=2 at 50 B/s).
        let mut net = FlowNetwork::new(vec![100.0]);
        net.start(0.0, 1, &[0], 100.0);
        net.start(0.0, 2, &[0], 100.0);
        let (t, key) = net.next_completion().unwrap();
        assert!((t - 2.0).abs() < 1e-9);
        net.complete(t, key);
        let (t2, _) = net.next_completion().unwrap();
        assert!((t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_down_first_flow() {
        // Flow 1 starts alone (100 B/s); at t=0.5 flow 2 arrives and both run
        // at 50 B/s. Flow 1 has 50 bytes left => completes at 1.5.
        let mut net = FlowNetwork::new(vec![100.0]);
        net.start(0.0, 1, &[0], 100.0);
        net.start(0.5, 2, &[0], 100.0);
        let (t, key) = net.next_completion().unwrap();
        assert_eq!(key, 1);
        assert!((t - 1.5).abs() < 1e-9);
        net.complete(t, 1);
        // Flow 2 then finishes its remaining 50 bytes at full speed: 1.5+0.5.
        let (t2, key2) = net.next_completion().unwrap();
        assert_eq!(key2, 2);
        assert!((t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNetwork::new(vec![100.0]);
        net.start(1.0, 7, &[0], 0.0);
        let (t, key) = net.next_completion().unwrap();
        assert_eq!(key, 7);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_network_has_no_completion() {
        let net = FlowNetwork::new(vec![100.0]);
        assert!(net.next_completion().is_none());
        assert!(net.is_empty());
    }

    #[test]
    fn reset_clears_flows_but_keeps_capacities() {
        let mut net = FlowNetwork::new(vec![100.0]);
        net.start(0.0, 1, &[0], 100.0);
        net.complete(1.0, 1);
        net.reset();
        assert!(net.is_empty());
        assert!(net.next_completion().is_none());
        // A fresh flow behaves as if the network were brand new.
        net.start(0.0, 2, &[0], 100.0);
        let (t, key) = net.next_completion().unwrap();
        assert_eq!(key, 2);
        assert!((t - 1.0).abs() < 1e-9);
    }

    /// The naive network the fuzz compares against: flows in start order,
    /// advanced like the frozen reference engine, rates from
    /// [`max_min_fair_rates`], completion by a first-minimum scan.
    struct Model {
        capacities: Vec<f64>,
        flows: Vec<(usize, Flow)>,
        rates: Vec<f64>,
        last_update: f64,
    }

    impl Model {
        fn advance(&mut self, now: f64) {
            let dt = now - self.last_update;
            if dt > 0.0 {
                for ((_, f), &rate) in self.flows.iter_mut().zip(&self.rates) {
                    f.remaining = if rate.is_finite() {
                        (f.remaining - rate * dt).max(0.0)
                    } else {
                        0.0
                    };
                }
            }
            self.last_update = now;
        }

        fn recompute(&mut self) {
            let flows: Vec<Flow> = self.flows.iter().map(|(_, f)| f.clone()).collect();
            self.rates = max_min_fair_rates(&self.capacities, &flows);
        }

        fn next_completion(&self) -> Option<(f64, usize)> {
            let mut best: Option<(f64, usize)> = None;
            for ((key, f), &rate) in self.flows.iter().zip(&self.rates) {
                let finish = if f.remaining <= 0.0 || rate.is_infinite() {
                    self.last_update
                } else if rate <= 0.0 {
                    f64::INFINITY
                } else {
                    self.last_update + f.remaining / rate
                };
                match best {
                    None => best = Some((finish, *key)),
                    Some((t, _)) if finish < t => best = Some((finish, *key)),
                    _ => {}
                }
            }
            best
        }
    }

    fn assert_matches(net: &FlowNetwork, model: &Model, step: usize) {
        let got = flows_in_start_order(net);
        assert_eq!(got.len(), model.flows.len(), "step {step}: flow count");
        for ((key, rate, rem), ((want_key, f), want_rate)) in
            got.iter().zip(model.flows.iter().zip(&model.rates))
        {
            assert_eq!(key, want_key, "step {step}: start order");
            assert_eq!(
                rate.to_bits(),
                want_rate.to_bits(),
                "step {step}: rate of {key}"
            );
            assert_eq!(
                rem.to_bits(),
                f.remaining.to_bits(),
                "step {step}: remaining of {key}"
            );
        }
        let (got, want) = (net.next_completion(), model.next_completion());
        assert_eq!(
            got.map(|(t, k)| (t.to_bits(), k)),
            want.map(|(t, k)| (t.to_bits(), k)),
            "step {step}: next completion {got:?} vs {want:?}"
        );
    }

    #[test]
    fn network_matches_the_specification_over_random_event_sequences() {
        // Seeded start/complete sequences over at most 4 distinct routes:
        // always a local (empty) route and one listing a link twice, plus two
        // random routes. Volumes include zero bytes, and bursts start
        // equal-size flows at one instant, so completions tie. After every
        // event the rates and residuals must equal the specification's bit
        // for bit, and the cached completion the naive first-minimum scan.
        QuickCheck::new(0xF10_3E7).cases(64).run(|rng, size| {
            let nl = rng.gen_range(2..=5);
            let capacities: Vec<f64> = (0..nl)
                .map(|_| [50.0e6, 125.0e6, 125.0e6, 1.0e9, 1.25e9][rng.gen_range(0..5)])
                .collect();
            let random_route = |rng: &mut rand_chacha::ChaCha8Rng| -> Vec<LinkId> {
                let len = rng.gen_range(1..=MAX_ROUTE_LINKS);
                (0..len).map(|_| rng.gen_range(0..nl)).collect()
            };
            let twice = rng.gen_range(0..nl);
            let routes = [
                vec![],
                if rng.gen_bool(0.5) {
                    vec![twice, twice]
                } else {
                    vec![twice, rng.gen_range(0..nl), twice]
                },
                random_route(rng),
                random_route(rng),
            ];
            let volumes = [0.0, 1.0e3, 1.0e7, 1.25e8, 1.25e8, 5.0e8];
            let mut net = FlowNetwork::new(capacities.clone());
            let mut model = Model {
                capacities,
                flows: Vec::new(),
                rates: Vec::new(),
                last_update: 0.0,
            };
            let mut now = 0.0f64;
            let mut next_key = 0usize;
            for step in 0..4 * size.max(1) as usize {
                let action = rng.gen_range(0..10);
                match action {
                    // Start a flow, or a burst of equal-size flows, now.
                    0..=4 => {
                        let burst = if rng.gen_bool(0.3) {
                            rng.gen_range(2..=4)
                        } else {
                            1
                        };
                        let bytes = if rng.gen_bool(0.7) {
                            volumes[rng.gen_range(0..volumes.len())]
                        } else {
                            rng.gen_range(1.0e5..1.0e9)
                        };
                        for _ in 0..burst {
                            let route = &routes[rng.gen_range(0..routes.len())];
                            net.start(now, next_key, route, bytes);
                            model.advance(now);
                            model.flows.push((
                                next_key,
                                Flow {
                                    links: route.clone(),
                                    remaining: bytes.max(0.0),
                                },
                            ));
                            model.recompute();
                            next_key += 1;
                        }
                    }
                    // Complete the next flow to finish, as the engine does,
                    // or an arbitrary in-flight flow early.
                    5..=8 => {
                        let key = if action < 8 {
                            net.next_completion().map(|(t, key)| {
                                now = now.max(t);
                                key
                            })
                        } else if model.flows.is_empty() {
                            None
                        } else {
                            Some(model.flows[rng.gen_range(0..model.flows.len())].0)
                        };
                        if let Some(key) = key {
                            net.complete(now, key);
                            model.advance(now);
                            model.flows.retain(|(k, _)| *k != key);
                            model.recompute();
                        }
                    }
                    // Let time pass.
                    _ => now += rng.gen_range(0.0..2.0),
                }
                assert_matches(&net, &model, step);
            }
        });
    }
}
