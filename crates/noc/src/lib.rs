//! # cimflow-noc
//!
//! A 2-D mesh network-on-chip model for the CIMFlow framework — the role
//! Noxim plays in the original paper's methodology (it models "the NoC
//! interconnection costs").
//!
//! The model is a flit-level, XY-routed, virtual-cut-through mesh with
//! per-link contention tracked at packet granularity:
//!
//! * a packet of `bytes` is segmented into flits of the configured size
//!   (the paper's "flit size per cycle" link-bandwidth parameter),
//! * the head flit advances one hop per [`NocConfig::hop_latency`] cycles,
//! * each traversed link is occupied for the packet's serialization time,
//!   so concurrent packets sharing a link queue behind each other,
//! * per-transfer latency, flit-hop counts and per-link occupancy are
//!   accumulated into [`NocStats`] for the energy model and the reports.
//!
//! The chip-level global memory is reached through a configurable memory
//! port node, matching the paper's organization where cores access global
//! memory over the NoC.
//!
//! For multi-chip systems the crate additionally models the chip-to-chip
//! interconnect ([`InterChipFabric`]): a point-to-point or ring fabric of
//! full-duplex links, flit-serialized exactly like the mesh but with a
//! wider flit and a much larger per-hop latency. Both networks implement
//! the [`Interconnect`] trait so the simulator drives them uniformly.
//!
//! # Example
//!
//! ```
//! use cimflow_noc::{Mesh, NocConfig};
//!
//! let mut mesh = Mesh::new(NocConfig::new(4, 4, 8));
//! let outcome = mesh.transfer(0, 15, 64, 0);
//! assert_eq!(outcome.hops, 6);
//! assert!(outcome.arrival > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Identifier of a mesh node (row-major core index).
pub type NodeId = u32;

/// Configuration of the mesh NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh width (columns).
    pub width: u32,
    /// Mesh height (rows).
    pub height: u32,
    /// Flit size in bytes (link bandwidth per cycle).
    pub flit_bytes: u32,
    /// Cycles for the head flit to traverse one router + link.
    pub hop_latency: u32,
    /// Node to which the global-memory port is attached.
    pub memory_port: NodeId,
}

impl NocConfig {
    /// Creates a mesh configuration with 1-cycle hops and the memory port
    /// at node 0.
    pub fn new(width: u32, height: u32, flit_bytes: u32) -> Self {
        NocConfig { width, height, flit_bytes, hop_latency: 1, memory_port: 0 }
    }

    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> u32 {
        self.width * self.height
    }

    /// Returns the `(x, y)` coordinate of a node.
    pub fn coordinates(&self, node: NodeId) -> (u32, u32) {
        (node % self.width.max(1), node / self.width.max(1))
    }

    /// Manhattan distance between two nodes (the XY-routing hop count).
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        let (fx, fy) = self.coordinates(from);
        let (tx, ty) = self.coordinates(to);
        fx.abs_diff(tx) + fy.abs_diff(ty)
    }

    /// Number of flits needed to carry `bytes`.
    pub fn flits_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(u64::from(self.flit_bytes.max(1)))
        }
    }
}

/// A directed link between two adjacent routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Link {
    /// Upstream router.
    pub from: NodeId,
    /// Downstream router.
    pub to: NodeId,
}

/// Outcome of one packet transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferOutcome {
    /// Cycle at which the packet was injected.
    pub departure: u64,
    /// Cycle at which the tail flit arrives at the destination.
    pub arrival: u64,
    /// Number of hops traversed.
    pub hops: u32,
    /// Number of flits transferred.
    pub flits: u64,
    /// Cycles the packet spent waiting for busy links.
    pub contention: u64,
}

impl TransferOutcome {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.arrival - self.departure
    }
}

/// Accumulated NoC statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NocStats {
    /// Packets transferred.
    pub packets: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total flits injected.
    pub flits: u64,
    /// Total flit-hops (flits × hops), the NoC energy proxy.
    pub flit_hops: u64,
    /// Total byte-hops (bytes × hops), the link-energy proxy.
    pub byte_hops: u64,
    /// Sum of packet latencies.
    pub total_latency: u64,
    /// Sum of contention (queueing) cycles.
    pub total_contention: u64,
    /// Largest observed packet latency.
    pub max_latency: u64,
}

impl NocStats {
    /// Mean packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.packets as f64
        }
    }

    /// Folds another accumulator into this one (used to aggregate the
    /// per-chip meshes of a multi-chip system into one report entry).
    pub fn merge(&mut self, other: &NocStats) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.flits += other.flits;
        self.flit_hops += other.flit_hops;
        self.byte_hops += other.byte_hops;
        self.total_latency += other.total_latency;
        self.total_contention += other.total_contention;
        self.max_latency = self.max_latency.max(other.max_latency);
    }
}

/// Walks a packet of `flits` flits (carrying `bytes` payload bytes) over
/// the route whose links occupy `slots` of the flat `link_free` table,
/// queueing on busy links and accounting into `stats` — the one
/// contention/serialization model shared by the on-chip [`Mesh`] and the
/// chip-to-chip [`InterChipFabric`], which differ only in how they route.
///
/// An empty route or a zero-flit packet completes immediately without
/// touching the network (the packet is still counted).
fn transfer_over(
    slots: impl Iterator<Item = usize>,
    flits: u64,
    bytes: u64,
    hop_latency: u64,
    now: u64,
    link_free: &mut [u64],
    stats: &mut NocStats,
) -> TransferOutcome {
    stats.packets += 1;
    stats.bytes += bytes;
    stats.flits += flits;
    let immediate = TransferOutcome { departure: now, arrival: now, hops: 0, flits, contention: 0 };
    if flits == 0 {
        return immediate;
    }
    let mut hops = 0u32;
    let mut head_time = now;
    let mut contention = 0u64;
    for slot in slots {
        let start = head_time.max(link_free[slot]);
        contention += start - head_time;
        // The link is busy until the tail flit has crossed it.
        link_free[slot] = start + flits;
        head_time = start + hop_latency;
        hops += 1;
    }
    if hops == 0 {
        return immediate;
    }
    // The tail flit arrives `flits - 1` cycles after the head.
    let arrival = head_time + flits.saturating_sub(1);
    let outcome = TransferOutcome { departure: now, arrival, hops, flits, contention };

    stats.flit_hops += flits * u64::from(hops);
    stats.byte_hops += bytes * u64::from(hops);
    stats.total_latency += outcome.latency();
    stats.total_contention += contention;
    stats.max_latency = stats.max_latency.max(outcome.latency());
    outcome
}

/// A packet-switched interconnect: something that can carry one packet
/// from `src` to `dst` with contention, and account the traffic.
///
/// Implemented by the on-chip [`Mesh`] (node = core/router) and the
/// chip-to-chip [`InterChipFabric`] (node = chip), so the simulator
/// drives per-chip meshes and the system-level fabric through one
/// interface.
pub trait Interconnect {
    /// Simulates one packet transfer of `bytes` from `src` to `dst`
    /// injected at cycle `now`, updating link contention and statistics.
    fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: u64) -> TransferOutcome;

    /// Accumulated statistics.
    fn stats(&self) -> &NocStats;

    /// Clears contention state and statistics.
    fn reset(&mut self);
}

/// Out-links per router in the mesh's link table: east, west, south and
/// north, in that slot order.
const MESH_PORTS: usize = 4;

/// The mesh NoC with per-link contention state: a flat table of the
/// cycle each router out-link frees up, four slots per router.
#[derive(Debug, Clone)]
pub struct Mesh {
    config: NocConfig,
    link_free: Vec<u64>,
    stats: NocStats,
}

impl Mesh {
    /// Creates an idle mesh. Its link table holds four `u64` slots per
    /// node; `ChipConfig::validate` bounds the mesh it is built from at
    /// `MAX_MESH_NODES` nodes.
    pub fn new(config: NocConfig) -> Self {
        let link_free = vec![0; config.nodes() as usize * MESH_PORTS];
        Mesh { config, link_free, stats: NocStats::default() }
    }

    /// The mesh configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Clears contention state and statistics.
    pub fn reset(&mut self) {
        self.link_free.fill(0);
        self.stats = NocStats::default();
    }

    /// The XY walk from `src` to `dst`, X first, then Y: every hop as its
    /// directed link and that link's slot (`from * MESH_PORTS +
    /// direction`) in the link table — the one routing implementation
    /// behind both [`Mesh::route`] and [`Mesh::transfer`].
    fn walk(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = (Link, usize)> {
        let width = self.config.width;
        let (mut x, mut y) = self.config.coordinates(src);
        let (tx, ty) = self.config.coordinates(dst);
        let mut current = src;
        std::iter::from_fn(move || {
            let direction = if x < tx {
                x += 1;
                0
            } else if x > tx {
                x -= 1;
                1
            } else if y < ty {
                y += 1;
                2
            } else if y > ty {
                y -= 1;
                3
            } else {
                return None;
            };
            let next = y * width + x;
            let hop = (Link { from: current, to: next }, current as usize * MESH_PORTS + direction);
            current = next;
            Some(hop)
        })
    }

    /// The XY route from `src` to `dst` as a list of directed links.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<Link> {
        self.walk(src, dst).map(|(link, _)| link).collect()
    }

    /// Simulates one packet transfer of `bytes` from `src` to `dst`
    /// injected at cycle `now`, updating link contention and statistics.
    ///
    /// Transfers with `src == dst` (or zero bytes) complete immediately
    /// without touching the network.
    ///
    /// # Panics
    ///
    /// Panics unless both endpoints are mesh nodes (`< config().nodes()`).
    /// `ArchConfig::validate` guarantees this for every core and for the
    /// memory port of a validated architecture.
    pub fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: u64) -> TransferOutcome {
        let nodes = self.config.nodes();
        assert!(src < nodes && dst < nodes, "transfer {src} -> {dst} leaves the {nodes}-node mesh");
        let flits = self.config.flits_for(bytes);
        transfer_over(
            self.walk(src, dst).map(|(_, slot)| slot),
            flits,
            bytes,
            u64::from(self.config.hop_latency),
            now,
            &mut self.link_free,
            &mut self.stats,
        )
    }

    /// Convenience wrapper for a transfer to the global-memory port.
    pub fn transfer_to_memory(&mut self, src: NodeId, bytes: u64, now: u64) -> TransferOutcome {
        self.transfer(src, self.config.memory_port, bytes, now)
    }

    /// Convenience wrapper for a transfer from the global-memory port.
    pub fn transfer_from_memory(&mut self, dst: NodeId, bytes: u64, now: u64) -> TransferOutcome {
        self.transfer(self.config.memory_port, dst, bytes, now)
    }
}

impl Interconnect for Mesh {
    fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: u64) -> TransferOutcome {
        Mesh::transfer(self, src, dst, bytes, now)
    }

    fn stats(&self) -> &NocStats {
        Mesh::stats(self)
    }

    fn reset(&mut self) {
        Mesh::reset(self)
    }
}

/// Configuration of the chip-to-chip fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InterChipConfig {
    /// Number of chips connected by the fabric.
    pub chips: u32,
    /// Link bandwidth in bytes per core-clock cycle (the inter-chip
    /// "flit" size).
    pub link_bytes: u32,
    /// Head latency of one link traversal in cycles (SerDes plus time of
    /// flight) — the inter-chip analogue of [`NocConfig::hop_latency`].
    pub link_latency: u32,
    /// Whether the chips form a ring (`true`) or a full point-to-point
    /// fabric with a dedicated link per chip pair (`false`).
    pub ring: bool,
}

impl InterChipConfig {
    /// Creates a point-to-point fabric configuration.
    pub fn point_to_point(chips: u32, link_bytes: u32, link_latency: u32) -> Self {
        InterChipConfig { chips, link_bytes, link_latency, ring: false }
    }

    /// Creates a ring fabric configuration.
    pub fn ring(chips: u32, link_bytes: u32, link_latency: u32) -> Self {
        InterChipConfig { chips, link_bytes, link_latency, ring: true }
    }

    /// Number of link-serialization flits needed to carry `bytes`.
    pub fn flits_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(u64::from(self.link_bytes.max(1)))
        }
    }

    /// Hop count from chip `from` to chip `to`.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        if from == to {
            return 0;
        }
        if self.ring {
            let d = from.abs_diff(to);
            d.min(self.chips.max(1) - d)
        } else {
            1
        }
    }
}

/// The chip-to-chip interconnect: full-duplex links between chips with
/// per-link contention, flit-serialized like the mesh.
///
/// Point-to-point fabrics route every packet over the single direct link
/// of the `(src, dst)` pair; ring fabrics walk the shorter ring direction
/// one chip at a time, occupying every traversed link for the packet's
/// serialization time so concurrent packets queue behind each other.
///
/// Link occupancy lives in a flat table with one slot per ordered chip
/// pair (`from * chips + to`).
#[derive(Debug, Clone)]
pub struct InterChipFabric {
    config: InterChipConfig,
    link_free: Vec<u64>,
    stats: NocStats,
}

impl InterChipFabric {
    /// Creates an idle fabric. Its link table holds one `u64` slot per
    /// ordered chip pair; `SystemConfig::validate` bounds the chip count
    /// it is built from at `MAX_CHIP_COUNT`.
    pub fn new(config: InterChipConfig) -> Self {
        let chips = config.chips.max(1) as usize;
        InterChipFabric { config, link_free: vec![0; chips * chips], stats: NocStats::default() }
    }

    /// The fabric configuration.
    pub fn config(&self) -> &InterChipConfig {
        &self.config
    }

    /// The walk from chip `src` to chip `dst`: the direct link on a
    /// point-to-point fabric, the shorter ring direction on a ring.
    fn walk(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = Link> {
        let chips = self.config.chips.max(1);
        let ring = self.config.ring;
        let step_forward = ring && {
            let forward = (dst + chips - src) % chips;
            forward <= chips - forward
        };
        let mut current = src;
        std::iter::from_fn(move || {
            if current == dst {
                return None;
            }
            let next = match (ring, step_forward) {
                (false, _) => dst,
                (true, true) => (current + 1) % chips,
                (true, false) => (current + chips - 1) % chips,
            };
            let link = Link { from: current, to: next };
            current = next;
            Some(link)
        })
    }

    /// The route from chip `src` to chip `dst` as a list of directed
    /// links.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<Link> {
        self.walk(src, dst).collect()
    }
}

impl Interconnect for InterChipFabric {
    /// # Panics
    ///
    /// Panics unless both endpoints are chips of the fabric
    /// (`< config().chips`).
    fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, now: u64) -> TransferOutcome {
        let chips = self.config.chips;
        assert!(
            src < chips && dst < chips,
            "transfer {src} -> {dst} leaves the {chips}-chip fabric"
        );
        let flits = self.config.flits_for(bytes);
        let slots = self.walk(src, dst).map(|link| (link.from * chips + link.to) as usize);
        transfer_over(
            slots,
            flits,
            bytes,
            u64::from(self.config.link_latency),
            now,
            &mut self.link_free,
            &mut self.stats,
        )
    }

    fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.link_free.fill(0);
        self.stats = NocStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> Mesh {
        Mesh::new(NocConfig::new(4, 4, 8))
    }

    #[test]
    fn route_follows_xy_order_and_length() {
        let mesh = mesh4();
        let route = mesh.route(0, 15);
        assert_eq!(route.len(), 6);
        // X first: 0 -> 1 -> 2 -> 3, then Y: 3 -> 7 -> 11 -> 15.
        assert_eq!(route[0], Link { from: 0, to: 1 });
        assert_eq!(route[2], Link { from: 2, to: 3 });
        assert_eq!(route[3], Link { from: 3, to: 7 });
        assert_eq!(route[5], Link { from: 11, to: 15 });
        assert!(mesh.route(5, 5).is_empty());
    }

    #[test]
    fn transfer_latency_combines_hops_and_serialization() {
        let mut mesh = mesh4();
        // 64 bytes = 8 flits over 6 hops: 6 cycles head latency + 7 tail.
        let outcome = mesh.transfer(0, 15, 64, 0);
        assert_eq!(outcome.hops, 6);
        assert_eq!(outcome.flits, 8);
        assert_eq!(outcome.latency(), 6 + 7);
        assert_eq!(outcome.contention, 0);
    }

    #[test]
    fn local_and_empty_transfers_are_free() {
        let mut mesh = mesh4();
        let same = mesh.transfer(3, 3, 1024, 10);
        assert_eq!(same.latency(), 0);
        let empty = mesh.transfer(0, 5, 0, 10);
        assert_eq!(empty.latency(), 0);
        assert_eq!(mesh.stats().flit_hops, 0);
    }

    #[test]
    fn contention_queues_packets_on_shared_links() {
        let mut mesh = mesh4();
        let first = mesh.transfer(0, 3, 256, 0);
        let second = mesh.transfer(0, 3, 256, 0);
        assert!(second.arrival > first.arrival);
        assert!(second.contention > 0);
        // A packet on a disjoint path is unaffected.
        let third = mesh.transfer(12, 15, 256, 0);
        assert_eq!(third.contention, 0);
    }

    #[test]
    fn opposite_directions_of_a_link_do_not_contend() {
        let mut mesh = mesh4();
        // 1 -> 0 and 0 -> 1 (and 4 -> 0 and 0 -> 4) use distinct link slots.
        assert_eq!(mesh.transfer(0, 1, 256, 0).contention, 0);
        assert_eq!(mesh.transfer(1, 0, 256, 0).contention, 0);
        assert_eq!(mesh.transfer(0, 4, 256, 0).contention, 0);
        assert_eq!(mesh.transfer(4, 0, 256, 0).contention, 0);
        assert!(mesh.transfer(0, 1, 256, 0).contention > 0);
    }

    #[test]
    fn reset_frees_every_link() {
        let mut mesh = mesh4();
        let first = mesh.transfer(0, 15, 256, 0);
        assert!(mesh.transfer(0, 15, 256, 0).contention > 0);
        mesh.reset();
        assert_eq!(mesh.transfer(0, 15, 256, 0), first);

        let mut fabric = InterChipFabric::new(InterChipConfig::ring(4, 32, 64));
        let first = fabric.transfer(0, 2, 4096, 0);
        assert!(fabric.transfer(0, 2, 4096, 0).contention > 0);
        fabric.reset();
        assert_eq!(fabric.transfer(0, 2, 4096, 0), first);
    }

    #[test]
    #[should_panic(expected = "leaves the 16-node mesh")]
    fn transfers_to_nodes_outside_the_mesh_panic() {
        mesh4().transfer(0, 16, 64, 0);
    }

    #[test]
    fn wider_flits_reduce_serialization_latency() {
        let narrow = Mesh::new(NocConfig::new(4, 4, 8)).transfer(0, 15, 128, 0).latency();
        let wide = Mesh::new(NocConfig::new(4, 4, 16)).transfer(0, 15, 128, 0).latency();
        assert!(wide < narrow);
    }

    #[test]
    fn memory_port_helpers_route_to_the_port() {
        let mut config = NocConfig::new(4, 4, 8);
        config.memory_port = 5;
        let mut mesh = Mesh::new(config);
        let to = mesh.transfer_to_memory(15, 32, 0);
        assert_eq!(to.hops, mesh.config().hops(15, 5));
        let from = mesh.transfer_from_memory(0, 32, 0);
        assert_eq!(from.hops, mesh.config().hops(5, 0));
    }

    #[test]
    fn stats_merge_aggregates_every_field() {
        let mut a = mesh4();
        a.transfer(0, 15, 64, 0);
        let mut b = mesh4();
        b.transfer(0, 3, 256, 0);
        b.transfer(0, 3, 256, 0); // contention on the shared path
        let mut merged = a.stats().clone();
        merged.merge(b.stats());
        assert_eq!(merged.packets, 3);
        assert_eq!(merged.bytes, 64 + 512);
        assert_eq!(merged.flits, a.stats().flits + b.stats().flits);
        assert_eq!(merged.flit_hops, a.stats().flit_hops + b.stats().flit_hops);
        assert_eq!(merged.byte_hops, a.stats().byte_hops + b.stats().byte_hops);
        assert_eq!(merged.total_latency, a.stats().total_latency + b.stats().total_latency);
        assert!(merged.total_contention > 0);
        assert_eq!(merged.max_latency, a.stats().max_latency.max(b.stats().max_latency));
    }

    #[test]
    fn stats_accumulate() {
        let mut mesh = mesh4();
        mesh.transfer(0, 15, 64, 0);
        mesh.transfer(1, 2, 16, 5);
        let stats = mesh.stats();
        assert_eq!(stats.packets, 2);
        assert_eq!(stats.bytes, 80);
        assert!(stats.flit_hops > 0);
        assert!(stats.mean_latency() > 0.0);
        assert!(stats.max_latency >= stats.mean_latency() as u64);
        mesh.reset();
        assert_eq!(mesh.stats().packets, 0);
    }

    #[test]
    fn point_to_point_fabric_is_single_hop() {
        let mut fabric = InterChipFabric::new(InterChipConfig::point_to_point(4, 32, 64));
        let outcome = fabric.transfer(0, 3, 64, 0);
        assert_eq!(outcome.hops, 1);
        assert_eq!(outcome.flits, 2);
        assert_eq!(outcome.latency(), 64 + 1);
        // Distinct pairs use distinct links: no contention.
        let other = fabric.transfer(1, 2, 64, 0);
        assert_eq!(other.contention, 0);
        // The same pair queues on its link.
        let queued = fabric.transfer(0, 3, 64, 0);
        assert!(queued.contention > 0);
    }

    #[test]
    fn ring_fabric_routes_the_short_way_around() {
        let fabric = InterChipFabric::new(InterChipConfig::ring(4, 32, 64));
        assert_eq!(fabric.route(0, 1), vec![Link { from: 0, to: 1 }]);
        assert_eq!(fabric.route(0, 3), vec![Link { from: 0, to: 3 }], "wraps backwards");
        assert_eq!(fabric.route(0, 2).len(), 2);
        assert_eq!(fabric.config().hops(1, 3), 2);
        let mut fabric = fabric;
        let two_hops = fabric.transfer(0, 2, 32, 0);
        assert_eq!(two_hops.hops, 2);
        assert_eq!(two_hops.latency(), 2 * 64);
    }

    #[test]
    fn fabric_local_and_empty_transfers_are_free() {
        let mut fabric = InterChipFabric::new(InterChipConfig::point_to_point(2, 32, 64));
        assert_eq!(fabric.transfer(1, 1, 4096, 5).latency(), 0);
        assert_eq!(fabric.transfer(0, 1, 0, 5).latency(), 0);
        assert_eq!(fabric.stats().flit_hops, 0);
        fabric.reset();
        assert_eq!(fabric.stats().packets, 0);
    }

    #[test]
    fn interconnect_trait_drives_both_networks_uniformly() {
        fn ship(net: &mut dyn Interconnect, src: NodeId, dst: NodeId) -> u64 {
            net.transfer(src, dst, 256, 0).latency()
        }
        let mut mesh = mesh4();
        let mut fabric = InterChipFabric::new(InterChipConfig::point_to_point(4, 32, 64));
        assert!(ship(&mut mesh, 0, 15) > 0);
        assert!(ship(&mut fabric, 0, 3) > 0);
        assert_eq!(Interconnect::stats(&mesh).packets, 1);
        assert_eq!(fabric.stats().packets, 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Hop distance is symmetric on the mesh and on both fabric
            /// topologies.
            #[test]
            fn hop_distance_is_symmetric(a in 0u32..16, b in 0u32..16) {
                let mesh = mesh4();
                prop_assert_eq!(mesh.config().hops(a, b), mesh.config().hops(b, a));
                let chips = 8;
                let ring = InterChipConfig::ring(chips, 32, 64);
                let p2p = InterChipConfig::point_to_point(chips, 32, 64);
                let (a, b) = (a % chips, b % chips);
                prop_assert_eq!(ring.hops(a, b), ring.hops(b, a));
                prop_assert_eq!(p2p.hops(a, b), p2p.hops(b, a));
            }

            /// Inter-chip transfer latency is monotone in the payload size.
            #[test]
            fn fabric_latency_monotone_in_bytes(
                src in 0u32..4,
                dst in 0u32..4,
                bytes in 1u64..8192,
                ring in any::<bool>(),
            ) {
                let config = InterChipConfig { chips: 4, link_bytes: 32, link_latency: 64, ring };
                let small = InterChipFabric::new(config).transfer(src, dst, bytes, 0).latency();
                let large = InterChipFabric::new(config).transfer(src, dst, bytes * 2, 0).latency();
                prop_assert!(large >= small);
            }

            /// With a link no wider than the mesh flit and a hop latency
            /// at least the mesh diameter, crossing chips is never faster
            /// than crossing the mesh for the same payload: the off-chip
            /// fabric cannot beat the on-chip network it bridges.
            #[test]
            fn interchip_transfers_cost_at_least_intrachip(
                src in 0u32..16,
                dst in 0u32..16,
                bytes in 1u64..16384,
            ) {
                let mesh_config = NocConfig::new(4, 4, 8);
                let intra = Mesh::new(mesh_config).transfer(src, dst, bytes, 0).latency();
                let fabric_config = InterChipConfig::point_to_point(2, mesh_config.flit_bytes, 64);
                let inter = InterChipFabric::new(fabric_config).transfer(0, 1, bytes, 0).latency();
                prop_assert!(
                    inter >= intra,
                    "inter-chip {} < intra-chip {} for {} bytes", inter, intra, bytes
                );
            }

            /// The route always ends at the destination and has the
            /// Manhattan length.
            #[test]
            fn route_is_connected_and_minimal(src in 0u32..16, dst in 0u32..16) {
                let mesh = mesh4();
                let route = mesh.route(src, dst);
                prop_assert_eq!(route.len() as u32, mesh.config().hops(src, dst));
                let mut current = src;
                for link in &route {
                    prop_assert_eq!(link.from, current);
                    prop_assert_eq!(mesh.config().hops(link.from, link.to), 1);
                    current = link.to;
                }
                prop_assert_eq!(current, dst);
            }

            /// Latency is monotone in the payload size.
            #[test]
            fn latency_monotone_in_bytes(src in 0u32..16, dst in 0u32..16, bytes in 1u64..4096) {
                let small = Mesh::new(NocConfig::new(4, 4, 8)).transfer(src, dst, bytes, 0).latency();
                let large = Mesh::new(NocConfig::new(4, 4, 8)).transfer(src, dst, bytes * 2, 0).latency();
                prop_assert!(large >= small);
            }

            /// Every transfer arrives no earlier than it departs, and
            /// statistics never lose packets.
            #[test]
            fn transfers_are_causal(transfers in prop::collection::vec((0u32..16, 0u32..16, 1u64..2048), 1..50)) {
                let mut mesh = mesh4();
                let mut now = 0u64;
                for (src, dst, bytes) in &transfers {
                    let outcome = mesh.transfer(*src, *dst, *bytes, now);
                    prop_assert!(outcome.arrival >= outcome.departure);
                    now += 3;
                }
                prop_assert_eq!(mesh.stats().packets, transfers.len() as u64);
            }
        }
    }
}
