//! Calibration parameters for the simulated testbed.
//!
//! The defaults model the paper's infrastructure (§7): Xeon servers with
//! Intel x520 10GbE NICs behind a single cut-through ToR switch, running a
//! DPDK kernel-bypass stack with one network thread and one application
//! thread per server (§6). The constants are chosen so that the unreplicated
//! R2P2 service with S = 1µs saturates just under 1 MRPS — the envelope the
//! paper reports — while preserving the relative costs that create each
//! bottleneck of §2.1.2.

use crate::time::SimDur;

/// Per-NIC / per-node resource parameters.
#[derive(Clone, Copy, Debug)]
pub struct NicParams {
    /// Link rate in bits per second (default: 10 GbE).
    pub link_bps: u64,
    /// Maximum transmission unit in bytes; larger messages are fragmented
    /// and pay per-fragment CPU and framing costs (default: 1500).
    pub mtu: u32,
    /// Per-fragment wire framing overhead in bytes (Ethernet + IP + UDP +
    /// preamble/IFG, default: 60).
    pub per_frag_overhead: u32,
    /// Network-thread CPU cost to receive and classify one fragment.
    pub rx_cpu_per_frag: SimDur,
    /// Network-thread CPU cost to build and enqueue one fragment for TX.
    pub tx_cpu_per_frag: SimDur,
    /// Capacity of the RX descriptor ring: fragments that have finished
    /// arriving but whose handler has not yet run. Beyond this, arrivals are
    /// dropped (counted in [`crate::Counters::rx_dropped_backlog`]).
    pub rx_ring: u32,
}

impl Default for NicParams {
    fn default() -> Self {
        NicParams {
            link_bps: 10_000_000_000,
            mtu: 1500,
            per_frag_overhead: 60,
            // DPDK-grade per-packet costs with batched descriptor rings:
            // ~180ns of RX classification/protocol work per fragment and
            // ~60ns to enqueue a fragment for TX. A Raft leader touching
            // ~6 packets per request (client RX + 2 AE TX + 2 reply RX +
            // response TX) then sustains ≈1 MRPS on its network thread,
            // matching the §7.1 envelope.
            rx_cpu_per_frag: SimDur::nanos(180),
            tx_cpu_per_frag: SimDur::nanos(60),
            rx_ring: 4096,
        }
    }
}

impl NicParams {
    /// Number of wire fragments for a message of `size` bytes.
    #[inline]
    pub fn frags(&self, size: u32) -> u32 {
        size.div_ceil(self.mtu).max(1)
    }

    /// Wire serialization time for a message of `size` bytes, including
    /// per-fragment framing overhead.
    #[inline]
    pub fn wire_time(&self, size: u32) -> SimDur {
        self.frags_and_wire_time(size).1
    }

    /// [`NicParams::frags`] and [`NicParams::wire_time`] of one message,
    /// computed together: a hop charges both.
    #[inline]
    pub fn frags_and_wire_time(&self, size: u32) -> (u32, SimDur) {
        let frags = self.frags(size);
        let bytes = size as u64 + frags as u64 * self.per_frag_overhead as u64;
        // bits / (bits-per-second) expressed in nanoseconds, rounded up so a
        // non-empty message never serializes in zero time.
        let wire = SimDur::nanos((bytes * 8 * 1_000_000_000).div_ceil(self.link_bps));
        (frags, wire)
    }
}

/// Fabric-wide parameters.
#[derive(Clone, Copy, Debug)]
pub struct FabricParams {
    /// One-way propagation + PHY latency between a node and the ToR switch.
    pub prop_delay: SimDur,
    /// Cut-through switching latency inside the ToR.
    pub switch_delay: SimDur,
    /// Independent per-copy drop probability applied at the switch output
    /// (models lossy Ethernet; default 0 — loss is usually injected
    /// deliberately by tests via [`crate::Sim::set_loss_rate`]).
    pub loss_rate: f64,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            // ≈2µs node-to-node one-way at the hardware level (PCIe + DMA +
            // copper + cut-through hop), consistent with the ≤10µs RTT
            // budget of §2.3 on the paper's older hardware.
            prop_delay: SimDur::nanos(800),
            switch_delay: SimDur::nanos(300),
            loss_rate: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_wire_time_small_packet() {
        let nic = NicParams::default();
        // 24B payload + 60B overhead = 84B = 672 bits at 10Gbps = 67.2ns.
        let t = nic.wire_time(24);
        assert!(t.as_nanos() >= 60 && t.as_nanos() <= 75, "{t:?}");
    }

    #[test]
    fn fragmentation_counts() {
        let nic = NicParams::default();
        assert_eq!(nic.frags(0), 1);
        assert_eq!(nic.frags(1), 1);
        assert_eq!(nic.frags(1500), 1);
        assert_eq!(nic.frags(1501), 2);
        assert_eq!(nic.frags(6000), 4);
    }

    #[test]
    fn wire_time_scales_with_size() {
        let nic = NicParams::default();
        // A 6kB reply must take ≈5µs on a 10G link: at 200 kRPS that is a
        // fully utilized link, the IO bottleneck of Figure 10.
        let t = nic.wire_time(6_000);
        assert!(
            t.as_nanos() > 4_500 && t.as_nanos() < 5_500,
            "6kB wire time {t:?}"
        );
        assert!(nic.wire_time(12_000) > nic.wire_time(6_000));
    }

    #[test]
    fn ten_gig_reaches_link_capacity_bound() {
        // Sanity for Figure 10's claim: ~200k replies/s of 2-MTU messages
        // saturate a 10G link.
        let nic = NicParams::default();
        let per_reply = nic.wire_time(6_000).as_secs_f64();
        let rps = 1.0 / per_reply;
        assert!(rps > 180_000.0 && rps < 230_000.0, "rps = {rps}");
    }
}
