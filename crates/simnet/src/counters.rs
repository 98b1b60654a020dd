//! Per-node traffic counters.
//!
//! These are maintained by the engine and are the ground truth for the
//! message-complexity accounting of the paper's Table 1.

/// Traffic counters for one node, maintained by the simulation engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages handed to the transmit path (multicast counts once).
    pub tx_msgs: u64,
    /// Bytes handed to the transmit path (multicast counts once).
    pub tx_bytes: u64,
    /// Messages delivered to the agent handler.
    pub rx_msgs: u64,
    /// Bytes delivered to the agent handler.
    pub rx_bytes: u64,
    /// Arrivals dropped because the RX ring was full.
    pub rx_dropped_backlog: u64,
    /// Copies dropped by the fabric loss model or targeted drop filters.
    pub dropped_loss: u64,
    /// Arrivals discarded because the node was killed.
    pub dropped_dead: u64,
    /// Arrivals a crash–restart discarded: accepted into the RX ring (or
    /// deferred by a pause) by the crashed incarnation, never handled.
    pub dropped_restart: u64,
    /// Copies dropped at the switch because sender and receiver were in
    /// different partition groups.
    pub dropped_partition: u64,
    /// Extra copies delivered by a duplicating link fault.
    pub duplicated: u64,
}

impl Counters {
    /// Resets every counter to zero (used when an experiment excludes its
    /// warm-up phase from accounting).
    pub fn reset(&mut self) {
        *self = Counters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes_everything() {
        let mut c = Counters {
            tx_msgs: 4,
            tx_bytes: 100,
            rx_msgs: 2,
            rx_bytes: 50,
            rx_dropped_backlog: 1,
            dropped_loss: 3,
            dropped_dead: 9,
            dropped_restart: 5,
            dropped_partition: 2,
            duplicated: 1,
        };
        c.reset();
        assert_eq!(c, Counters::default());
    }
}
