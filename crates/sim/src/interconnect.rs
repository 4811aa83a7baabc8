//! QuickPath-interconnect (QPI) model: fixed hop latency plus a
//! load-dependent queueing delay per direction (same windowed M/D/1 model
//! as the memory controller — see `memctrl` for why busy-until timestamps
//! are not used).
//!
//! Any access whose data is homed on a different socket than the issuing
//! core crosses the link; we charge one hop latency plus the directional
//! channel's queueing delay. The paper's configurations (Fig. 3) use remote
//! placement precisely to steer traffic over QPI so that cache-only and
//! controller-only contention can be isolated.

use crate::memctrl::QueueModel;
use crate::types::{Cycles, SocketId};

/// Statistics for one direction of one link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Line transfers carried.
    pub transfers: u64,
    /// Total queueing delay imposed.
    pub total_queue_delay: Cycles,
}

#[derive(Debug, Clone)]
struct Channel {
    queue: QueueModel,
    stats: LinkStats,
}

/// A full-duplex point-to-point link between two sockets (the modeled
/// platform has exactly two sockets, hence one link; the structure
/// generalizes to a clique for more).
#[derive(Debug, Clone)]
pub struct Interconnect {
    hop_latency: Cycles,
    /// One channel per (from, to) ordered socket pair, indexed
    /// `from * sockets + to`.
    channels: Vec<Channel>,
    sockets: usize,
}

impl Interconnect {
    /// Build a clique over `sockets` sockets with the given per-hop latency
    /// and per-line serialization time.
    pub fn new(sockets: u8, hop_latency: Cycles, service_time: Cycles) -> Self {
        let n = sockets as usize;
        Interconnect {
            hop_latency,
            channels: vec![
                Channel {
                    queue: QueueModel::new(service_time, 0.90),
                    stats: LinkStats::default()
                };
                n * n
            ],
            sockets: n,
        }
    }

    /// Transfer one cache line from `from` to `to` starting at `now`.
    /// Returns the total added latency (hop latency + queueing).
    pub fn transfer(&mut self, from: SocketId, to: SocketId, now: Cycles) -> Cycles {
        if from == to {
            return 0;
        }
        let ch = &mut self.channels[from.index() * self.sockets + to.index()];
        let delay = ch.queue.arrival(now);
        ch.stats.transfers += 1;
        ch.stats.total_queue_delay += delay;
        self.hop_latency + delay
    }

    /// Stats for the directional channel `from → to`.
    pub fn stats(&self, from: SocketId, to: SocketId) -> LinkStats {
        self.channels[from.index() * self.sockets + to.index()].stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_socket_is_free() {
        let mut q = Interconnect::new(2, 60, 14);
        assert_eq!(q.transfer(SocketId(0), SocketId(0), 123), 0);
    }

    #[test]
    fn cross_socket_pays_hop_latency() {
        let mut q = Interconnect::new(2, 60, 14);
        assert_eq!(q.transfer(SocketId(0), SocketId(1), 0), 60);
        assert_eq!(q.stats(SocketId(0), SocketId(1)).transfers, 1);
        assert_eq!(q.stats(SocketId(1), SocketId(0)).transfers, 0);
    }

    #[test]
    fn saturated_link_queues() {
        let mut q = Interconnect::new(2, 60, 14);
        let mut last = 0;
        for i in 0..20_000u64 {
            last = q.transfer(SocketId(0), SocketId(1), i * 14);
        }
        assert!(last > 60, "saturated channel must add queueing: {last}");
        // Reverse direction is independent and idle.
        assert_eq!(q.transfer(SocketId(1), SocketId(0), 280_000), 60);
    }

    #[test]
    fn light_load_stays_near_hop_latency() {
        let mut q = Interconnect::new(2, 60, 14);
        for i in 0..100 {
            let lat = q.transfer(SocketId(0), SocketId(1), i * 10_000);
            assert!(lat <= 62, "light traffic should not queue: {lat}");
        }
    }
}
