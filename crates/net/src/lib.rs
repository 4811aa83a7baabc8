//! # pp-net — packet substrate
//!
//! Real packets for the NSDI'12 predictable-packet-processing
//! reproduction: Ethernet/IPv4/UDP/TCP headers with network-byte-order
//! parse/emit, RFC 1071/1624 checksums, a [`packet::Packet`] type carrying
//! frame bytes plus the simulated NIC-buffer address, and seeded
//! deterministic generators for traffic ([`gen::traffic`]), routing tables
//! ([`gen::prefixes`]), and firewall rule sets ([`gen::rules`]).
//!
//! The crate is substrate: it knows nothing about the simulator or the
//! element framework, so it can be tested and reused standalone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod fivetuple;
pub mod gen;
pub mod headers;
pub mod packet;
pub mod pool;

/// Glob-import of the commonly used names.
pub mod prelude {
    pub use crate::error::ParseError;
    pub use crate::fivetuple::{fnv1a, FlowKey};
    pub use crate::gen::prefixes::{generate_bgp_table, generate_prefixes, linear_lpm, PrefixEntry};
    pub use crate::gen::rules::{
        generate_classifier_rules, generate_port_rules, generate_unmatchable_rules, Rule,
    };
    pub use crate::gen::signatures::generate_signatures;
    pub use crate::gen::traffic::{PayloadKind, TrafficGen, TrafficSpec};
    pub use crate::headers::{
        ethertype, ip_proto, EthernetHeader, Ipv4Header, MacAddr, TcpHeader, UdpHeader,
    };
    pub use crate::packet::{Packet, PacketBuilder};
    pub use crate::pool::PacketPool;
}
