//! Networking domain types: IP addresses, CIDR networks, transport ports.
//!
//! HILTI's `addr` type transparently supports both IPv4 and IPv6 (§3.2).
//! Internally we follow the same trick the paper's runtime uses: every
//! address is stored as a 128-bit value, with IPv4 addresses mapped into
//! `::ffff:0:0/96` so that ordering, hashing and masking work uniformly.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use crate::error::RtError;

/// An IP address; IPv4 and IPv6 handled transparently, as in HILTI's `addr`.
///
/// The 128-bit value is held as two 64-bit halves, so the type (and every
/// value, key and instruction embedding it) is 8-byte aligned rather than
/// the 16 a bare `u128` would force. Field order makes the derived `Ord`
/// the numeric order of the 128-bit value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    hi: u64,
    lo: u64,
}

/// Offset of the IPv4-mapped range `::ffff:0:0/96` within the 128-bit space.
const V4_MAPPED_PREFIX: u128 = 0xffff_0000_0000u128;

impl Addr {
    const fn from_raw(raw: u128) -> Self {
        Addr {
            hi: (raw >> 64) as u64,
            lo: raw as u64,
        }
    }

    /// Builds an IPv4 address from its four octets.
    pub fn v4(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr::from_v4_u32(u32::from_be_bytes([a, b, c, d]))
    }

    /// Builds an IPv4 address from a host-order `u32`.
    pub fn from_v4_u32(raw: u32) -> Self {
        Addr::from_raw(V4_MAPPED_PREFIX | u128::from(raw))
    }

    /// Builds an IPv6 address from a host-order `u128`.
    pub fn from_v6_u128(raw: u128) -> Self {
        Addr::from_raw(raw)
    }

    /// Builds an address from the 16-byte network-order representation.
    pub fn from_v6_bytes(bytes: [u8; 16]) -> Self {
        Addr::from_raw(u128::from_be_bytes(bytes))
    }

    /// Builds an IPv4 address from the 4-byte network-order representation.
    pub fn from_v4_bytes(bytes: [u8; 4]) -> Self {
        Addr::from_v4_u32(u32::from_be_bytes(bytes))
    }

    /// True if this address lies in the IPv4-mapped range.
    pub fn is_v4(&self) -> bool {
        self.hi == 0 && (self.lo >> 32) == 0xffff
    }

    /// True for IPv6 (i.e. not IPv4-mapped).
    pub fn is_v6(&self) -> bool {
        !self.is_v4()
    }

    /// The raw 128-bit representation (IPv4 mapped into `::ffff:0:0/96`).
    pub fn raw(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// The IPv4 host-order value, if this is an IPv4 address.
    pub fn as_v4_u32(&self) -> Option<u32> {
        self.is_v4().then_some(self.lo as u32)
    }

    /// Masks the address, keeping the top `bits` bits. For IPv4 addresses
    /// `bits` counts from the top of the 32-bit value, as users expect
    /// (`mask(24)` on `10.0.5.1` yields `10.0.5.0`).
    pub fn mask(&self, bits: u8) -> Addr {
        let effective = if self.is_v4() {
            96 + u32::from(bits.min(32))
        } else {
            u32::from(bits.min(128))
        };
        if effective == 0 {
            // A /0 on IPv6; keep nothing.
            return Addr::from_raw(0);
        }
        let keep = u128::MAX << (128 - effective);
        Addr::from_raw(self.raw() & keep)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v4) = self.as_v4_u32() {
            write!(f, "{}", Ipv4Addr::from(v4))
        } else {
            write!(f, "{}", Ipv6Addr::from(self.raw()))
        }
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Addr {
    type Err = RtError;

    fn from_str(s: &str) -> Result<Self, RtError> {
        if let Ok(v4) = s.parse::<Ipv4Addr>() {
            return Ok(Addr::from_v4_u32(u32::from(v4)));
        }
        if let Ok(v6) = s.parse::<Ipv6Addr>() {
            return Ok(Addr::from_raw(u128::from(v6)));
        }
        Err(RtError::value(format!("invalid address literal: {s:?}")))
    }
}

/// A CIDR-style network mask, HILTI's `net` type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Network {
    prefix: Addr,
    /// Prefix length in the address family's own terms (0..=32 for IPv4,
    /// 0..=128 for IPv6).
    len: u8,
}

impl Network {
    /// Builds a network, normalizing the prefix by masking off host bits.
    pub fn new(prefix: Addr, len: u8) -> Result<Self, RtError> {
        let max = if prefix.is_v4() { 32 } else { 128 };
        if len > max {
            return Err(RtError::value(format!(
                "prefix length {len} exceeds maximum {max}"
            )));
        }
        Ok(Network {
            prefix: prefix.mask(len),
            len,
        })
    }

    /// The (masked) network prefix.
    pub fn prefix(&self) -> Addr {
        self.prefix
    }

    /// The prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True if the network is the family's default route (`/0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test: does `addr` fall inside this network? Mixed-family
    /// comparisons are always false, matching HILTI semantics.
    pub fn contains(&self, addr: &Addr) -> bool {
        if addr.is_v4() != self.prefix.is_v4() {
            return false;
        }
        addr.mask(self.len) == self.prefix
    }

    /// A network matching a single host.
    pub fn host(addr: Addr) -> Self {
        let len = if addr.is_v4() { 32 } else { 128 };
        Network { prefix: addr, len }
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.prefix, self.len)
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Network {
    type Err = RtError;

    fn from_str(s: &str) -> Result<Self, RtError> {
        match s.split_once('/') {
            Some((addr, len)) => {
                let addr: Addr = addr.trim().parse()?;
                let len: u8 = len
                    .trim()
                    .parse()
                    .map_err(|_| RtError::value(format!("bad prefix length in {s:?}")))?;
                Network::new(addr, len)
            }
            None => Ok(Network::host(s.trim().parse()?)),
        }
    }
}

/// Transport-layer protocol discriminator for [`Port`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Protocol {
    Tcp,
    Udp,
    Icmp,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Icmp => write!(f, "icmp"),
        }
    }
}

/// A transport-layer port, HILTI's `port` type: the number plus protocol
/// (`80/tcp`, `53/udp`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port {
    pub number: u16,
    pub protocol: Protocol,
}

impl Port {
    pub fn tcp(number: u16) -> Self {
        Port {
            number,
            protocol: Protocol::Tcp,
        }
    }

    pub fn udp(number: u16) -> Self {
        Port {
            number,
            protocol: Protocol::Udp,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.number, self.protocol)
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Port {
    type Err = RtError;

    fn from_str(s: &str) -> Result<Self, RtError> {
        let (num, proto) = s
            .split_once('/')
            .ok_or_else(|| RtError::value(format!("port literal needs proto: {s:?}")))?;
        let number: u16 = num
            .trim()
            .parse()
            .map_err(|_| RtError::value(format!("bad port number in {s:?}")))?;
        let protocol = match proto.trim() {
            "tcp" => Protocol::Tcp,
            "udp" => Protocol::Udp,
            "icmp" => Protocol::Icmp,
            other => return Err(RtError::value(format!("unknown protocol {other:?}"))),
        };
        Ok(Port { number, protocol })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_roundtrip_and_display() {
        let a = Addr::v4(192, 168, 1, 1);
        assert!(a.is_v4());
        assert!(!a.is_v6());
        assert_eq!(a.to_string(), "192.168.1.1");
        assert_eq!("192.168.1.1".parse::<Addr>().unwrap(), a);
    }

    #[test]
    fn v6_roundtrip_and_display() {
        let a: Addr = "2001:db8::1".parse().unwrap();
        assert!(a.is_v6());
        assert_eq!(a.to_string(), "2001:db8::1");
        assert_eq!(a.to_string().parse::<Addr>().unwrap(), a);
    }

    #[test]
    fn v4_mask_keeps_top_bits() {
        let a = Addr::v4(10, 0, 5, 77);
        assert_eq!(a.mask(24), Addr::v4(10, 0, 5, 0));
        assert_eq!(a.mask(16), Addr::v4(10, 0, 0, 0));
        assert_eq!(a.mask(32), a);
        assert_eq!(a.mask(0), Addr::v4(0, 0, 0, 0));
    }

    #[test]
    fn v4_mask_zero_stays_v4() {
        // Masking all bits away must not turn an IPv4 address into ::/0.
        assert!(Addr::v4(1, 2, 3, 4).mask(0).is_v4());
    }

    #[test]
    fn network_contains() {
        let n: Network = "10.0.5.0/24".parse().unwrap();
        assert!(n.contains(&Addr::v4(10, 0, 5, 200)));
        assert!(!n.contains(&Addr::v4(10, 0, 6, 1)));
        assert_eq!(n.to_string(), "10.0.5.0/24");
    }

    #[test]
    fn network_normalizes_host_bits() {
        let n: Network = "10.0.5.77/24".parse().unwrap();
        assert_eq!(n.prefix(), Addr::v4(10, 0, 5, 0));
    }

    #[test]
    fn network_rejects_bad_len() {
        assert!("10.0.0.0/33".parse::<Network>().is_err());
        assert!("2001:db8::/129".parse::<Network>().is_err());
        assert!("2001:db8::/64".parse::<Network>().is_ok());
    }

    #[test]
    fn network_family_mismatch_is_false() {
        let n: Network = "10.0.0.0/8".parse().unwrap();
        let v6: Addr = "2001:db8::1".parse().unwrap();
        assert!(!n.contains(&v6));
    }

    #[test]
    fn network_host_form() {
        let n: Network = "192.168.1.1".parse().unwrap();
        assert_eq!(n.len(), 32);
        assert!(n.contains(&Addr::v4(192, 168, 1, 1)));
        assert!(!n.contains(&Addr::v4(192, 168, 1, 2)));
    }

    #[test]
    fn v6_network() {
        let n: Network = "2001:db8::/32".parse().unwrap();
        assert!(n.contains(&"2001:db8:1::5".parse().unwrap()));
        assert!(!n.contains(&"2001:db9::1".parse().unwrap()));
    }

    #[test]
    fn port_parse_display() {
        let p: Port = "80/tcp".parse().unwrap();
        assert_eq!(p, Port::tcp(80));
        assert_eq!(p.to_string(), "80/tcp");
        let p: Port = "53/udp".parse().unwrap();
        assert_eq!(p, Port::udp(53));
        assert!("80".parse::<Port>().is_err());
        assert!("80/xyz".parse::<Port>().is_err());
    }

    #[test]
    fn addr_ordering_within_family() {
        assert!(Addr::v4(10, 0, 0, 1) < Addr::v4(10, 0, 0, 2));
        assert!(Addr::v4(9, 255, 255, 255) < Addr::v4(10, 0, 0, 0));
    }
}
