//! A Click-style configuration language: declare elements, wire them with
//! `->`, and build a runnable [`ElementGraph`] — the programmability
//! interface the paper gets from Click ("to offer ease of programmability,
//! we rely on the Click network-programming framework").
//!
//! ```text
//! // MON: full IP forwarding plus NetFlow.
//! chk :: CheckIPHeader;
//! rt  :: RadixIPLookup(PREFIXES 32000, SEED 7);
//! nf  :: NetFlow(CAPACITY_LOG2 16);
//! ttl :: DecIPTTL;
//! out :: ToDevice;
//!
//! chk -> rt -> nf -> ttl -> out;
//! ```
//!
//! Output ports select branches: `cl [1] -> drop;` wires `cl`'s port 1.
//! Line (`//`) and block (`/* */`) comments are supported. Arguments are
//! `KEYWORD value` pairs, as in Click; a keyword the class does not read is
//! a [`ConfigError::BadArgument`], not a silent default.

use crate::cost::CostModel;
use crate::element::Element;
use crate::elements::basic::{CheckIpHeader, Counter, DecIpTtl, Discard, ToDevice};
use crate::elements::control::{Control, ControlHandle};
use crate::elements::firewall::Firewall;
use crate::elements::lpm::Dir248IpLookup;
use crate::elements::netflow::NetFlow;
use crate::elements::radix::{MultibitIpLookup, RadixIpLookup};
use crate::elements::re::{ReConfig, RedundancyElim};
use crate::elements::synthetic::{SynParams, Synthetic};
use crate::elements::vpn::VpnEncrypt;
use crate::graph::ElementGraph;
use pp_net::gen::rules::{generate_classifier_rules, generate_unmatchable_rules};
use pp_sim::machine::Machine;
use pp_sim::nic::NicQueue;
use pp_sim::types::MemDomain;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Errors from parsing or building a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Unexpected character during lexing.
    Lex {
        /// Byte offset in the input.
        at: usize,
        /// The offending character.
        ch: char,
    },
    /// Unexpected token during parsing.
    Parse {
        /// What was found.
        found: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An element class the registry does not know.
    UnknownClass(String),
    /// A connection references an undeclared element.
    UnknownElement(String),
    /// The same name declared twice.
    DuplicateName(String),
    /// A bad or missing argument for an element.
    BadArgument {
        /// The element class.
        class: String,
        /// Description of the problem.
        message: String,
    },
    /// The config contains no connections (no entry point).
    Empty,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Lex { at, ch } => write!(f, "unexpected character {ch:?} at byte {at}"),
            ConfigError::Parse { found, expected } => {
                write!(f, "expected {expected}, found {found}")
            }
            ConfigError::UnknownClass(c) => write!(f, "unknown element class {c}"),
            ConfigError::UnknownElement(n) => {
                write!(f, "connection references undeclared element {n}")
            }
            ConfigError::DuplicateName(n) => write!(f, "element {n} declared twice"),
            ConfigError::BadArgument { class, message } => {
                write!(f, "bad argument for {class}: {message}")
            }
            ConfigError::Empty => write!(f, "configuration declares no connections"),
        }
    }
}

impl std::error::Error for ConfigError {}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(i64),
    DoubleColon,
    Arrow,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Semi,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Num(n) => write!(f, "number {n}"),
            Tok::DoubleColon => write!(f, "'::'"),
            Tok::Arrow => write!(f, "'->'"),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::LBracket => write!(f, "'['"),
            Tok::RBracket => write!(f, "']'"),
            Tok::Comma => write!(f, "','"),
            Tok::Semi => write!(f, "';'"),
        }
    }
}

fn lex(input: &str) -> Result<Vec<Tok>, ConfigError> {
    let b = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i = (i + 2).min(b.len());
            }
            ':' if b.get(i + 1) == Some(&b':') => {
                toks.push(Tok::DoubleColon);
                i += 2;
            }
            '-' if b.get(i + 1) == Some(&b'>') => {
                toks.push(Tok::Arrow);
                i += 2;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            c if c.is_ascii_digit()
                || (c == '-' && b.get(i + 1).map(|d| d.is_ascii_digit()).unwrap_or(false)) =>
            {
                let start = i;
                i += 1;
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = input[start..i]
                    .parse()
                    .map_err(|_| ConfigError::Lex { at: start, ch: c })?;
                toks.push(Tok::Num(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok::Ident(input[start..i].to_string()));
            }
            other => return Err(ConfigError::Lex { at: i, ch: other }),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------- parser

/// A declared element: `name :: Class(ARGS)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    /// Instance name.
    pub name: String,
    /// Element class.
    pub class: String,
    /// `KEYWORD value` arguments.
    pub args: Vec<(String, i64)>,
}

/// One hop of a connection chain: element name + output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Element instance name.
    pub name: String,
    /// Output port used when this hop is a source (default 0).
    pub port: u8,
}

/// A parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct ConfigSpec {
    /// Element declarations, in order.
    pub decls: Vec<Decl>,
    /// Connection chains (`a -> b -> c`).
    pub chains: Vec<Vec<Hop>>,
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok, expected: &'static str) -> Result<(), ConfigError> {
        match self.next() {
            Some(t) if &t == want => Ok(()),
            Some(t) => Err(ConfigError::Parse { found: t.to_string(), expected }),
            None => Err(ConfigError::Parse { found: "end of input".into(), expected }),
        }
    }

    fn ident(&mut self, expected: &'static str) -> Result<String, ConfigError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(ConfigError::Parse { found: t.to_string(), expected }),
            None => Err(ConfigError::Parse { found: "end of input".into(), expected }),
        }
    }

    fn args(&mut self) -> Result<Vec<(String, i64)>, ConfigError> {
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::LParen) {
            return Ok(args);
        }
        self.next(); // '('
        if self.peek() == Some(&Tok::RParen) {
            self.next();
            return Ok(args);
        }
        loop {
            let key = self.ident("argument keyword")?;
            let val = match self.next() {
                Some(Tok::Num(n)) => n,
                Some(t) => {
                    return Err(ConfigError::Parse { found: t.to_string(), expected: "number" })
                }
                None => {
                    return Err(ConfigError::Parse {
                        found: "end of input".into(),
                        expected: "number",
                    })
                }
            };
            args.push((key.to_uppercase(), val));
            match self.next() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                Some(t) => {
                    return Err(ConfigError::Parse {
                        found: t.to_string(),
                        expected: "',' or ')'",
                    })
                }
                None => {
                    return Err(ConfigError::Parse {
                        found: "end of input".into(),
                        expected: "',' or ')'",
                    })
                }
            }
        }
        Ok(args)
    }

    /// A chain hop: `name` or `name [port]` (a leading `[port] name` input
    /// selector is accepted and ignored — elements have one input).
    fn hop(&mut self) -> Result<Hop, ConfigError> {
        if self.peek() == Some(&Tok::LBracket) {
            self.next();
            match self.next() {
                Some(Tok::Num(_)) => {}
                Some(t) => {
                    return Err(ConfigError::Parse {
                        found: t.to_string(),
                        expected: "port number",
                    })
                }
                None => {
                    return Err(ConfigError::Parse {
                        found: "end of input".into(),
                        expected: "port number",
                    })
                }
            }
            self.expect(&Tok::RBracket, "']'")?;
        }
        let name = self.ident("element name")?;
        let mut port = 0u8;
        if self.peek() == Some(&Tok::LBracket) {
            self.next();
            match self.next() {
                Some(Tok::Num(n)) if (0..=255).contains(&n) => port = n as u8,
                Some(t) => {
                    return Err(ConfigError::Parse {
                        found: t.to_string(),
                        expected: "port number",
                    })
                }
                None => {
                    return Err(ConfigError::Parse {
                        found: "end of input".into(),
                        expected: "port number",
                    })
                }
            }
            self.expect(&Tok::RBracket, "']'")?;
        }
        Ok(Hop { name, port })
    }
}

/// Parse a configuration without building it.
pub fn parse_config(input: &str) -> Result<ConfigSpec, ConfigError> {
    let mut p = Parser { toks: lex(input)?, pos: 0 };
    let mut spec = ConfigSpec::default();
    while p.peek().is_some() {
        // Lookahead: `ident ::` is a declaration, otherwise a chain.
        let is_decl = matches!(
            (p.toks.get(p.pos), p.toks.get(p.pos + 1)),
            (Some(Tok::Ident(_)), Some(Tok::DoubleColon))
        );
        if is_decl {
            let name = p.ident("element name")?;
            p.expect(&Tok::DoubleColon, "'::'")?;
            let class = p.ident("element class")?;
            let args = p.args()?;
            if spec.decls.iter().any(|d| d.name == name) {
                return Err(ConfigError::DuplicateName(name));
            }
            spec.decls.push(Decl { name, class, args });
            p.expect(&Tok::Semi, "';'")?;
        } else {
            let mut chain = vec![p.hop()?];
            while p.peek() == Some(&Tok::Arrow) {
                p.next();
                chain.push(p.hop()?);
            }
            p.expect(&Tok::Semi, "';'")?;
            spec.chains.push(chain);
        }
    }
    Ok(spec)
}

// ---------------------------------------------------------------- builder

/// Everything the element constructors need.
pub struct BuildCtx<'a> {
    /// The machine whose allocators back the elements' data.
    pub machine: &'a mut Machine,
    /// NUMA domain for all allocations.
    pub domain: MemDomain,
    /// The flow's NIC queue (for `ToDevice`).
    pub nic: Rc<RefCell<NicQueue>>,
    /// Compute-cost model.
    pub cost: CostModel,
    /// Structure seed for tables.
    pub seed: u64,
}

/// A built graph plus any control handles the config created.
pub struct BuiltConfig {
    /// The wired graph (entry = first element of the first chain).
    pub graph: ElementGraph,
    /// Control handles by element name (from `Control` declarations).
    pub controls: HashMap<String, ControlHandle>,
}

fn arg(args: &[(String, i64)], key: &str) -> Option<i64> {
    args.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

fn construct(
    decl: &Decl,
    ctx: &mut BuildCtx<'_>,
    controls: &mut HashMap<String, ControlHandle>,
) -> Result<Box<dyn Element>, ConfigError> {
    let cost = ctx.cost;
    let a = &decl.args;
    let seed = arg(a, "SEED").map(|s| s as u64).unwrap_or(ctx.seed);
    // Each class names the keys it reads (`SEED` where `seed` is used); any
    // other key is a typo or a removed knob, never a silent default.
    let keys = |accepted: &[&str]| {
        match a.iter().find(|(k, _)| !accepted.contains(&k.as_str())) {
            Some((k, _)) => Err(ConfigError::BadArgument {
                class: decl.class.clone(),
                message: format!("unknown argument {k}"),
            }),
            None => Ok(()),
        }
    };
    // `key`'s value (or `default`), which must lie in `range`.
    let ranged = |key: &str, default: i64, range: std::ops::RangeInclusive<i64>| {
        let v = arg(a, key).unwrap_or(default);
        if range.contains(&v) {
            Ok(v)
        } else {
            Err(ConfigError::BadArgument {
                class: decl.class.clone(),
                message: format!("{key} out of range: {v}"),
            })
        }
    };
    Ok(match decl.class.as_str() {
        "CheckIPHeader" => {
            keys(&[])?;
            Box::new(CheckIpHeader::new(cost))
        }
        "DecIPTTL" => {
            keys(&[])?;
            Box::new(DecIpTtl::new(cost))
        }
        "ToDevice" => {
            keys(&["SHARED"])?;
            let shared = arg(a, "SHARED").unwrap_or(0) != 0;
            Box::new(ToDevice::new(ctx.nic.clone(), shared))
        }
        "Discard" => {
            keys(&[])?;
            Box::new(Discard::default())
        }
        "Counter" => {
            keys(&[])?;
            Box::new(Counter::default())
        }
        "RadixIPLookup" | "MultibitIPLookup" | "Dir248IPLookup" => {
            keys(&["PREFIXES", "SEED"])?;
            let n = ranged("PREFIXES", 128_000, 1..=4_000_000)? as usize;
            let alloc = ctx.machine.allocator(ctx.domain);
            match decl.class.as_str() {
                "RadixIPLookup" => Box::new(RadixIpLookup::bgp(alloc, n, seed, cost)),
                "MultibitIPLookup" => Box::new(MultibitIpLookup::bgp(alloc, n, seed, cost)),
                _ => Box::new(Dir248IpLookup::bgp(alloc, n, seed, cost)),
            }
        }
        "NetFlow" => {
            keys(&["CAPACITY_LOG2", "BIDIRECTIONAL"])?;
            // 2^24 slots is a 512 MB host table; the paper uses 2^18.
            let log2 = ranged("CAPACITY_LOG2", 18, 1..=24)?;
            let alloc = ctx.machine.allocator(ctx.domain);
            let mut nf = NetFlow::new(alloc, log2 as u32, cost);
            nf.bidirectional = arg(a, "BIDIRECTIONAL").unwrap_or(1) != 0;
            Box::new(nf)
        }
        "Firewall" => {
            keys(&["RULES", "SEED"])?;
            let n = ranged("RULES", 1000, 1..=65_535)?;
            let rules = generate_unmatchable_rules(n as usize, seed ^ 0x2222);
            let alloc = ctx.machine.allocator(ctx.domain);
            Box::new(Firewall::new(alloc, &rules, cost))
        }
        "RedundancyElim" => {
            keys(&["FP_LOG2", "STORE_MB", "SAMPLE_MOD"])?;
            // Unchecked, these overflow the slot-count shift, ask for a
            // 2^64-byte store, or divide by zero at the first sampled packet.
            // No argument asks for more than 512 MB of host memory: 2^24
            // 16-byte fingerprint slots are 256 MB; the paper uses 2^21 and
            // a 32 MB store.
            let cfg = ReConfig {
                log2_fp_slots: ranged("FP_LOG2", 21, 4..=24)? as u32,
                store_bytes: (ranged("STORE_MB", 32, 1..=512)? as u64) << 20,
                sample_mod: ranged("SAMPLE_MOD", 6, 1..=i64::MAX)? as u64,
            };
            let alloc = ctx.machine.allocator(ctx.domain);
            Box::new(RedundancyElim::new(alloc, cfg, cost))
        }
        "VPNEncrypt" => {
            keys(&["SEED"])?;
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&seed.to_le_bytes());
            key[8..].copy_from_slice(&seed.rotate_left(32).to_le_bytes());
            let alloc = ctx.machine.allocator(ctx.domain);
            Box::new(VpnEncrypt::new(alloc, key, seed, cost))
        }
        "Synthetic" => {
            keys(&["OPS", "READS", "WS_MB", "MLP", "SEED"])?;
            let params = SynParams {
                ops_per_packet: ranged("OPS", 0, 0..=100_000_000)? as u64,
                reads_per_packet: ranged("READS", 64, 0..=4_096)? as u32,
                working_set_bytes: (ranged("WS_MB", 12, 1..=65_536)? as u64) << 20,
                mlp: ranged("MLP", 8, 1..=64)? as u32,
                seed,
            };
            let alloc = ctx.machine.allocator(ctx.domain);
            Box::new(Synthetic::new(alloc, params, cost))
        }
        "Control" => {
            keys(&["OPS"])?;
            let handle = ControlHandle::new();
            handle.set(ranged("OPS", 0, 0..=100_000_000)? as u64);
            controls.insert(decl.name.clone(), handle.clone());
            Box::new(Control::new(handle, cost))
        }
        "DPI" => {
            keys(&["SIGNATURES", "PREVENT", "SEED"])?;
            let n = ranged("SIGNATURES", 1500, 1..=65_535)?;
            let sigs = pp_net::gen::signatures::generate_signatures(n as usize, seed ^ 0x3333);
            let mode = if arg(a, "PREVENT").unwrap_or(0) != 0 {
                crate::elements::dpi::DpiMode::Prevent
            } else {
                crate::elements::dpi::DpiMode::Detect
            };
            let alloc = ctx.machine.allocator(ctx.domain);
            Box::new(crate::elements::dpi::Dpi::new(alloc, &sigs, mode, cost))
        }
        "NAT" => {
            keys(&["PUBLIC_IPS", "BINDINGS_LOG2"])?;
            let mut cfg = crate::elements::nat::NatConfig::default();
            cfg.n_public_ips = ranged("PUBLIC_IPS", cfg.n_public_ips as i64, 1..=256)? as u16;
            cfg.log2_bindings = ranged("BINDINGS_LOG2", cfg.log2_bindings as i64, 4..=24)? as u32;
            let alloc = ctx.machine.allocator(ctx.domain);
            Box::new(crate::elements::nat::Nat::new(alloc, cfg, cost))
        }
        "TupleSpaceClassifier" => {
            keys(&["RULES", "SEED"])?;
            let n = ranged("RULES", 16_000, 1..=65_535)?;
            let rules = generate_classifier_rules(n as usize, seed ^ 0x4444);
            let alloc = ctx.machine.allocator(ctx.domain);
            Box::new(crate::elements::classifier::TupleSpaceClassifier::new(
                alloc,
                &rules,
                &[],
                cost,
            ))
        }
        other => return Err(ConfigError::UnknownClass(other.to_string())),
    })
}

/// Parse and build a configuration into a runnable graph.
pub fn build_config(input: &str, ctx: &mut BuildCtx<'_>) -> Result<BuiltConfig, ConfigError> {
    let spec = parse_config(input)?;
    if spec.chains.is_empty() {
        return Err(ConfigError::Empty);
    }
    let mut graph = ElementGraph::new(ctx.cost);
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut controls = HashMap::new();
    for d in &spec.decls {
        let el = construct(d, ctx, &mut controls)?;
        let id = graph.add(el);
        ids.insert(d.name.clone(), id);
    }
    for chain in &spec.chains {
        for pair in chain.windows(2) {
            let from = *ids
                .get(&pair[0].name)
                .ok_or_else(|| ConfigError::UnknownElement(pair[0].name.clone()))?;
            let to = *ids
                .get(&pair[1].name)
                .ok_or_else(|| ConfigError::UnknownElement(pair[1].name.clone()))?;
            graph.connect(from, pair[0].port, to);
        }
        // Single-hop chains still validate the name.
        if chain.len() == 1 && !ids.contains_key(&chain[0].name) {
            return Err(ConfigError::UnknownElement(chain[0].name.clone()));
        }
    }
    let entry = ids[&spec.chains[0][0].name];
    graph.set_entry(entry);
    Ok(BuiltConfig { graph, controls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
    use pp_sim::config::MachineConfig;
    use pp_sim::engine::Engine;
    use pp_sim::types::CoreId;

    const MON_CONFIG: &str = r#"
        // MON: full IP forwarding plus NetFlow.
        chk :: CheckIPHeader;
        rt  :: RadixIPLookup(PREFIXES 8000, SEED 7);
        nf  :: NetFlow(CAPACITY_LOG2 14);
        ttl :: DecIPTTL;
        out :: ToDevice;
        chk -> rt -> nf -> ttl -> out;
    "#;

    fn ctx_parts() -> (Machine, Rc<RefCell<NicQueue>>) {
        let mut m = Machine::new(MachineConfig::westmere());
        let nic = crate::pipelines::nic_queue(&mut m, MemDomain(0));
        (m, nic)
    }

    #[test]
    fn lexes_symbols_comments_numbers() {
        let toks = lex("a :: B(X 5, Y -3); /* c */ a -> b; // t\n").unwrap();
        assert!(toks.contains(&Tok::DoubleColon));
        assert!(toks.contains(&Tok::Arrow));
        assert!(toks.contains(&Tok::Num(5)));
        assert!(toks.contains(&Tok::Num(-3)));
        assert_eq!(toks.iter().filter(|t| **t == Tok::Semi).count(), 2);
    }

    #[test]
    fn lex_rejects_garbage() {
        assert!(matches!(lex("a :: B; $"), Err(ConfigError::Lex { ch: '$', .. })));
    }

    #[test]
    fn parses_decls_and_chains() {
        let spec = parse_config(MON_CONFIG).unwrap();
        assert_eq!(spec.decls.len(), 5);
        assert_eq!(spec.decls[1].class, "RadixIPLookup");
        assert_eq!(arg(&spec.decls[1].args, "PREFIXES"), Some(8000));
        assert_eq!(spec.chains.len(), 1);
        assert_eq!(spec.chains[0].len(), 5);
    }

    #[test]
    fn parses_output_ports() {
        let spec =
            parse_config("a :: Counter; b :: Discard; c :: Discard; a [1] -> b; a -> c;")
                .unwrap();
        assert_eq!(spec.chains[0][0].port, 1);
        assert_eq!(spec.chains[1][0].port, 0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = parse_config("a :: Counter; a :: Discard; a -> a;").unwrap_err();
        assert_eq!(err, ConfigError::DuplicateName("a".into()));
    }

    #[test]
    fn unknown_class_rejected() {
        let (mut m, nic) = ctx_parts();
        let mut ctx = BuildCtx {
            machine: &mut m,
            domain: MemDomain(0),
            nic,
            cost: CostModel::default(),
            seed: 1,
        };
        let err = build_config("x :: FluxCapacitor; x -> x;", &mut ctx).err().unwrap();
        assert_eq!(err, ConfigError::UnknownClass("FluxCapacitor".into()));
    }

    #[test]
    fn unknown_element_in_chain_rejected() {
        let (mut m, nic) = ctx_parts();
        let mut ctx = BuildCtx {
            machine: &mut m,
            domain: MemDomain(0),
            nic,
            cost: CostModel::default(),
            seed: 1,
        };
        let err = build_config("a :: Counter; a -> ghost;", &mut ctx).err().unwrap();
        assert_eq!(err, ConfigError::UnknownElement("ghost".into()));
    }

    #[test]
    fn built_config_forwards_packets() {
        let (mut m, nic) = ctx_parts();
        let built = {
            let mut ctx = BuildCtx {
                machine: &mut m,
                domain: MemDomain(0),
                nic: nic.clone(),
                cost: CostModel::default(),
                seed: 11,
            };
            build_config(MON_CONFIG, &mut ctx).unwrap()
        };
        let task = crate::flow::FlowTask::new(
            "config-MON",
            TrafficGen::new(TrafficSpec::flow_population(64, 10_000, 3)),
            nic,
            built.graph,
            CostModel::default(),
        );
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(task));
        let meas = e.measure(1_000_000, 5_600_000);
        assert!(meas.core(CoreId(0)).unwrap().metrics.pps > 50_000.0);
    }

    #[test]
    fn control_handles_are_exposed() {
        let (mut m, nic) = ctx_parts();
        let mut ctx = BuildCtx {
            machine: &mut m,
            domain: MemDomain(0),
            nic,
            cost: CostModel::default(),
            seed: 1,
        };
        let built = build_config(
            "ctl :: Control(OPS 500); c :: Counter; d :: Discard; ctl -> c -> d;",
            &mut ctx,
        )
        .unwrap();
        assert_eq!(built.controls["ctl"].get(), 500);
        built.controls["ctl"].set(9);
        assert_eq!(built.controls["ctl"].get(), 9);
    }

    #[test]
    fn bad_argument_rejected() {
        let (mut m, nic) = ctx_parts();
        let mut ctx = BuildCtx {
            machine: &mut m,
            domain: MemDomain(0),
            nic,
            cost: CostModel::default(),
            seed: 1,
        };
        let err =
            build_config("rt :: RadixIPLookup(PREFIXES -5); rt -> rt;", &mut ctx).err().unwrap();
        assert!(matches!(err, ConfigError::BadArgument { .. }));
        // A key the class does not read is an error, not a silent default:
        // one misspelt key per class that takes arguments, a key on a class
        // that takes none, a `SEED` where no seed is read, and the removed
        // `BUCKETED` knob.
        for (decl, key) in [
            ("ToDevice(SHARD 1)", "SHARD"),
            ("RadixIPLookup(PREFIXS 100)", "PREFIXS"),
            ("MultibitIPLookup(PREFIXES 100, SEAD 1)", "SEAD"),
            ("Dir248IPLookup(PREFIX 100)", "PREFIX"),
            ("NetFlow(CAPACTY_LOG2 14)", "CAPACTY_LOG2"),
            ("NetFlow(CAPACITY_LOG2 14, BUCKETED 1)", "BUCKETED"),
            ("NetFlow(SEED 3)", "SEED"),
            ("Firewall(RULE 10)", "RULE"),
            ("RedundancyElim(STORE_MBS 8)", "STORE_MBS"),
            ("VPNEncrypt(KEY 1)", "KEY"),
            ("Synthetic(READ 4)", "READ"),
            ("Control(OP 5)", "OP"),
            ("DPI(SIGNATURE 10)", "SIGNATURE"),
            ("NAT(PUBLIC_IP 2)", "PUBLIC_IP"),
            ("NAT(BUCKETED 1)", "BUCKETED"),
            ("TupleSpaceClassifier(RULEZ 10)", "RULEZ"),
            ("Counter(X 1)", "X"),
        ] {
            let class = decl.split('(').next().unwrap();
            let err = build_config(&format!("e :: {decl}; e -> e;"), &mut ctx).err().unwrap();
            assert_eq!(
                err,
                ConfigError::BadArgument {
                    class: class.into(),
                    message: format!("unknown argument {key}"),
                },
                "{decl}"
            );
        }
    }

    #[test]
    fn extension_elements_build_from_config() {
        let (mut m, nic) = ctx_parts();
        let built = {
            let mut ctx = BuildCtx {
                machine: &mut m,
                domain: MemDomain(0),
                nic: nic.clone(),
                cost: CostModel::default(),
                seed: 7,
            };
            build_config(
                "chk :: CheckIPHeader; dpi :: DPI(SIGNATURES 200); \
                 nat :: NAT(PUBLIC_IPS 2, BINDINGS_LOG2 10); \
                 cls :: TupleSpaceClassifier(RULES 500); out :: ToDevice; \
                 chk -> dpi -> nat -> cls -> out;",
                &mut ctx,
            )
            .unwrap()
        };
        let task = crate::flow::FlowTask::new(
            "config-ext",
            TrafficGen::new(TrafficSpec::flow_population(256, 1_000, 3)),
            nic,
            built.graph,
            CostModel::default(),
        );
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(task));
        let meas = e.measure(1_000_000, 5_600_000);
        assert!(meas.core(CoreId(0)).unwrap().metrics.pps > 10_000.0);
    }

    #[test]
    fn extension_element_bad_arguments_rejected() {
        for cfg in [
            "d :: DPI(SIGNATURES 0); d -> d;",
            "n :: NAT(PUBLIC_IPS 0); n -> n;",
            "n :: NAT(BINDINGS_LOG2 30); n -> n;",
            "c :: TupleSpaceClassifier(RULES 0); c -> c;",
            "r :: RedundancyElim(SAMPLE_MOD 0); r -> r;",
            "r :: RedundancyElim(FP_LOG2 64); r -> r;",
            "r :: RedundancyElim(FP_LOG2 -1); r -> r;",
            "r :: RedundancyElim(STORE_MB -1); r -> r;",
            "r :: RedundancyElim(STORE_MB 0); r -> r;",
            // Unchecked, a huge PREFIXES, RULES or SIGNATURES asks
            // `Vec::with_capacity` for more than the address space, and a
            // huge WS_MB places the working set past its NUMA domain's end.
            "r :: RadixIPLookup(PREFIXES 9223372036854775807); r -> r;",
            "r :: Dir248IPLookup(PREFIXES 4000001); r -> r;",
            "f :: Firewall(RULES 9223372036854775807); f -> f;",
            "f :: Firewall(RULES 65536); f -> f;",
            "d :: DPI(SIGNATURES 9223372036854775807); d -> d;",
            "d :: DPI(SIGNATURES 65536); d -> d;",
            "s :: Synthetic(WS_MB 100000000); s -> s;",
            "s :: Synthetic(WS_MB 65537); s -> s;",
            "s :: Synthetic(WS_MB 0); s -> s;",
            // Cast or clamped, READS 2^32 wraps to no reads, MLP and
            // negative OPS move into range without a word, and
            // CAPACITY_LOG2 28 asks for an 8 GB host flow table.
            "s :: Synthetic(READS 4294967296); s -> s;",
            "s :: Synthetic(READS 4097); s -> s;",
            "s :: Synthetic(READS -1); s -> s;",
            "s :: Synthetic(MLP 0); s -> s;",
            "s :: Synthetic(MLP 65); s -> s;",
            "s :: Synthetic(OPS -1); s -> s;",
            "s :: Synthetic(OPS 100000001); s -> s;",
            "c :: Control(OPS -1); c -> c;",
            "c :: Control(OPS 100000001); c -> c;",
            "n :: NetFlow(CAPACITY_LOG2 28); n -> n;",
            "n :: NetFlow(CAPACITY_LOG2 25); n -> n;",
            "n :: NetFlow(CAPACITY_LOG2 0); n -> n;",
            // FP_LOG2 28 is a 4 GB host fingerprint table and STORE_MB 4096
            // a 4 GB host ring, so one line could ask for 8 GB.
            "r :: RedundancyElim(FP_LOG2 28); r -> r;",
            "r :: RedundancyElim(FP_LOG2 25); r -> r;",
            "r :: RedundancyElim(FP_LOG2 3); r -> r;",
            "r :: RedundancyElim(STORE_MB 4096); r -> r;",
            "r :: RedundancyElim(STORE_MB 513); r -> r;",
        ] {
            let (mut m, nic) = ctx_parts();
            let mut ctx = BuildCtx {
                machine: &mut m,
                domain: MemDomain(0),
                nic,
                cost: CostModel::default(),
                seed: 1,
            };
            let err = build_config(cfg, &mut ctx).err().unwrap();
            assert!(matches!(err, ConfigError::BadArgument { .. }), "{cfg}");
        }
    }

    #[test]
    fn empty_config_rejected() {
        let (mut m, nic) = ctx_parts();
        let mut ctx = BuildCtx {
            machine: &mut m,
            domain: MemDomain(0),
            nic,
            cost: CostModel::default(),
            seed: 1,
        };
        assert_eq!(
            build_config("a :: Counter;", &mut ctx).err().unwrap(),
            ConfigError::Empty
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = parse_config("a :: ;").unwrap_err();
        assert!(e.to_string().contains("expected"));
        assert!(ConfigError::UnknownClass("Zap".into()).to_string().contains("Zap"));
    }

    #[test]
    fn branching_config_routes_by_port() {
        let (mut m, nic) = ctx_parts();
        let built = {
            let mut ctx = BuildCtx {
                machine: &mut m,
                domain: MemDomain(0),
                nic: nic.clone(),
                cost: CostModel::default(),
                seed: 2,
            };
            // Counter emits on port 0 only; port 1 is never taken.
            build_config(
                "c :: Counter; keep :: ToDevice; drop :: Discard; c -> keep; c [1] -> drop;",
                &mut ctx,
            )
            .unwrap()
        };
        let task = crate::flow::FlowTask::new(
            "branching",
            TrafficGen::new(TrafficSpec::random_dst(64, 1)),
            nic,
            built.graph,
            CostModel::default(),
        );
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(task));
        let meas = e.measure(100_000, 1_000_000);
        assert!(meas.core(CoreId(0)).unwrap().metrics.pps > 0.0);
    }
}
