//! Profile-guided adaptive tiering: runtime feedback for the compiled
//! engine.
//!
//! The static specializer (`crate::specialize`) can only exploit types the
//! checker proved; anything declared `any` — which is most of what the
//! Bro-script compiler emits — stays on the generic dispatch path forever.
//! This module adds the classic VM answer (Deegen, arXiv 2411.11469;
//! Titzer's baseline-compiler study, arXiv 2305.13241): start every
//! function in the generic tier, *watch* it, and once it is hot re-lower it
//! through the same specialization pass using the observed operand types,
//! plus monomorphic inline caches at overlay access sites and
//! callee-resolved call sites. (Struct field sites are cached on every
//! tier already — lowering emits them — and tiered bodies share them.)
//!
//! ## Determinism
//!
//! Tier-up must be observationally invisible — the differential fuzz suite
//! asserts byte-identical output, exceptions, and fuel across
//! `off`/`lazy`/`eager`/`threaded`:
//!
//! * **Counters are deterministic.** Hotness is driven by invocation and
//!   retired-instruction counts maintained inside the dispatch loop — pure
//!   functions of the executed instruction stream, never of wall-clock
//!   time.
//! * **Rewrites are pc-preserving and fuel-identical.** Tiered code is a
//!   clone of the generic body rewritten in place: every pc maps to the
//!   same site, so switching tiers mid-function (on-stack replacement at
//!   the dispatch boundary) is safe, and each instruction keeps its generic
//!   fuel cost (`BrIfInt` charges 2, exactly the pair it fused).
//! * **Speculation is guarded by the same checks.** An `any` slot observed
//!   `int` specializes because the typed instruction still validates its
//!   operands at run time and raises the identical catchable `TypeError`
//!   the generic `ops::eval` path would — the runtime check *is* the
//!   guard. Inline caches key on overlay name / callee name and fall
//!   back to the generic resolution (refilling, then de-optimizing past
//!   [`TierConfig::ic_cap`]) on a miss.
//! * **Observational modes pin the generic tier.** Tracing, instruction
//!   stats, the execution profiler, and fault injection all bypass tiered
//!   code entirely, so their outputs stay comparable across builds.
//!
//! Tier state lives in the per-thread [`crate::vm::Context`], which is why
//! the parallel pipeline gets lock-free per-shard tiering (and byte-
//! identical N-worker merges) with no extra machinery.

use std::rc::Rc;

use crate::bytecode::{CFunc, CInstr, CompiledProgram, IcSite, IC_CAP};
use crate::ir::Opcode;
use crate::specialize::{specialize_func_with_types, SpecStats};
use crate::threaded::ThreadedFunc;
use crate::types::Type;
use crate::value::Value;

/// When (if ever) functions move from the generic tier to the specialized
/// one — and whether they continue to the direct-threaded tier above it.
/// Selected per build via `BuildOptions::tiering` or per run via
/// `hiltic run --tiering=off|lazy|eager|threaded`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieringMode {
    /// Never tier up: every function runs generic bytecode forever. This
    /// is the measurement baseline for the tier-up speedup.
    Off,
    /// Tier up once a function crosses the hotness thresholds. The
    /// production default when tiering is enabled.
    Lazy,
    /// Tier up on first execution (observed types are whatever the first
    /// call provided). Useful for tests and for amortizing long runs.
    Eager,
    /// Like `Lazy`, but a promoted function is additionally compiled into
    /// direct-threaded ops (`crate::threaded`): operands, branch targets
    /// and IC handles pre-bound at tier-up, no fetch/decode loop. The top
    /// rung of the tier ladder.
    Threaded,
}

impl TieringMode {
    pub fn parse(s: &str) -> Option<TieringMode> {
        Some(match s {
            "off" => TieringMode::Off,
            "lazy" => TieringMode::Lazy,
            "eager" => TieringMode::Eager,
            "threaded" => TieringMode::Threaded,
            _ => return None,
        })
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            TieringMode::Off => "off",
            TieringMode::Lazy => "lazy",
            TieringMode::Eager => "eager",
            TieringMode::Threaded => "threaded",
        }
    }

    /// Reads the mode from the `HILTI_TIERING` environment variable — the
    /// channel the CI tier matrix and `scripts/tier1.sh` use to point the
    /// whole test/smoke pyramid at one tier. Unset, empty, or unparsable
    /// values mean "no override".
    pub fn from_env() -> Option<TieringMode> {
        std::env::var("HILTI_TIERING")
            .ok()
            .as_deref()
            .and_then(TieringMode::parse)
    }
}

/// Hotness thresholds and IC sizing. Defaults are deliberately small: the
/// point of tiering is that hot loops cross them almost immediately, and
/// determinism does not depend on where the thresholds sit.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// Tier a function up after this many invocations…
    pub hot_invocations: u64,
    /// …or after this many dispatch-loop iterations spent in its generic
    /// body (catches hot loops inside rarely-called functions; this is the
    /// per-function retired-instruction signal PR 3's profiler surfaces).
    pub hot_retired: u64,
    /// Inline-cache entries per overlay/callable site before the site
    /// de-optimizes back to generic resolution (struct field sites are
    /// made by lowering, with [`IC_CAP`]).
    pub ic_cap: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            hot_invocations: 16,
            hot_retired: 2048,
            ic_cap: IC_CAP,
        }
    }
}

/// Per-parameter observed-type lattice: `Unseen → Int/Bool → Poly`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Obs {
    #[default]
    Unseen,
    Int,
    Bool,
    Poly,
}

impl Obs {
    #[inline]
    fn observe(&mut self, v: &Value) {
        let seen = match v {
            Value::Int(_) => Obs::Int,
            Value::Bool(_) => Obs::Bool,
            _ => Obs::Poly,
        };
        *self = match (*self, seen) {
            (Obs::Unseen, s) => s,
            (cur, s) if cur == s => cur,
            _ => Obs::Poly,
        };
    }
}

/// Per-function tier state.
#[derive(Default)]
struct FnTier {
    invocations: u64,
    retired: u64,
    obs: Vec<Obs>,
    code: Option<Rc<CFunc>>,
    /// Direct-threaded body, present only under [`TieringMode::Threaded`]
    /// (built together with `code` at tier-up, from it).
    threaded: Option<Rc<ThreadedFunc>>,
}

/// A tiered function's executable bodies: the specialized bytecode (always
/// present once tiered) and, in threaded mode, its direct-threaded form.
/// The two share IC sites, and the threaded form deopts into the bytecode
/// one pc for pc.
pub(crate) struct TierCode {
    pub(crate) cfunc: Rc<CFunc>,
    pub(crate) threaded: Option<Rc<ThreadedFunc>>,
}

/// What a poll of the tier engine decided for the current dispatch
/// iteration.
pub(crate) enum TierPoll {
    /// Stay on the generic body.
    Generic,
    /// Run the (already) tiered body.
    Code(TierCode),
    /// The function just crossed the threshold: run the fresh tiered body
    /// and let the caller emit telemetry.
    TieredNow { code: TierCode, name: String },
}

/// The per-`Context` adaptive-tier engine: hotness counters, observed
/// types, and the tiered code cache. One per execution context — shards of
/// the parallel pipeline each own theirs, so the hot path takes no locks.
pub struct TierEngine {
    mode: TieringMode,
    config: TierConfig,
    fns: Vec<FnTier>,
    tierups: u64,
}

impl TierEngine {
    pub fn new(mode: TieringMode, config: TierConfig) -> TierEngine {
        TierEngine {
            mode,
            config,
            fns: Vec::new(),
            tierups: 0,
        }
    }

    pub fn mode(&self) -> TieringMode {
        self.mode
    }

    #[inline]
    fn ensure(&mut self, nfuncs: usize) {
        if self.fns.len() < nfuncs {
            self.fns.resize_with(nfuncs, FnTier::default);
        }
    }

    /// Records an invocation of `func` with `args`, feeding the observed
    /// parameter types. Called at every entry edge: host calls, direct
    /// `call`, and `callable.call`.
    #[inline]
    pub(crate) fn note_call(&mut self, nfuncs: usize, func: u32, args: &[Value]) {
        if self.mode == TieringMode::Off {
            return;
        }
        self.ensure(nfuncs);
        let ft = &mut self.fns[func as usize];
        if ft.code.is_some() {
            return;
        }
        ft.invocations += 1;
        if ft.obs.len() < args.len() {
            ft.obs.resize(args.len(), Obs::Unseen);
        }
        for (o, a) in ft.obs.iter_mut().zip(args) {
            o.observe(a);
        }
    }

    /// Polled once per dispatch-loop iteration while `func` is on top of
    /// the frame stack. Counts a retired instruction against the hotness
    /// budget and performs tier-up when a threshold is crossed. Entirely
    /// deterministic: the decision depends only on the executed
    /// instruction stream.
    pub(crate) fn poll(&mut self, prog: &CompiledProgram, func: u32) -> TierPoll {
        self.ensure(prog.funcs.len());
        let fi = func as usize;
        let ft = &mut self.fns[fi];
        if let Some(code) = &ft.code {
            return TierPoll::Code(TierCode {
                cfunc: Rc::clone(code),
                threaded: ft.threaded.clone(),
            });
        }
        let hot = match self.mode {
            TieringMode::Off => false,
            TieringMode::Eager => true,
            // Threaded shares Lazy's hotness schedule: the extra lowering
            // is a tier-up *product*, not a different promotion policy, so
            // the two modes promote the same functions at the same points.
            TieringMode::Lazy | TieringMode::Threaded => {
                ft.retired += 1;
                ft.retired >= self.config.hot_retired
                    || ft.invocations >= self.config.hot_invocations
            }
        };
        if !hot {
            return TierPoll::Generic;
        }
        let tiered = Rc::new(tier_up(&prog.funcs[fi], &ft.obs, &self.config));
        let threaded = (self.mode == TieringMode::Threaded)
            .then(|| Rc::new(crate::threaded::compile(&tiered)));
        ft.code = Some(Rc::clone(&tiered));
        ft.threaded = threaded.clone();
        self.tierups += 1;
        TierPoll::TieredNow {
            code: TierCode {
                cfunc: tiered,
                threaded,
            },
            name: prog.funcs[fi].name.clone(),
        }
    }

    /// The direct-threaded body of `func`, if it has been tiered up under
    /// [`TieringMode::Threaded`]. A plain lookup — no hotness counting —
    /// used by the threaded executor to chain calls between already-hot
    /// functions without leaving its inner loop.
    #[inline]
    pub(crate) fn threaded_code(&self, func: u32) -> Option<Rc<ThreadedFunc>> {
        self.fns.get(func as usize)?.threaded.clone()
    }

    /// Tier-up and IC state for introspection and tests.
    pub fn report(&self) -> TierReport {
        let mut functions = Vec::new();
        for ft in &self.fns {
            let Some(code) = &ft.code else { continue };
            let mut ic_sites = Vec::new();
            for instr in &code.code {
                let (kind, ic) = match instr {
                    CInstr::StructGet { ic, .. } => ("struct.get", ic),
                    CInstr::StructSet { ic, .. } => ("struct.set", ic),
                    CInstr::OverlayGetIC { ic, .. } => ("overlay.get", ic),
                    CInstr::CallCallableIC { ic, .. } => ("callable.call", ic),
                    _ => continue,
                };
                let site = ic.borrow();
                ic_sites.push(IcSiteReport {
                    kind,
                    entries: site.entries.len(),
                    deopt: site.deopt,
                    hits: site.hits,
                    misses: site.misses,
                });
            }
            functions.push(TieredFn {
                name: code.name.clone(),
                ic_sites,
            });
        }
        TierReport {
            tierups: self.tierups,
            functions,
        }
    }
}

/// Snapshot of the engine's tier-up decisions and inline-cache states.
#[derive(Clone, Debug, Default)]
pub struct TierReport {
    pub tierups: u64,
    pub functions: Vec<TieredFn>,
}

/// One tiered function in a [`TierReport`].
#[derive(Clone, Debug)]
pub struct TieredFn {
    pub name: String,
    pub ic_sites: Vec<IcSiteReport>,
}

/// One inline-cache site in a [`TierReport`].
#[derive(Clone, Copy, Debug)]
pub struct IcSiteReport {
    pub kind: &'static str,
    pub entries: usize,
    pub deopt: bool,
    pub hits: u64,
    pub misses: u64,
}

/// Re-lowers one generic function body with runtime feedback: refines
/// `any`-declared parameters to their observed types, runs the static
/// specialization rewrites against the refined types, then installs inline
/// caches at the polymorphic access/call sites. Pure function of
/// `(generic body, observations)` — same inputs, same tiered code.
fn tier_up(generic: &CFunc, obs: &[Obs], config: &TierConfig) -> CFunc {
    let mut cf = generic.clone();
    let mut types = cf.slot_types.clone();
    for (i, o) in obs.iter().enumerate().take(cf.n_params as usize) {
        if !matches!(types.get(i), Some(Type::Any)) {
            continue;
        }
        match o {
            Obs::Int => types[i] = Type::Int(64),
            Obs::Bool => types[i] = Type::Bool,
            Obs::Unseen | Obs::Poly => {}
        }
    }
    let mut stats = SpecStats::default();
    specialize_func_with_types(&mut cf, &types, &mut stats);
    insert_inline_caches(&mut cf, config.ic_cap);
    cf
}

/// Installs IC variants at cacheable sites. Only plain top-level `Op`
/// forms are rewritten: a `GlobalStore`-wrapped site keeps the generic
/// path (globals are rare and the wrapper owns the store semantics).
fn insert_inline_caches(cf: &mut CFunc, cap: usize) {
    for instr in &mut cf.code {
        let replacement = match instr {
            CInstr::Op {
                opcode: Opcode::OverlayGet,
                target,
                args,
                idents,
            } if !args.is_empty() && idents.len() >= 2 => Some(CInstr::OverlayGetIC {
                target: *target,
                args: args.clone(),
                oname: Rc::from(idents[0].as_str()),
                field: Rc::from(idents[1].as_str()),
                ic: IcSite::new(cap),
            }),
            CInstr::CallCallable {
                target,
                callable,
                args,
            } => Some(CInstr::CallCallableIC {
                target: *target,
                callable: callable.clone(),
                args: args.clone(),
                ic: IcSite::new(cap),
            }),
            _ => None,
        };
        if let Some(r) = replacement {
            *instr = r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_lattice_joins() {
        let mut o = Obs::Unseen;
        o.observe(&Value::Int(1));
        assert_eq!(o, Obs::Int);
        o.observe(&Value::Int(7));
        assert_eq!(o, Obs::Int);
        o.observe(&Value::str("s"));
        assert_eq!(o, Obs::Poly);
        let mut b = Obs::Unseen;
        b.observe(&Value::Bool(true));
        assert_eq!(b, Obs::Bool);
        b.observe(&Value::Int(0));
        assert_eq!(b, Obs::Poly);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(TieringMode::parse("off"), Some(TieringMode::Off));
        assert_eq!(TieringMode::parse("lazy"), Some(TieringMode::Lazy));
        assert_eq!(TieringMode::parse("eager"), Some(TieringMode::Eager));
        assert_eq!(TieringMode::parse("threaded"), Some(TieringMode::Threaded));
        assert_eq!(TieringMode::parse("warp"), None);
        assert_eq!(TieringMode::Lazy.as_str(), "lazy");
        assert_eq!(TieringMode::Threaded.as_str(), "threaded");
    }

    #[test]
    fn tier_up_refines_observed_int_params() {
        // An `any` parameter observed int specializes the arithmetic on it.
        let m = crate::parser::parse_module(
            r#"
module M
int<64> f(any x) {
    local int<64> y
    y = int.add x 1
    return y
}
"#,
        )
        .unwrap();
        let linked = crate::linker::link_with_priorities(vec![m]).unwrap();
        let prog = crate::bytecode::compile(&linked).unwrap();
        let generic = prog.func("M::f").unwrap();
        let tiered = tier_up(generic, &[Obs::Int], &TierConfig::default());
        assert!(
            tiered
                .code
                .iter()
                .any(|i| matches!(i, CInstr::AddInt { .. })),
            "{:#?}",
            tiered.code
        );
        // Poly observation leaves it generic.
        let still_generic = tier_up(generic, &[Obs::Poly], &TierConfig::default());
        assert!(still_generic.code.iter().any(|i| matches!(
            i,
            CInstr::Op {
                opcode: Opcode::IntAdd,
                ..
            }
        )));
    }

    #[test]
    fn tier_up_installs_inline_caches() {
        let m = crate::parser::parse_module(
            r#"
module M
type T = struct { int<64> a, int<64> b }
type Hdr = overlay { len: int<16> at 2 unpack UInt16BigEndian }
int<64> getb(any s, ref<bytes> pkt) {
    local int<64> v
    local int<16> l
    v = struct.get s b
    l = overlay.get Hdr len pkt
    return v
}
"#,
        )
        .unwrap();
        let linked = crate::linker::link_with_priorities(vec![m]).unwrap();
        let prog = crate::bytecode::compile(&linked).unwrap();
        let generic = prog.func("M::getb").unwrap();
        let tiered = tier_up(generic, &[], &TierConfig::default());
        assert!(
            tiered
                .code
                .iter()
                .any(|i| matches!(i, CInstr::OverlayGetIC { .. })),
            "{:#?}",
            tiered.code
        );
        // pc-preserving: same instruction count, and every IC site renders
        // exactly like the generic op it replaced.
        assert_eq!(generic.code.len(), tiered.code.len());
        for (g, t) in generic.code.iter().zip(tiered.code.iter()) {
            assert_eq!(g.render(), t.render());
            // The struct field site is lowering's, shared with the clone.
            if let (CInstr::StructGet { ic: a, .. }, CInstr::StructGet { ic: b, .. }) = (g, t) {
                assert!(Rc::ptr_eq(a, b));
            }
        }
    }
}
