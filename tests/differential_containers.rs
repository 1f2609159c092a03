//! Differential testing of container semantics across the engines.
//!
//! Where `tests/differential.rs` fuzzes arithmetic and control flow, this
//! harness fuzzes the *runtime library surface*: random sequences of
//! map/set/vector/list operations — including ones that trap (lookup of a
//! missing key, out-of-range vector access, pop from an empty list), and
//! pure reads of a whole container (`string.render`) — are
//! emitted as textual HILTI and executed by the interpreter, the
//! unoptimized VM, and the fully optimized VM. All three must agree on
//! the returned checksum (which folds in element values and final
//! container sizes), the kind of any trap, and every `Hilti::print` line
//! emitted along the way.
//!
//! The map, vector and list start with three elements each, so lookups,
//! indexed reads and writes, and pops mostly succeed and a recipe runs on
//! to its later steps; the 0..6 key space keeps misses, out-of-range
//! indices and pops past empty, all traps, in reach.

use hilti::passes::OptLevel;
use hilti::{Program, Value};
use hilti_rt::rng::Rng;

/// Value sources for container operations: `t0`/`t1` are the function
/// arguments, `t2`/`t3` constants, `acc` the running checksum.
const VAL_SLOTS: [&str; 5] = ["t0", "t1", "t2", "t3", "acc"];

/// The four containers, as `Render` names them.
const CONTAINERS: [&str; 4] = ["m", "s", "v", "l"];

#[derive(Debug, Clone)]
enum CStep {
    MapInsert {
        k: u8,
        v: u8,
    },
    /// `acc += map.get m k` — traps IndexError when `k` is missing.
    MapGet {
        k: u8,
    },
    MapGetDefault {
        k: u8,
        d: i8,
    },
    MapRemove {
        k: u8,
    },
    MapSize,
    SetInsert {
        k: u8,
    },
    SetRemove {
        k: u8,
    },
    /// `if set.exists s k { acc += 100 }`
    SetExists {
        k: u8,
    },
    SetSize,
    VecPush {
        v: u8,
    },
    /// `acc += vector.get v i` — traps IndexError when out of range.
    VecGet {
        i: u8,
    },
    /// `vector.set v i <val>` — traps IndexError when out of range.
    VecSet {
        i: u8,
        v: u8,
    },
    VecLen,
    ListPushBack {
        v: u8,
    },
    ListPushFront {
        v: u8,
    },
    /// `acc += list.pop_back l` — traps on an empty list.
    ListPopBack,
    ListPopFront,
    ListLen,
    /// `call Hilti::print acc` — output must match across engines too.
    Print,
    /// `r = string.render <container>` and a print of it: a pure read of
    /// heap state, which no optimization may reuse across a write.
    Render {
        c: u8,
    },
}

fn step(rng: &mut Rng) -> CStep {
    // A small key space, so that hits and misses both happen.
    let k = rng.below(6) as u8;
    let v = rng.below(VAL_SLOTS.len() as u64) as u8;
    // Each arm's share is its count of the 35 values.
    match rng.below(35) {
        0..=2 => CStep::MapInsert { k, v },
        3 | 4 => CStep::MapGet { k },
        5 => CStep::MapGetDefault {
            k,
            d: rng.below(18) as i8 - 9,
        },
        6 => CStep::MapRemove { k },
        7 => CStep::MapSize,
        8..=10 => CStep::SetInsert { k },
        11 => CStep::SetRemove { k },
        12 | 13 => CStep::SetExists { k },
        14 => CStep::SetSize,
        15..=17 => CStep::VecPush { v },
        18 | 19 => CStep::VecGet { i: k },
        20 => CStep::VecSet { i: k, v },
        21 => CStep::VecLen,
        22 | 23 => CStep::ListPushBack { v },
        24 => CStep::ListPushFront { v },
        25 => CStep::ListPopBack,
        26 => CStep::ListPopFront,
        27 => CStep::ListLen,
        28 => CStep::Print,
        _ => CStep::Render {
            c: rng.below(CONTAINERS.len() as u64) as u8,
        },
    }
}

fn emit(recipe: &[CStep], c2: i64, c3: i64) -> String {
    let mut src = String::from(
        "module Fuzz\nimport Hilti\n\nint<64> kernel(int<64> a, int<64> b) {\n\
         \x20   local int<64> t0\n\
         \x20   local int<64> t1\n\
         \x20   local int<64> t2\n\
         \x20   local int<64> t3\n\
         \x20   local int<64> acc\n\
         \x20   local int<64> x\n\
         \x20   local string r\n\
         \x20   local ref<map<int<64>, int<64>>> m\n\
         \x20   local ref<set<int<64>>> s\n\
         \x20   local ref<vector<int<64>>> v\n\
         \x20   local ref<list<int<64>>> l\n",
    );
    for (i, step) in recipe.iter().enumerate() {
        if matches!(step, CStep::SetExists { .. }) {
            src.push_str(&format!("    local bool e{i}\n"));
        }
    }
    src.push_str(&format!(
        "    t0 = assign a\n    t1 = assign b\n    t2 = assign {c2}\n    t3 = assign {c3}\n\
         \x20   acc = assign 0\n\
         \x20   m = new map<int<64>, int<64>>\n\
         \x20   s = new set<int<64>>\n\
         \x20   v = new vector<int<64>>\n\
         \x20   l = new list<int<64>>\n"
    ));
    for (k, v) in [(0, "t2"), (2, "t0"), (4, "t3")] {
        src.push_str(&format!("    map.insert m {k} {v}\n"));
    }
    for v in ["t0", "t1", "t2"] {
        src.push_str(&format!(
            "    vector.push_back v {v}\n    list.push_back l {v}\n"
        ));
    }
    let val = |v: u8| VAL_SLOTS[v as usize];
    for (i, step) in recipe.iter().enumerate() {
        match *step {
            CStep::MapInsert { k, v } => {
                src.push_str(&format!("    map.insert m {k} {}\n", val(v)))
            }
            CStep::MapGet { k } => {
                src.push_str(&format!("    x = map.get m {k}\n"));
                src.push_str("    acc = int.add acc x\n");
            }
            CStep::MapGetDefault { k, d } => {
                src.push_str(&format!("    x = map.get_default m {k} {d}\n"));
                src.push_str("    acc = int.add acc x\n");
            }
            CStep::MapRemove { k } => src.push_str(&format!("    map.remove m {k}\n")),
            CStep::MapSize => {
                src.push_str("    x = map.size m\n    acc = int.add acc x\n");
            }
            CStep::SetInsert { k } => src.push_str(&format!("    set.insert s {k}\n")),
            CStep::SetRemove { k } => src.push_str(&format!("    set.remove s {k}\n")),
            CStep::SetExists { k } => {
                src.push_str(&format!("    e{i} = set.exists s {k}\n"));
                src.push_str(&format!("    if.else e{i} hit{i} end{i}\nhit{i}:\n"));
                src.push_str("    acc = int.add acc 100\n");
                src.push_str(&format!("    jump end{i}\nend{i}:\n"));
            }
            CStep::SetSize => {
                src.push_str("    x = set.size s\n    acc = int.add acc x\n");
            }
            CStep::VecPush { v } => src.push_str(&format!("    vector.push_back v {}\n", val(v))),
            CStep::VecGet { i } => {
                src.push_str(&format!("    x = vector.get v {i}\n"));
                src.push_str("    acc = int.add acc x\n");
            }
            CStep::VecSet { i, v } => src.push_str(&format!("    vector.set v {i} {}\n", val(v))),
            CStep::VecLen => {
                src.push_str("    x = vector.length v\n    acc = int.add acc x\n");
            }
            CStep::ListPushBack { v } => {
                src.push_str(&format!("    list.push_back l {}\n", val(v)))
            }
            CStep::ListPushFront { v } => {
                src.push_str(&format!("    list.push_front l {}\n", val(v)))
            }
            CStep::ListPopBack => {
                src.push_str("    x = list.pop_back l\n    acc = int.add acc x\n");
            }
            CStep::ListPopFront => {
                src.push_str("    x = list.pop_front l\n    acc = int.add acc x\n");
            }
            CStep::ListLen => {
                src.push_str("    x = list.length l\n    acc = int.add acc x\n");
            }
            CStep::Print => src.push_str("    call Hilti::print acc\n"),
            CStep::Render { c } => src.push_str(&format!(
                "    r = string.render {}\n    call Hilti::print r\n",
                CONTAINERS[c as usize]
            )),
        }
    }
    // Fold final container sizes into the checksum so divergent end states
    // are caught even when no intermediate read observed them.
    src.push_str(
        "    x = map.size m\n    acc = int.add acc x\n\
         \x20   x = set.size s\n    x = int.mul x 10\n    acc = int.add acc x\n\
         \x20   x = vector.length v\n    x = int.mul x 100\n    acc = int.add acc x\n\
         \x20   x = list.length l\n    x = int.mul x 1000\n    acc = int.add acc x\n\
         \x20   return acc\n}\n",
    );
    src
}

/// (value-or-trap-kind, printed lines) — the full observable behaviour.
fn observe(p: &mut Program, interp: bool, args: &[Value]) -> (Result<i64, String>, Vec<String>) {
    let r = if interp {
        p.run_interpreted("Fuzz::kernel", args)
    } else {
        p.run("Fuzz::kernel", args)
    };
    let outcome = match r {
        Ok(v) => Ok(v.as_int().expect("kernel returns int<64>")),
        Err(e) => Err(e.kind.name().to_string()),
    };
    (outcome, p.take_output())
}

#[test]
fn container_semantics_agree_across_engines() {
    for case in 0..256 {
        let rng = &mut Rng::for_case("container_semantics_agree_across_engines", case);
        let recipe: Vec<CStep> = (0..1 + rng.below(15)).map(|_| step(rng)).collect();
        let c2 = rng.below(18) as i64 - 9;
        let c3 = rng.below(9) as i64;
        let src = emit(&recipe, c2, c3);
        let args = [rng.below(10) as i64 - 5, rng.below(10) as i64 - 5].map(Value::Int);

        let mut plain = Program::from_sources(&[&src], OptLevel::None)
            .unwrap_or_else(|e| panic!("case {case}: generated program rejected: {e}\n{src}"));
        let mut opt = Program::from_sources(&[&src], OptLevel::Full)
            .unwrap_or_else(|e| panic!("case {case}: optimized build rejected: {e}\n{src}"));

        let oracle = observe(&mut plain, true, &args);
        let vm = observe(&mut plain, false, &args);
        let vm_opt = observe(&mut opt, false, &args);

        assert_eq!(oracle, vm, "case {case}: interpreter vs VM diverged\n{src}");
        assert_eq!(
            oracle, vm_opt,
            "case {case}: optimizer changed behaviour\n{src}"
        );
    }
}

/// Fixed cases pinning the trap kinds the fuzzer relies on, so a future
/// semantics change shows up as a named failure here rather than as an
/// opaque fuzz divergence.
#[test]
fn container_trap_kinds_are_stable() {
    let cases = [
        ("x = map.get m 1", "Hilti::IndexError"),
        ("x = vector.get v 0", "Hilti::IndexError"),
        ("x = list.pop_back l", "Hilti::IndexError"),
        ("x = list.pop_front l", "Hilti::IndexError"),
    ];
    for (op, kind) in cases {
        let src = format!(
            "module Fuzz\n\nint<64> kernel() {{\n\
             \x20   local int<64> x\n\
             \x20   local ref<map<int<64>, int<64>>> m\n\
             \x20   local ref<vector<int<64>>> v\n\
             \x20   local ref<list<int<64>>> l\n\
             \x20   m = new map<int<64>, int<64>>\n\
             \x20   v = new vector<int<64>>\n\
             \x20   l = new list<int<64>>\n\
             \x20   {op}\n\
             \x20   return x\n}}\n"
        );
        let mut p = Program::from_sources(&[&src], OptLevel::Full).unwrap();
        let err = p.run("Fuzz::kernel", &[]).unwrap_err();
        assert_eq!(err.kind.name(), kind, "{op}");
        let err = p.run_interpreted("Fuzz::kernel", &[]).unwrap_err();
        assert_eq!(err.kind.name(), kind, "{op} (interpreted)");
    }
}
