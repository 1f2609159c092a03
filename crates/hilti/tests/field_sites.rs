//! Integration tests for struct field sites (`struct.get` / `struct.set`
//! resolve the field name to a slot once per site).
//!
//! Covers the site state machine end to end — hit, miss-refill,
//! polymorphic cap, de-optimization — plus value/error/fuel/profile parity
//! between the interpreter and the VM with the specializer on and off, and
//! the typed sites the specializer makes of a receiver declared `ref<T>`:
//! they retire in the fast loop and fall back to the cached site for any
//! other receiver.

use hilti::bytecode::SiteReport;
use hilti::host::{BuildOptions, Program};
use hilti::passes::OptLevel;
use hilti::Value;

const SRC: &str = r#"
module M

type T1 = struct { int<64> a, int<64> b }
type T2 = struct { int<64> b, int<64> a }
type T3 = struct { int<64> c, int<64> d, int<64> b }
type T4 = struct { int<64> x, int<64> y, int<64> z, int<64> b }
type T5 = struct { int<64> p, int<64> b, int<64> q }
type T6 = struct { int<64> b, int<64> c }
type NoB = struct { int<64> a }

int<64> getb(any s) {
    local int<64> v
    v = struct.get s b
    return v
}

int<64> setb(any s, int<64> v) {
    struct.set s b v
    return v
}

int<64> getb_typed(ref<T1> s) {
    local int<64> v
    v = struct.get s b
    return v
}

int<64> setb_typed(ref<T1> s, int<64> v) {
    struct.set s b v
    return v
}

bool hasb(any s) {
    local bool r
    r = struct.is_set s b
    return r
}

any mk1() {
    local any s
    s = new T1
    struct.set s a 10
    struct.set s b 1
    return s
}

any mk2() {
    local any s
    s = new T2
    struct.set s b 2
    return s
}

any mk3() {
    local any s
    s = new T3
    struct.set s b 3
    return s
}

any mk4() {
    local any s
    s = new T4
    struct.set s b 4
    return s
}

any mk5() {
    local any s
    s = new T5
    struct.set s b 5
    return s
}

any mk6() {
    local any s
    s = new T6
    struct.set s b 6
    return s
}

any mk_unset() {
    local any s
    s = new T1
    return s
}

any mk_nob() {
    local any s
    s = new NoB
    return s
}

int<64> fib(int<64> n) {
    local bool base
    local int<64> a
    local int<64> b
    local int<64> r
    base = int.lt n 2
    if.else base ret rec
ret:
    return n
rec:
    a = int.sub n 1
    a = call fib (a)
    b = int.sub n 2
    b = call fib (b)
    r = int.add a b
    return r
}
"#;

fn build(specialize: bool) -> Program {
    Program::from_sources_opts(
        &[SRC],
        OptLevel::Full,
        BuildOptions {
            specialize,
            ..Default::default()
        },
    )
    .unwrap()
}

/// The one `kind` site of `func`.
fn site(p: &Program, func: &str, kind: &str) -> SiteReport {
    let report = p.compiled().site_report();
    report
        .iter()
        .find(|s| s.function == func && s.kind == kind)
        .unwrap_or_else(|| panic!("no {kind} site in {func}: {report:?}"))
        .clone()
}

#[test]
fn site_hits_after_monomorphic_miss_refill() {
    let mut p = build(true);
    let s = p.run("M::mk1", &[]).unwrap();
    for _ in 0..10 {
        let v = p.run("M::getb", std::slice::from_ref(&s)).unwrap();
        assert!(v.equals(&Value::Int(1)), "{v:?}");
    }
    let ic = site(&p, "M::getb", "struct.get");
    assert_eq!(ic.misses, 1, "{ic:?}");
    assert_eq!(ic.hits, 9, "{ic:?}");
    assert_eq!(ic.entries, 1, "{ic:?}");
    assert!(!ic.deopt);
}

#[test]
fn site_refills_per_receiver_type_up_to_cap() {
    let mut p = build(true);
    let s1 = p.run("M::mk1", &[]).unwrap();
    let s2 = p.run("M::mk2", &[]).unwrap();
    // Two receiver types: one miss each, hits thereafter. The field lives
    // at a different index in each struct, so a stale cache entry would
    // return the wrong field value — correctness proves the guard works.
    for _ in 0..4 {
        assert!(p
            .run("M::getb", std::slice::from_ref(&s1))
            .unwrap()
            .equals(&Value::Int(1)));
        assert!(p
            .run("M::getb", std::slice::from_ref(&s2))
            .unwrap()
            .equals(&Value::Int(2)));
    }
    let ic = site(&p, "M::getb", "struct.get");
    assert_eq!(ic.entries, 2, "{ic:?}");
    assert_eq!(ic.misses, 2, "{ic:?}");
    assert_eq!(ic.hits, 6, "{ic:?}");
    assert!(!ic.deopt);
}

#[test]
fn site_polymorphic_cap_deoptimizes_but_stays_correct() {
    let mut p = build(true);
    let vals: Vec<Value> = (1..=6)
        .map(|i| p.run(&format!("M::mk{i}"), &[]).unwrap())
        .collect();
    // Six receiver types against a cap of four: the site must de-optimize
    // to the generic lookup — and keep producing correct answers.
    for round in 0..3 {
        for (i, s) in vals.iter().enumerate() {
            let v = p.run("M::getb", std::slice::from_ref(s)).unwrap();
            assert!(
                v.equals(&Value::Int(i as i64 + 1)),
                "round {round} type T{} gave {v:?}",
                i + 1
            );
        }
    }
    let ic = site(&p, "M::getb", "struct.get");
    assert!(ic.deopt, "{ic:?}");
    assert_eq!(ic.entries, 0, "de-opt clears the cache: {ic:?}");
}

#[test]
fn struct_set_site_writes_through() {
    let mut p = build(true);
    let s = p.run("M::mk1", &[]).unwrap();
    for k in 0..5 {
        p.run("M::setb", &[s.clone(), Value::Int(100 + k)]).unwrap();
    }
    let v = p.run("M::getb", &[s]).unwrap();
    assert!(v.equals(&Value::Int(104)), "{v:?}");
    let ic = site(&p, "M::setb", "struct.set");
    assert_eq!(ic.misses, 1, "{ic:?}");
    assert_eq!(ic.hits, 4, "{ic:?}");
}

#[test]
fn site_errors_match_interpreter_messages() {
    // A site must raise byte-identical exceptions to the interpreter's
    // table lookup, cold and warm: wrong receiver type, missing field,
    // unset field.
    let cases: Vec<(&str, Vec<Value>)> = vec![
        ("M::getb", vec![Value::Int(3)]),
        ("M::setb", vec![Value::Bool(true), Value::Int(1)]),
    ];
    for (func, args) in cases {
        let mut p = build(true);
        let want = p.run_interpreted(func, &args).unwrap_err();
        for round in ["cold", "warm"] {
            let got = p.run(func, &args).unwrap_err();
            assert_eq!(want.kind, got.kind, "{func} ({round})");
            assert_eq!(want.message, got.message, "{func} ({round})");
        }
    }

    // Struct-typed receivers that still fail: no such field / unset field.
    for maker in ["M::mk_nob", "M::mk_unset"] {
        let mut p = build(true);
        let s = p.run(maker, &[]).unwrap();
        let want = p
            .run_interpreted("M::getb", std::slice::from_ref(&s))
            .unwrap_err();
        for round in ["cold", "warm"] {
            let got = p.run("M::getb", std::slice::from_ref(&s)).unwrap_err();
            assert_eq!(want.kind, got.kind, "{maker} ({round})");
            assert_eq!(want.message, got.message, "{maker} ({round})");
        }
    }
}

#[test]
fn observational_modes_skip_the_fast_loop() {
    // Tracing, stats and profiling must see the canonical instruction
    // stream one instruction at a time: with any of them enabled nothing
    // retires in the typed fast loop, and the result is unchanged.
    let mut plain = build(true);
    let want = plain.run("M::fib", &[Value::Int(12)]).unwrap();
    let mix = plain.context().tier_mix();
    assert!(mix.specialized > 0, "fast loop never ran: {mix:?}");

    for set in [
        (|c: &mut hilti::vm::Context| c.trace = true) as fn(&mut hilti::vm::Context),
        |c| c.stats = true,
        |c| c.profile = true,
    ] {
        let mut p = build(true);
        set(p.context_mut());
        let got = p.run("M::fib", &[Value::Int(12)]).unwrap();
        assert!(got.equals(&want));
        let mix = p.context().tier_mix();
        assert_eq!(mix.specialized, 0, "{mix:?}");
        assert_eq!(mix.generic, plain.context().tier_mix().total(), "{mix:?}");
    }
}

/// A struct the program never declared, as a host might hand one in.
fn ghost() -> Value {
    Value::Struct(std::rc::Rc::new(std::cell::RefCell::new(
        hilti::value::StructVal {
            type_name: std::rc::Rc::from("Ghost"),
            fields: vec![Value::Int(1)],
        },
    )))
}

/// What a call sequence looks like from outside: each call's value or
/// exception (kind *and* message), then the fuel the sequence charged.
fn struct_transcript(
    p: &mut Program,
    run: fn(&mut Program, &str, &[Value]) -> hilti_rt::error::RtResult<Value>,
) -> Vec<String> {
    let s1 = p.run("M::mk1", &[]).unwrap();
    let s2 = p.run("M::mk2", &[]).unwrap();
    let unset = p.run("M::mk_unset", &[]).unwrap();
    let nob = p.run("M::mk_nob", &[]).unwrap();
    let fuel0 = p.context().fuel_spent();
    let calls: Vec<(&str, Vec<Value>)> = vec![
        // Hits on an untyped and on a statically typed site.
        ("M::getb", vec![s1.clone()]),
        ("M::getb_typed", vec![s1.clone()]),
        ("M::setb", vec![s1.clone(), Value::Int(41)]),
        ("M::setb_typed", vec![s1.clone(), Value::Int(42)]),
        ("M::getb", vec![s1.clone()]),
        // A second receiver type where `b` sits in another slot — also
        // through the site whose declared type says T1.
        ("M::getb", vec![s2.clone()]),
        ("M::getb_typed", vec![s2.clone()]),
        ("M::setb_typed", vec![s2.clone(), Value::Int(7)]),
        ("M::getb", vec![s2.clone()]),
        ("M::hasb", vec![unset.clone()]),
        // Unset field, unknown field, unknown struct type, not a struct.
        ("M::getb", vec![unset.clone()]),
        ("M::getb_typed", vec![unset.clone()]),
        ("M::getb", vec![nob.clone()]),
        ("M::setb", vec![nob.clone(), Value::Int(1)]),
        ("M::getb_typed", vec![nob.clone()]),
        ("M::getb", vec![ghost()]),
        ("M::setb", vec![ghost(), Value::Int(1)]),
        ("M::hasb", vec![ghost()]),
        ("M::getb", vec![Value::Int(3)]),
        ("M::setb_typed", vec![Value::str("x"), Value::Int(1)]),
        ("M::getb", vec![Value::Null]),
        // And the sites still answer correctly afterwards.
        ("M::getb", vec![s1.clone()]),
        ("M::getb_typed", vec![s2.clone()]),
    ];
    let mut out = Vec::new();
    // Three rounds: the later ones run on warm sites.
    for round in 0..3 {
        for (func, args) in &calls {
            out.push(match run(p, func, args) {
                Ok(v) => format!("{round} {func} = {}", v.render()),
                Err(e) => format!("{round} {func} ! {:?}: {}", e.kind, e.message),
            });
        }
    }
    out.push(format!("fuel {}", p.context().fuel_spent() - fuel0));
    out
}

#[test]
fn struct_ops_agree_across_engines() {
    // One resolution mechanism serves every engine, so they must agree on
    // values, on exception kinds and messages, and on fuel: the
    // tree-walking interpreter (the oracle) and the VM with the specializer
    // on and off.
    let vm = |p: &mut Program, f: &str, a: &[Value]| p.run(f, a);
    let interp = |p: &mut Program, f: &str, a: &[Value]| p.run_interpreted(f, a);

    let oracle = struct_transcript(&mut build(true), interp);
    for line in [
        "0 M::getb = 1",
        "0 M::getb_typed = 2",
        "0 M::getb ! IndexError: field b is unset",
        "0 M::getb ! IndexError: struct NoB has no field b",
        "0 M::setb ! IndexError: struct NoB has no field b",
        "0 M::getb ! TypeError: unknown struct type Ghost",
        "0 M::setb ! TypeError: unknown struct type Ghost",
        "0 M::hasb ! TypeError: unknown struct type Ghost",
        "0 M::getb ! TypeError: expected struct, got int",
        "0 M::setb_typed ! TypeError: expected struct, got string",
        "0 M::getb ! TypeError: expected struct, got null",
    ] {
        assert!(oracle.iter().any(|l| l == line), "{line}\n{oracle:#?}");
    }
    for specialize in [true, false] {
        let got = struct_transcript(&mut build(specialize), vm);
        assert_eq!(got, oracle, "VM specialize={specialize}");
    }

    // `--profile` output: attribution per function and per opcode class
    // (struct ops under `struct`), identical on every engine.
    let profile_of =
        |p: &mut Program,
         run: fn(&mut Program, &str, &[Value]) -> hilti_rt::error::RtResult<Value>| {
            p.context_mut().profile = true;
            let transcript = struct_transcript(p, run);
            let profile = p.context_mut().take_exec_profile();
            (transcript, profile.functions(), profile.classes())
        };
    let want = profile_of(&mut build(true), interp);
    assert!(want.2.iter().any(|(class, n)| *class == "struct" && *n > 0));
    for specialize in [true, false] {
        let got = profile_of(&mut build(specialize), vm);
        assert_eq!(got, want, "VM specialize={specialize} profile");
    }
}

#[test]
fn typed_sites_retire_in_the_fast_loop() {
    // `getb_typed` and `setb_typed` read their receiver from a `ref<T1>`
    // parameter: with the specializer on, a T1 receiver's field site runs
    // in the fast loop (the `return` after it does not) and leaves its
    // cache alone; with it off, it runs on the dispatch path through the
    // cache.
    for specialize in [true, false] {
        let mut p = build(specialize);
        let s1 = p.run("M::mk1", &[]).unwrap();
        let before = p.context().tier_mix();
        for k in 0..10 {
            p.run("M::setb_typed", &[s1.clone(), Value::Int(k)])
                .unwrap();
            let v = p.run("M::getb_typed", std::slice::from_ref(&s1)).unwrap();
            assert!(v.equals(&Value::Int(k)), "{v:?}");
        }
        let after = p.context().tier_mix();
        let typed = if specialize { 20 } else { 0 };
        assert_eq!(after.specialized - before.specialized, typed, "{after:?}");
        assert_eq!(after.total() - before.total(), 40, "{after:?}");
        for (func, kind) in [
            ("M::getb_typed", "struct.get"),
            ("M::setb_typed", "struct.set"),
        ] {
            let ic = site(&p, func, kind);
            let hits = if specialize { 0 } else { 10 };
            assert_eq!((ic.hits, ic.misses, ic.entries), (hits, 0, 1), "{ic:?}");
        }
    }
}

#[test]
fn typed_sites_fall_back_to_the_interpreters_answer() {
    // Another struct type through the `ref<T1>` site, an unset field and
    // values that are not structs leave the fast loop for the site it
    // replaced: value or exception, and fuel, are the interpreter's.
    let mut p = build(true);
    let s2 = p.run("M::mk2", &[]).unwrap();
    let unset = p.run("M::mk_unset", &[]).unwrap();
    let cases: Vec<(&str, Vec<Value>)> = vec![
        ("M::getb_typed", vec![s2.clone()]),
        ("M::setb_typed", vec![s2.clone(), Value::Int(7)]),
        ("M::getb_typed", vec![s2]),
        ("M::getb_typed", vec![unset.clone()]),
        ("M::setb_typed", vec![unset.clone(), Value::Int(9)]),
        ("M::getb_typed", vec![unset]),
        ("M::getb_typed", vec![ghost()]),
        ("M::getb_typed", vec![Value::Int(3)]),
        ("M::setb_typed", vec![Value::str("x"), Value::Int(1)]),
        ("M::setb_typed", vec![Value::Null, Value::Int(1)]),
    ];
    let outcome = |r: hilti_rt::error::RtResult<Value>| match r {
        Ok(v) => v.render(),
        Err(e) => format!("{:?}: {}", e.kind, e.message),
    };
    for (func, args) in &cases {
        let fuel = |p: &Program| p.context().fuel_spent();
        let f0 = fuel(&p);
        let want = outcome(p.run_interpreted(func, args));
        let f1 = fuel(&p);
        let got = outcome(p.run(func, args));
        assert_eq!(got, want, "{func} {args:?}");
        assert_eq!(fuel(&p) - f1, f1 - f0, "{func} {args:?}: fuel");
    }
}
