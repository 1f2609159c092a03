//! `hiltic` — the HILTI compiler driver (§3.1, Figure 3).
//!
//! The paper's prototype ships `hiltic` and `hilti-build`, which "employ
//! this workflow to compile HILTI code into native objects and
//! executables" and can "JIT-execute the source directly". This driver
//! covers the same surface against our toolchain: parse → link → check →
//! optimize → compile, then run an entry point or dump stages.
//!
//! ```text
//! hiltic run  [-O0] [--interp] [--trace] [--stats] [--no-specialize]
//!             [--fuel N] [--max-heap N] [--max-depth N]
//!             [--profile out.json] [--metrics-out out.json]
//!             [--trace-out out.json]
//!             [--entry Mod::fn] file.hlt [...]
//! hiltic check         file.hlt ...      # parse + link + static checks
//! hiltic dump-ir       file.hlt ...      # optimized IR, human-readable
//! hiltic dump-bytecode file.hlt ...      # lowered (specialized) bytecode
//! ```
//!
//! `--no-specialize` disables the bytecode specialization pass (the
//! ablation switch); output, exceptions and fuel are identical either
//! way. `--stats` prints the executed instruction mix to stderr, sorted
//! by count with each opcode's share of retired instructions.
//! `--fuel`, `--max-heap` and `--max-depth` bound execution steps, bytes
//! of tracked heap state, and call depth; exceeding any of them raises
//! the catchable `Hilti::ResourceExhausted` exception.
//!
//! `--profile` writes the deterministic execution profile
//! (`hilti.profile.v1`): retired instructions and fuel attributed per
//! function and per opcode class. The attribution is counting-based, so
//! two runs of the same program produce byte-identical files and
//! `--interp` and VM runs agree on every total. `--metrics-out` writes
//! the engine telemetry snapshot (`hilti.telemetry.v1`). `--trace-out`
//! writes a flight-recorder trace (`hilti.trace.v1`, Chrome trace-event
//! format, loadable in Perfetto) with a `parse` span for the front-end
//! build and a `script` span for the entry-point execution; with
//! `--stats` the per-stage latency summary is printed to stderr too.
//!
//! Example (Figure 3):
//!
//! ```text
//! $ hiltic run hello.hlt
//! Hello, World!
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use hilti::host::{BuildOptions, Program};
use hilti::passes::OptLevel;
use hilti::vm::ExecProfile;
use hilti_rt::limits::ResourceLimits;
use hilti_rt::telemetry::{json, Telemetry};
use hilti_rt::trace::{monotonic_ns, FlightRecorder, Stage, TraceReport};

/// Parses the numeric argument of a `--fuel`-style flag.
fn numeric_flag(flag: &str, arg: Option<&String>) -> Result<u64, ExitCode> {
    match arg.map(|a| a.parse::<u64>()) {
        Some(Ok(n)) => Ok(n),
        Some(Err(_)) => {
            eprintln!("{flag} needs a non-negative integer");
            Err(ExitCode::FAILURE)
        }
        None => {
            eprintln!("{flag} needs a value");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Renders the execution profile as a `hilti.profile.v1` JSON document.
/// Every map is emitted in sorted order and no wall-time field appears, so
/// equal runs produce byte-identical files. Retired instructions and fuel
/// coincide under the uniform cost model; both keys are emitted so the
/// schema survives a future non-uniform model.
fn profile_json(engine: &str, entry: &str, prof: &ExecProfile) -> String {
    let total = prof.total();
    let mut s = String::from("{\"schema\":\"hilti.profile.v1\"");
    let _ = write!(
        s,
        ",\"engine\":{},\"entry\":{},\"total_instructions\":{total},\"total_fuel\":{total}",
        json::quote(engine),
        json::quote(entry)
    );
    s.push_str(",\"functions\":{");
    for (i, (name, units)) in prof.functions().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"instructions\":{units},\"fuel\":{units}}}",
            json::quote(name)
        );
    }
    s.push_str("},\"opcode_classes\":{");
    for (i, (class, units)) in prof.classes().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:{units}", json::quote(class));
    }
    s.push_str("}}");
    debug_assert!(json::validate(&s).is_ok());
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: hiltic <run|check|dump-ir|dump-bytecode> [flags] <file.hlt>...");
        return ExitCode::FAILURE;
    };

    let mut opt = OptLevel::Full;
    let mut interp = false;
    let mut trace = false;
    let mut stats = false;
    let mut specialize = true;
    let mut entry = "Main::run".to_owned();
    let mut limits = ResourceLimits::default();
    let mut profile_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-O0" => opt = OptLevel::None,
            "-O1" | "-O2" => opt = OptLevel::Full,
            "--interp" => interp = true,
            "--trace" => trace = true,
            "--stats" => stats = true,
            "--no-specialize" => specialize = false,
            "--entry" => match it.next() {
                Some(e) => entry = e.clone(),
                None => {
                    eprintln!("--entry needs a function name");
                    return ExitCode::FAILURE;
                }
            },
            "--profile" => match it.next() {
                Some(p) => profile_out = Some(p.clone()),
                None => {
                    eprintln!("--profile needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p.clone()),
                None => {
                    eprintln!("--metrics-out needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => {
                    eprintln!("--trace-out needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--fuel" => match numeric_flag("--fuel", it.next()) {
                Ok(n) => limits.fuel = Some(n),
                Err(code) => return code,
            },
            "--max-heap" => match numeric_flag("--max-heap", it.next()) {
                Ok(n) => limits.max_heap_bytes = Some(n),
                Err(code) => return code,
            },
            "--max-depth" => match numeric_flag("--max-depth", it.next()) {
                Ok(n) => limits.max_call_depth = Some(n.min(u32::MAX as u64) as u32),
                Err(code) => return code,
            },
            f if f.starts_with('-') => {
                eprintln!("hiltic: unknown flag {f}");
                return ExitCode::FAILURE;
            }
            f => files.push(f.to_owned()),
        }
    }
    if files.is_empty() {
        eprintln!("hiltic: no input files");
        return ExitCode::FAILURE;
    }

    let sources: Vec<String> = match files
        .iter()
        .map(std::fs::read_to_string)
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hiltic: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source_refs: Vec<&str> = sources.iter().map(String::as_str).collect();

    let options = BuildOptions {
        specialize,
        ..Default::default()
    };
    // Flight recorder (`--trace-out`): the front-end build is the parse
    // stage, the entry-point execution the script stage.
    let mut recorder = trace_out.as_ref().map(|_| FlightRecorder::new(0));
    let build_begin = recorder.as_ref().map(|_| monotonic_ns());
    let mut program = match Program::from_sources_opts(&source_refs, opt, options) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hiltic: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(r) = &mut recorder {
        r.record(Stage::Parse, 0, None, build_begin.unwrap_or(0));
    }
    for w in program.warnings() {
        eprintln!("warning: {w}");
    }

    match cmd.as_str() {
        "check" => {
            println!(
                "ok: {} function(s), {} hook(s), {} global(s), {} warning(s)",
                program.linked().functions.len(),
                program.linked().hooks.len(),
                program.linked().globals.len(),
                program.warnings().len()
            );
            ExitCode::SUCCESS
        }
        "dump-ir" => {
            let linked = program.linked();
            let mut names: Vec<&String> = linked.functions.keys().collect();
            names.sort();
            for name in names {
                let f = &linked.functions[name];
                print!("{} {}(", f.ret, f.name);
                for (i, (p, t)) in f.params.iter().enumerate() {
                    if i > 0 {
                        print!(", ");
                    }
                    print!("{t} {p}");
                }
                println!(") {{");
                for b in &f.blocks {
                    println!("{}:", b.label);
                    for instr in &b.instrs {
                        println!("    {instr}");
                    }
                    println!("    ; {:?}", b.term);
                }
                println!("}}\n");
            }
            ExitCode::SUCCESS
        }
        "dump-bytecode" => {
            let compiled = program.compiled();
            let mut indexed: Vec<(&String, u32)> =
                compiled.func_index.iter().map(|(n, i)| (n, *i)).collect();
            indexed.sort();
            for (name, idx) in indexed {
                let f = &compiled.funcs[idx as usize];
                println!(
                    "fn {name} (#{idx}, {} params, {} slots):",
                    f.n_params, f.n_slots
                );
                for (pc, instr) in f.code.iter().enumerate() {
                    println!("  {pc:>4}: {instr:?}");
                }
                for (i, c) in f.consts.iter().enumerate() {
                    println!("  c{i:<4} {}", c.render());
                }
                println!();
            }
            ExitCode::SUCCESS
        }
        "run" => {
            program.context_mut().trace = trace;
            program.context_mut().stats = stats;
            program.context_mut().profile = profile_out.is_some();
            let telemetry = metrics_out.as_ref().map(|_| Telemetry::new());
            if let Some(t) = &telemetry {
                program.context_mut().set_telemetry(t);
            }
            program.set_limits(limits);
            let run_begin = recorder.as_ref().map(|_| monotonic_ns());
            let result = if interp {
                program.run_interpreted(&entry, &[])
            } else {
                program.run(&entry, &[])
            };
            if let Some(r) = &mut recorder {
                r.record(Stage::Script, 0, None, run_begin.unwrap_or(0));
                let total = monotonic_ns().saturating_sub(build_begin.unwrap_or(0));
                r.observe_delivery(total);
            }
            // The trace goes to stderr so program output stays clean.
            for line in program.context_mut().take_trace() {
                eprintln!("trace: {line}");
            }
            if stats {
                let mix = program.context_mut().take_instr_mix();
                let total: u64 = mix.iter().map(|(_, c)| *c).sum();
                eprintln!("stats: {total} instructions executed");
                for (name, count) in mix {
                    let pct = count as f64 * 100.0 / total.max(1) as f64;
                    eprintln!("stats: {count:>10} {pct:>6.2}%  {name}");
                }
            }
            if let Some(path) = &profile_out {
                let prof = program.context_mut().take_exec_profile();
                let engine = if interp { "interp" } else { "vm" };
                let doc = profile_json(engine, &entry, &prof);
                if let Err(e) = std::fs::write(path, doc) {
                    eprintln!("hiltic: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some((path, t)) = metrics_out.as_ref().zip(telemetry.as_ref()) {
                let snap = t.snapshot();
                // A truncated event stream must not read as a quiet run.
                if snap.events_dropped > 0 {
                    eprintln!(
                        "hiltic run: warning: telemetry event sink overflowed, {} event(s) \
                         dropped (buffered stream is truncated)",
                        snap.events_dropped
                    );
                }
                if let Err(e) = std::fs::write(path, snap.to_json()) {
                    eprintln!("hiltic: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(path) = &trace_out {
                let rec = recorder.take().expect("--trace-out arms the recorder");
                let report = TraceReport::from_parts(vec![rec.finish()], vec![]);
                if stats {
                    eprint!("{}", report.latency.render());
                }
                if let Err(e) = std::fs::write(path, report.to_chrome_json()) {
                    eprintln!("hiltic: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            for line in program.take_output() {
                println!("{line}");
            }
            match result {
                Ok(v) => {
                    if !matches!(v, hilti::value::Value::Null) {
                        println!("=> {}", v.render());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("hiltic: uncaught exception: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("hiltic: unknown command {other:?}");
            ExitCode::FAILURE
        }
    }
}
