//! The host-application API (§3.4).
//!
//! This is the analog of the paper's generated C stubs plus the C++ AST
//! interface: a host application either parses textual HILTI source or
//! builds [`crate::ir::Module`]s programmatically, then obtains a
//! [`Program`] — parsed, linked, checked, optimized, and lowered to
//! bytecode ("all the way from user-level specification to native code on
//! the fly"). The program exposes function calls in both directions,
//! fibers for incremental processing, and access to output, logs, and
//! profiling.

use hilti_rt::error::RtResult;

use crate::bytecode::{compile, CompiledProgram};
use crate::check;
use crate::fiber::Fiber;
use crate::ir::Module;
use crate::linker::{link_with_priorities, Linked};
use crate::passes::{optimize_linked, OptLevel, PassStats};
use crate::specialize::SpecStats;
use crate::value::Value;
use crate::vm::{self, Context};

/// Build-time options beyond the optimization level.
#[derive(Clone, Debug)]
pub struct BuildOptions {
    /// Insert per-function profiling spans (§3.3).
    pub instrument: bool,
    /// When set, prune functions unreachable from these roots (and from
    /// hooks) — §7's link-time elimination of code "statically determined
    /// as unreachable with the host application's parameterization".
    pub prune_roots: Option<Vec<String>>,
    /// Run the bytecode specialization pass (`crate::specialize`): typed
    /// fast-path instructions and fused compare-and-branch. On by default;
    /// switch off to ablate the pass (`repro fib`'s "dispatch tier" line).
    pub specialize: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            instrument: false,
            prune_roots: None,
            specialize: true,
        }
    }
}

/// The `Send` front-end half of a build: linked, checked, optimized IR
/// waiting for per-thread bytecode lowering. Produced by
/// [`Program::front_end`], consumed by [`Program::from_ir`].
#[derive(Clone)]
pub struct ProgramIr {
    linked: Linked,
    pass_stats: PassStats,
    warnings: Vec<check::Diagnostic>,
    options: BuildOptions,
}

/// A ready-to-run HILTI program: linked IR plus compiled bytecode plus the
/// execution context (thread-local state of virtual thread 0).
pub struct Program {
    linked: Linked,
    compiled: CompiledProgram,
    ctx: Context,
    pass_stats: PassStats,
    spec_stats: SpecStats,
    warnings: Vec<check::Diagnostic>,
}

impl Program {
    /// Builds a program from one textual source unit with full optimization.
    pub fn from_source(src: &str) -> RtResult<Program> {
        Self::from_sources(&[src], OptLevel::Full)
    }

    /// Builds a program from several textual units.
    pub fn from_sources(srcs: &[&str], opt: OptLevel) -> RtResult<Program> {
        let modules = srcs
            .iter()
            .map(|s| crate::parser::parse_module(s))
            .collect::<RtResult<Vec<_>>>()?;
        Self::from_modules(modules, opt)
    }

    /// Builds a program from textual units with explicit build options
    /// (e.g. `specialize: false` for the dispatch ablation).
    pub fn from_sources_opts(
        srcs: &[&str],
        opt: OptLevel,
        options: BuildOptions,
    ) -> RtResult<Program> {
        let modules = srcs
            .iter()
            .map(|s| crate::parser::parse_module(s))
            .collect::<RtResult<Vec<_>>>()?;
        Self::build(modules, opt, options)
    }

    /// Builds with per-function profiling instrumentation (§3.3): every
    /// function's execution time accumulates under `fn:<name>` spans in
    /// the context's profiler.
    pub fn from_sources_instrumented(srcs: &[&str], opt: OptLevel) -> RtResult<Program> {
        let modules = srcs
            .iter()
            .map(|s| crate::parser::parse_module(s))
            .collect::<RtResult<Vec<_>>>()?;
        Self::from_modules_opts(modules, opt, true)
    }

    /// Builds a program from in-memory modules (the AST-API path host
    /// compilers use).
    pub fn from_modules(modules: Vec<Module>, opt: OptLevel) -> RtResult<Program> {
        Self::from_modules_opts(modules, opt, false)
    }

    /// Like [`Program::from_modules`], optionally inserting
    /// function-granularity profiling instrumentation (§3.3).
    pub fn from_modules_opts(
        modules: Vec<Module>,
        opt: OptLevel,
        instrument: bool,
    ) -> RtResult<Program> {
        Self::build(
            modules,
            opt,
            BuildOptions {
                instrument,
                ..Default::default()
            },
        )
    }

    /// The full build pipeline with all options.
    pub fn build(modules: Vec<Module>, opt: OptLevel, options: BuildOptions) -> RtResult<Program> {
        Self::from_ir(Self::front_end_modules(modules, opt, options)?)
    }

    /// The front half of [`Program::build`]: parse → link → check →
    /// prune → optimize → instrument, stopping before bytecode. The
    /// result is `Clone + Send`, so a dispatcher can run the expensive
    /// front end **once** and every worker thread materializes its own
    /// [`Program`] from a clone with [`Program::from_ir`] — bytecode and
    /// execution context stay thread-private (inline-cache sites are
    /// `Rc`-based and must never be shared across threads).
    pub fn front_end(srcs: &[&str], opt: OptLevel, options: BuildOptions) -> RtResult<ProgramIr> {
        let modules = srcs
            .iter()
            .map(|s| crate::parser::parse_module(s))
            .collect::<RtResult<Vec<_>>>()?;
        Self::front_end_modules(modules, opt, options)
    }

    /// Like [`Program::front_end`], from in-memory modules.
    pub fn front_end_modules(
        modules: Vec<Module>,
        opt: OptLevel,
        options: BuildOptions,
    ) -> RtResult<ProgramIr> {
        let mut linked = link_with_priorities(modules)?;
        let warnings = check::check(&linked)?;
        if let Some(roots) = &options.prune_roots {
            let refs: Vec<&str> = roots.iter().map(String::as_str).collect();
            crate::linker::prune_unreachable(&mut linked, &refs);
        }
        let pass_stats = optimize_linked(&mut linked, opt);
        if options.instrument {
            crate::passes::instrument_functions(&mut linked);
        }
        Ok(ProgramIr {
            linked,
            pass_stats,
            warnings,
            options,
        })
    }

    /// The back half of [`Program::build`]: lower the optimized IR to
    /// bytecode, run static specialization, and wire a fresh execution
    /// context. Cheap relative to the front end — this is the per-thread
    /// share of a build.
    pub fn from_ir(ir: ProgramIr) -> RtResult<Program> {
        let ProgramIr {
            linked,
            pass_stats,
            warnings,
            options,
        } = ir;
        let mut compiled = compile(&linked)?;
        let spec_stats = if options.specialize {
            crate::specialize::specialize_program(&mut compiled)
        } else {
            SpecStats::default()
        };
        let ctx = Context::for_program(&compiled);
        Ok(Program {
            linked,
            compiled,
            ctx,
            pass_stats,
            spec_stats,
            warnings,
        })
    }

    /// Static-checker warnings collected at build time.
    pub fn warnings(&self) -> &[check::Diagnostic] {
        &self.warnings
    }

    /// Optimization statistics from the build.
    pub fn pass_stats(&self) -> PassStats {
        self.pass_stats
    }

    /// Bytecode-specialization statistics (zero when built with
    /// `specialize: false`).
    pub fn spec_stats(&self) -> SpecStats {
        self.spec_stats
    }

    /// The linked IR (for inspection or the interpreter baseline).
    pub fn linked(&self) -> &Linked {
        &self.linked
    }

    /// The compiled bytecode.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The execution context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Installs resource limits (fuel, heap budget, call depth) on the
    /// execution context; both engines enforce them from the next run.
    pub fn set_limits(&mut self, limits: hilti_rt::limits::ResourceLimits) {
        self.ctx.set_limits(limits);
    }

    /// Calls a HILTI function on the compiled engine and returns its value.
    pub fn run(&mut self, func: &str, args: &[Value]) -> RtResult<Value> {
        vm::call(&self.compiled, &mut self.ctx, func, args)
    }

    /// Resolves a function name once, for [`Program::run_id`].
    pub fn func_id(&self, func: &str) -> RtResult<vm::FuncId> {
        vm::resolve(&self.compiled, func)
    }

    /// [`Program::run`] without the per-call name lookup: the entry for
    /// hosts that call one function per packet.
    pub fn run_id(&mut self, func: vm::FuncId, args: &[Value]) -> RtResult<Value> {
        vm::call_id(&self.compiled, &mut self.ctx, func, args)
    }

    /// Calls a void HILTI function on the compiled engine.
    pub fn run_void(&mut self, func: &str, args: &[Value]) -> RtResult<()> {
        self.run(func, args).map(|_| ())
    }

    /// Calls a HILTI function on the interpreter baseline.
    pub fn run_interpreted(&mut self, func: &str, args: &[Value]) -> RtResult<Value> {
        crate::interp::call(&self.linked, &mut self.ctx, func, args)
    }

    /// Runs all bodies of a hook (host-driven callbacks, §3.2).
    pub fn run_hook(&mut self, hook: &str, args: &[Value]) -> RtResult<()> {
        match self.hook_id(hook) {
            Some(id) => self.run_hook_id(id, args),
            None => Ok(()), // a hook with no bodies does nothing
        }
    }

    /// Resolves a hook name once, for [`Program::run_hook_id`]; `None` for
    /// a hook with no bodies.
    pub fn hook_id(&self, hook: &str) -> Option<vm::HookId> {
        vm::resolve_hook(&self.compiled, hook)
    }

    /// [`Program::run_hook`] without the per-dispatch name lookup: the
    /// entry for hosts that raise one event per packet.
    pub fn run_hook_id(&mut self, hook: vm::HookId, args: &[Value]) -> RtResult<()> {
        vm::run_hook(&self.compiled, &mut self.ctx, hook, args)
    }

    /// Creates a fiber for an incremental computation.
    pub fn fiber(&self, func: &str, args: Vec<Value>) -> Fiber {
        Fiber::new(func, args)
    }

    /// Resumes a fiber against this program.
    pub fn resume(&mut self, fiber: &mut Fiber) -> RtResult<crate::fiber::Step> {
        fiber.resume(&self.compiled, &mut self.ctx)
    }

    /// Registers a host function callable from HILTI code (`call.c`).
    pub fn register_host_fn(
        &mut self,
        name: &str,
        f: impl FnMut(&[&Value]) -> RtResult<Value> + 'static,
    ) {
        self.ctx.register_host_fn(name, f);
    }

    /// Takes accumulated `Hilti::print` output.
    pub fn take_output(&mut self) -> Vec<String> {
        self.ctx.take_output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_hello_world() {
        // Figure 3 of the paper, minus the shell.
        let mut p = Program::from_source(
            r#"
module Main
import Hilti

void run() {
    call Hilti::print "Hello, World!"
}
"#,
        )
        .unwrap();
        p.run_void("Main::run", &[]).unwrap();
        assert_eq!(p.take_output(), vec!["Hello, World!"]);
    }

    #[test]
    fn vm_and_interpreter_agree() {
        let src = r#"
module M
int<64> fib(int<64> n) {
    local bool base
    local int<64> a
    local int<64> b
    base = int.lt n 2
    if.else base ret rec
ret:
    return n
rec:
    a = int.sub n 1
    a = call fib (a)
    b = int.sub n 2
    b = call fib (b)
    a = int.add a b
    return a
}
"#;
        let mut p = Program::from_source(src).unwrap();
        let compiled = p.run("M::fib", &[Value::Int(18)]).unwrap();
        let interpreted = p.run_interpreted("M::fib", &[Value::Int(18)]).unwrap();
        assert!(compiled.equals(&interpreted));
        assert!(compiled.equals(&Value::Int(2584)));
    }

    #[test]
    fn resolved_function_ids_run_like_names() {
        let mut p = Program::from_source(
            "module M\nint<64> twice(int<64> n) {\n    n = int.mul n 2\n    return n\n}\n",
        )
        .unwrap();
        let twice = p.func_id("M::twice").unwrap();
        for n in [1, 21] {
            let by_id = p.run_id(twice, &[Value::Int(n)]).unwrap();
            assert!(by_id.equals(&p.run("M::twice", &[Value::Int(n)]).unwrap()));
            assert!(by_id.equals(&Value::Int(2 * n)));
        }
        assert_eq!(
            p.func_id("M::thrice").unwrap_err().kind,
            hilti_rt::error::ExceptionKind::ValueError
        );
    }

    /// A lookup on a classifier that was never compiled raises a catchable
    /// error, and not the IndexError that would read as "no rule matched".
    #[test]
    fn classifier_lookup_before_compile_is_catchable() {
        let src = r#"
module M
type Rule = struct { net src }
string probe(bool compile, bool get) {
    local ref<classifier<Rule, bool>> c
    local bool b
    c = new classifier<Rule, bool>
    classifier.add c (10.0.0.0/8) True
    if.else compile do_compile lookup
do_compile:
    classifier.compile c
lookup:
    try {
        try {
            if.else get do_get do_matches
do_get:
            b = classifier.get c (10.1.2.3)
            jump done
do_matches:
            b = classifier.matches c (10.1.2.3)
done:
        } catch ( ref<Hilti::IndexError> e ) {
            return "index error"
        }
    } catch ( ref<Hilti::ValueError> e2 ) {
        return "value error"
    }
    return "found"
}
"#;
        let mut p = Program::from_source(src).unwrap();
        for get in [true, false] {
            for (compile, expected) in [(false, "value error"), (true, "found")] {
                let args = [Value::Bool(compile), Value::Bool(get)];
                assert_eq!(p.run("M::probe", &args).unwrap().render(), expected);
                assert_eq!(
                    p.run_interpreted("M::probe", &args).unwrap().render(),
                    expected
                );
            }
        }
    }

    /// The deterministic execution profiler must agree across engines: the
    /// fuel-parity cost model means the VM and the interpreter retire the
    /// same instructions, attributed to the same functions and classes.
    #[test]
    fn execution_profile_matches_across_engines() {
        let src = r#"
module M
int<64> fib(int<64> n) {
    local bool base
    local int<64> a
    local int<64> b
    base = int.lt n 2
    if.else base ret rec
ret:
    return n
rec:
    a = int.sub n 1
    a = call fib (a)
    b = int.sub n 2
    b = call fib (b)
    a = int.add a b
    return a
}
"#;
        let mut p = Program::from_source(src).unwrap();
        p.context_mut().profile = true;
        p.run("M::fib", &[Value::Int(12)]).unwrap();
        let vm_profile = p.context_mut().take_exec_profile();
        p.run_interpreted("M::fib", &[Value::Int(12)]).unwrap();
        let interp_profile = p.context_mut().take_exec_profile();

        assert!(!vm_profile.is_empty());
        assert_eq!(vm_profile.total(), interp_profile.total());
        assert_eq!(vm_profile.functions(), interp_profile.functions());
        assert_eq!(vm_profile.classes(), interp_profile.classes());
        // And the profile is itself the fuel ledger: per-function units sum
        // to the fuel the run charged.
        let retired: u64 = vm_profile.functions().iter().map(|(_, n)| n).sum();
        assert_eq!(retired, vm_profile.total());
    }

    /// Profiling must not change what executes — results and retired
    /// totals agree with a non-profiled run's fuel accounting.
    #[test]
    fn execution_profile_is_deterministic() {
        let src = "module M\nint<64> f(int<64> n) {\n  local int<64> r\n  r = int.mul n 3\n  return r\n}\n";
        let run_once = || {
            let mut p = Program::from_source(src).unwrap();
            p.context_mut().profile = true;
            p.run("M::f", &[Value::Int(5)]).unwrap();
            let prof = p.context_mut().take_exec_profile();
            (prof.functions(), prof.classes(), prof.total())
        };
        assert_eq!(run_once(), run_once());
    }

    /// Engine-level telemetry: retired instructions flushed per run, and
    /// fuel exhaustion leaves a resource_limit event in the sink.
    #[test]
    fn telemetry_counts_runs_and_resource_trips() {
        use hilti_rt::telemetry::Telemetry;

        let src = "module M\nint<64> f(int<64> n) {\n  local int<64> r\n  r = int.add n 1\n  return r\n}\n";
        let mut p = Program::from_source(src).unwrap();
        let tel = Telemetry::new();
        p.context_mut().set_telemetry(&tel);
        p.run("M::f", &[Value::Int(1)]).unwrap();
        p.run_interpreted("M::f", &[Value::Int(1)]).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("engine.runs"), 2);
        // Both engines charge the same fuel, so the flushed total is even.
        let retired = snap.counter("engine.instructions_retired");
        assert!(
            retired > 0 && retired.is_multiple_of(2),
            "retired={retired}"
        );

        // Now starve a run and expect a resource_limit event.
        p.set_limits(hilti_rt::ResourceLimits {
            fuel: Some(1),
            ..Default::default()
        });
        assert!(p.run("M::f", &[Value::Int(1)]).is_err());
        let trips = tel.snapshot();
        assert_eq!(trips.events_of_kind("resource_limit"), 1);
    }

    #[test]
    fn host_function_roundtrip() {
        let mut p = Program::from_source(
            r#"
module M
int<64> f(int<64> x) {
    local int<64> y
    y = call host_double (x)
    y = int.add y 1
    return y
}
"#,
        )
        .unwrap();
        p.register_host_fn("host_double", |args| Ok(Value::Int(args[0].as_int()? * 2)));
        let v = p.run("M::f", &[Value::Int(21)]).unwrap();
        assert!(v.equals(&Value::Int(43)));
    }

    /// An instruction reads its operands where they live. A vector held in
    /// one frame slot and handed to a host function still has exactly one
    /// owner while the function runs — on the generic path (specializer
    /// off) and next to typed instructions (on) alike.
    #[test]
    fn operands_are_borrowed_not_cloned() {
        let src = r#"
module M
int<64> owners() {
    local ref<vector<int<64>>> v
    local int<64> n
    v = new vector<int<64>>
    vector.push_back v 1
    n = call strong_count (v)
    n = int.add n 0
    return n
}
"#;
        for specialize in [true, false] {
            let options = BuildOptions {
                specialize,
                ..Default::default()
            };
            let mut p = Program::from_sources_opts(&[src], OptLevel::Full, options).unwrap();
            p.register_host_fn("strong_count", |args| match args[0] {
                Value::Vector(v) => Ok(Value::Int(std::rc::Rc::strong_count(v) as i64)),
                other => panic!("expected the vector, got {other:?}"),
            });
            let owners = p.run("M::owners", &[]).unwrap();
            assert!(
                owners.equals(&Value::Int(1)),
                "specialize={specialize}: {owners:?}"
            );
        }
    }

    #[test]
    fn unknown_host_function_errors() {
        let mut p =
            Program::from_source("module M\nvoid f() {\n  call no_such_fn ()\n}\n").unwrap();
        assert!(p.run_void("M::f", &[]).is_err());
        // And the checker warned about it at build time.
        assert!(p
            .warnings()
            .iter()
            .any(|w| w.message.contains("no_such_fn")));
    }

    #[test]
    fn host_driven_hooks() {
        let mut p = Program::from_source(
            r#"
module M
hook void on_banner(string sw) {
    call Hilti::print sw
}
"#,
        )
        .unwrap();
        p.run_hook("M::on_banner", &[Value::str("OpenSSH_3.9p1")])
            .unwrap();
        p.run_hook("M::nonexistent", &[]).unwrap(); // no bodies: no-op
        assert_eq!(p.take_output(), vec!["OpenSSH_3.9p1"]);
    }

    /// A hook dispatch is an engine run like any other: its bodies'
    /// instructions reach `engine.instructions_retired`, once per dispatch,
    /// and a resolved hook id runs exactly what the name runs.
    #[test]
    fn hook_dispatch_is_counted_and_resolvable_once() {
        use hilti_rt::telemetry::Telemetry;

        let mut p = Program::from_source(
            r#"
module M
global int<64> seen = 0
hook void on_n(int<64> n) {
    seen = int.add seen n
}
hook void on_n(int<64> n) {
    seen = int.add seen 1
}
int<64> get() {
    return seen
}
"#,
        )
        .unwrap();
        let tel = Telemetry::new();
        p.context_mut().set_telemetry(&tel);
        let on_n = p.hook_id("M::on_n").expect("declared hook");
        assert!(p.hook_id("M::nonexistent").is_none());

        let before = p.context().fuel_spent();
        p.run_hook_id(on_n, &[Value::Int(5)]).unwrap();
        let by_id = p.context().fuel_spent() - before;
        p.run_hook("M::on_n", &[Value::Int(5)]).unwrap();
        let by_name = p.context().fuel_spent() - before - by_id;
        assert!(by_id > 0);
        assert_eq!(by_id, by_name);

        let snap = tel.snapshot();
        assert_eq!(snap.counter("engine.runs"), 2, "one run per dispatch");
        assert_eq!(snap.counter("engine.instructions_retired"), by_id + by_name);
        assert!(p.run("M::get", &[]).unwrap().equals(&Value::Int(12)));
    }

    #[test]
    fn optimization_reported() {
        let p = Program::from_sources(
            &["module M\nint<64> f() {\n  local int<64> x\n  x = int.add 40 2\n  return x\n}\n"],
            OptLevel::Full,
        )
        .unwrap();
        assert!(p.pass_stats().constants_folded >= 1);
        let p0 = Program::from_sources(
            &["module M\nint<64> f() {\n  local int<64> x\n  x = int.add 40 2\n  return x\n}\n"],
            OptLevel::None,
        )
        .unwrap();
        assert_eq!(p0.pass_stats().total(), 0);
    }

    #[test]
    fn multi_unit_program() {
        let mut p = Program::from_sources(
            &[
                r#"
module Lib
int<64> triple(int<64> x) {
    local int<64> y
    y = int.mul x 3
    return y
}
"#,
                r#"
module App
int<64> main(int<64> x) {
    local int<64> y
    y = call Lib::triple (x)
    return y
}
"#,
            ],
            OptLevel::Full,
        )
        .unwrap();
        let v = p.run("App::main", &[Value::Int(14)]).unwrap();
        assert!(v.equals(&Value::Int(42)));
    }

    #[test]
    fn link_time_pruning_with_roots() {
        // §7: the linker removes code unreachable from the host's
        // parameterization — unused functions vanish from the binary.
        let src = r#"
module M
void used_helper() {
}
void entry() {
    call used_helper ()
}
void never_called() {
    call also_dead ()
}
void also_dead() {
}
"#;
        let modules = vec![crate::parser::parse_module(src).unwrap()];
        let mut p = Program::build(
            modules,
            OptLevel::Full,
            BuildOptions {
                prune_roots: Some(vec!["M::entry".to_owned()]),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(p.linked().function("M::entry").is_some());
        assert!(p.linked().function("M::used_helper").is_some());
        assert!(p.linked().function("M::never_called").is_none());
        assert!(p.linked().function("M::also_dead").is_none());
        // The kept entry still runs.
        p.run_void("M::entry", &[]).unwrap();
        // The pruned function is gone from the compiled image too.
        assert!(p.run_void("M::never_called", &[]).is_err());
    }

    #[test]
    fn function_granularity_profiling() {
        // §3.3: instrumentation inserted by the compiler reports per-
        // function time through the context profiler.
        let src = r#"
module M
int<64> busy(int<64> n) {
    local int<64> i
    local int<64> acc
    local bool more
    i = assign 0
    acc = assign 0
loop:
    acc = int.add acc i
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return acc
}
int<64> outer(int<64> n) {
    local int<64> r
    r = call busy (n)
    return r
}
"#;
        let mut p = Program::from_sources_instrumented(&[src], OptLevel::Full).unwrap();
        p.run("M::outer", &[Value::Int(50_000)]).unwrap();
        let busy_ns = p.context().profile_ns("fn:M::busy");
        let outer_ns = p.context().profile_ns("fn:M::outer");
        assert!(busy_ns > 0, "busy must be charged");
        // Spans are inclusive (outer includes its callees), the standard
        // function-profiling convention; outer must cover busy.
        assert!(
            outer_ns >= busy_ns,
            "outer ({outer_ns}ns) must include busy ({busy_ns}ns)"
        );
    }

    #[test]
    fn timers_fire_through_callables() {
        let mut p = Program::from_source(
            r#"
module M
global int<64> fired = 0

void on_timer(int<64> k) {
    fired = int.add fired k
}

void schedule_and_advance() {
    local ref<timer_mgr> mgr
    local callable c
    local int<64> id
    mgr = new timer_mgr
    c = callable.bind on_timer (7)
    id = timer_mgr.schedule mgr time(10.0) c
    timer_mgr.advance mgr time(5.0)
    timer_mgr.advance mgr time(10.0)
}

int<64> get() {
    return fired
}
"#,
        )
        .unwrap();
        p.run_void("M::schedule_and_advance", &[]).unwrap();
        let v = p.run("M::get", &[]).unwrap();
        assert!(v.equals(&Value::Int(7)), "{v:?}");
    }

    const SUM_LOOP: &str = r#"
module M
int<64> sum(int<64> n) {
    local int<64> i
    local int<64> acc
    local bool more
    i = assign 0
    acc = assign 0
loop:
    acc = int.add acc i
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return acc
}
"#;

    #[test]
    fn specializer_preserves_behaviour_and_traces() {
        let mut on = Program::from_sources(&[SUM_LOOP], OptLevel::None).unwrap();
        let mut off = Program::from_sources_opts(
            &[SUM_LOOP],
            OptLevel::None,
            BuildOptions {
                specialize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(on.spec_stats().total() > 0, "{:?}", on.spec_stats());
        assert_eq!(off.spec_stats().total(), 0);

        on.context_mut().trace = true;
        off.context_mut().trace = true;
        let v_on = on.run("M::sum", &[Value::Int(10)]).unwrap();
        let v_off = off.run("M::sum", &[Value::Int(10)]).unwrap();
        assert!(v_on.equals(&v_off));
        assert!(v_on.equals(&Value::Int(45)));
        // Tracing parity: the specialized VM's trace is line-for-line
        // identical to the unspecialized one (fused instructions emit
        // their two constituent lines).
        assert_eq!(
            on.context_mut().take_trace(),
            off.context_mut().take_trace()
        );
    }

    #[test]
    fn instruction_mix_histogram() {
        let mut p = Program::from_source(SUM_LOOP).unwrap();
        // Off by default.
        p.run("M::sum", &[Value::Int(50)]).unwrap();
        assert!(p.context_mut().take_instr_mix().is_empty());

        p.context_mut().stats = true;
        p.run("M::sum", &[Value::Int(50)]).unwrap();
        let mix = p.context_mut().take_instr_mix();
        let total: u64 = mix.iter().map(|(_, c)| *c).sum();
        assert!(total > 100, "{mix:?}");
        // The hot loop runs on the specialized tier.
        assert!(
            mix.iter().any(|(n, c)| n.starts_with("spec.") && *c >= 50),
            "{mix:?}"
        );
        // Sorted by descending count, and drained by take.
        assert!(mix.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(p.context_mut().take_instr_mix().is_empty());
    }

    /// A statically typed slot read before initialization holds Null. Each
    /// typed instruction — one case per typed row of `crate::ops`, plus the
    /// fused `BrIf`, `BrBool` and the fused `MatchToken` — must then raise
    /// what the generic path raises: the interpreter, the VM with the
    /// specializer and the VM without it catch the same exception kind and
    /// message, with the same fuel left, and the two VMs trace the same
    /// lines. Beside one case per row, the operand shapes: a typed global
    /// holding another kind, a row without a target, and a three-operand
    /// row whose third operand is mistyped. The iterator cases also pin `iterator.incr`'s error order
    /// (iterator before count) and a deref past a frozen end; the token
    /// cases a match at an iterator before the trimmed base of its input.
    #[test]
    fn specialized_type_error_is_catchable() {
        const TEMPLATE: &str = r#"
module M
global int<64> gi
global ref<set<any>> gs
string f() {
    local int<64> u
    local int<64> y
    local bool b
    local bool c
    local double x
    local string z
    local iterator<bytes> it
    local iterator<bytes> j
    local regexp r
    local any t
    local ref<bytes> d
    local addr a
    local net n
    local port p
    local time tm
    local interval iv
    local ref<list<any>> l
    local ref<vector<any>> v
    local ref<set<any>> s
    local ref<map<any, any>> m
    local string kind
    local string msg
    try {
        BODY
    } catch ( exception e ) {
        kind = exception.kind e
        msg = exception.message e
        msg = string.fmt "{}: {}" kind msg
        return msg
    }
    return "no trap"
}
"#;
        use crate::ir::{Kind, Opcode};
        const TYPE_ERROR: &str = "Hilti::TypeError: ";
        let mut rows: Vec<(String, String, &str)> = Vec::new();
        // Every typed row, its operands Null slots of their kinds (an int,
        // bool or any past the first a constant), so the first is
        // reported. An `any` operand reads Null as a value, from an int slot
        // so that the row still runs typed.
        let slot = |k: &Kind| match k {
            Kind::Int => ("u", "Hilti::TypeError: expected int, got null"),
            Kind::Bool => ("c", "Hilti::TypeError: expected bool, got null"),
            Kind::Double => ("x", "Hilti::TypeError: expected double, got null"),
            Kind::String => ("z", "Hilti::TypeError: expected string, got null"),
            Kind::Bytes => ("d", "Hilti::TypeError: expected bytes, got null"),
            Kind::BytesIter => ("it", "Hilti::TypeError: expected iterator<bytes>, got null"),
            Kind::Addr => ("a", "Hilti::TypeError: expected addr, got null"),
            Kind::Net => ("n", "Hilti::TypeError: expected net, got null"),
            Kind::Port => ("p", "Hilti::TypeError: expected port, got null"),
            Kind::Time => ("tm", "Hilti::TypeError: expected time, got null"),
            Kind::Interval => ("iv", "Hilti::TypeError: expected interval, got null"),
            Kind::Regexp => ("r", "Hilti::TypeError: expected regexp, got null"),
            Kind::List => ("l", "Hilti::TypeError: expected list, got null"),
            Kind::Vector => ("v", "Hilti::TypeError: expected vector, got null"),
            Kind::Set => ("s", "Hilti::TypeError: expected set, got null"),
            Kind::Map => ("m", "Hilti::TypeError: expected map, got null"),
            Kind::Any => ("u", "no trap"),
            Kind::Void => panic!("no operand is void"),
        };
        let typed = crate::ir::GROUPS
            .iter()
            .flat_map(|(_, ms)| ms.iter())
            .filter_map(|m| Opcode::from_mnemonic(m))
            .filter(|op| crate::ops::has_typed_form(*op));
        for op in typed {
            let (params, result) = op.signature().unwrap();
            let rest = params[1..].iter().map(|p| match p {
                Kind::Int | Kind::Any => "1",
                Kind::Bool => "True",
                other => slot(other).0,
            });
            let operands: Vec<&str> = std::iter::once(slot(&params[0]).0).chain(rest).collect();
            let target = match result {
                Kind::Int => "y",
                Kind::Bool => "b",
                Kind::BytesIter => "j",
                Kind::Void | Kind::Any => "t",
                other => slot(&other).0,
            };
            let body = format!("{target} = {} {}", op.mnemonic(), operands.join(" "));
            rows.push((body, op.spec_name().into(), slot(&params[0]).1));
        }
        // A global declared with the row's kind but holding another value.
        rows.push((
            "y = int.add gi 1".into(),
            "spec.int.add".into(),
            "Hilti::TypeError: expected int, got null",
        ));
        rows.push((
            "b = set.exists gs 1".into(),
            "spec.set.exists".into(),
            "Hilti::TypeError: expected set, got null",
        ));
        // Rows without a target: a Null operand, and a pop from an empty
        // list.
        rows.push((
            "set.insert s 1".into(),
            "spec.set.insert".into(),
            "Hilti::TypeError: expected set, got null",
        ));
        rows.push((
            "l = new list<any>\n        list.pop_front l".into(),
            "spec.list.pop_front".into(),
            "Hilti::IndexError: pop from empty list",
        ));
        // A three-operand row whose third operand is mistyped raises before
        // it touches the set its first names.
        rows.push((
            "s = new set<any>\n        set.timeout s 1 iv".into(),
            "spec.set.timeout".into(),
            "Hilti::TypeError: expected interval, got null",
        ));
        let branch = "if.else BOOL yes no\nyes:\n        y = assign 1\nno:";
        let fused = format!("b = int.lt u 1\n        {}", branch.replace("BOOL", "b"));
        rows.push((fused, "spec.br_if".into(), TYPE_ERROR));
        rows.push((
            branch.replace("BOOL", "c"),
            "spec.br.bool".into(),
            TYPE_ERROR,
        ));
        let null_iter = "Hilti::TypeError: expected iterator<bytes>, got null";
        // Iterator and count both Null: the iterator is reported.
        let (incr, deref) = ("spec.iterator.incr", "spec.iterator.deref");
        rows.push(("j = iterator.incr it u".into(), incr.into(), null_iter));
        let begin = "it = bytes.begin b\"ab\"\n        ";
        rows.push((
            format!("{begin}it = iterator.incr it u"),
            incr.into(),
            "Hilti::TypeError: expected int, got null",
        ));
        rows.push((
            format!("{begin}j = iterator.incr it 2\n        y = iterator.deref j"),
            deref.into(),
            "Hilti::IndexError: offset 2 past frozen end 2",
        ));
        let token = "t = regexp.match_token r it\n        y = tuple.get t 0\n        \
                     j = tuple.get t 1";
        let re = "r = regexp.new /a/\n        ";
        rows.push((
            format!("{begin}{token}"),
            "spec.regexp.token".into(),
            "Hilti::TypeError: expected regexp, got null",
        ));
        rows.push((
            format!("{re}{token}"),
            "spec.regexp.token".into(),
            null_iter,
        ));
        rows.push((
            format!(
                "{re}d = bytes.copy b\"abc\"\n        it = bytes.begin d\n        \
                 j = iterator.incr it 2\n        bytes.trim d j\n        {token}"
            ),
            "spec.regexp.token".into(),
            "Hilti::IndexError: offset before trimmed base",
        ));

        for (body, bucket, raised) in rows {
            let src = TEMPLATE.replace("BODY", &body);
            let build = |specialize| {
                let options = BuildOptions {
                    specialize,
                    ..Default::default()
                };
                Program::from_sources_opts(&[&src], OptLevel::None, options).unwrap()
            };
            let observe = |mut p: Program, interp: bool| {
                p.set_limits(hilti_rt::ResourceLimits {
                    fuel: Some(1_000),
                    ..Default::default()
                });
                let v = match interp {
                    true => p.run_interpreted("M::f", &[]),
                    false => p.run("M::f", &[]),
                };
                (v.unwrap().render(), p.context().fuel_remaining())
            };
            let on = build(true);
            let code = &on.compiled().func("M::f").unwrap().code;
            assert!(
                code.iter().any(|i| i.stat_name() == bucket),
                "{bucket} not emitted for {body}: {code:#?}"
            );
            let oracle = observe(build(false), true);
            assert!(oracle.0.starts_with(raised), "{body}: {oracle:?}");
            assert_eq!(observe(on, false), oracle, "{body}: specializer on");
            assert_eq!(
                observe(build(false), false),
                oracle,
                "{body}: specializer off"
            );
            let traced = |specialize| {
                let mut p = build(specialize);
                p.context_mut().trace = true;
                p.run("M::f", &[]).unwrap();
                p.context_mut().take_trace()
            };
            assert_eq!(traced(true), traced(false), "{body}: traces");
        }
    }

    /// A typed `iterator.deref` at the frontier of open input suspends its fiber
    /// as the generic op does: the fast loop leaves it uncharged, the
    /// dispatch path charges, traces and suspends at it, and the resume
    /// after an append retries it. Both VMs agree on fuel, trace and result
    /// at each step, traced or not. The interpreter, which has no fibers,
    /// agrees up to the block (it raises `WouldBlock` after the same
    /// charges) and on the complete input, where the fiber pays one unit
    /// more: the blocked deref, charged at its suspension and at its retry.
    #[test]
    fn specialized_deref_suspends_at_open_frontier() {
        use crate::fiber::Step;
        const SRC: &str = r#"
module M
int<64> read_two(ref<bytes> data) {
    local iterator<bytes> it
    local int<64> a
    local int<64> b
    it = bytes.begin data
    a = iterator.deref it
    it = iterator.incr it 1
    b = iterator.deref it
    a = int.shl a 8
    a = int.or a b
    return a
}
"#;
        const FUEL: u64 = 1_000;
        let build = |specialize| {
            let options = BuildOptions {
                specialize,
                ..Default::default()
            };
            let mut p = Program::from_sources_opts(&[SRC], OptLevel::None, options).unwrap();
            p.set_limits(hilti_rt::ResourceLimits {
                fuel: Some(FUEL),
                ..Default::default()
            });
            p
        };
        let spent = |p: &Program| FUEL - p.context().fuel_remaining().unwrap();
        let input = |bytes: &[u8]| {
            let data = hilti_rt::Bytes::new();
            data.append(bytes).unwrap();
            data
        };
        // (fuel at the block, fuel in total, result, trace)
        let fiber_run = |specialize: bool, trace: bool| {
            let mut p = build(specialize);
            p.context_mut().trace = trace;
            let data = input(&[0x01]);
            let mut fiber = p.fiber("M::read_two", vec![Value::Bytes(data.clone())]);
            assert!(matches!(p.resume(&mut fiber).unwrap(), Step::Suspended));
            let blocked = spent(&p);
            data.append(&[0x02]).unwrap();
            let Step::Finished(v) = p.resume(&mut fiber).unwrap() else {
                panic!("resumed fiber must finish");
            };
            (blocked, spent(&p), v.render(), p.context_mut().take_trace())
        };
        let typed = build(true);
        let code = &typed.compiled().func("M::read_two").unwrap().code;
        assert!(code.iter().any(|i| i.stat_name() == "spec.iterator.deref"));
        let on = fiber_run(true, false);
        assert_eq!(on, fiber_run(false, false), "untraced");
        assert_eq!(on.2, "258");
        let traced = fiber_run(true, true);
        assert_eq!(traced, fiber_run(false, true), "traced");
        assert_eq!((traced.0, traced.1), (on.0, on.1));
        // Traced at its suspension and again at its retry.
        let n = traced.3.len();
        assert!(
            traced.3[n - 5].ends_with("s3 = iterator.deref s1")
                && traced.3[n - 5] == traced.3[n - 4],
            "{:#?}",
            traced.3
        );

        let mut oracle = build(false);
        let err = oracle
            .run_interpreted("M::read_two", &[Value::Bytes(input(&[0x01]))])
            .unwrap_err();
        assert_eq!(err.kind, hilti_rt::error::ExceptionKind::WouldBlock);
        assert_eq!(spent(&oracle), on.0, "fuel at the block");
        let mut oracle = build(false);
        let whole = input(&[0x01, 0x02]);
        whole.freeze();
        let v = oracle
            .run_interpreted("M::read_two", &[Value::Bytes(whole)])
            .unwrap();
        assert_eq!(v.render(), on.2);
        assert_eq!(spent(&oracle) + 1, on.1, "fuel in total");
    }

    /// A typed `iterator.unpack_*` at the frontier of open input suspends
    /// its fiber, and the resume after an append retries it: wherever the
    /// input is split, and fed one byte at a time, the fiber yields the
    /// value the whole input gives, on both VMs, at the same fuel.
    #[test]
    fn typed_unpack_suspends_at_open_frontier() {
        use crate::fiber::Step;
        const SRC: &str = r#"
module M
int<64> read(ref<bytes> data) {
    local iterator<bytes> it
    local int<64> a
    local int<64> b
    it = bytes.begin data
    a = iterator.unpack_be it 4
    it = iterator.incr it 4
    b = iterator.unpack_le it 2
    a = int.shl a 16
    a = int.or a b
    return a
}
"#;
        const WIRE: [u8; 6] = [0x81, 0x02, 0x03, 0x04, 0x05, 0x86];
        let build = |specialize| {
            let options = BuildOptions {
                specialize,
                ..Default::default()
            };
            Program::from_sources_opts(&[SRC], OptLevel::None, options).unwrap()
        };
        let typed = build(true);
        let code = &typed.compiled().func("M::read").unwrap().code;
        for bucket in ["spec.iterator.unpack_be", "spec.iterator.unpack_le"] {
            assert!(code.iter().any(|i| i.stat_name() == bucket), "{code:#?}");
        }
        // Feeds `chunks` one resume each; (suspensions, fuel, result).
        let fiber_run = |specialize: bool, chunks: &[&[u8]]| {
            let mut p = build(specialize);
            let data = hilti_rt::Bytes::new();
            let mut fiber = p.fiber("M::read", vec![Value::Bytes(data.clone())]);
            let mut suspended = 0;
            for chunk in chunks {
                data.append(chunk).unwrap();
                match p.resume(&mut fiber).unwrap() {
                    Step::Suspended => suspended += 1,
                    Step::Finished(v) => return (suspended, p.context().fuel_spent(), v.render()),
                }
            }
            panic!("{chunks:?}: the whole input must finish the fiber");
        };
        let want = ((0x8102_0304_i64 << 16) | 0x8605).to_string();
        let bytewise: Vec<&[u8]> = WIRE.chunks(1).collect();
        for k in 0..=WIRE.len() {
            let split = [&WIRE[..k], &WIRE[k..]];
            let on = fiber_run(true, &split);
            assert_eq!(on, fiber_run(false, &split), "split at {k}");
            assert_eq!(on.2, want, "split at {k}");
            assert_eq!(on.0, usize::from(k < WIRE.len()), "split at {k}");
        }
        let on = fiber_run(true, &bytewise);
        assert_eq!(on, fiber_run(false, &bytewise));
        assert_eq!((on.0, on.2), (WIRE.len() - 1, want));
    }

    /// A fused `MatchToken` whose token is split across two chunks of open
    /// input suspends its fiber as the unfused match does: the fast loop
    /// leaves it uncharged, the dispatch path charges the match alone,
    /// traces it and suspends at it, and the resume after an append retries
    /// it and runs its two reads. Both VMs agree on fuel, trace
    /// and result at each step, traced or not; the interpreter agrees up to
    /// the block and on the complete input, where the fiber pays one unit
    /// more for the retried match.
    #[test]
    fn specialized_token_suspends_at_open_frontier() {
        use crate::fiber::Step;
        const SRC: &str = r#"
module M
int<64> token(ref<bytes> data) {
    local regexp re
    local any t
    local int<64> id
    local iterator<bytes> it
    local iterator<bytes> end
    local any s
    local int<64> n
    re = regexp.new /POST/ /[A-Z]+/
    it = bytes.begin data
    t = regexp.match_token re it
    id = tuple.get t 0
    end = tuple.get t 1
    s = bytes.sub it end
    n = bytes.length s
    id = int.mul id 100
    id = int.add id n
    return id
}
"#;
        const FUEL: u64 = 1_000;
        let build = |specialize| {
            let options = BuildOptions {
                specialize,
                ..Default::default()
            };
            let mut p = Program::from_sources_opts(&[SRC], OptLevel::None, options).unwrap();
            p.set_limits(hilti_rt::ResourceLimits {
                fuel: Some(FUEL),
                ..Default::default()
            });
            p
        };
        let spent = |p: &Program| FUEL - p.context().fuel_remaining().unwrap();
        let input = |bytes: &[u8]| {
            let data = hilti_rt::Bytes::new();
            data.append(bytes).unwrap();
            data
        };
        // (fuel at the block, fuel in total, result, trace)
        let fiber_run = |specialize: bool, trace: bool| {
            let mut p = build(specialize);
            p.context_mut().trace = trace;
            let data = input(b"GE");
            let mut fiber = p.fiber("M::token", vec![Value::Bytes(data.clone())]);
            assert!(matches!(p.resume(&mut fiber).unwrap(), Step::Suspended));
            let blocked = spent(&p);
            data.append(b"T /").unwrap();
            let Step::Finished(v) = p.resume(&mut fiber).unwrap() else {
                panic!("resumed fiber must finish");
            };
            (blocked, spent(&p), v.render(), p.context_mut().take_trace())
        };
        let typed = build(true);
        let code = &typed.compiled().func("M::token").unwrap().code;
        assert!(code.iter().any(|i| i.stat_name() == "spec.regexp.token"));
        let on = fiber_run(true, false);
        assert_eq!(on, fiber_run(false, false), "untraced");
        assert_eq!(on.2, "103");
        let traced = fiber_run(true, true);
        assert_eq!(traced, fiber_run(false, true), "traced");
        assert_eq!((traced.0, traced.1), (on.0, on.1));
        // Traced at its suspension and again at its retry, then its reads.
        let at = traced
            .3
            .iter()
            .position(|l| l.ends_with("s2 = regexp.match_token s1 s4"))
            .expect("match traced");
        assert_eq!(traced.3[at], traced.3[at + 1], "{:#?}", traced.3);
        assert!(
            traced.3[at + 2].ends_with("s3 = tuple.get s2 0")
                && traced.3[at + 3].ends_with("s5 = tuple.get s2 1"),
            "{:#?}",
            traced.3
        );

        let mut oracle = build(false);
        let err = oracle
            .run_interpreted("M::token", &[Value::Bytes(input(b"GE"))])
            .unwrap_err();
        assert_eq!(err.kind, hilti_rt::error::ExceptionKind::WouldBlock);
        assert_eq!(spent(&oracle), on.0, "fuel at the block");
        let mut oracle = build(false);
        let whole = input(b"GET /");
        whole.freeze();
        let v = oracle
            .run_interpreted("M::token", &[Value::Bytes(whole)])
            .unwrap();
        assert_eq!(v.render(), on.2);
        assert_eq!(spent(&oracle) + 1, on.1, "fuel in total");
    }

    #[test]
    fn execution_trace_capture() {
        let mut p = Program::from_source(
            "module M\nint<64> twice(int<64> x) {\n    x = int.add x x\n    return x\n}\n",
        )
        .unwrap();

        // Off by default: nothing is recorded.
        p.run("M::twice", &[Value::Int(3)]).unwrap();
        assert!(p.context_mut().take_trace().is_empty());

        // On: one line per executed instruction, engine-tagged by function.
        p.context_mut().trace = true;
        p.run("M::twice", &[Value::Int(3)]).unwrap();
        let vm_trace = p.context_mut().take_trace();
        assert!(!vm_trace.is_empty());
        assert!(
            vm_trace.iter().all(|l| l.starts_with("M::twice@")),
            "{vm_trace:?}"
        );
        // take_trace drains.
        assert!(p.context_mut().take_trace().is_empty());

        // The interpreter records through the same channel.
        p.run_interpreted("M::twice", &[Value::Int(3)]).unwrap();
        let interp_trace = p.context_mut().take_trace();
        assert!(!interp_trace.is_empty());
        assert!(
            interp_trace.iter().all(|l| l.starts_with("M::twice::")),
            "{interp_trace:?}"
        );
    }
}
