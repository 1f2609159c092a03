//! The bytecode virtual machine — the "compiled" execution engine.
//!
//! The VM executes [`crate::bytecode::CompiledProgram`]s over an explicit,
//! heap-allocated frame stack. That explicit stack is what makes fibers
//! cheap (§3.2, §5 "Runtime Model"): suspending a computation detaches its
//! frame vector into a [`crate::fiber::Fiber`]; resuming re-attaches it and
//! re-executes the instruction that blocked. A `bytes` operation that hits
//! the frontier of un-frozen input raises `Hilti::WouldBlock`, which in
//! resumable mode suspends instead of unwinding — the mechanism behind
//! BinPAC++'s transparent incremental parsing.
//!
//! Exception handling follows §3.2: `exception.push_handler` installs a
//! (kind, handler-pc, binder) record in the current frame; a raised error
//! dispatches to the innermost matching handler, or unwinds frames until
//! one matches, or propagates out of the program.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use hilti_rt::error::{ExceptionKind, RtError, RtResult};
use hilti_rt::file::LogFile;
use hilti_rt::limits::{AllocBudget, ResourceLimits};
use hilti_rt::overlay::OverlayType;
use hilti_rt::telemetry::{EventSink, Telemetry};
use hilti_rt::time::Time;

use crate::bytecode::{CFunc, CInstr, COperand, CompiledProgram, IcEntry, IcSite};
use crate::ir::Opcode;
use crate::ops::{self, ExecCtx, ExpiringHandle};
use crate::value::{CallableVal, StructLayout, Value};

/// A host-registered function (the inverse direction of the C stubs:
/// HILTI code calling into the application, §3.4). Arguments are borrowed
/// from the caller's frame, the globals or the instruction's constants.
pub type HostFn = Box<dyn FnMut(&[&Value]) -> RtResult<Value>>;

/// The host-function id of the `Hilti::print` builtin: lowering interns it
/// first in every program, and no registration can take its place.
pub(crate) const HOST_PRINT: u32 = 0;

/// Per-virtual-thread execution context: thread-local globals, output,
/// registered state containers, files, host functions, profiler (§5
/// "Runtime Model": "with each virtual thread HILTI's runtime associates a
/// context object that stores all its relevant state").
pub struct Context {
    /// The thread-local global array, laid out by the linker.
    pub globals: Vec<Value>,
    /// What the shared instruction semantics work against. Apart from
    /// `globals` so that an instruction can read its operands in place —
    /// `&Value`s into the global array — while `ops::eval` holds this
    /// mutably.
    pub env: Env,
    /// Host functions by id. Ids below the program's `host_names.len()` are
    /// the program's own (a `call.c` site carries one); names the program
    /// never calls directly get later ids, reachable by name only.
    host_fns: Vec<Option<HostFn>>,
    host_index: HashMap<String, u32>,
    /// When set, every executed instruction is appended to `trace_log`
    /// (`hiltic run --trace`; the paper's §3.1 debugging support).
    pub trace: bool,
    /// Captured execution trace, one rendered instruction per line.
    /// Capped at [`TRACE_CAP`] lines to bound memory on runaway programs.
    pub trace_log: Vec<String>,
    /// When set, the VM counts executed instructions per mnemonic
    /// (`hiltic run --stats`) — the data that drives which instructions
    /// deserve specialized variants.
    pub stats: bool,
    instr_mix: HashMap<&'static str, u64>,
    /// When set, both engines attribute every retired instruction (and its
    /// fuel) to the executing function and its opcode class
    /// (`hiltic run --profile`). Counting-based and deterministic, so
    /// interpreter and VM profiles are directly comparable. Disables the
    /// typed fast loop so every instruction is observed.
    pub profile: bool,
    exec_profile: ExecProfile,
    /// Total fuel units successfully charged over this context's lifetime.
    /// With the uniform cost model (one unit per retired abstract
    /// instruction) this *is* the retired-instruction count; entry points
    /// read it as before/after deltas.
    fuel_spent: u64,
    /// Attached telemetry: run counters flushed at engine entry points
    /// plus the event sink for resource-limit and fiber events.
    telemetry: Option<RunTelemetry>,
    /// Resource-governance configuration (fuel, heap, call depth). The
    /// enforcement state lives in the fields below so the dispatch loop
    /// never re-derives it per instruction.
    limits: ResourceLimits,
    /// Remaining execution fuel; `u64::MAX` means "unlimited" (the
    /// decrement still happens but can never reach zero in practice).
    pub(crate) fuel_left: u64,
    /// Deterministic fault injection: when the countdown hits zero the
    /// next fuel charge raises `fault_error` instead. `u64::MAX` = disarmed.
    fault_countdown: u64,
    fault_error: Option<RtError>,
    /// Delivery-watchdog deadline (wall clock); `None` = disarmed. Unlike
    /// fuel this bounds *time*, so a wedged state that burns cheap
    /// instructions forever still trips `Hilti::ResourceExhausted`.
    watchdog_at: Option<std::time::Instant>,
    /// Fuel units charged since the last watchdog clock read: the clock is
    /// consulted only every [`WATCHDOG_CHECK_UNITS`] units, keeping the
    /// disarmed hot path to one predictable branch.
    watchdog_acc: u64,
    /// Retired-instruction (fuel-unit) attribution: one at a time on the
    /// dispatch path, or in the typed fast loop. Always-on — the fast loop
    /// adds its count in one batch on exit — and surfaced by `hiltic run
    /// --stats`; kept out of telemetry snapshots.
    tier_retired: TierMix,
    /// The free list of frame slot vectors, owned by the outermost [`run`]
    /// on this context. Held here so an entry per event or per packet
    /// reuses them; `run` takes it for its duration, so a nested run (hook,
    /// fired timer) starts with an empty one.
    frame_pool: Vec<Vec<Value>>,
    /// The (empty) frame stack of the last finished entry, parked for the
    /// next one the same way.
    frame_stack: Vec<Frame>,
}

/// The execution environment of one [`Context`]: every runtime service an
/// instruction's semantics may use besides its operands — output, global
/// time, expiring containers, files, input sources, type tables, the thread
/// runtime's mailbox, profiler spans. This is the [`ExecCtx`] both engines
/// hand to `ops::eval`.
pub struct Env {
    /// Program output (`Hilti::print`).
    pub out: Vec<String>,
    global_time: Time,
    expiring: Vec<ExpiringHandle>,
    files: HashMap<String, LogFile>,
    iosrc_factories: HashMap<String, Box<dyn FnMut() -> RtResult<Value>>>,
    /// name → (accumulated ns, open span start).
    profiler: HashMap<String, (u64, Option<Instant>)>,
    /// Named `profiler.count` counters, registry-backed so repeated counts
    /// of the same name never allocate.
    counters: hilti_rt::telemetry::Registry,
    /// The virtual thread this context belongs to.
    pub thread_id: u64,
    /// thread.schedule requests, drained by the thread runtime.
    pub scheduled: Vec<(u64, CallableVal)>,
    /// Struct/overlay tables shared with the program (`Rc`: spawning a
    /// virtual-thread context must not deep-copy whole type tables).
    pub struct_layouts: Rc<HashMap<String, StructLayout>>,
    pub overlays: Rc<HashMap<String, Rc<OverlayType>>>,
    /// Shared heap budget handed to runtime values created by this
    /// context (bytes, sets, maps). `None` when no limit is configured.
    heap: Option<AllocBudget>,
    /// Timer callables that came due in the instruction just evaluated;
    /// the engine drains and invokes them before the next instruction.
    pub(crate) fired: Vec<CallableVal>,
}

/// Where instructions retired; see [`Context::tier_mix`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierMix {
    /// Retired one at a time on the dispatch path (every instruction, in
    /// the observational modes).
    pub generic: u64,
    /// Retired in the typed fast loop.
    pub specialized: u64,
}

impl TierMix {
    pub fn total(&self) -> u64 {
        self.generic + self.specialized
    }
}

/// Upper bound on captured trace lines; tracing silently stops there.
pub const TRACE_CAP: usize = 1_000_000;

/// The message of the `Hilti::ResourceExhausted` a delivery-deadline
/// watchdog trip raises (see [`Context::arm_deadline_after_ms`]).
pub const DEADLINE_EXCEEDED: &str = "delivery deadline exceeded";

/// Fuel units between wall-clock reads when a watchdog deadline is armed.
/// Also caps the typed fast loop's local fuel while armed, so the
/// inner loop always returns to a generic charge point (and its clock
/// check) within this many units — bounding detection latency to a few
/// thousand instructions even for programs the fast loop could otherwise
/// spin in forever.
pub(crate) const WATCHDOG_CHECK_UNITS: u64 = 4096;

impl Context {
    /// Creates a context for `prog`, with globals initialized.
    pub fn for_program(prog: &CompiledProgram) -> Context {
        let globals = prog
            .global_inits
            .iter()
            .map(|init| init.clone().unwrap_or(Value::Null))
            .collect();
        Context {
            globals,
            env: Env {
                out: Vec::new(),
                global_time: Time::ZERO,
                expiring: Vec::new(),
                files: HashMap::new(),
                iosrc_factories: HashMap::new(),
                profiler: HashMap::new(),
                counters: hilti_rt::telemetry::Registry::new(),
                thread_id: 0,
                scheduled: Vec::new(),
                struct_layouts: Rc::clone(&prog.struct_layouts),
                overlays: Rc::clone(&prog.overlays),
                heap: None,
                fired: Vec::new(),
            },
            host_fns: prog.host_names.iter().map(|_| None).collect(),
            host_index: prog
                .host_names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), i as u32))
                .collect(),
            trace: false,
            trace_log: Vec::new(),
            stats: false,
            instr_mix: HashMap::new(),
            profile: false,
            exec_profile: ExecProfile::default(),
            fuel_spent: 0,
            telemetry: None,
            limits: ResourceLimits::default(),
            fuel_left: u64::MAX,
            fault_countdown: u64::MAX,
            fault_error: None,
            watchdog_at: None,
            watchdog_acc: 0,
            tier_retired: TierMix::default(),
            frame_pool: Vec::new(),
            frame_stack: Vec::new(),
        }
    }

    /// How many instructions retired on the dispatch path and in the typed
    /// fast loop over this context's lifetime (`hiltic run --stats`).
    pub fn tier_mix(&self) -> TierMix {
        self.tier_retired
    }

    /// Installs resource limits, resetting the fuel meter and creating a
    /// fresh heap budget. Call before `run`; limits apply from then on.
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.fuel_left = limits.fuel.unwrap_or(u64::MAX);
        self.env.heap = limits.max_heap_bytes.map(AllocBudget::with_limit);
        self.arm_deadline_after_ms(limits.deadline_ms);
        self.limits = limits;
    }

    /// Arms (or clears) the wall-clock watchdog without touching the fuel
    /// meter or heap budget: execution must reach its next exit within
    /// `ms` milliseconds from now or trip `Hilti::ResourceExhausted` at a
    /// fuel-charge point. Host applications re-arm this per delivery so a
    /// wedged parse bounds only its own delivery, never the pipeline.
    pub fn arm_deadline_after_ms(&mut self, ms: Option<u64>) {
        self.watchdog_at =
            ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        // Pre-load the accumulator so the first charge after arming reads
        // the clock: a zero deadline trips deterministically at the first
        // charge point, which the chaos tests rely on.
        self.watchdog_acc = WATCHDOG_CHECK_UNITS;
    }

    /// Whether a delivery deadline is armed (caps the typed fast loop's
    /// run length so charge points stay frequent).
    #[inline]
    pub(crate) fn deadline_armed(&self) -> bool {
        self.watchdog_at.is_some()
    }

    /// The configured resource limits.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// Remaining fuel, or `None` when execution is unmetered.
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.limits.fuel.map(|_| self.fuel_left)
    }

    /// The heap budget values created by this context charge against.
    pub fn heap_budget(&self) -> Option<&AllocBudget> {
        self.env.heap.as_ref()
    }

    /// Arms deterministic fault injection: after `n` further fuel charges
    /// the engine raises `err` at the next charge point. Used by the chaos
    /// harness to exercise mid-execution failure paths reproducibly.
    pub fn inject_fault_after(&mut self, n: u64, err: RtError) {
        self.fault_countdown = n;
        self.fault_error = Some(err);
    }

    /// Disarms a pending fault injection (a no-op when none is armed or
    /// the armed one has fired).
    pub fn disarm_fault(&mut self) {
        self.fault_countdown = u64::MAX;
        self.fault_error = None;
    }

    /// Whether a fault injection is armed (disables the typed fast loop
    /// so the trigger point is deterministic).
    #[inline]
    pub(crate) fn fault_armed(&self) -> bool {
        self.fault_countdown != u64::MAX
    }

    /// Charges `cost` units of fuel at a charge point, honouring any armed
    /// fault injection, then as [`Context::spend_fuel`].
    #[inline]
    pub(crate) fn charge_fuel(&mut self, cost: u64) -> RtResult<()> {
        if self.fault_countdown != u64::MAX {
            if self.fault_countdown == 0 {
                self.fault_countdown = u64::MAX;
                let err = self
                    .fault_error
                    .take()
                    .unwrap_or_else(|| RtError::runtime("injected fault"));
                return Err(err);
            }
            self.fault_countdown -= 1;
        }
        self.spend_fuel(cost)
    }

    /// Spends `cost` units of fuel, raising `Hilti::ResourceExhausted`
    /// when the meter runs dry (the meter pins to zero, so a handler that
    /// catches the exception cannot outrun the limit).
    #[inline]
    fn spend_fuel(&mut self, cost: u64) -> RtResult<()> {
        if self.fuel_left < cost {
            self.fuel_left = 0;
            if let Some(t) = &self.telemetry {
                t.sink
                    .emit("resource_limit", vec![("resource", "fuel".into())]);
            }
            return Err(RtError::resource_exhausted("execution fuel exhausted"));
        }
        self.fuel_left -= cost;
        self.fuel_spent = self.fuel_spent.wrapping_add(cost);
        if let Some(at) = self.watchdog_at {
            self.watchdog_acc = self.watchdog_acc.saturating_add(cost);
            if self.watchdog_acc >= WATCHDOG_CHECK_UNITS {
                self.watchdog_acc = 0;
                if std::time::Instant::now() >= at {
                    // Stays armed: a handler that catches the exception
                    // gets at most one more check window, not a reprieve.
                    if let Some(t) = &self.telemetry {
                        t.sink
                            .emit("resource_limit", vec![("resource", "deadline".into())]);
                    }
                    return Err(RtError::resource_exhausted(DEADLINE_EXCEEDED));
                }
            }
        }
        Ok(())
    }

    /// Total fuel units charged so far — the retired-instruction count.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel_spent
    }

    /// Attaches a telemetry bundle: the engines intern their run counters
    /// once here and flush retired-instruction deltas at every entry-point
    /// exit; resource-limit trips and fiber suspend/resume go to the sink.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = Some(RunTelemetry {
            instructions: telemetry.counter("engine.instructions_retired"),
            runs: telemetry.counter("engine.runs"),
            sink: telemetry.sink.clone(),
        });
    }

    /// Detaches telemetry; the engines stop reporting.
    pub fn clear_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Credits the instructions retired since `spent_before` to the
    /// attached telemetry, if any. Called once per engine entry point.
    pub(crate) fn telemetry_flush_run(&mut self, spent_before: u64) {
        if let Some(t) = &self.telemetry {
            t.instructions
                .add(self.fuel_spent.wrapping_sub(spent_before));
            t.runs.inc();
        }
    }

    /// The attached event sink, if telemetry is on.
    pub(crate) fn telemetry_sink(&self) -> Option<&EventSink> {
        self.telemetry.as_ref().map(|t| &t.sink)
    }

    /// The execution profile collected while [`Context::profile`] was set.
    pub fn exec_profile(&self) -> &ExecProfile {
        &self.exec_profile
    }

    /// Takes and resets the execution profile.
    pub fn take_exec_profile(&mut self) -> ExecProfile {
        std::mem::take(&mut self.exec_profile)
    }

    #[inline]
    pub(crate) fn profile_record(&mut self, func: &str, class: &'static str, units: u64) {
        self.exec_profile.record(func, class, units);
    }

    /// Takes the accumulated execution trace (see [`Context::trace`]).
    pub fn take_trace(&mut self) -> Vec<String> {
        std::mem::take(&mut self.trace_log)
    }

    /// The instruction-mix histogram collected while [`Context::stats`] was
    /// set, sorted by descending count (ties by name).
    pub fn instr_mix(&self) -> Vec<(&'static str, u64)> {
        let mut mix: Vec<(&'static str, u64)> =
            self.instr_mix.iter().map(|(n, c)| (*n, *c)).collect();
        mix.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        mix
    }

    /// Takes and resets the instruction-mix histogram.
    pub fn take_instr_mix(&mut self) -> Vec<(&'static str, u64)> {
        let mix = self.instr_mix();
        self.instr_mix.clear();
        mix
    }

    #[inline]
    pub(crate) fn count_instr(&mut self, name: &'static str) {
        *self.instr_mix.entry(name).or_default() += 1;
    }

    /// Registers a host function callable from HILTI code. A name the
    /// program calls takes the id its `call.c` sites carry; any other name
    /// is reachable through callables and the interpreter.
    pub fn register_host_fn(
        &mut self,
        name: &str,
        f: impl FnMut(&[&Value]) -> RtResult<Value> + 'static,
    ) {
        let id = match self.host_index.get(name) {
            Some(&id) => id,
            None => {
                let id = self.host_fns.len() as u32;
                self.host_fns.push(None);
                self.host_index.insert(name.to_owned(), id);
                id
            }
        };
        self.host_fns[id as usize] = Some(Box::new(f));
    }

    /// Calls a host function (or the `Hilti::print` builtin) by name: the
    /// interpreter's path, and the VM's for callables bound to a name.
    pub(crate) fn call_host_named(&mut self, name: &str, args: &[&Value]) -> RtResult<Value> {
        call_host_named(
            &mut self.host_fns,
            &self.host_index,
            &mut self.env,
            name,
            args,
        )
    }

    /// Registers a named input source factory for `iosrc.open`.
    pub fn register_iosrc(
        &mut self,
        name: &str,
        factory: impl FnMut() -> RtResult<Value> + 'static,
    ) {
        self.env
            .iosrc_factories
            .insert(name.to_owned(), Box::new(factory));
    }

    /// Pre-registers a named output file (e.g. disk-backed); otherwise
    /// `file.open` creates in-memory logs.
    pub fn register_file(&mut self, file: LogFile) {
        self.env.files.insert(file.name().to_owned(), file);
    }

    /// Access to a named log file's captured lines.
    pub fn file(&self, name: &str) -> Option<&LogFile> {
        self.env.files.get(name)
    }

    /// Takes the accumulated program output.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.env.out)
    }

    /// Accumulated nanoseconds for a named profiler span.
    pub fn profile_ns(&self, name: &str) -> u64 {
        self.env.profile_ns(name)
    }

    /// Named profiler counter value.
    pub fn profile_counter(&self, name: &str) -> u64 {
        self.env.counters.counter_value(name)
    }

    pub fn global_time(&self) -> Time {
        self.env.global_time
    }
}

impl Env {
    fn profile_ns(&self, name: &str) -> u64 {
        self.profiler.get(name).map(|(t, _)| *t).unwrap_or(0)
    }
}

/// Interned engine-level telemetry handles (see [`Context::set_telemetry`]).
struct RunTelemetry {
    instructions: hilti_rt::telemetry::Counter,
    runs: hilti_rt::telemetry::Counter,
    sink: EventSink,
}

/// The deterministic execution profile: retired instructions attributed to
/// the executing function and to opcode classes. Both engines feed this at
/// their (single) fuel-charge points, so with the uniform cost model the
/// instruction and fuel views coincide and interpreter/VM profiles of the
/// same program agree exactly.
///
/// Attribution is exclusive: an instruction is charged to the function
/// whose body retires it, so `call` instructions land on the caller and
/// the callee's body on the callee.
#[derive(Clone, Debug, Default)]
pub struct ExecProfile {
    per_fn: HashMap<String, u64>,
    per_class: HashMap<&'static str, u64>,
}

impl ExecProfile {
    #[inline]
    pub(crate) fn record(&mut self, func: &str, class: &'static str, units: u64) {
        if let Some(n) = self.per_fn.get_mut(func) {
            *n += units;
        } else {
            self.per_fn.insert(func.to_owned(), units);
        }
        *self.per_class.entry(class).or_default() += units;
    }

    /// Per-function retired instructions, sorted by name.
    pub fn functions(&self) -> Vec<(String, u64)> {
        let mut v: Vec<_> = self.per_fn.iter().map(|(n, c)| (n.clone(), *c)).collect();
        v.sort();
        v
    }

    /// Per-opcode-class retired instructions, sorted by class name.
    pub fn classes(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.per_class.iter().map(|(n, c)| (*n, *c)).collect();
        v.sort();
        v
    }

    /// Total retired instructions (== total fuel units).
    pub fn total(&self) -> u64 {
        self.per_fn.values().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.per_fn.is_empty()
    }
}

/// Maps an opcode mnemonic to its profile class: the prefix before the
/// first `.` (`int.add` → `int`, `bytes.length` → `bytes`, plain `jump` →
/// `jump`). IR terminators and VM control transfers are recorded as
/// `control` so the class breakdown matches across engines.
pub(crate) fn opcode_class(mnemonic: &'static str) -> &'static str {
    match mnemonic.find('.') {
        Some(i) => &mnemonic[..i],
        None => mnemonic,
    }
}

/// Profile class of a bytecode instruction. Specialized variants report
/// the class of the IR instruction they replace, so `--no-specialize` and
/// specialized runs profile identically; `BrIf` reports its test,
/// and the call site adds the `control` unit of its branch.
fn cinstr_class(instr: &CInstr) -> &'static str {
    match instr {
        CInstr::Op { opcode, .. } => opcode_class(opcode.mnemonic()),
        CInstr::Call { .. } | CInstr::CallHost { .. } => "call",
        CInstr::CallCallable { .. } => "callable",
        CInstr::RunHook { .. } => "hook",
        CInstr::New { .. } => "new",
        CInstr::Jump(_) | CInstr::Branch { .. } | CInstr::BrBool { .. } | CInstr::Return(_) => {
            "control"
        }
        CInstr::PushHandler { .. } | CInstr::PopHandler => "exception",
        CInstr::Yield => "yield",
        CInstr::GlobalStore { inner, .. } => cinstr_class(inner),
        CInstr::Typed(row) | CInstr::BrIf { row, .. } => opcode_class(row.op.mnemonic()),
        CInstr::Move { .. } => "assign",
        CInstr::MatchToken { .. } => "regexp",
        CInstr::StructGet { .. }
        | CInstr::StructSet { .. }
        | CInstr::FieldGet { .. }
        | CInstr::FieldSet { .. } => "struct",
    }
}

impl ExecCtx for Env {
    fn output(&mut self, line: String) {
        self.out.push(line);
    }

    fn global_time(&self) -> Time {
        self.global_time
    }

    fn set_global_time(&mut self, t: Time) {
        if t > self.global_time {
            self.global_time = t;
        }
    }

    fn register_expiring(&mut self, handle: ExpiringHandle) {
        self.expiring.push(handle);
    }

    fn advance_expiring(&mut self, t: Time) {
        self.expiring.retain(|h| match h {
            ExpiringHandle::Set(s) => Rc::strong_count(s) > 1,
            ExpiringHandle::Map(m) => Rc::strong_count(m) > 1,
        });
        for h in &self.expiring {
            h.expire(t);
        }
    }

    fn struct_layout(&self, type_name: &str) -> Option<&StructLayout> {
        self.struct_layouts.get(type_name)
    }

    fn overlay(&self, type_name: &str) -> Option<Rc<OverlayType>> {
        self.overlays.get(type_name).cloned()
    }

    fn open_file(&mut self, name: &str) -> LogFile {
        self.files
            .entry(name.to_owned())
            .or_insert_with(|| LogFile::in_memory(name))
            .clone()
    }

    fn open_iosrc(&mut self, name: &str) -> RtResult<Value> {
        match self.iosrc_factories.get_mut(name) {
            Some(f) => f(),
            None => Err(RtError::io(format!("no registered input source {name:?}"))),
        }
    }

    fn schedule_thread(&mut self, tid: u64, callable: CallableVal) -> RtResult<()> {
        self.scheduled.push((tid, callable));
        Ok(())
    }

    fn thread_id(&self) -> u64 {
        self.thread_id
    }

    fn fire(&mut self, callable: CallableVal) {
        self.fired.push(callable);
    }

    fn profiler_start(&mut self, name: &str) {
        let e = self.profiler.entry(name.to_owned()).or_insert((0, None));
        if e.1.is_none() {
            e.1 = Some(Instant::now());
        }
    }

    fn profiler_stop(&mut self, name: &str) {
        if let Some(e) = self.profiler.get_mut(name) {
            if let Some(start) = e.1.take() {
                e.0 += start.elapsed().as_nanos() as u64;
            }
        }
    }

    fn profiler_count(&mut self, name: &str, n: u64) {
        self.counters.counter(name).add(n);
    }

    fn profiler_time(&self, name: &str) -> u64 {
        self.profile_ns(name)
    }

    fn alloc_budget(&self) -> Option<AllocBudget> {
        self.heap.clone()
    }
}

/// An installed exception handler.
#[derive(Clone, Debug)]
pub struct Handler {
    pub pc: u32,
    pub kind: Rc<str>,
    pub binder: Option<u16>,
}

/// One activation record.
#[derive(Clone, Debug)]
pub struct Frame {
    pub func: u32,
    pub pc: u32,
    pub slots: Vec<Value>,
    pub handlers: Vec<Handler>,
    /// Where the caller wants this frame's return value.
    pub ret_slot: Option<u16>,
    pub ret_global: Option<u32>,
}

impl Frame {
    /// Builds an activation record, reusing a slot vector from `pool` when
    /// one is available (calls are the hottest allocation site in compiled
    /// code; recycling frames is the analog of the paper's custom
    /// free-list for fiber stacks, §5).
    fn new(
        prog: &CompiledProgram,
        func: u32,
        args: impl IntoIterator<Item = Value>,
        pool: &mut Vec<Vec<Value>>,
    ) -> Frame {
        let cf = &prog.funcs[func as usize];
        // Pooled vectors are parked empty. Arguments go straight into the
        // parameter slots (missing ones stay unset, surplus ones are
        // dropped); only the locals are null-filled, each written as a
        // fresh `Null` rather than cloned from one.
        let mut slots = pool.pop().unwrap_or_default();
        slots.reserve(cf.n_slots as usize);
        slots.extend(args.into_iter().take(cf.n_params as usize));
        slots.resize_with(cf.n_slots as usize, || Value::Null);
        Frame {
            func,
            pc: 0,
            slots,
            handlers: Vec::new(),
            ret_slot: None,
            ret_global: None,
        }
    }
}

/// How an execution ended.
pub enum Outcome {
    /// The outermost function returned.
    Done(Value),
    /// Execution suspended (yield, or WouldBlock in resumable mode); the
    /// frames can be resumed later.
    Suspended(Vec<Frame>),
}

/// A function of one [`CompiledProgram`], resolved by name once so that a
/// host calling it per packet skips the lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuncId(u32);

/// Resolves a fully qualified function name.
pub fn resolve(prog: &CompiledProgram, func: &str) -> RtResult<FuncId> {
    prog.func_index
        .get(func)
        .map(|&fi| FuncId(fi))
        .ok_or_else(|| RtError::value(format!("unknown function {func}")))
}

/// A hook of one [`CompiledProgram`], resolved by name once: the other
/// by-name entry a host takes per packet (see [`FuncId`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HookId(u32);

/// Resolves a fully qualified hook name; `None` for a hook without bodies,
/// which runs nothing.
pub fn resolve_hook(prog: &CompiledProgram, hook: &str) -> Option<HookId> {
    prog.hook_index.get(hook).map(|&hi| HookId(hi))
}

/// Runs every body of `hook` to completion, in priority order (hook bodies
/// do not suspend). One dispatch is one engine run: the instructions its
/// bodies retire are credited to telemetry once, on the way out.
pub fn run_hook(
    prog: &CompiledProgram,
    ctx: &mut Context,
    hook: HookId,
    args: &[Value],
) -> RtResult<()> {
    let Some(bodies) = prog.hooks.get(hook.0 as usize) else {
        return Err(RtError::value("hook id of another program"));
    };
    let spent_before = ctx.fuel_spent;
    let result = bodies
        .iter()
        .try_for_each(|&body| match enter(prog, ctx, body, args, false)? {
            Outcome::Done(_) => Ok(()),
            Outcome::Suspended(_) => Err(RtError::runtime("hook body suspended")),
        });
    ctx.telemetry_flush_run(spent_before);
    result
}

/// Executes `func` with `args` to completion (non-resumable).
pub fn call(
    prog: &CompiledProgram,
    ctx: &mut Context,
    func: &str,
    args: &[Value],
) -> RtResult<Value> {
    call_id(prog, ctx, resolve(prog, func)?, args)
}

/// [`call`] for a function resolved earlier, against the same program.
pub fn call_id(
    prog: &CompiledProgram,
    ctx: &mut Context,
    func: FuncId,
    args: &[Value],
) -> RtResult<Value> {
    let FuncId(fi) = func;
    let Some(cf) = prog.funcs.get(fi as usize) else {
        return Err(RtError::value("function id of another program"));
    };
    let spent_before = ctx.fuel_spent;
    let result = enter(prog, ctx, fi, args, false);
    ctx.telemetry_flush_run(spent_before);
    match result? {
        Outcome::Done(v) => Ok(v),
        Outcome::Suspended(_) => Err(RtError::runtime(format!(
            "{} suspended outside a fiber",
            cf.name
        ))),
    }
}

/// Starts `func` resumably; see [`crate::fiber::Fiber`] for the wrapper.
pub fn start_resumable(
    prog: &CompiledProgram,
    ctx: &mut Context,
    func: FuncId,
    args: &[Value],
) -> RtResult<Outcome> {
    let FuncId(fi) = func;
    if fi as usize >= prog.funcs.len() {
        return Err(RtError::value("function id of another program"));
    }
    let spent_before = ctx.fuel_spent;
    let result = enter(prog, ctx, fi, args, true);
    ctx.telemetry_flush_run(spent_before);
    result
}

/// Resumes suspended frames.
pub fn resume(prog: &CompiledProgram, ctx: &mut Context, frames: Vec<Frame>) -> RtResult<Outcome> {
    let spent_before = ctx.fuel_spent;
    let result = run(prog, ctx, frames, true);
    ctx.telemetry_flush_run(spent_before);
    result
}

/// Operand lists up to this long are gathered on the stack.
const INLINE_OPERANDS: usize = 8;

/// Gathers an instruction's operands, read in place from `slots`, `consts`
/// (the function's constant table) and `globals`, as `&[&Value]` — the form
/// `ops::eval`, `ops::instantiate` and host functions take — and hands them
/// to `f`. Nothing is cloned: an instruction that keeps a value (a store
/// into a container, an argument copied into a callee's frame) clones
/// exactly that one.
#[inline(always)]
fn with_operands<R>(
    slots: &[Value],
    consts: &[Value],
    globals: &[Value],
    ops: &[COperand],
    f: impl FnOnce(&[&Value]) -> R,
) -> R {
    let read = |op: &COperand| op.get(slots, consts, globals);
    if ops.len() <= INLINE_OPERANDS {
        let null = Value::Null;
        let mut buf = [&null; INLINE_OPERANDS];
        for (b, op) in buf.iter_mut().zip(ops) {
            *b = read(op);
        }
        f(&buf[..ops.len()])
    } else {
        let all: Vec<&Value> = ops.iter().map(read).collect();
        f(&all)
    }
}

/// Fuel parity with the tree-walking interpreter: one unit per IR body
/// instruction plus one per block terminator. Lowering emits exactly one
/// CInstr for each of those, so every instruction costs 1 — except the
/// fused ones: test-and-branch covers a body instruction *and* a
/// terminator, a token match three body instructions. (The fast loop never
/// charges an instruction that traps or blocks; the dispatch path charges a
/// trapping `BrIf` its test alone, and runs a `MatchToken` as the
/// match alone, leaving its two reads to run as the generic instructions
/// they still are.)
#[inline(always)]
fn fuel_cost(instr: &CInstr) -> u64 {
    match instr {
        CInstr::BrIf { .. } => 2,
        CInstr::MatchToken { .. } => 3,
        _ => 1,
    }
}

/// Executes `instr` inline on `frame.slots` if it is a typed instruction
/// (`Typed` … `MatchToken`, `Jump`): no operand clone, no `ops::eval`
/// round trip. Its operands read `consts`, the function's constant table,
/// and `globals`; `env` is the context the rows that read network time or
/// register an expiring container take. `Ok(false)` means it is some
/// other instruction. An `Err`
/// (an operand of the wrong type, or an iterator at the end of its input —
/// what `ops::eval` raises) leaves the frame untouched. Both the fast loop
/// and the one-at-a-time path of [`run`] execute typed instructions
/// through here (`MatchToken` excepted: that path runs the unfused match),
/// so a `WouldBlock` leaves the fast loop uncharged and
/// suspends on the path below.
#[inline(always)]
fn step_typed(
    frame: &mut Frame,
    instr: &CInstr,
    consts: &[Value],
    globals: &[Value],
    env: &mut Env,
) -> RtResult<bool> {
    match instr {
        CInstr::Typed(row) | CInstr::BrIf { row, .. } => {
            // A test still writes its flag slot: later reads of the
            // result stay valid.
            let taken = ops::exec(row, &mut frame.slots, consts, globals, env)?;
            frame.pc = match instr {
                CInstr::BrIf {
                    then_pc, else_pc, ..
                } => {
                    if taken {
                        *then_pc
                    } else {
                        *else_pc
                    }
                }
                _ => frame.pc + 1,
            };
        }
        CInstr::Move { dst, src } => {
            frame.slots[*dst as usize] = src.get(&frame.slots, consts, globals).clone();
            frame.pc += 1;
        }
        CInstr::BrBool {
            cond,
            then_pc,
            else_pc,
        } => {
            let taken = frame.slots[*cond as usize].as_bool()?;
            frame.pc = if taken { *then_pc } else { *else_pc };
        }
        CInstr::MatchToken {
            re, it, id, end, ..
        } => match_token_into(frame, *re, *it, *id, *end)?,
        CInstr::Jump(pc) => frame.pc = *pc,
        CInstr::FieldGet {
            dst, obj, idx, ty, ..
        } => {
            // An unset field raises on the dispatch path.
            let read = field_of(&frame.slots[*obj as usize], ty, *idx, |f| {
                (!matches!(f, Value::Null)).then(|| f.clone())
            });
            let Some(v) = read.flatten() else {
                return Ok(false);
            };
            frame.slots[*dst as usize] = v;
            frame.pc += 1;
        }
        CInstr::FieldSet {
            obj,
            idx,
            value,
            ty,
            ..
        } => {
            let v = value.get(&frame.slots, consts, globals).clone();
            if field_of(&frame.slots[*obj as usize], ty, *idx, |f| *f = v).is_none() {
                return Ok(false);
            }
            frame.pc += 1;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// `f` of field `idx` of `obj`, if `obj` is a struct of type `ty` that
/// has it: a typed field site's guard. `None` leaves the site to the
/// dispatch path.
#[inline(always)]
fn field_of<R>(obj: &Value, ty: &Rc<str>, idx: u32, f: impl FnOnce(&mut Value) -> R) -> Option<R> {
    let Value::Struct(s) = obj else {
        return None;
    };
    let mut s = s.borrow_mut();
    if !(Rc::ptr_eq(&s.type_name, ty) || *s.type_name == **ty) {
        return None;
    }
    s.fields.get_mut(idx as usize).map(f)
}

/// [`step_typed`] for the one-at-a-time path, out of line so that the
/// dispatch loop holds one inlined copy of the typed rows, the fast loop's.
#[inline(never)]
fn step_typed_once(
    frame: &mut Frame,
    instr: &CInstr,
    consts: &[Value],
    globals: &[Value],
    env: &mut Env,
) -> RtResult<bool> {
    step_typed(frame, instr, consts, globals, env)
}

/// The fast loop's `MatchToken`: writes the token id and the iterator
/// after it, and skips the two reads it fused. Out of line, so the inlined
/// [`step_typed`] stays small for the loops that never match a token.
#[inline(never)]
fn match_token_into(frame: &mut Frame, re: u16, it: u16, id: u16, end: u16) -> RtResult<()> {
    let (tid, e) = ops::match_token(&frame.slots[re as usize], &frame.slots[it as usize])?;
    frame.slots[id as usize] = Value::Int(tid);
    frame.slots[end as usize] = Value::BytesIter(e);
    frame.pc += 3;
    Ok(())
}

/// Runs `func` on a frame stack of its own, its parameters copied from
/// `args`; the first frame comes from the context's pool like every later
/// one.
fn enter(
    prog: &CompiledProgram,
    ctx: &mut Context,
    func: u32,
    args: &[Value],
    resumable: bool,
) -> RtResult<Outcome> {
    let first = Frame::new(prog, func, args.iter().cloned(), &mut ctx.frame_pool);
    run_frame(prog, ctx, first, resumable)
}

/// Runs `first` on a frame stack of its own — the context's parked one.
fn run_frame(
    prog: &CompiledProgram,
    ctx: &mut Context,
    first: Frame,
    resumable: bool,
) -> RtResult<Outcome> {
    let mut frames = std::mem::take(&mut ctx.frame_stack);
    frames.push(first);
    run(prog, ctx, frames, resumable)
}

/// Executes `frames` until the outermost function returns, an exception
/// escapes, or (when `resumable`) execution suspends.
pub fn run(
    prog: &CompiledProgram,
    ctx: &mut Context,
    mut frames: Vec<Frame>,
    resumable: bool,
) -> RtResult<Outcome> {
    let mut frame_pool = std::mem::take(&mut ctx.frame_pool);
    let result = dispatch(prog, ctx, &mut frames, resumable, &mut frame_pool);
    ctx.frame_pool = frame_pool;
    // Whatever an escaping exception left behind is dropped here; the
    // stack's storage serves the next entry.
    frames.clear();
    ctx.frame_stack = frames;
    result
}

/// The main dispatch loop. `frame_pool` is the free list recycling frame
/// slot vectors across calls.
fn dispatch(
    prog: &CompiledProgram,
    ctx: &mut Context,
    frames: &mut Vec<Frame>,
    resumable: bool,
    frame_pool: &mut Vec<Vec<Value>>,
) -> RtResult<Outcome> {
    'dispatch: loop {
        let depth = frames.len();
        let Some(frame) = frames.last_mut() else {
            return Ok(Outcome::Done(Value::Null));
        };
        let cf: &CFunc = &prog.funcs[frame.func as usize];

        // Fast loop: consecutive typed instructions execute in a tight
        // inner loop that keeps the frame borrow, skipping the
        // per-instruction re-dispatch overhead of the path below.
        // Observational modes (trace/stats/profile) skip it so every
        // instruction is still observed one by one; so do armed fault
        // injections, which must trigger at a deterministic charge point.
        // On a type error the loop breaks *without* advancing pc or
        // charging fuel; the path below re-executes the pure instruction
        // and raises — or charges — through the one exception path. Fuel
        // lives in a local for the duration of the loop: checked *before*
        // each instruction and decremented only on success, so the meter
        // can never be outrun and never double-charges.
        if !(ctx.trace || ctx.stats || ctx.profile || ctx.fault_armed()) {
            let fuel_start = ctx.fuel_left;
            // An armed watchdog needs periodic charge points: cap the
            // local countdown so the inner loop falls back to the path
            // below (and its amortized clock check) within a bounded number
            // of instructions, even for loops it handles fully.
            let clamp = if ctx.deadline_armed() {
                fuel_start.min(WATCHDOG_CHECK_UNITS)
            } else {
                fuel_start
            };
            let mut fuel = clamp;
            while let Some(instr) = cf.code.get(frame.pc as usize) {
                let cost = fuel_cost(instr);
                if fuel < cost
                    || !matches!(
                        step_typed(frame, instr, &cf.consts, &ctx.globals, &mut ctx.env),
                        Ok(true)
                    )
                {
                    break;
                }
                fuel -= cost;
            }
            // The loop only ever decrements, so the delta is exact.
            let used = clamp - fuel;
            ctx.fuel_spent = ctx.fuel_spent.wrapping_add(used);
            ctx.fuel_left = fuel_start - used;
            if ctx.watchdog_at.is_some() {
                // Count the fast loop's work toward the next clock read;
                // the check itself happens at the next charge below.
                ctx.watchdog_acc = ctx.watchdog_acc.saturating_add(used);
            }
            ctx.tier_retired.specialized += used;
        }

        let Some(instr) = cf.code.get(frame.pc as usize) else {
            return Err(RtError::runtime(format!(
                "{}: pc {} out of range",
                cf.name, frame.pc
            )));
        };

        if ctx.trace && ctx.trace_log.len() < TRACE_CAP {
            // Mnemonic-based rendering keeps traces diffable against an
            // unspecialized build. A fused test-and-branch traces its test
            // here and its branch below, once the test has run.
            let text = instr.render(&cf.consts);
            let line = match text.split_once(" ; ") {
                Some((cmp, _)) if matches!(instr, CInstr::BrIf { .. }) => cmp,
                _ => &text,
            };
            ctx.trace_log
                .push(format!("{}@{}: {line}", cf.name, frame.pc));
        }
        if ctx.stats {
            ctx.count_instr(instr.stat_name());
        }

        // Unwrap GlobalStore: execute the inner instruction; the global is
        // written either immediately (data ops) or on callee return.
        // A typed field site runs as the site it replaced.
        let (instr, store_global) = match instr {
            CInstr::GlobalStore { global, inner } => (&**inner, Some(*global)),
            other => (other.generic(), None),
        };

        macro_rules! raise {
            ($err:expr) => {{
                let err: RtError = $err;
                if resumable && err.kind == ExceptionKind::WouldBlock {
                    // Suspend *at* this instruction; resume retries it.
                    return Ok(Outcome::Suspended(std::mem::take(frames)));
                }
                match dispatch_exception(frames, err)? {
                    () => continue 'dispatch,
                }
            }};
        }

        // Moves a produced value to where it is wanted: the wrapped global,
        // else the target slot. (Under a `GlobalStore` the inner instruction
        // targets the function's scratch slot, which nothing reads.)
        macro_rules! store {
            ($target:expr, $value:expr) => {{
                match (store_global, $target) {
                    (Some(g), _) => ctx.globals[g as usize] = $value,
                    (None, Some(t)) => frame.slots[t as usize] = $value,
                    (None, None) => {}
                }
            }};
        }

        // Reads an operand where it lives: a frame slot, the function's
        // constant table or the globals.
        macro_rules! read {
            ($op:expr) => {
                $op.get(&frame.slots, &cf.consts, &ctx.globals)
            };
        }

        // Completes a value-producing instruction: the value moves to its
        // destination and execution goes on, or the error is raised.
        macro_rules! complete {
            ($target:expr, $result:expr) => {{
                match $result {
                    Ok(v) => {
                        store!($target, v);
                        frame.pc += 1;
                    }
                    Err(e) => raise!(e),
                }
            }};
        }

        // Instructions that bailed out of the fast loop above were not
        // charged there, so this is the single charge point (a fused
        // test-and-branch spends for its branch below, once its test ran).
        if let Err(e) = ctx.charge_fuel(1) {
            raise!(e);
        }
        ctx.tier_retired.generic += 1;
        if ctx.profile {
            // Charged to the function retiring the instruction.
            ctx.profile_record(&cf.name, cinstr_class(instr), 1);
        }

        match instr {
            CInstr::Op {
                opcode,
                target,
                args,
                idents,
            } => {
                let result = with_operands(&frame.slots, &cf.consts, &ctx.globals, args, |refs| {
                    ops::eval(*opcode, refs, idents, &mut ctx.env)
                });
                complete!(*target, result);
                // Timer callables the instruction found due run now,
                // synchronously (nested runs).
                if !ctx.env.fired.is_empty() {
                    for fired in std::mem::take(&mut ctx.env.fired) {
                        run_callable(prog, ctx, &fired, &[])?;
                    }
                }
            }
            CInstr::New { target, ty, args } => {
                let result = with_operands(&frame.slots, &cf.consts, &ctx.globals, args, |refs| {
                    ops::instantiate(ty, refs, &mut ctx.env)
                });
                complete!(Some(*target), result);
            }
            CInstr::Call { target, func, args } => {
                if let Some(max) = ctx.limits.max_call_depth {
                    if depth >= max as usize {
                        raise!(RtError::resource_exhausted("call depth limit exceeded"));
                    }
                }
                // The one copy a call makes: each argument, into the
                // callee's parameter slot.
                let mut callee = Frame::new(
                    prog,
                    *func,
                    args.iter().map(|a| read!(a).clone()),
                    frame_pool,
                );
                callee.ret_slot = *target;
                callee.ret_global = store_global;
                frame.pc += 1;
                frames.push(callee);
            }
            CInstr::CallHost {
                target,
                name,
                host,
                args,
            } => {
                let result = with_operands(&frame.slots, &cf.consts, &ctx.globals, args, |refs| {
                    call_host(&mut ctx.host_fns, &mut ctx.env, *host, name, refs)
                });
                complete!(*target, result);
            }
            CInstr::RunHook { hook, args } => {
                frame.pc += 1;
                for &body in &prog.hooks[*hook as usize] {
                    // Hook bodies run synchronously, in priority order
                    // (nested execution; hooks do not suspend), each on its
                    // own copy of the arguments.
                    let caller = frames.last().expect("frame exists");
                    let first = Frame::new(
                        prog,
                        body,
                        args.iter()
                            .map(|a| a.get(&caller.slots, &cf.consts, &ctx.globals).clone()),
                        &mut ctx.frame_pool,
                    );
                    match run_frame(prog, ctx, first, false)? {
                        Outcome::Done(_) => {}
                        Outcome::Suspended(_) => unreachable!("non-resumable"),
                    }
                }
            }
            CInstr::CallCallable {
                target,
                callable,
                args,
            } => {
                if let Some(max) = ctx.limits.max_call_depth {
                    if depth >= max as usize {
                        raise!(RtError::resource_exhausted("call depth limit exceeded"));
                    }
                }
                let c = match read!(callable) {
                    Value::Callable(c) => c,
                    other => raise!(RtError::type_error(format!(
                        "callable.call on {}",
                        other.type_name()
                    ))),
                };
                // Bound arguments first, then the call's own.
                match prog.func_index.get(&*c.func).copied() {
                    Some(fi) => {
                        let own = args.iter().map(|a| read!(a).clone());
                        let mut callee =
                            Frame::new(prog, fi, c.bound.iter().cloned().chain(own), frame_pool);
                        callee.ret_slot = *target;
                        callee.ret_global = store_global;
                        frame.pc += 1;
                        frames.push(callee);
                    }
                    None => {
                        // Host-function callable.
                        let mut refs: Vec<&Value> = c.bound.iter().collect();
                        refs.extend(args.iter().map(|a| read!(a)));
                        let result = call_host_named(
                            &mut ctx.host_fns,
                            &ctx.host_index,
                            &mut ctx.env,
                            &c.func,
                            &refs,
                        );
                        complete!(*target, result);
                    }
                }
            }
            // --- struct field sites: slot from the site cache ------------
            // `ops::struct_get` / `struct_set` are the semantics (the
            // interpreter runs the same two functions); the site only
            // answers "which slot", falling back to the type table once.
            CInstr::StructGet {
                target,
                obj,
                field,
                ic,
            } => {
                let result = ops::struct_get(read!(obj), field, |t| {
                    struct_site_index(&ctx.env, ic, t, field)
                });
                complete!(*target, result);
            }
            CInstr::StructSet {
                target,
                obj,
                value,
                field,
                ic,
            } => {
                let result = ops::struct_set(read!(obj), read!(value).clone(), |t| {
                    struct_site_index(&ctx.env, ic, t, field)
                });
                // `struct.set` evaluates to Null.
                complete!(*target, result.map(|()| Value::Null));
            }
            // --- typed instructions: clone-free, inline on frame.slots ---
            // A fused test-and-branch runs its test once, and then its
            // branch is traced, charged and profiled as the instruction
            // after it, so all three match an unspecialized run; when the
            // test raises, the branch never runs. The pair stays one charge
            // point for fault injection.
            CInstr::BrIf { .. } => {
                let pc = frame.pc;
                if let Err(e) =
                    step_typed_once(frame, instr, &cf.consts, &ctx.globals, &mut ctx.env)
                {
                    raise!(e);
                }
                if ctx.trace && ctx.trace_log.len() < TRACE_CAP {
                    let text = instr.render(&cf.consts);
                    let (_, branch) = text.split_once(" ; ").expect("a fused pair");
                    ctx.trace_log
                        .push(format!("{}@{}: {branch}", cf.name, pc + 1));
                }
                if let Err(e) = ctx.spend_fuel(1) {
                    raise!(e);
                }
                ctx.tier_retired.generic += 1;
                if ctx.profile {
                    ctx.profile_record(&cf.name, "control", 1);
                }
            }
            CInstr::Typed(_) | CInstr::Move { .. } | CInstr::BrBool { .. } | CInstr::Jump(_) => {
                if let Err(e) =
                    step_typed_once(frame, instr, &cf.consts, &ctx.globals, &mut ctx.env)
                {
                    raise!(e);
                }
            }
            // The match alone, as `ops::eval` runs it, into its tuple slot;
            // the two `tuple.get`s after it then run (and trace, charge,
            // profile) generically.
            CInstr::MatchToken { re, it, t, .. } => {
                let args = [&frame.slots[*re as usize], &frame.slots[*it as usize]];
                let result = ops::eval(Opcode::RegexpMatchToken, &args, &[], &mut ctx.env);
                complete!(Some(*t), result);
            }
            CInstr::Branch {
                cond,
                then_pc,
                else_pc,
            } => match read!(cond).as_bool() {
                Ok(true) => frame.pc = *then_pc,
                Ok(false) => frame.pc = *else_pc,
                Err(e) => raise!(e),
            },
            CInstr::Return(v) => {
                // The frame is finished: a returned local moves out of its
                // slot; a global or a constant is copied.
                let value = match v {
                    Some(COperand::Slot(s)) => std::mem::take(&mut frame.slots[*s as usize]),
                    Some(op) => read!(op).clone(),
                    None => Value::Null,
                };
                let mut finished = frames.pop().expect("frame exists");
                // Recycle the finished frame's slot storage (bounded).
                if frame_pool.len() < 64 {
                    let mut slots = std::mem::take(&mut finished.slots);
                    slots.clear();
                    frame_pool.push(slots);
                }
                match frames.last_mut() {
                    None => return Ok(Outcome::Done(value)),
                    Some(caller) => match (finished.ret_global, finished.ret_slot) {
                        (Some(g), _) => ctx.globals[g as usize] = value,
                        (None, Some(t)) => caller.slots[t as usize] = value,
                        (None, None) => {}
                    },
                }
            }
            CInstr::PushHandler { pc, kind, binder } => {
                frame.handlers.push(Handler {
                    pc: *pc,
                    kind: kind.clone(),
                    binder: *binder,
                });
                frame.pc += 1;
            }
            CInstr::PopHandler => {
                frame.handlers.pop();
                frame.pc += 1;
            }
            CInstr::Yield => {
                frame.pc += 1;
                if resumable {
                    return Ok(Outcome::Suspended(std::mem::take(frames)));
                }
                // Outside a fiber, yield is a no-op scheduling point.
            }
            CInstr::GlobalStore { .. } | CInstr::FieldGet { .. } | CInstr::FieldSet { .. } => {
                unreachable!("unwrapped above")
            }
        }
    }
}

/// Runs a callable value synchronously (used for fired timers).
pub fn run_callable(
    prog: &CompiledProgram,
    ctx: &mut Context,
    c: &CallableVal,
    extra: &[Value],
) -> RtResult<Value> {
    if let Some(fi) = prog.func_index.get(&*c.func).copied() {
        let first = Frame::new(
            prog,
            fi,
            c.bound.iter().chain(extra).cloned(),
            &mut ctx.frame_pool,
        );
        match run_frame(prog, ctx, first, false)? {
            Outcome::Done(v) => Ok(v),
            Outcome::Suspended(_) => unreachable!("non-resumable"),
        }
    } else {
        let args: Vec<&Value> = c.bound.iter().chain(extra).collect();
        ctx.call_host_named(&c.func, &args)
    }
}

/// Resolves a struct field's slot through its site, keyed on the struct's
/// type name. The cache only short-circuits the *resolution* step: a miss
/// asks `ops::struct_field_index` and remembers the answer — until
/// `IcSite::cap` distinct types have been seen, at which point the site
/// de-optimizes and resolves through the type table forever.
fn struct_site_index(
    env: &Env,
    ic: &RefCell<IcSite>,
    type_name: &Rc<str>,
    field: &str,
) -> RtResult<usize> {
    let mut site = ic.borrow_mut();
    if let Some(idx) = site.struct_slot(type_name) {
        site.hits += 1;
        return Ok(idx);
    }
    site.misses += 1;
    let idx = ops::struct_field_index(env, type_name, field)?;
    site.refill(IcEntry::Struct {
        type_name: Rc::clone(type_name),
        field_idx: idx as u32,
    });
    Ok(idx)
}

/// Calls host function `id` — a `call.c` site's callee, resolved when the
/// program was lowered. `name` only words the error for a function nobody
/// registered.
fn call_host(
    host_fns: &mut [Option<HostFn>],
    env: &mut Env,
    id: u32,
    name: &str,
    args: &[&Value],
) -> RtResult<Value> {
    if id == HOST_PRINT {
        env.output(Value::render_joined(args, ", "));
        return Ok(Value::Null);
    }
    match host_fns.get_mut(id as usize) {
        Some(Some(f)) => f(args),
        _ => Err(RtError::value(format!("unknown function {name}"))),
    }
}

/// [`call_host`] for a callee known by name only (a callable's target, the
/// interpreter's `call`).
fn call_host_named(
    host_fns: &mut [Option<HostFn>],
    host_index: &HashMap<String, u32>,
    env: &mut Env,
    name: &str,
    args: &[&Value],
) -> RtResult<Value> {
    match host_index.get(name) {
        Some(&id) => call_host(host_fns, env, id, name, args),
        None => Err(RtError::value(format!("unknown function {name}"))),
    }
}

/// Finds and dispatches to the innermost matching handler, unwinding
/// frames as needed; errors if nothing catches.
fn dispatch_exception(frames: &mut Vec<Frame>, err: RtError) -> RtResult<()> {
    loop {
        let Some(frame) = frames.last_mut() else {
            return Err(err);
        };
        // Innermost handler first.
        while let Some(h) = frame.handlers.pop() {
            let matches = &*h.kind == "*" || ops::exception_kind_from_name(&h.kind) == err.kind;
            if matches {
                if let Some(b) = h.binder {
                    frame.slots[b as usize] = ops::exception_value(&err);
                }
                frame.pc = h.pc;
                return Ok(());
            }
        }
        frames.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Program;

    fn program(src: &str) -> Program {
        Program::from_source(src).expect("test program compiles")
    }

    #[test]
    fn global_store_wraps_data_ops() {
        let mut p = program(
            r#"
module M
global int<64> g = 10
void bump() {
    g = int.add g 5
}
int<64> get() {
    return g
}
"#,
        );
        p.run_void("M::bump", &[]).unwrap();
        p.run_void("M::bump", &[]).unwrap();
        assert!(p.run("M::get", &[]).unwrap().equals(&Value::Int(20)));
    }

    #[test]
    fn global_store_wraps_call_returns() {
        // `g = call f(...)`: the callee's return value must land in the
        // global through the GlobalStore/ret_global path.
        let mut p = program(
            r#"
module M
global int<64> g = 0
int<64> produce(int<64> x) {
    local int<64> y
    y = int.mul x 3
    return y
}
void set_it() {
    g = call produce (14)
}
int<64> get() {
    return g
}
"#,
        );
        p.run_void("M::set_it", &[]).unwrap();
        assert!(p.run("M::get", &[]).unwrap().equals(&Value::Int(42)));
    }

    #[test]
    fn exceptions_unwind_across_frames() {
        // The thrower has no handler; the caller's caller catches.
        let mut p = program(
            r#"
module M
void boom() {
    exception.throw Hilti::IndexError "deep"
}
void middle() {
    call boom ()
}
string top() {
    try {
        call middle ()
    } catch ( ref<Hilti::IndexError> e ) {
        local string m
        m = exception.message e
        return m
    }
    return "no exception"
}
"#,
        );
        let v = p.run("M::top", &[]).unwrap();
        assert_eq!(v.render(), "deep");
    }

    #[test]
    fn handler_kinds_filter_during_unwind() {
        let mut p = program(
            r#"
module M
void boom() {
    exception.throw Hilti::ValueError "v"
}
string top() {
    try {
        try {
            call boom ()
        } catch ( ref<Hilti::IndexError> e ) {
            return "wrong handler"
        }
    } catch ( ref<Hilti::ValueError> e2 ) {
        return "right handler"
    }
    return "none"
}
"#,
        );
        assert_eq!(p.run("M::top", &[]).unwrap().render(), "right handler");
    }

    #[test]
    fn int_fast_path_type_errors_are_catchable() {
        // An `any`-typed operand stays on the generic path (the
        // specializer must not touch it), and a non-int value raises a
        // TypeError that handlers can catch.
        let mut p = program(
            r#"
module M
int<64> f(any x) {
    local int<64> y
    try {
        y = int.add x 1
    } catch ( exception e ) {
        return -1
    }
    return y
}
"#,
        );
        assert!(p
            .run("M::f", &[Value::Int(41)])
            .unwrap()
            .equals(&Value::Int(42)));
        assert!(p
            .run("M::f", &[Value::str("nope")])
            .unwrap()
            .equals(&Value::Int(-1)));
    }

    #[test]
    fn yield_outside_fiber_is_noop() {
        let mut p = program(
            r#"
module M
int<64> f() {
    yield
    yield
    return 7
}
"#,
        );
        assert!(p.run("M::f", &[]).unwrap().equals(&Value::Int(7)));
    }

    #[test]
    fn deep_call_stack_via_explicit_frames() {
        // The VM's heap frames allow recursion far past Rust's stack
        // limits for an equivalent native recursion in debug builds.
        let mut p = program(
            r#"
module M
int<64> down(int<64> n) {
    local bool base
    local int<64> r
    base = int.leq n 0
    if.else base stop rec
stop:
    return 0
rec:
    r = int.sub n 1
    r = call down (r)
    r = int.add r 1
    return r
}
"#,
        );
        let v = p.run("M::down", &[Value::Int(50_000)]).unwrap();
        assert!(v.equals(&Value::Int(50_000)));
    }

    #[test]
    fn uncaught_exception_reports_kind() {
        let mut p =
            program("module M\nvoid f() {\n    exception.throw Hilti::PatternError \"bad\"\n}\n");
        let e = p.run_void("M::f", &[]).unwrap_err();
        assert_eq!(e.kind, hilti_rt::error::ExceptionKind::PatternError);
        assert_eq!(e.message, "bad");
    }

    #[test]
    fn context_profiler_spans() {
        let prog = crate::bytecode::compile(
            &crate::linker::link_with_priorities(vec![crate::parser::parse_module(
                "module M\nvoid f() {\n    profiler.start p1\n    profiler.stop p1\n    profiler.count c1 3\n}\n",
            )
            .unwrap()])
            .unwrap(),
        )
        .unwrap();
        let mut ctx = Context::for_program(&prog);
        call(&prog, &mut ctx, "M::f", &[]).unwrap();
        assert_eq!(ctx.profile_counter("c1"), 3);
    }

    #[test]
    fn channels_between_contexts() {
        // A channel value created in one program context and read through
        // HILTI instructions.
        let mut p = program(
            r#"
module M
int<64> roundtrip(int<64> x) {
    local ref<channel<int<64>>> ch
    local int<64> got
    ch = new channel<int<64>>
    channel.write ch x
    channel.write ch 99
    got = channel.read ch
    return got
}
"#,
        );
        assert!(p
            .run("M::roundtrip", &[Value::Int(5)])
            .unwrap()
            .equals(&Value::Int(5)));
    }

    #[test]
    fn iosrc_reads_host_supplied_packets() {
        let mut p = program(
            r#"
module M
int<64> drain(ref<iosrc> src) {
    local any pkt
    local bool ok
    local int<64> n
    n = assign 0
loop:
    pkt = iosrc.read src
    ok = tuple.get pkt 0
    if.else ok count done
count:
    n = int.add n 1
    jump loop
done:
    return n
}
"#,
        );
        // Install a source yielding three packets.
        p.context_mut().register_iosrc("trace", || {
            let mut k = 0;
            let src = crate::value::IoSource {
                name: "trace".into(),
                producer: Box::new(move || {
                    k += 1;
                    if k <= 3 {
                        Some((hilti_rt::time::Time::from_secs(k), vec![0u8; 10]))
                    } else {
                        None
                    }
                }),
            };
            // producer closure state resets per open; fine for this test
            Ok(Value::IOSrc(std::rc::Rc::new(RefCell::new(src))))
        });
        let opened = p.context_mut().env.open_iosrc("trace").unwrap();
        let v = p.run("M::drain", &[opened]).unwrap();
        assert!(v.equals(&Value::Int(3)));
    }
}
