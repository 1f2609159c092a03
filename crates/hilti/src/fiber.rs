//! Fibers: suspendable computations for incremental processing (§3.2).
//!
//! A fiber captures a paused execution — the frame stack of a bytecode-VM
//! computation — so the host can multiplex many in-flight analyses inside
//! one hardware thread. The canonical use is protocol parsing: the host
//! feeds a chunk of payload, the parser runs until it needs data that has
//! not arrived (`Hilti::WouldBlock`), suspends, and later resumes exactly
//! where it stopped once the host appends more input. "Compared to
//! traditional implementations—which typically maintain per-session state
//! machines manually—this model remains transparent to the analysis code."
//!
//! Where the paper's runtime freezes real stacks with `setcontext` over
//! mmap-backed segments, our frames are already heap values, so suspension
//! is detaching a `Vec<Frame>` — the Rust-safe equivalent with the same
//! semantics (and the property benchmarked in §5's fiber micro-benchmark,
//! reproduced as experiment E1).

use std::rc::Rc;

use hilti_rt::error::{RtError, RtResult};

use crate::bytecode::CompiledProgram;
use crate::value::Value;
use crate::vm::{self, Context, Frame, FuncId, Outcome};

/// Execution state of a fiber.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum FiberState {
    /// Created but not started.
    Fresh,
    /// Suspended mid-execution; resumable.
    Suspended,
    /// Ran to completion.
    Done,
    /// Terminated with an uncaught exception.
    Failed,
}

/// What a fiber run step produced.
#[derive(Debug)]
pub enum Step {
    /// The computation finished with this value.
    Finished(Value),
    /// The computation suspended (yield or missing input).
    Suspended,
}

/// A suspendable computation over a compiled program.
pub struct Fiber {
    func: Rc<str>,
    /// The entry function, once resolved: by the host up front
    /// ([`Fiber::resolved`]) or by the first resume.
    id: Option<FuncId>,
    args: Vec<Value>,
    frames: Option<Vec<Frame>>,
    state: FiberState,
    result: Option<Value>,
}

impl Fiber {
    /// Creates a fiber that will execute `func(args)` when first resumed.
    pub fn new(func: &str, args: Vec<Value>) -> Fiber {
        Fiber::fresh(Rc::from(func), None, args)
    }

    /// [`Fiber::new`] for a function the host resolved earlier against the
    /// program the fiber will run on: a host that starts one fiber per
    /// connection names and looks up its entry point once.
    pub fn resolved(func: &Rc<str>, id: FuncId, args: Vec<Value>) -> Fiber {
        Fiber::fresh(Rc::clone(func), Some(id), args)
    }

    fn fresh(func: Rc<str>, id: Option<FuncId>, args: Vec<Value>) -> Fiber {
        Fiber {
            func,
            id,
            args,
            frames: None,
            state: FiberState::Fresh,
            result: None,
        }
    }

    pub fn state(&self) -> FiberState {
        self.state
    }

    /// The final value, once [`FiberState::Done`].
    pub fn result(&self) -> Option<&Value> {
        self.result.as_ref()
    }

    /// Runs the fiber until it finishes or suspends.
    ///
    /// On an uncaught exception the fiber transitions to
    /// [`FiberState::Failed`] and the error is returned; a failed fiber
    /// cannot be resumed.
    pub fn resume(&mut self, prog: &CompiledProgram, ctx: &mut Context) -> RtResult<Step> {
        if let Some(sink) = ctx.telemetry_sink() {
            sink.emit("fiber_resume", vec![("function", (&*self.func).into())]);
        }
        let outcome = match self.state {
            FiberState::Fresh => {
                self.state = FiberState::Failed; // until proven otherwise
                let id = match self.id {
                    Some(id) => id,
                    None => vm::resolve(prog, &self.func)?,
                };
                vm::start_resumable(prog, ctx, id, &std::mem::take(&mut self.args))
            }
            FiberState::Suspended => {
                let frames = self.frames.take().expect("suspended fiber has frames");
                self.state = FiberState::Failed;
                vm::resume(prog, ctx, frames)
            }
            FiberState::Done => {
                return Err(RtError::runtime("resume of finished fiber"));
            }
            FiberState::Failed => {
                return Err(RtError::runtime("resume of failed fiber"));
            }
        };
        match outcome {
            Ok(Outcome::Done(v)) => {
                self.state = FiberState::Done;
                self.result = Some(v.clone());
                Ok(Step::Finished(v))
            }
            Ok(Outcome::Suspended(frames)) => {
                self.frames = Some(frames);
                self.state = FiberState::Suspended;
                if let Some(sink) = ctx.telemetry_sink() {
                    sink.emit("fiber_suspend", vec![("function", (&*self.func).into())]);
                }
                Ok(Step::Suspended)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::linker::link_with_priorities;
    use crate::parser::parse_module;

    fn program(src: &str) -> (CompiledProgram, Context) {
        let m = parse_module(src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        crate::check::check(&linked).unwrap();
        let prog = compile(&linked).unwrap();
        let ctx = Context::for_program(&prog);
        (prog, ctx)
    }

    #[test]
    fn fiber_completes_without_suspension() {
        let (prog, mut ctx) = program(
            "module M\nint<64> f(int<64> x) {\n  local int<64> y\n  y = int.add x 1\n  return y\n}\n",
        );
        let mut fiber = Fiber::new("M::f", vec![Value::Int(41)]);
        match fiber.resume(&prog, &mut ctx).unwrap() {
            Step::Finished(Value::Int(42)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(fiber.state(), FiberState::Done);
        assert!(fiber.resume(&prog, &mut ctx).is_err());
    }

    #[test]
    fn yield_suspends_and_resumes() {
        let (prog, mut ctx) = program(
            r#"
module M
int<64> f() {
    local int<64> x
    x = assign 1
    yield
    x = int.add x 1
    yield
    x = int.add x 1
    return x
}
"#,
        );
        let mut fiber = Fiber::new("M::f", vec![]);
        assert!(matches!(
            fiber.resume(&prog, &mut ctx).unwrap(),
            Step::Suspended
        ));
        assert_eq!(fiber.state(), FiberState::Suspended);
        assert!(matches!(
            fiber.resume(&prog, &mut ctx).unwrap(),
            Step::Suspended
        ));
        match fiber.resume(&prog, &mut ctx).unwrap() {
            Step::Finished(Value::Int(3)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn would_block_suspends_and_retries() {
        // The incremental-parsing pattern: read one byte past the frontier,
        // suspend, host appends data, resume picks up transparently.
        let (prog, mut ctx) = program(
            r#"
module M
int<64> read_two(ref<bytes> data) {
    local iterator<bytes> it
    local int<64> a
    local int<64> b
    it = bytes.begin data
    a = iterator.deref it
    it = iterator.incr it 1
    b = iterator.deref it
    a = int.mul a 256
    a = int.add a b
    return a
}
"#,
        );
        let data = hilti_rt::Bytes::new();
        let mut fiber = Fiber::new("M::read_two", vec![Value::Bytes(data.clone())]);
        // No data yet: suspends at the first deref.
        assert!(matches!(
            fiber.resume(&prog, &mut ctx).unwrap(),
            Step::Suspended
        ));
        data.append(&[0x01]).unwrap();
        // One byte: gets past the first deref, suspends at the second.
        assert!(matches!(
            fiber.resume(&prog, &mut ctx).unwrap(),
            Step::Suspended
        ));
        data.append(&[0x02]).unwrap();
        match fiber.resume(&prog, &mut ctx).unwrap() {
            Step::Finished(Value::Int(0x0102)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failed_fiber_stays_failed() {
        let (prog, mut ctx) = program(
            "module M\nint<64> f() {\n  local int<64> x\n  x = int.div 1 0\n  return x\n}\n",
        );
        let mut fiber = Fiber::new("M::f", vec![]);
        assert!(fiber.resume(&prog, &mut ctx).is_err());
        assert_eq!(fiber.state(), FiberState::Failed);
        assert!(fiber.resume(&prog, &mut ctx).is_err());
    }

    #[test]
    fn many_interleaved_fibers() {
        // Multiplexing: many sessions in flight inside one thread, each
        // suspended at a different point (the paper's core use case).
        let (prog, mut ctx) = program(
            r#"
module M
int<64> sum3(ref<bytes> data) {
    local iterator<bytes> it
    local int<64> total
    local int<64> b
    local int<64> i
    it = bytes.begin data
    total = assign 0
    i = assign 0
loop:
    b = iterator.deref it
    it = iterator.incr it 1
    total = int.add total b
    i = int.add i 1
    local bool done
    done = int.geq i 3
    if.else done out loop
out:
    return total
}
"#,
        );
        let n = 50;
        let mut sessions: Vec<(hilti_rt::Bytes, Fiber)> = (0..n)
            .map(|_| {
                let b = hilti_rt::Bytes::new();
                let f = Fiber::new("M::sum3", vec![Value::Bytes(b.clone())]);
                (b, f)
            })
            .collect();
        // Feed one byte per round, interleaved across all sessions.
        for round in 0..3 {
            for (i, (bytes, fiber)) in sessions.iter_mut().enumerate() {
                bytes.append(&[(round * 10 + (i % 5)) as u8]).unwrap();
                let step = fiber.resume(&prog, &mut ctx).unwrap();
                if round < 2 {
                    assert!(matches!(step, Step::Suspended), "round {round} session {i}");
                }
            }
        }
        for (i, (_, fiber)) in sessions.iter().enumerate() {
            assert_eq!(fiber.state(), FiberState::Done, "session {i}");
            let expected = (10 + 20) + 3 * (i % 5) as i64;
            assert!(
                fiber.result().unwrap().equals(&Value::Int(expected)),
                "session {i}"
            );
        }
    }
}
