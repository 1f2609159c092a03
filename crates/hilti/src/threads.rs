//! Virtual threads: Erlang-style concurrency with hash-based placement
//! (§3.2 "Control Flow and Concurrency").
//!
//! Applications see a large supply of lightweight virtual threads named by
//! 64-bit IDs; `thread.schedule f(args) <id>` enqueues an asynchronous
//! invocation on thread `<id>`. A runtime scheduler maps virtual threads to
//! a small pool of hardware workers: virtual thread *t* always lands on
//! worker `t mod N`, so all computation for one virtual thread — and hence,
//! with flow-hash IDs, for one flow — is implicitly serialized with no
//! further synchronization (§3.2).
//!
//! [`ThreadPool`] is that scheduler: native `std::thread` workers, each fed
//! by one `std::sync::mpsc` channel that every other worker and the host
//! can send to. A job is `(vthread, function, arguments)`, whether the host
//! scheduled it or a running job's `thread.schedule` targeted another
//! worker; same-worker targets run inline instead. "HILTI code is always
//! safe to execute in parallel" (§7). The flow-sharded analysis pipeline
//! (`broscript::parallel`) does not use this pool: each of its shards is a
//! plain `std::thread` fed by a bounded `hilti_rt::spsc` ring.
//!
//! State isolation is structural: every worker owns a private [`Context`]
//! (its own copy of all thread-local globals) *and its own program image* —
//! bytecode values are single-thread reference-counted, so the pool takes a
//! `Send` factory and each worker materializes the program locally (the
//! analog of each hardware thread mapping the shared text segment plus
//! private TLS). Every value crossing the boundary travels as a deep-copied
//! [`Portable`] snapshot.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hilti_rt::error::{RtError, RtResult};

use crate::bytecode::CompiledProgram;
use crate::value::{CallableVal, Portable, Value};
use crate::vm::{self, Context};

/// What a worker hands back at shutdown.
#[derive(Default)]
pub struct WorkerReport {
    pub worker: usize,
    pub jobs_run: u64,
    pub output: Vec<String>,
    pub errors: Vec<String>,
}

/// One entry on a worker's queue.
enum Msg {
    /// `(vthread, func, args)`: run `func(args)` on virtual thread `vthread`.
    Job(u64, String, Vec<Portable>),
    /// Exit the worker loop and hand back the report.
    Stop,
}

/// Work not yet finished: one per worker still building its program, plus
/// one per job from before its send until it and its inline drain are done.
/// `None` once a worker has died, so waiting on it cannot hang.
type Pending = Arc<(Mutex<Option<usize>>, Condvar)>;

/// No thread panics while it holds the pending count's lock.
const UNPOISONED: &str = "pending count lock held across a panic";

fn add_pending(pending: &Pending, delta: isize) {
    let (count, idle) = &**pending;
    if let Some(n) = count.lock().expect(UNPOISONED).as_mut() {
        *n = n.checked_add_signed(delta).expect("pending count balances");
        if *n == 0 {
            idle.notify_all();
        }
    }
}

/// Queues `func(args)` on `vthread`'s worker, deep-copying `args`. Counted
/// before the send, so [`ThreadPool::sync`] cannot see 0 while the job is
/// in flight.
fn submit(
    senders: &[Sender<Msg>],
    pending: &Pending,
    vthread: u64,
    func: &str,
    args: &[Value],
) -> RtResult<()> {
    let copies = args.iter().map(Value::to_portable);
    let job = Msg::Job(vthread, func.to_owned(), copies.collect::<RtResult<_>>()?);
    add_pending(pending, 1);
    let worker = placement(vthread, senders.len());
    senders[worker].send(job).map_err(|_| {
        add_pending(pending, -1);
        RtError::runtime("worker channel closed")
    })
}

/// A worker's life: build the program, run jobs until `Stop`, report.
fn work(
    worker: usize,
    prog: CompiledProgram,
    rx: &Receiver<Msg>,
    senders: &[Sender<Msg>],
    pending: &Pending,
) -> WorkerReport {
    let mut ctx = Context::for_program(&prog);
    let mut report = WorkerReport {
        worker,
        ..WorkerReport::default()
    };
    add_pending(pending, -1);
    while let Ok(Msg::Job(vthread, func, args)) = rx.recv() {
        report.jobs_run += 1;
        let (func, bound) = (func.into(), args.iter().map(Value::from_portable).collect());
        // The job runs first (its vthread maps here), then the batches of
        // `thread.schedule` requests it leaves: same-worker targets run
        // inline (they are serialized with us by construction), cross-worker
        // targets ship as jobs with deep-copied arguments.
        let mut batch = vec![(vthread, CallableVal { func, bound })];
        while !batch.is_empty() {
            for (tid, c) in batch {
                let result = if placement(tid, senders.len()) == worker {
                    ctx.env.thread_id = tid;
                    vm::run_callable(&prog, &mut ctx, &c, &[]).map(drop)
                } else {
                    submit(senders, pending, tid, &c.func, &c.bound)
                };
                if let Err(e) = result {
                    report.errors.push(format!("{}: {e}", c.func));
                }
            }
            batch = std::mem::take(&mut ctx.env.scheduled);
        }
        add_pending(pending, -1);
    }
    report.output = ctx.take_output();
    report
}

/// The virtual-thread scheduler over a pool of hardware workers.
pub struct ThreadPool {
    senders: Vec<Sender<Msg>>,
    pending: Pending,
    handles: Vec<JoinHandle<WorkerReport>>,
}

impl ThreadPool {
    /// Spawns `workers` hardware threads. Each worker materializes its own
    /// program image from `factory` and executes jobs against a private
    /// context.
    pub fn new(
        factory: impl Fn() -> CompiledProgram + Send + Sync + 'static,
        workers: usize,
    ) -> ThreadPool {
        assert!(workers > 0, "need at least one worker");
        let factory = Arc::new(factory);
        let pending: Pending = Arc::new((Mutex::new(Some(workers)), Condvar::new()));
        // Every channel exists before any worker starts, so each worker can
        // reach every other one from its first job.
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..workers).map(|_| mpsc::channel()).unzip();
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(w, rx)| {
                let (factory, senders, pending) =
                    (factory.clone(), senders.clone(), pending.clone());
                std::thread::Builder::new()
                    .name(format!("hilti-worker-{w}"))
                    .spawn(move || {
                        let run = || work(w, factory(), &rx, &senders, &pending);
                        panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|p| {
                            // A dead worker never finishes its share of the
                            // count; release every waiter, then die.
                            *pending.0.lock().expect(UNPOISONED) = None;
                            pending.1.notify_all();
                            panic::resume_unwind(p)
                        })
                    })
                    .expect("spawn worker")
            })
            .collect();
        ThreadPool {
            senders,
            pending,
            handles,
        }
    }

    /// Number of hardware workers.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Schedules `func(args)` onto virtual thread `vthread`
    /// (`thread.schedule`). Values are deep-copied via their portable form.
    pub fn schedule(&self, vthread: u64, func: &str, args: &[Value]) -> RtResult<()> {
        submit(&self.senders, &self.pending, vthread, func, args)
    }

    /// Blocks until every worker has built its program and every job has
    /// run — including jobs that scheduled further work onto *other*
    /// virtual threads — or until a worker has died. Useful for excluding
    /// warm-up from measurements and for flushing between phases.
    pub fn sync(&self) {
        let (count, idle) = &*self.pending;
        let busy = |n: &mut Option<usize>| n.is_some_and(|n| n > 0);
        let idle = idle.wait_while(count.lock().expect(UNPOISONED), busy);
        drop(idle.expect(UNPOISONED));
    }

    /// [`ThreadPool::sync`], then stops and joins every worker and collects
    /// the reports in worker order. If a worker died, re-raises its panic
    /// once all workers are joined.
    pub fn shutdown(self) -> Vec<WorkerReport> {
        self.sync();
        for s in &self.senders {
            let _ = s.send(Msg::Stop);
        }
        let joined: Vec<_> = self.handles.into_iter().map(JoinHandle::join).collect();
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic::resume_unwind(p)))
            .collect()
    }
}

/// The worker a virtual thread maps to under `workers`-way scheduling.
pub fn placement(vthread: u64, workers: usize) -> usize {
    (vthread % workers.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Program;
    use crate::passes::OptLevel;

    fn factory(src: &'static str) -> impl Fn() -> CompiledProgram + Send + Sync + 'static {
        move || {
            let p = Program::from_sources(&[src], OptLevel::Full).unwrap();
            p.compiled().clone()
        }
    }

    const COUNTER_SRC: &str = r#"
module M
global int<64> count = 0

void bump(int<64> n) {
    count = int.add count n
}

void report() {
    call Hilti::print count
}
"#;

    #[test]
    fn jobs_execute_on_workers() {
        let pool = ThreadPool::new(factory(COUNTER_SRC), 4);
        for i in 0..100u64 {
            pool.schedule(i, "M::bump", &[Value::Int(1)]).unwrap();
        }
        // Ask every worker to report its own thread-local count.
        for w in 0..4u64 {
            pool.schedule(w, "M::report", &[]).unwrap();
        }
        let reports = pool.shutdown();
        assert_eq!(reports.len(), 4);
        let total_jobs: u64 = reports.iter().map(|r| r.jobs_run).sum();
        assert_eq!(total_jobs, 104);
        // Each worker saw its own 25 bumps (100 vthreads round-robin).
        let counts: Vec<u64> = reports
            .iter()
            .flat_map(|r| r.output.iter())
            .map(|line| line.parse().unwrap())
            .collect();
        assert_eq!(counts.iter().sum::<u64>(), 100);
        for c in counts {
            assert_eq!(c, 25, "deterministic placement gives 25 each");
        }
    }

    #[test]
    fn same_vthread_is_serialized() {
        // All jobs for vthread 7 run on one worker in submission order; a
        // racing increment would lose updates, a serialized one cannot.
        let pool = ThreadPool::new(factory(COUNTER_SRC), 8);
        for _ in 0..1000 {
            pool.schedule(7, "M::bump", &[Value::Int(1)]).unwrap();
        }
        pool.schedule(7, "M::report", &[]).unwrap();
        let reports = pool.shutdown();
        let out: Vec<&String> = reports.iter().flat_map(|r| r.output.iter()).collect();
        assert_eq!(out, vec!["1000"]);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let pool = ThreadPool::new(
            factory("module M\nvoid boom() {\n  local int<64> x\n  x = int.div 1 0\n}\n"),
            2,
        );
        pool.schedule(0, "M::boom", &[]).unwrap();
        pool.schedule(1, "M::boom", &[]).unwrap();
        let reports = pool.shutdown();
        let errors: usize = reports.iter().map(|r| r.errors.len()).sum();
        assert_eq!(errors, 2);
    }

    #[test]
    fn placement_is_stable() {
        assert_eq!(placement(0, 4), 0);
        assert_eq!(placement(5, 4), 1);
        assert_eq!(placement(5, 1), 0);
        for t in 0..100 {
            assert_eq!(placement(t, 4), placement(t, 4));
        }
    }

    #[test]
    fn heap_values_deep_copy_across() {
        // A bytes value sent to a worker is an independent copy.
        let pool = ThreadPool::new(
            factory(
                r#"
module M
void consume(ref<bytes> b) {
    bytes.append b "-worker"
    local string s
    s = bytes.to_string b
    call Hilti::print s
}
"#,
            ),
            1,
        );
        let b = hilti_rt::Bytes::from_slice(b"orig");
        pool.schedule(0, "M::consume", &[Value::Bytes(b.clone())])
            .unwrap();
        let reports = pool.shutdown();
        assert_eq!(reports[0].output, vec!["orig-worker"]);
        // Sender's copy untouched.
        assert_eq!(b.to_vec(), b"orig");
    }

    const RELAY_SRC: &str = r#"
module M
global int<64> n = 0

void bump(int<64> k) {
    n = int.add n k
    call Hilti::print n
}

void relay(int<64> tid) {
    local callable c
    c = callable.bind bump (1)
    thread.schedule tid c
}
"#;

    #[test]
    fn cross_worker_reschedules_are_drained_by_shutdown() {
        // Every relay runs on worker 0 (vthread 0) and schedules a bump onto
        // vthread `tid`. Targets on worker 0 (tids 0, 4) run inline; the six
        // others ship to workers 1-3 as fresh jobs that shutdown must drain
        // before it stops the workers.
        let pool = ThreadPool::new(factory(RELAY_SRC), 4);
        for tid in 0..8i64 {
            pool.schedule(0, "M::relay", &[Value::Int(tid)]).unwrap();
        }
        let reports = pool.shutdown();
        for r in &reports {
            assert!(r.errors.is_empty(), "worker {}: {:?}", r.worker, r.errors);
            // Each worker received bumps for exactly two tids, in tid order
            // (single producer, FIFO channel), so its counter prints 1 then 2.
            assert_eq!(r.output, vec!["1", "2"], "worker {}", r.worker);
        }
        // 8 relay jobs + 6 cross-worker bump jobs (inline runs don't count).
        let total_jobs: u64 = reports.iter().map(|r| r.jobs_run).sum();
        assert_eq!(total_jobs, 14);
    }

    #[test]
    fn rescheduled_chain_across_workers_serializes_per_vthread() {
        // relay -> bump on a *different* worker, repeated; the bumps for one
        // vthread all land on its home worker and serialize there.
        let pool = ThreadPool::new(factory(RELAY_SRC), 2);
        for _ in 0..50 {
            pool.schedule(0, "M::relay", &[Value::Int(1)]).unwrap();
        }
        let reports = pool.shutdown();
        let w1 = &reports[1];
        assert!(w1.errors.is_empty());
        assert_eq!(w1.jobs_run, 50);
        let expect: Vec<String> = (1..=50).map(|i| i.to_string()).collect();
        assert_eq!(w1.output, expect);
    }

    #[test]
    fn host_callables_run_on_the_target_worker() {
        // A rescheduled callable may name a host function rather than a
        // compiled one; the target worker runs it all the same.
        let pool = ThreadPool::new(
            factory(
                r#"
module M
void relay() {
    local callable c
    c = callable.bind Hilti::print ("hop")
    thread.schedule 1 c
}
"#,
            ),
            2,
        );
        pool.schedule(0, "M::relay", &[]).unwrap();
        let reports = pool.shutdown();
        assert!(reports[0].errors.is_empty(), "{:?}", reports[0].errors);
        assert_eq!(reports[1].output, vec!["hop"]);
        assert_eq!(reports[1].jobs_run, 1);
    }

    const HOP_SRC: &str = r#"
module M
global int<64> hops = 0

void hop(int<64> t, int<64> n) {
    local bool more
    local callable c
    hops = int.add hops 1
    more = int.gt n 0
    if.else more next done
next:
    t = int.add t 1
    n = int.sub n 1
    c = callable.bind hop (t, n)
    thread.schedule t c
done:
    return
}

void report() {
    call Hilti::print hops
}
"#;

    #[test]
    fn sync_drains_cross_worker_cascades() {
        // A chain of 24 hops, each scheduling the next onto vthread t+1 and
        // so onto another worker. `sync` must wait for the whole chain, not
        // just for the jobs queued when it was called: a report overtaking
        // the chain would see fewer hops.
        let pool = ThreadPool::new(factory(HOP_SRC), 3);
        pool.schedule(0, "M::hop", &[Value::Int(0), Value::Int(23)])
            .unwrap();
        pool.sync();
        for w in 0..3u64 {
            pool.schedule(w, "M::report", &[]).unwrap();
        }
        let reports = pool.shutdown();
        let hops: u64 = reports
            .iter()
            .flat_map(|r| r.output.iter())
            .map(|l| l.parse::<u64>().unwrap())
            .sum();
        assert_eq!(hops, 24);
        assert_eq!(reports.iter().map(|r| r.jobs_run).sum::<u64>(), 24 + 3);
    }

    const SPIN_SRC: &str = r#"
module M
void spin(int<64> n) {
    local bool more
loop:
    n = int.sub n 1
    more = int.gt n 0
    if.else more loop done
done:
    return
}
"#;

    #[test]
    fn dead_worker_neither_hangs_nor_is_lost() {
        // The second program build panics, so one of three workers dies
        // before its first job. `sync` must return anyway, and `shutdown`
        // must wait for the live workers, still spinning, to finish and
        // then re-raise the panic.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let build = factory(SPIN_SRC);
        let pool = ThreadPool::new(
            {
                let calls = calls.clone();
                move || {
                    if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 1 {
                        panic!("factory failed");
                    }
                    build()
                }
            },
            3,
        );
        pool.sync();
        for i in 0..3u64 {
            // The job aimed at the dead worker may be refused.
            let _ = pool.schedule(i, "M::spin", &[Value::Int(1_000_000)]);
        }
        pool.sync();
        let err = panic::catch_unwind(AssertUnwindSafe(|| pool.shutdown()))
            .err()
            .expect("shutdown re-raises the panic");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"factory failed"));
        // Each worker thread holds the factory, and with it `calls`, until
        // it exits: only the test's handle is left once all are joined.
        assert_eq!(Arc::strong_count(&calls), 1);
    }
}

#[cfg(test)]
mod sync_tests {
    use super::*;
    use crate::host::Program;
    use crate::passes::OptLevel;

    #[test]
    fn sync_waits_for_queued_work() {
        let pool = ThreadPool::new(
            || {
                let p = Program::from_sources(
                    &["module M\nglobal int<64> n = 0\nvoid bump() {\n    n = int.add n 1\n}\nvoid report() {\n    call Hilti::print n\n}\n"],
                    OptLevel::Full,
                )
                .unwrap();
                p.compiled().clone()
            },
            3,
        );
        pool.sync(); // startup flushed
        for i in 0..300u64 {
            pool.schedule(i, "M::bump", &[]).unwrap();
        }
        pool.sync(); // all bumps done
        for w in 0..3u64 {
            pool.schedule(w, "M::report", &[]).unwrap();
        }
        let reports = pool.shutdown();
        let total: u64 = reports
            .iter()
            .flat_map(|r| r.output.iter())
            .map(|l| l.parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 300);
    }
}
