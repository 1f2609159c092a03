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
//! Two layers live here:
//!
//! * [`WorkPool`] — a generic pool of workers, each owning private state of
//!   type `S` built *on* the worker thread (so `S` may be `!Send`: `Rc`-based
//!   program images, `RefCell` script hosts, ...). Jobs are `Send` closures
//!   over `&mut S`; each worker holds a [`PoolHandle`] so jobs can submit
//!   further jobs to any worker, and [`WorkPool::quiesce`] drains such
//!   cascades to a fixed point. The flow-sharded analysis pipeline
//!   (`broscript::parallel`) does not use it: each of its shards is a
//!   plain `std::thread` fed by a bounded `hilti_rt::spsc` ring.
//! * [`ThreadPool`] — the HILTI virtual-thread scheduler built on
//!   `WorkPool`: each worker materializes its own program image and
//!   [`Context`], and `thread.schedule` requests that cross workers are
//!   shipped as deep-copied [`Portable`] values instead of being flagged as
//!   unroutable. "HILTI code is always safe to execute in parallel" (§7).
//!
//! State isolation is structural: every worker owns a private [`Context`]
//! (its own copy of all thread-local globals) *and its own program image* —
//! bytecode values are single-thread reference-counted, so the pool takes a
//! `Send` factory and each worker materializes the program locally (the
//! analog of each hardware thread mapping the shared text segment plus
//! private TLS). Every value crossing the boundary travels as a deep-copied
//! [`Portable`] snapshot.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

use hilti_rt::error::{RtError, RtResult};

use crate::bytecode::CompiledProgram;
use crate::value::{CallableVal, Portable, Value};
use crate::vm::{self, Context};

// ---------------------------------------------------------------------------
// Generic worker pool
// ---------------------------------------------------------------------------

/// A job: an arbitrary closure over one worker's private state.
type PoolJob<S> = Box<dyn FnOnce(&mut S) + Send>;

enum PoolMsg<S> {
    Run(PoolJob<S>),
    /// Reply when all previously queued work is done (barrier).
    Ping(Sender<()>),
    /// Exit the worker loop.
    Stop,
}

/// A cloneable, `Send` handle to a [`WorkPool`]'s submission side. Worker
/// state typically stores one so in-flight jobs can schedule follow-up work
/// on other workers (cross-shard rescheduling).
pub struct PoolHandle<S> {
    senders: Vec<Sender<PoolMsg<S>>>,
    jobs_submitted: Arc<AtomicU64>,
}

// Manual impl: `derive(Clone)` would needlessly require `S: Clone`.
impl<S> Clone for PoolHandle<S> {
    fn clone(&self) -> Self {
        PoolHandle {
            senders: self.senders.clone(),
            jobs_submitted: Arc::clone(&self.jobs_submitted),
        }
    }
}

impl<S: 'static> PoolHandle<S> {
    /// Number of workers in the pool.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Enqueues `job` on `worker`'s FIFO queue. Jobs submitted from one
    /// thread to one worker run in submission order.
    pub fn submit(&self, worker: usize, job: impl FnOnce(&mut S) + Send + 'static) -> RtResult<()> {
        // Increment *before* sending: a stable count across a barrier then
        // proves no job was in flight (see `WorkPool::quiesce`).
        self.jobs_submitted.fetch_add(1, Ordering::SeqCst);
        self.senders[worker]
            .send(PoolMsg::Run(Box::new(job)))
            .map_err(|_| RtError::runtime("worker channel closed"))
    }

    /// Total jobs submitted so far (from all threads).
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs_submitted.load(Ordering::SeqCst)
    }

    fn sync(&self) {
        let (tx, rx) = unbounded();
        for s in &self.senders {
            let _ = s.send(PoolMsg::Ping(tx.clone()));
        }
        drop(tx);
        for _ in 0..self.senders.len() {
            let _ = rx.recv();
        }
    }
}

/// A pool of OS worker threads, each owning private state of type `S`.
///
/// `S` is built by the factory *on the worker thread*, so it may be `!Send`;
/// only the job closures cross threads.
pub struct WorkPool<S> {
    handle: PoolHandle<S>,
    handles: Vec<JoinHandle<()>>,
}

impl<S: 'static> WorkPool<S> {
    /// Spawns `workers` threads. Each calls `factory(index, handle)` once to
    /// build its state, then runs jobs from its queue until shutdown.
    pub fn new(
        workers: usize,
        factory: impl Fn(usize, PoolHandle<S>) -> S + Send + Sync + 'static,
    ) -> WorkPool<S> {
        assert!(workers > 0, "need at least one worker");
        let factory = Arc::new(factory);
        // All channels exist before any worker starts, so the handle each
        // worker receives can reach every other worker from the first job.
        let mut senders = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = unbounded::<PoolMsg<S>>();
            senders.push(tx);
            receivers.push(rx);
        }
        let handle = PoolHandle {
            senders,
            jobs_submitted: Arc::new(AtomicU64::new(0)),
        };
        let mut handles = Vec::with_capacity(workers);
        for (w, rx) in receivers.into_iter().enumerate() {
            let factory = factory.clone();
            let handle = handle.clone();
            let h = std::thread::Builder::new()
                .name(format!("hilti-worker-{w}"))
                .spawn(move || {
                    let mut state = factory(w, handle);
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            PoolMsg::Run(job) => job(&mut state),
                            PoolMsg::Ping(reply) => {
                                let _ = reply.send(());
                            }
                            PoolMsg::Stop => break,
                        }
                    }
                })
                .expect("spawn worker");
            handles.push(h);
        }
        WorkPool { handle, handles }
    }

    /// A submission handle (cloneable, `Send`).
    pub fn handle(&self) -> PoolHandle<S> {
        self.handle.clone()
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.handle.workers()
    }

    /// Enqueues `job` on `worker`'s queue.
    pub fn submit(&self, worker: usize, job: impl FnOnce(&mut S) + Send + 'static) -> RtResult<()> {
        self.handle.submit(worker, job)
    }

    /// Total jobs submitted so far.
    pub fn jobs_submitted(&self) -> u64 {
        self.handle.jobs_submitted()
    }

    /// Blocks until every worker has drained all work queued *so far*
    /// (including its startup state build). A single barrier does not cover
    /// jobs that running jobs submit to other workers — see
    /// [`WorkPool::quiesce`] for that.
    pub fn sync(&self) {
        self.handle.sync();
    }

    /// Blocks until the pool is fully idle, including cascades of jobs that
    /// submit further cross-worker jobs.
    ///
    /// Proof sketch: the submission counter is incremented *before* the job
    /// is enqueued, and a `sync` barrier flushes every queue behind all
    /// sends observed so far. If the counter is identical before and after
    /// two consecutive barriers, then no job ran during the first barrier
    /// round that could have enqueued work racing the second — every
    /// submission had already been counted, and both barriers flushed it.
    pub fn quiesce(&self) {
        loop {
            let before = self.jobs_submitted();
            self.sync();
            self.sync();
            if self.jobs_submitted() == before {
                break;
            }
        }
    }

    /// Stops all workers after draining their queues (including cascading
    /// resubmissions) and joins the threads. Worker state is dropped on the
    /// worker thread; to harvest results, submit a job that sends them over
    /// a channel before calling this.
    pub fn shutdown(self) {
        self.quiesce();
        for s in &self.handle.senders {
            let _ = s.send(PoolMsg::Stop);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// HILTI virtual-thread scheduler
// ---------------------------------------------------------------------------

/// What a worker hands back at shutdown.
pub struct WorkerReport {
    pub worker: usize,
    pub jobs_run: u64,
    pub output: Vec<String>,
    pub errors: Vec<String>,
}

/// Per-worker state: a private program image and context (`!Send` — built on
/// the worker thread), plus a pool handle for shipping rescheduled work.
struct HiltiWorker {
    worker: usize,
    prog: CompiledProgram,
    ctx: Context,
    jobs_run: u64,
    errors: Vec<String>,
    pool: PoolHandle<HiltiWorker>,
}

fn run_job(st: &mut HiltiWorker, vthread: u64, func: &str, args: &[Portable]) {
    st.jobs_run += 1;
    st.ctx.env.thread_id = vthread;
    let vals: Vec<Value> = args.iter().map(Value::from_portable).collect();
    if let Err(e) = vm::call(&st.prog, &mut st.ctx, func, &vals) {
        st.errors.push(format!("{func}: {e}"));
    }
    drain_scheduled(st);
}

/// Routes `thread.schedule` requests accumulated in the context: same-worker
/// targets run inline (they are serialized with us by construction);
/// cross-worker targets ship as a new job with deep-copied bound arguments.
fn drain_scheduled(st: &mut HiltiWorker) {
    while !st.ctx.env.scheduled.is_empty() {
        let batch: Vec<(u64, CallableVal)> = st.ctx.env.scheduled.drain(..).collect();
        for (tid, c) in batch {
            let target = placement(tid, st.pool.workers());
            if target == st.worker {
                st.ctx.env.thread_id = tid;
                if let Err(e) = vm::run_callable(&st.prog, &mut st.ctx, &c, &[]) {
                    st.errors.push(format!("{}: {e}", c.func));
                }
                continue;
            }
            let bound = match c
                .bound
                .iter()
                .map(Value::to_portable)
                .collect::<RtResult<Vec<_>>>()
            {
                Ok(b) => b,
                Err(e) => {
                    st.errors.push(format!("{}: {e}", c.func));
                    continue;
                }
            };
            let func = c.func.to_string();
            if let Err(e) = st.pool.submit(target, move |st2: &mut HiltiWorker| {
                st2.jobs_run += 1;
                st2.ctx.env.thread_id = tid;
                let c2 = CallableVal {
                    func: Rc::from(func.as_str()),
                    bound: bound.iter().map(Value::from_portable).collect(),
                };
                if let Err(e) = vm::run_callable(&st2.prog, &mut st2.ctx, &c2, &[]) {
                    st2.errors.push(format!("{}: {e}", c2.func));
                }
                drain_scheduled(st2);
            }) {
                st.errors.push(format!("{}: {e}", c.func));
            }
        }
    }
}

/// The virtual-thread scheduler over a pool of hardware workers.
pub struct ThreadPool {
    pool: WorkPool<HiltiWorker>,
}

impl ThreadPool {
    /// Spawns `workers` hardware threads. Each worker materializes its own
    /// program image from `factory` and executes jobs against a private
    /// context.
    pub fn new(
        factory: impl Fn() -> CompiledProgram + Send + Sync + 'static,
        workers: usize,
    ) -> ThreadPool {
        let pool = WorkPool::new(workers, move |w, handle| {
            let prog = factory();
            let ctx = Context::for_program(&prog);
            HiltiWorker {
                worker: w,
                prog,
                ctx,
                jobs_run: 0,
                errors: Vec::new(),
                pool: handle,
            }
        });
        ThreadPool { pool }
    }

    /// Number of hardware workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Schedules `func(args)` onto virtual thread `vthread`
    /// (`thread.schedule`). Values are deep-copied via their portable form.
    pub fn schedule(&self, vthread: u64, func: &str, args: &[Value]) -> RtResult<()> {
        let portable = args
            .iter()
            .map(Value::to_portable)
            .collect::<RtResult<Vec<_>>>()?;
        self.schedule_portable(vthread, func, portable)
    }

    /// Schedules with already-portable arguments.
    pub fn schedule_portable(&self, vthread: u64, func: &str, args: Vec<Portable>) -> RtResult<()> {
        let worker = placement(vthread, self.pool.workers());
        let func = func.to_owned();
        self.pool
            .submit(worker, move |st| run_job(st, vthread, &func, &args))
    }

    /// Total jobs submitted so far (external schedules plus cross-worker
    /// reschedules).
    pub fn jobs_submitted(&self) -> u64 {
        self.pool.jobs_submitted()
    }

    /// Blocks until every worker has drained all work queued so far
    /// (including its startup program build). Useful for excluding
    /// warm-up from measurements and for flushing between phases.
    pub fn sync(&self) {
        self.pool.sync();
    }

    /// Stops all workers after draining their queues — including jobs that
    /// scheduled further work onto *other* virtual threads — and collects
    /// reports.
    pub fn shutdown(self) -> Vec<WorkerReport> {
        self.pool.quiesce();
        let workers = self.pool.workers();
        let (tx, rx) = unbounded();
        for w in 0..workers {
            let tx = tx.clone();
            // Harvest jobs do not count as virtual-thread jobs.
            let _ = self.pool.submit(w, move |st: &mut HiltiWorker| {
                let _ = tx.send(WorkerReport {
                    worker: st.worker,
                    jobs_run: st.jobs_run,
                    output: st.ctx.take_output(),
                    errors: std::mem::take(&mut st.errors),
                });
            });
        }
        drop(tx);
        let mut reports = Vec::with_capacity(workers);
        for _ in 0..workers {
            if let Ok(r) = rx.recv() {
                reports.push(r);
            }
        }
        self.pool.shutdown();
        reports.sort_by_key(|r| r.worker);
        reports
    }
}

/// The worker a virtual thread maps to under `workers`-way scheduling.
pub fn placement(vthread: u64, workers: usize) -> usize {
    (vthread % workers.max(1) as u64) as usize
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    #[test]
    fn workers_own_private_state() {
        // Each worker's state counts only jobs aimed at it.
        let pool = WorkPool::new(4, |w, _handle| (w, 0u64));
        for w in 0..4 {
            for _ in 0..=w {
                pool.submit(w, |st: &mut (usize, u64)| st.1 += 1).unwrap();
            }
        }
        let (tx, rx) = unbounded();
        for w in 0..4 {
            let tx = tx.clone();
            pool.submit(w, move |st: &mut (usize, u64)| {
                let _ = tx.send(*st);
            })
            .unwrap();
        }
        drop(tx);
        let mut got: Vec<(usize, u64)> = Vec::new();
        for _ in 0..4 {
            got.push(rx.recv().unwrap());
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        pool.shutdown();
    }

    #[test]
    fn state_may_be_not_send() {
        // Rc is !Send; the factory builds it on the worker thread.
        let pool = WorkPool::new(2, |_w, _handle| {
            std::rc::Rc::new(std::cell::Cell::new(0u64))
        });
        pool.submit(0, |st| st.set(st.get() + 5)).unwrap();
        let (tx, rx) = unbounded();
        pool.submit(0, move |st| {
            let _ = tx.send(st.get());
        })
        .unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
        pool.shutdown();
    }

    struct ChainState {
        worker: usize,
        handle: PoolHandle<ChainState>,
        hits: Arc<AtomicU64>,
    }

    fn hop(st: &mut ChainState, remaining: u64) {
        st.hits.fetch_add(1, Ordering::SeqCst);
        if remaining > 0 {
            let next = (st.worker + 1) % st.handle.workers();
            st.handle
                .submit(next, move |st2| hop(st2, remaining - 1))
                .unwrap();
        }
    }

    #[test]
    fn quiesce_drains_cross_worker_cascades() {
        // A chain of jobs, each submitting the next hop to another worker.
        // One sync barrier cannot see the whole chain; quiesce must.
        let hits = Arc::new(AtomicU64::new(0));
        let pool = WorkPool::new(3, {
            let hits = hits.clone();
            move |w, handle| ChainState {
                worker: w,
                handle,
                hits: hits.clone(),
            }
        });
        pool.submit(0, |st| hop(st, 23)).unwrap();
        pool.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 24);
        pool.shutdown();
    }
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
        // others ship to workers 1-3 as fresh jobs the shutdown barrier must
        // drain before harvesting.
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
