//! # rayon — offline stand-in
//!
//! This workspace builds in a hermetic environment with no crates-io
//! access (see `crates/compat/rand`), so the slice of the `rayon` API
//! that `onion-exec` needs is vendored here behind the same paths:
//!
//! * [`ThreadPool`] / [`ThreadPoolBuilder`] — a persistent pool with an
//!   explicit thread count;
//! * [`ThreadPool::scope`] / [`Scope::spawn`] — structured ("scoped")
//!   parallelism: spawned closures may borrow data owned by the caller's
//!   stack frame, and `scope` does not return until every spawned job
//!   has finished;
//! * [`ThreadPool::par_chunk_map`] — the `par_chunks().map().collect()`
//!   shape as a single helper (the real `ParallelIterator` machinery is
//!   far outside stand-in scope).
//!
//! Nothing else of rayon is here: no global pool, no `install`, no
//! `join`, no free functions. Every call goes through an explicit pool.
//!
//! # What is simplified
//!
//! Real rayon uses lock-free per-worker deques with work *stealing*.
//! This stand-in uses one shared injector queue (a mutex-protected
//! `VecDeque`) with cooperative *helping*: any thread that blocks
//! waiting for a scope to finish pops queued jobs and runs them inline.
//! That preserves the two properties the callers rely on — a nested
//! `scope` never deadlocks even on a one-worker pool, and an
//! idle waiter contributes CPU instead of sleeping — but not rayon's
//! contention behaviour at high core counts. Job granularity in this
//! workspace is chunky (hundreds of microseconds and up), so the single
//! queue is not the bottleneck.
//!
//! One deliberate semantic deviation, documented at the item:
//! closure bounds drop `Send` requirements rayon only needs because it
//! migrates the *outer* closure into the pool (we run it on the calling
//! thread). Call sites written against real rayon compile unchanged;
//! swapping this crate for crates-io rayon is a manifest edit (plus
//! replacing `par_chunk_map` calls with `par_chunks().map().collect()`).
//!
//! A pool of `n` threads spawns `n - 1` OS workers; the thread calling
//! `scope` is the n-th participant (it helps until the scope
//! drains). `num_threads(1)` therefore spawns no OS threads at all and
//! runs every job inline on the caller — the deterministic sequential
//! baseline the benches compare against.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work. Jobs are `'static` from the queue's point of
/// view; scoped spawns erase their `'scope` lifetime (see
/// [`Scope::spawn`]) and `scope` blocks until they all complete, which
/// is what makes the erasure sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Queue + wakeup channel shared by workers and scope waiters.
///
/// A single mutex/condvar pair covers both "a job was pushed" and "a
/// scope completed": every waiter re-checks its own condition after a
/// wakeup, so no notification can be missed regardless of which event
/// it was waiting for.
struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl Shared {
    fn push(&self, job: Job) {
        let mut st = self.state.lock().expect("pool mutex");
        st.queue.push_back(job);
        drop(st);
        self.cv.notify_all();
    }
}

/// Completion state of one `scope` call.
struct ScopeState {
    /// Spawned-but-unfinished job count.
    pending: AtomicUsize,
    /// First panic payload from a spawned job, rethrown by `scope`.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState { pending: AtomicUsize::new(0), panic: Mutex::new(None) }
    }
}

/// Blocks until `scope` has no pending jobs, running queued jobs (from
/// any scope) while waiting so nested scopes cannot deadlock.
fn wait_scope(shared: &Shared, scope: &ScopeState) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool mutex");
            loop {
                // `pending` is read under the pool mutex and the final
                // decrement notifies under the same mutex, so this
                // check/wait pair cannot miss the completion signal.
                if scope.pending.load(Ordering::SeqCst) == 0 {
                    return;
                }
                if let Some(j) = st.queue.pop_front() {
                    break j;
                }
                st = shared.cv.wait(st).expect("pool mutex");
            }
        };
        job();
    }
}

/// A scope for spawning borrowed jobs; see [`ThreadPool::scope`].
///
/// The lifetime is invariant (as in rayon): data borrowed by spawned
/// closures must outlive `'scope`, and `scope` does not return before
/// every job has run, so the borrows stay valid for the jobs' whole
/// execution.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `body` into the pool. The closure may borrow anything that
    /// outlives `'scope` and receives the scope again so it can spawn
    /// recursively.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let child = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&self.state),
            _marker: PhantomData,
        };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&child))) {
                let mut slot = child.state.panic.lock().expect("panic slot");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if child.state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                // last job out: wake the scope waiter under the pool
                // mutex (see wait_scope for why the lock is required)
                let _guard = child.shared.state.lock().expect("pool mutex");
                child.shared.cv.notify_all();
            }
        });
        // SAFETY: `ThreadPool::scope` blocks in `wait_scope` until
        // `pending` reaches zero before returning (even when the scope
        // body panics), so everything `body` borrows — constrained to
        // outlive `'scope` by the bound above — is still alive whenever
        // the job runs. The queue only needs the job to *look* 'static.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.shared.push(job);
    }
}

/// Error type returned by [`ThreadPoolBuilder::build`]. The stand-in
/// pool cannot actually fail to build; the type exists so call sites
/// match the real API.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder matching `rayon::ThreadPoolBuilder`'s shape.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (thread count = available
    /// parallelism).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count; `0` (the default) means available
    /// parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { default_parallelism() } else { self.num_threads };
        Ok(ThreadPool::with_threads(n))
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A persistent pool of worker threads.
///
/// A pool of `n` threads spawns `n - 1` OS workers; the caller of
/// [`ThreadPool::scope`] is the n-th worker for the duration of the
/// call.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads).finish()
    }
}

impl ThreadPool {
    fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("onion-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers, threads }
    }

    /// Structured parallelism: `op` may spawn borrowed jobs through the
    /// [`Scope`]; all of them complete before `scope` returns. A panic
    /// in `op` or any job is propagated (first one wins) after every
    /// job has finished.
    ///
    /// Unlike real rayon, `op` runs on the calling thread, so it does
    /// not need `Send`.
    pub fn scope<'scope, R>(&self, op: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::new(ScopeState::new()),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // Always drain before returning — including when `op` panicked —
        // because spawned jobs may borrow the caller's stack.
        wait_scope(&scope.shared, &scope.state);
        let job_panic = scope.state.panic.lock().expect("panic slot").take();
        match (result, job_panic) {
            (Err(payload), _) => resume_unwind(payload),
            (Ok(_), Some(payload)) => resume_unwind(payload),
            (Ok(r), None) => r,
        }
    }

    /// Applies `f` to consecutive chunks of `items` (each of length
    /// `chunk_size`, except possibly the last), in parallel, returning
    /// the results in chunk order — the stand-in for
    /// `items.par_chunks(n).map(f).collect()`.
    pub fn par_chunk_map<T, R>(
        &self,
        items: &[T],
        chunk_size: usize,
        f: impl Fn(&[T]) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let chunk_size = chunk_size.max(1);
        let n = items.len().div_ceil(chunk_size);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        self.scope(|s| {
            // chunks_mut(1) hands each job a disjoint one-slot window of
            // the output, so no synchronisation is needed on the results
            for (slot, chunk) in out.chunks_mut(1).zip(items.chunks(chunk_size)) {
                let f = &f;
                s.spawn(move |_| slot[0] = Some(f(chunk)));
            }
        });
        out.into_iter().map(|r| r.expect("chunk completed")).collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool mutex");
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool mutex");
            loop {
                if let Some(j) = st.queue.pop_front() {
                    break Some(j);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.cv.wait(st).expect("pool mutex");
            }
        };
        match job {
            Some(j) => j(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn scope_runs_all_jobs_and_borrows_stack_data() {
        for threads in [1, 2, 4] {
            let p = pool(threads);
            let data: Vec<u64> = (0..100).collect();
            let total = AtomicU64::new(0);
            p.scope(|s| {
                for chunk in data.chunks(7) {
                    let total = &total;
                    s.spawn(move |_| {
                        total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), 4950, "threads={threads}");
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock_on_one_worker() {
        let p = pool(2);
        let hits = AtomicU64::new(0);
        p.scope(|s| {
            for _ in 0..4 {
                let hits = &hits;
                s.spawn(move |inner| {
                    inner.spawn(move |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn par_chunk_map_preserves_chunk_order() {
        for threads in [1, 4] {
            let p = pool(threads);
            let items: Vec<usize> = (0..37).collect();
            let sums = p.par_chunk_map(&items, 5, |c| c.iter().sum::<usize>());
            let expected: Vec<usize> = items.chunks(5).map(|c| c.iter().sum()).collect();
            assert_eq!(sums, expected);
        }
    }

    #[test]
    fn par_chunk_map_empty_input() {
        let p = pool(2);
        let out = p.par_chunk_map(&[] as &[u8], 4, |c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn job_panic_propagates_after_drain() {
        let p = pool(2);
        let done = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            p.scope(|s| {
                s.spawn(|_| panic!("boom"));
                let done = &done;
                s.spawn(move |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(caught.is_err(), "panic must propagate out of scope");
        assert_eq!(done.load(Ordering::Relaxed), 1, "sibling job still ran");
        // pool is still usable afterwards
        assert_eq!(p.par_chunk_map(&[1u32, 2, 3], 2, |c| c.len()), vec![2, 1]);
    }

    #[test]
    fn single_thread_pool_is_inline_and_deterministic() {
        let p = pool(1);
        // with no OS workers every job runs during the scope drain, on
        // this thread, in spawn order
        let mut order = Vec::new();
        {
            let order_ref = &mut order;
            p.scope(|s| {
                s.spawn(move |_| {
                    order_ref.push(1);
                    order_ref.push(2);
                });
            });
        }
        assert_eq!(order, vec![1, 2]);
    }
}
