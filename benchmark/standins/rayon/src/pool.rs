//! The thread pool: a shared job queue, `join`, `scope`, and the builder.

use std::any::Any;
use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Panic = Box<dyn Any + Send + 'static>;

/// A type-erased pointer to a job some thread is waiting for.
struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: a `JobRef` is only made from a `StackJob` or `HeapJob` whose
// closure and result are `Send` (enforced by the bounds on `join` and
// `Scope::spawn`), and whoever made it keeps the pointee alive until the job
// has run (`join` and `scope` do not return before that).
unsafe impl Send for JobRef {}

struct Registry {
    threads: usize,
    queue: Mutex<VecDeque<JobRef>>,
    wake: Condvar,
    shutdown: AtomicBool,
}

thread_local! {
    /// The pool this thread runs in: set for a worker's whole life and for
    /// the caller of `ThreadPool::install` while the closure runs.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn current_registry() -> Arc<Registry> {
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        GLOBAL
            .get_or_init(|| ThreadPool::start(default_threads()))
            .registry
            .clone()
    })
}

impl Registry {
    fn lock(&self) -> MutexGuard<'_, VecDeque<JobRef>> {
        // Critical sections are single queue operations, so a poisoned lock
        // still guards a consistent queue.
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn push(&self, job: JobRef) {
        self.lock().push_back(job);
        self.wake.notify_all();
    }

    /// Run `job`, then wake every waiter: one of them may be waiting for it.
    fn execute(&self, job: JobRef) {
        // SAFETY: `job` came off the queue, so it has not run yet, and its
        // owner keeps the pointee alive until the job reports completion.
        unsafe { (job.exec)(job.data) };
        let _q = self.lock();
        self.wake.notify_all();
    }

    /// Run queued jobs (newest first) until `done` holds. `done` must be set
    /// before the thread that sets it calls `execute`'s notify, which takes
    /// the queue lock, so a waiter that saw `false` under the lock is
    /// already parked when the notification comes.
    fn help_until(&self, done: impl Fn() -> bool) {
        let mut q = self.lock();
        loop {
            if done() {
                return;
            }
            match q.pop_back() {
                Some(job) => {
                    drop(q);
                    self.execute(job);
                    q = self.lock();
                }
                None => q = self.wake.wait(q).unwrap_or_else(|p| p.into_inner()),
            }
        }
    }

    /// A worker thread's life: run the oldest queued job, sleep when idle.
    fn worker(self: Arc<Self>) {
        CURRENT.with(|c| *c.borrow_mut() = Some(self.clone()));
        let mut q = self.lock();
        loop {
            if let Some(job) = q.pop_front() {
                drop(q);
                self.execute(job);
                q = self.lock();
            } else if self.shutdown.load(Ordering::SeqCst) {
                return;
            } else {
                q = self.wake.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

/// A job living in its owner's stack frame (`join`'s second closure).
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<Result<R, Panic>>>,
    done: AtomicBool,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            exec: Self::exec,
        }
    }

    /// # Safety
    /// `ptr` must point to a live `StackJob<F, R>` that has not run yet; no
    /// other thread touches `func`/`result` until `done` is set.
    unsafe fn exec(ptr: *const ()) {
        let job = &*(ptr as *const Self);
        let func = (*job.func.get()).take().expect("a job runs once");
        *job.result.get() = Some(catch_unwind(AssertUnwindSafe(func)));
        // Release pairs with the owner's Acquire load: the result is
        // visible once `done` reads true. The owner may free the job right
        // after, so nothing touches `job` past this store.
        job.done.store(true, Ordering::Release);
    }
}

/// Run both closures, possibly in parallel, and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let registry = current_registry();
    if registry.threads == 1 {
        return (a(), b());
    }
    let job = StackJob {
        func: UnsafeCell::new(Some(b)),
        result: UnsafeCell::new(None),
        done: AtomicBool::new(false),
    };
    registry.push(job.as_job_ref());
    let ra = catch_unwind(AssertUnwindSafe(a));
    // Even when `a` panicked, `job` must have run before this frame dies.
    registry.help_until(|| job.done.load(Ordering::Acquire));
    let rb = job.result.into_inner().expect("done implies a result");
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(p), _) | (_, Err(p)) => resume_unwind(p),
    }
}

/// A scope in which borrowed-data tasks can be spawned; see [`scope`].
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    pending: AtomicUsize,
    panic: Mutex<Option<Panic>>,
    // Invariant in 'scope, like the published crate.
    marker: PhantomData<&'scope mut &'scope ()>,
}

struct HeapJob<'scope, F> {
    func: F,
    scope: *const Scope<'scope>,
}

impl<'scope, F: FnOnce(&Scope<'scope>) + Send + 'scope> HeapJob<'scope, F> {
    /// # Safety
    /// `ptr` must come from `Box::into_raw` of a `HeapJob<F>` whose scope is
    /// still alive (`scope` waits for `pending` to reach zero).
    unsafe fn exec(ptr: *const ()) {
        let job = Box::from_raw(ptr as *mut Self);
        let scope = &*job.scope;
        let func = job.func;
        scope.run(func);
    }
}

impl<'scope> Scope<'scope> {
    /// Spawn a task that may borrow from outside the scope. It has run by
    /// the time [`scope`] returns.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.pending.fetch_add(1, Ordering::SeqCst);
        if self.registry.threads == 1 {
            self.run(body);
            return;
        }
        let job = Box::into_raw(Box::new(HeapJob {
            func: body,
            scope: self as *const Self,
        }));
        self.registry.push(JobRef {
            data: job as *const (),
            exec: HeapJob::<'scope, F>::exec,
        });
    }

    fn run(&self, body: impl FnOnce(&Scope<'scope>)) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(self))) {
            self.panic
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(p);
        }
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run `op` with a [`Scope`]; returns once `op` and every task spawned into
/// the scope have finished. The first panic among them is re-raised.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let s = Scope {
        registry: current_registry(),
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        marker: PhantomData,
    };
    let out = catch_unwind(AssertUnwindSafe(|| op(&s)));
    s.registry
        .help_until(|| s.pending.load(Ordering::SeqCst) == 0);
    let spawned_panic = s.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    match (out, spawned_panic) {
        (Ok(r), None) => r,
        (Err(p), _) | (_, Some(p)) => resume_unwind(p),
    }
}

/// Threads in the current pool (the calling thread counts as one).
pub fn current_num_threads() -> usize {
    current_registry().threads
}

/// A pool of its own, for code that must not use the global one.
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    fn start(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let registry = Arc::new(Registry {
            threads,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let r = registry.clone();
                std::thread::Builder::new()
                    .name(format!("rayon-standin-{i}"))
                    .spawn(move || r.worker())
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { registry, workers }
    }

    /// Run `op` with this pool as the current one: parallel calls inside it
    /// use this pool's threads. The caller takes part as one of them.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<Arc<Registry>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.borrow_mut().replace(self.registry.clone())));
        op()
    }

    /// Threads in this pool.
    pub fn current_num_threads(&self) -> usize {
        self.registry.threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shutdown.store(true, Ordering::SeqCst);
        {
            let _q = self.registry.lock();
            self.registry.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            // A worker only panics if a job's own panic handling failed;
            // nothing useful can be done about it while dropping.
            let _ = w.join();
        }
    }
}

/// The global pool was already built.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configure and build a pool.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// Start from the defaults (`RAYON_NUM_THREADS`, else every core).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix the number of threads; 0 keeps the default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    fn resolved(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }

    /// Build a pool of its own.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool::start(self.resolved()))
    }

    /// Build the global pool; fails if it exists already.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let mut fresh = false;
        GLOBAL.get_or_init(|| {
            fresh = true;
            ThreadPool::start(self.resolved())
        });
        if fresh {
            Ok(())
        } else {
            Err(ThreadPoolBuildError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_runs_both_and_nests() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("pool");
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(pool.install(|| fib(16)), 987);
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn join_propagates_a_panic_after_both_sides_ran() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool");
        let ran = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| join(|| panic!("left"), || ran.store(true, Ordering::SeqCst)))
        }));
        assert!(caught.is_err());
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn scope_waits_for_nested_spawns() {
        for threads in [1, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let hits = AtomicUsize::new(0);
            pool.install(|| {
                scope(|s| {
                    for _ in 0..8 {
                        s.spawn(|s| {
                            hits.fetch_add(1, Ordering::SeqCst);
                            s.spawn(|_| {
                                hits.fetch_add(1, Ordering::SeqCst);
                            });
                        });
                    }
                })
            });
            assert_eq!(hits.load(Ordering::SeqCst), 16);
        }
    }
}
