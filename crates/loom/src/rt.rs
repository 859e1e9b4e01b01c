//! The model-checking runtime: a serializing scheduler that explores thread
//! interleavings by depth-first search over scheduling decisions.
//!
//! Execution model: at most one model thread runs at a time. Every *visible*
//! operation (atomic access, cell access, lock, spawn, join, yield, park)
//! first calls into the scheduler, which decides — by replaying a recorded
//! decision path, then extending it — which thread performs the next visible
//! operation. After an execution finishes, the last decision with an
//! unexplored alternative is advanced and the model closure is run again.
//!
//! Exploration is bounded CHESS-style: switching away from a runnable
//! thread costs one *preemption*, and executions are limited to
//! `LOOM_MAX_PREEMPTIONS` of them (voluntary switches at `yield_now`,
//! blocking, and thread exit are free). This keeps the state space small
//! while still covering the interleavings that expose real bugs.
//!
//! Happens-before is tracked with per-thread vector clocks. Release stores
//! publish the writer's clock on the atomic; acquire loads join it. Cell
//! accesses check that the previous conflicting access happened-before the
//! current thread, and fail the execution with a data-race report if not.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Upper bound on model threads (keeps vector clocks and schedules tiny).
pub(crate) const MAX_THREADS: usize = 6;

/// Panic payload used to unwind sibling threads after a failure; never
/// reported as the model's own failure.
pub(crate) struct Abandoned;

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock: `clock[t]` is the latest operation of thread `t` that
/// happens-before the clock's owner.
pub(crate) type VClock = Vec<u32>;

pub(crate) fn vc_join(a: &mut VClock, b: &VClock) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (i, v) in b.iter().enumerate() {
        if a[i] < *v {
            a[i] = *v;
        }
    }
}

/// True when every component of `a` is ≤ the matching component of `b`,
/// i.e. the event stamped `a` happens-before a thread whose clock is `b`.
pub(crate) fn vc_leq(a: &VClock, b: &VClock) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, v)| *v == 0 || b.get(i).copied().unwrap_or(0) >= *v)
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// What a non-runnable thread is waiting for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Blocker {
    /// Waiting to acquire model mutex `id`.
    Mutex(usize),
    /// Waiting on condvar `id` (plain `wait`: only a notify can wake it).
    Condvar(usize),
    /// Waiting on condvar `id` with a timeout (scheduler may force-wake).
    CondvarTimeout(usize),
    /// In `thread::park` without a token: only an `unpark` wakes it.
    Parked,
    /// In `thread::park_timeout` without a token (scheduler may force-wake).
    ParkedTimeout,
    /// Waiting for thread `tid` to finish.
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked(Blocker),
    Finished,
}

struct ThreadState {
    status: Status,
    clock: VClock,
    final_clock: Option<VClock>,
    /// Set by the scheduler when a soft block (`wait_timeout`) was ended
    /// by the timeout rather than a notify; consumed by the blocked op.
    timed_out: bool,
    /// The `unpark` token: set by `unpark`, consumed by `park`.
    token: bool,
    /// Join of the clocks of the `unpark` calls behind the token, so a
    /// returning `park` happens-after them (as `std` documents).
    token_clock: VClock,
}

/// The kind of scheduling point, which determines candidate ordering and
/// preemption accounting.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Point {
    /// A visible operation; staying on the current thread is free.
    Op,
    /// A voluntary yield; moving to the next runnable thread is free.
    Yield,
    /// The current thread just blocked or finished; any switch is free.
    Forced,
}

/// One recorded decision: the ordered options (tag = thread id, or 0/1 for
/// boolean choices) with their preemption cost, and which one was taken.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Decision {
    options: Vec<(u32, u8)>,
    chosen: usize,
}

#[derive(Default)]
struct Schedule {
    path: Vec<Decision>,
    cursor: usize,
}

struct Registry {
    threads: Vec<ThreadState>,
    current: usize,
    schedule: Schedule,
    preemptions: usize,
    max_preemptions: usize,
    max_branches: usize,
    ops: usize,
    next_obj: usize,
    trace: Vec<u32>,
    failed: Option<String>,
    failure: Option<Box<dyn Any + Send>>,
    execution_done: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct RtShared {
    reg: StdMutex<Registry>,
    cv: StdCondvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<RtShared>, usize)>> = const { RefCell::new(None) };
}

/// The `(runtime, thread-id)` of the calling model thread, or `None` when
/// called outside `loom::model` (the transparent-fallback path).
pub(crate) fn current() -> Option<(Arc<RtShared>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when the caller is a thread managed by an active model execution.
///
/// Deliberately false while the thread is unwinding: destructors that run
/// during a panic (ring drains, pool returns, guard unlocks) must not
/// re-enter the scheduler — a nested [`Abandoned`] panic inside a `Drop`
/// would abort the process. The execution is already being abandoned, so
/// those destructors safely take the plain-`std` fallback path instead.
pub(crate) fn in_model() -> bool {
    !std::thread::panicking() && CURRENT.with(|c| c.borrow().is_some())
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl RtShared {
    fn new(path: Vec<Decision>, max_preemptions: usize, max_branches: usize) -> RtShared {
        RtShared {
            reg: StdMutex::new(Registry {
                threads: Vec::new(),
                current: 0,
                schedule: Schedule { path, cursor: 0 },
                preemptions: 0,
                max_preemptions,
                max_branches,
                ops: 0,
                next_obj: 0,
                trace: Vec::new(),
                failed: None,
                failure: None,
                execution_done: false,
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.reg.lock().unwrap_or_else(|e| e.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Failure plumbing
// ---------------------------------------------------------------------------

/// Record a failure (first one wins), wake every thread so it can unwind,
/// and panic the calling thread with the report.
fn fail_locked(rt: &RtShared, reg: &mut Registry, msg: String) -> ! {
    if reg.failed.is_none() {
        reg.failed = Some(msg.clone());
        reg.failure = Some(Box::new(msg.clone()));
    }
    let _ = reg;
    rt.cv.notify_all();
    panic::panic_any(Abandoned)
}

pub(crate) fn fail(msg: String) -> ! {
    let (rt, _me) = current().expect("loom runtime failure outside a model");
    let mut reg = rt.lock();
    fail_locked(&rt, &mut reg, msg)
}

// ---------------------------------------------------------------------------
// Scheduling core
// ---------------------------------------------------------------------------

/// Pick (and transfer control to) the thread that performs the next visible
/// operation. Must be called with the registry locked, by thread `me`.
fn schedule_next(rt: &RtShared, reg: &mut Registry, me: usize, kind: Point) {
    let runnable: Vec<usize> = (0..reg.threads.len())
        .filter(|&t| reg.threads[t].status == Status::Runnable)
        .collect();

    let mut options: Vec<(u32, u8)> = Vec::new();
    if runnable.is_empty() {
        // Stalled: force the lowest timed waiter's timeout to fire,
        // or report deadlock / completion.
        let soft = (0..reg.threads.len()).find(|&t| {
            matches!(
                reg.threads[t].status,
                Status::Blocked(Blocker::CondvarTimeout(_) | Blocker::ParkedTimeout)
            )
        });
        if let Some(t) = soft {
            reg.threads[t].timed_out = true;
            reg.threads[t].status = Status::Runnable;
            options.push((t as u32, 0));
        } else if reg.threads.iter().all(|t| t.status == Status::Finished) {
            reg.execution_done = true;
            rt.cv.notify_all();
            return;
        } else {
            let blocked: Vec<(usize, Blocker)> = (0..reg.threads.len())
                .filter_map(|t| match reg.threads[t].status {
                    Status::Blocked(b) => Some((t, b)),
                    _ => None,
                })
                .collect();
            fail_locked(rt, reg, format!("deadlock: blocked threads {blocked:?}"));
        }
    } else {
        let me_runnable = kind != Point::Forced && reg.threads[me].status == Status::Runnable;
        match kind {
            Point::Op if me_runnable => {
                options.push((me as u32, 0));
                options.extend(runnable.iter().filter(|&&t| t != me).map(|&t| (t as u32, 1)));
            }
            Point::Yield if me_runnable => {
                // Round-robin: the free choice deschedules the yielder so
                // spin loops written with `yield_now` always make progress.
                let mut others: Vec<usize> = runnable
                    .iter()
                    .copied()
                    .filter(|&t| t != me)
                    .collect();
                let pivot = others
                    .iter()
                    .position(|&t| t > me)
                    .unwrap_or(0)
                    .min(others.len().saturating_sub(1));
                others.rotate_left(pivot);
                match others.split_first() {
                    Some((&first, rest)) => {
                        options.push((first as u32, 0));
                        options.extend(rest.iter().map(|&t| (t as u32, 1)));
                        options.push((me as u32, 1));
                    }
                    None => options.push((me as u32, 0)),
                }
            }
            _ => {
                // Forced switch: the current thread blocked or finished.
                options.extend(runnable.iter().map(|&t| (t as u32, 0)));
            }
        }
    }

    let (tag, cost) = consult(rt, reg, options);
    reg.preemptions += cost as usize;
    reg.trace.push(tag);
    reg.current = tag as usize;
    rt.cv.notify_all();
}

/// Replay or extend the decision path; returns the chosen option.
fn consult(rt: &RtShared, reg: &mut Registry, options: Vec<(u32, u8)>) -> (u32, u8) {
    if options.len() == 1 {
        return options[0];
    }
    let cursor = reg.schedule.cursor;
    if cursor < reg.schedule.path.len() {
        let d = &reg.schedule.path[cursor];
        if d.options != options {
            let msg = format!(
                "non-deterministic model: replay mismatch at decision {cursor} \
                 (recorded {:?}, observed {options:?})",
                d.options
            );
            fail_locked(rt, reg, msg);
        }
        let chosen = d.chosen;
        reg.schedule.cursor += 1;
        options[chosen]
    } else {
        let budget = reg.max_preemptions.saturating_sub(reg.preemptions);
        let chosen = options
            .iter()
            .position(|&(_, cost)| (cost as usize) <= budget)
            .expect("option 0 is always free");
        reg.schedule.path.push(Decision {
            options: options.clone(),
            chosen,
        });
        reg.schedule.cursor += 1;
        options[chosen]
    }
}

/// Advance the decision path to the next unexplored schedule. Returns false
/// when the (preemption-bounded) state space is exhausted.
fn advance(path: &mut Vec<Decision>, max_preemptions: usize) -> bool {
    loop {
        if path.is_empty() {
            return false;
        }
        let used: usize = path[..path.len() - 1]
            .iter()
            .map(|d| d.options[d.chosen].1 as usize)
            .sum();
        let d = path.last_mut().expect("non-empty path");
        let mut next = d.chosen + 1;
        while next < d.options.len() && used + d.options[next].1 as usize > max_preemptions {
            next += 1;
        }
        if next < d.options.len() {
            d.chosen = next;
            return true;
        }
        path.pop();
    }
}

// ---------------------------------------------------------------------------
// Thread-side entry points (called by the loom type shims)
// ---------------------------------------------------------------------------

fn wait_for_turn(rt: &RtShared, mut reg: std::sync::MutexGuard<'_, Registry>, me: usize) {
    while reg.failed.is_none()
        && !(reg.current == me && reg.threads[me].status == Status::Runnable)
    {
        reg = rt.cv.wait(reg).unwrap_or_else(|e| e.into_inner());
    }
    if reg.failed.is_some() {
        drop(reg);
        panic::panic_any(Abandoned);
    }
}

/// A visible operation boundary: decide who runs next, suspend if it is not
/// us, and tick our clock. No-op outside a model or while unwinding.
pub(crate) fn sync_point(kind: Point) {
    if !in_model() {
        return;
    }
    let Some((rt, me)) = current() else { return };
    let mut reg = rt.lock();
    if reg.failed.is_some() {
        drop(reg);
        panic::panic_any(Abandoned);
    }
    reg.ops += 1;
    if reg.ops > reg.max_branches {
        let msg = format!(
            "model exceeded {} operations in one execution — livelock, or raise LOOM_MAX_BRANCHES",
            reg.max_branches
        );
        fail_locked(&rt, &mut reg, msg);
    }
    let clock = &mut reg.threads[me].clock;
    if clock.len() <= me {
        clock.resize(me + 1, 0);
    }
    clock[me] += 1;
    schedule_next(&rt, &mut reg, me, kind);
    wait_for_turn(&rt, reg, me);
}

/// Block the calling thread on `blocker` until another thread clears it.
/// Returns whether the wake was a forced timeout.
pub(crate) fn block_on(blocker: Blocker) -> bool {
    let (rt, me) = current().expect("blocking loom op outside a model");
    let mut reg = rt.lock();
    reg.threads[me].status = Status::Blocked(blocker);
    schedule_next(&rt, &mut reg, me, Point::Forced);
    wait_for_turn(&rt, reg, me);
    let mut reg = rt.lock();
    let timed_out = reg.threads[me].timed_out;
    reg.threads[me].timed_out = false;
    timed_out
}

/// Make every thread blocked on `pred` runnable again.
pub(crate) fn unblock_where(pred: impl Fn(Blocker) -> bool) {
    let (rt, _me) = current().expect("loom wake outside a model");
    let mut reg = rt.lock();
    for t in reg.threads.iter_mut() {
        if let Status::Blocked(b) = t.status {
            if pred(b) {
                t.status = Status::Runnable;
            }
        }
    }
}

/// Wake the single lowest-id thread blocked on `pred`; returns whether one
/// was found.
pub(crate) fn unblock_one(pred: impl Fn(Blocker) -> bool) -> bool {
    let (rt, _me) = current().expect("loom wake outside a model");
    let mut reg = rt.lock();
    for t in reg.threads.iter_mut() {
        if let Status::Blocked(b) = t.status {
            if pred(b) {
                t.status = Status::Runnable;
                return true;
            }
        }
    }
    false
}

/// The calling model thread's id.
pub(crate) fn current_tid() -> usize {
    current().expect("loom thread id outside a model").1
}

/// Block until the calling thread's `unpark` token is set, then consume
/// it and join the clocks of the `unpark` calls that set it. Returns at
/// once if the token is already set; never returns spuriously.
pub(crate) fn park() {
    park_inner(false);
}

/// Like [`park`], but the wait may also end without an `unpark`, leaving
/// the token unset: the explorer covers the timeout firing before any
/// `unpark` (a choice that costs a preemption), and fires it when every
/// thread is blocked.
pub(crate) fn park_timeout() {
    park_inner(true);
}

fn park_inner(timed: bool) {
    let (rt, me) = current().expect("loom park outside a model");
    sync_point(Point::Op);
    let has_token = rt.lock().threads[me].token;
    if !has_token {
        let timed_out = if timed {
            decide_bool() || block_on(Blocker::ParkedTimeout)
        } else {
            block_on(Blocker::Parked)
        };
        if timed_out {
            return;
        }
    }
    let mut reg = rt.lock();
    let thread = &mut reg.threads[me];
    thread.token = false;
    let clock = std::mem::take(&mut thread.token_clock);
    vc_join(&mut thread.clock, &clock);
}

/// Set thread `tid`'s `unpark` token, waking it if it is parked.
pub(crate) fn unpark(tid: usize) {
    let (rt, me) = current().expect("loom unpark outside a model");
    sync_point(Point::Op);
    let mut reg = rt.lock();
    let mine = reg.threads[me].clock.clone();
    let Some(thread) = reg.threads.get_mut(tid) else {
        return;
    };
    thread.token = true;
    vc_join(&mut thread.token_clock, &mine);
    if matches!(
        thread.status,
        Status::Blocked(Blocker::Parked | Blocker::ParkedTimeout)
    ) {
        thread.status = Status::Runnable;
    }
}

/// A two-way nondeterministic choice. The `false` branch is the free
/// default; exploring the `true` branch costs a preemption (bounding how
/// many spontaneous timeouts a single execution may take).
pub(crate) fn decide_bool() -> bool {
    if !in_model() {
        return false;
    }
    let Some((rt, _me)) = current() else {
        return false;
    };
    let mut reg = rt.lock();
    let (tag, cost) = consult(&rt, &mut reg, vec![(0, 0), (1, 1)]);
    reg.preemptions += cost as usize;
    tag == 1
}

/// Allocate a fresh per-execution object id (mutexes, condvars).
pub(crate) fn new_object_id() -> usize {
    let (rt, _me) = current().expect("loom object id outside a model");
    let mut reg = rt.lock();
    reg.next_obj += 1;
    reg.next_obj
}

/// Run `f` with the calling thread's vector clock.
pub(crate) fn with_my_clock<R>(f: impl FnOnce(&mut VClock) -> R) -> R {
    let (rt, me) = current().expect("loom clock access outside a model");
    let mut reg = rt.lock();
    f(&mut reg.threads[me].clock)
}

// ---------------------------------------------------------------------------
// Thread lifecycle
// ---------------------------------------------------------------------------

/// Register and start a new model thread running `body`; returns its tid.
pub(crate) fn spawn_thread(body: Box<dyn FnOnce() + Send>) -> usize {
    let (rt, me) = current().expect("loom spawn outside a model");
    sync_point(Point::Op);
    let mut reg = rt.lock();
    let tid = reg.threads.len();
    if tid >= MAX_THREADS {
        let msg = format!("model spawned more than {MAX_THREADS} threads");
        fail_locked(&rt, &mut reg, msg);
    }
    let mut clock = reg.threads[me].clock.clone();
    if clock.len() <= tid {
        clock.resize(tid + 1, 0);
    }
    clock[tid] += 1;
    reg.threads.push(ThreadState {
        status: Status::Runnable,
        clock,
        final_clock: None,
        timed_out: false,
        token: false,
        token_clock: Vec::new(),
    });
    let rt2 = Arc::clone(&rt);
    let handle = std::thread::Builder::new()
        .name(format!("loom-{tid}"))
        .spawn(move || run_thread(rt2, tid, body))
        .expect("spawn model thread");
    reg.os_handles.push(handle);
    drop(reg);
    tid
}

/// Body of every controlled OS thread: wait for the first turn, run, then
/// hand control back and mark ourselves finished.
///
/// Everything that can panic (including the pre-body turn wait, which
/// unwinds with [`Abandoned`] when another thread has already failed) runs
/// under `catch_unwind`, so the finish bookkeeping below always executes —
/// otherwise the coordinator would wait on `execution_done` forever.
fn run_thread(rt: Arc<RtShared>, tid: usize, body: Box<dyn FnOnce() + Send>) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&rt), tid)));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        {
            let reg = rt.lock();
            wait_for_turn(&rt, reg, tid);
        }
        body();
    }));
    CURRENT.with(|c| *c.borrow_mut() = None);

    {
        let mut reg = rt.lock();
        if let Err(payload) = result {
            if payload.downcast_ref::<Abandoned>().is_none() && reg.failed.is_none() {
                reg.failed = Some(describe_panic(payload.as_ref()));
                reg.failure = Some(payload);
            }
        }
        let final_clock = reg.threads[tid].clock.clone();
        reg.threads[tid].status = Status::Finished;
        reg.threads[tid].final_clock = Some(final_clock);
        // Wake joiners.
        for t in reg.threads.iter_mut() {
            if t.status == Status::Blocked(Blocker::Join(tid)) {
                t.status = Status::Runnable;
            }
        }
        if reg.failed.is_some() {
            if reg.threads.iter().all(|t| t.status == Status::Finished) {
                reg.execution_done = true;
            }
            rt.cv.notify_all();
            return;
        }
    }
    // The final hand-off can itself detect a failure (deadlock among the
    // remaining threads) and unwind; catch it so this OS thread exits
    // cleanly instead of aborting the process from a panicking landing pad.
    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut reg = rt.lock();
        schedule_next(&rt, &mut reg, tid, Point::Forced);
    }));
}

#[allow(clippy::disallowed_methods)] // sanctioned: test-harness failure reporting
fn describe_panic(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked".to_string()
    }
}

/// Wait for thread `tid` to finish, joining its clock into ours.
pub(crate) fn join_thread(tid: usize) {
    let (rt, me) = current().expect("loom join outside a model");
    sync_point(Point::Op);
    loop {
        {
            let mut reg = rt.lock();
            if reg.threads[tid].status == Status::Finished {
                let fc = reg.threads[tid]
                    .final_clock
                    .clone()
                    .expect("finished thread has a final clock");
                vc_join(&mut reg.threads[me].clock, &fc);
                return;
            }
        }
        block_on(Blocker::Join(tid));
    }
}

// ---------------------------------------------------------------------------
// The model loop
// ---------------------------------------------------------------------------

/// Run `f` under every (preemption-bounded) thread interleaving.
pub(crate) fn model(f: impl Fn() + Send + Sync + 'static) {
    assert!(
        !in_model(),
        "nested loom::model calls are not supported"
    );
    let max_preemptions = env_usize("LOOM_MAX_PREEMPTIONS", 2);
    let max_branches = env_usize("LOOM_MAX_BRANCHES", 50_000);
    let max_executions = env_usize("LOOM_MAX_EXECUTIONS", 500_000);
    let f = Arc::new(f);
    let mut path: Vec<Decision> = Vec::new();
    let mut executions = 0usize;

    loop {
        executions += 1;
        assert!(
            executions <= max_executions,
            "loom: state space exceeds {max_executions} executions; \
             shrink the model or raise LOOM_MAX_EXECUTIONS"
        );
        let rt = Arc::new(RtShared::new(
            std::mem::take(&mut path),
            max_preemptions,
            max_branches,
        ));
        {
            let mut reg = rt.lock();
            reg.threads.push(ThreadState {
                status: Status::Runnable,
                clock: vec![1],
                final_clock: None,
                timed_out: false,
                token: false,
                token_clock: Vec::new(),
            });
            let rt2 = Arc::clone(&rt);
            let f2 = Arc::clone(&f);
            let handle = std::thread::Builder::new()
                .name("loom-0".into())
                .spawn(move || run_thread(rt2, 0, Box::new(move || f2())))
                .expect("spawn model main thread");
            reg.os_handles.push(handle);
        }
        let (failure, failed, trace, explored_path, handles) = {
            let mut reg = rt.lock();
            while !reg.execution_done {
                reg = rt.cv.wait(reg).unwrap_or_else(|e| e.into_inner());
            }
            (
                reg.failure.take(),
                reg.failed.take(),
                std::mem::take(&mut reg.trace),
                std::mem::take(&mut reg.schedule.path),
                std::mem::take(&mut reg.os_handles),
            )
        };
        for h in handles {
            let _ = h.join();
        }
        if let Some(payload) = failure {
            eprintln!(
                "loom: execution #{executions} failed ({}); schedule (thread ids): {trace:?}",
                failed.as_deref().unwrap_or("model thread panicked")
            );
            panic::resume_unwind(payload);
        }
        path = explored_path;
        if !advance(&mut path, max_preemptions) {
            eprintln!("loom: model passed; explored {executions} executions");
            return;
        }
    }
}
