//! The zero-allocation round loop: once the trace ring is warm and a run
//! has settled into class `M`, an engine round touches the heap zero
//! times — within one run, and across engine recycling on a pool worker.
//!
//! This file installs its own counting global allocator. Each thread
//! counts into its own `thread_local!` cell, so a case reads only the
//! allocations of the thread that ran its rounds: the test harness's
//! other threads (and the other cases running beside it) never count.
//!
//! The workload is a class-`M` start under the δ-only motion adversary:
//! the satellites creep toward the heavy stack by δ per activation, so
//! the run stays in the algorithm's combinatorial steady state (class
//! `M`, no Weiszfeld) for the whole budget. The steady window covers the
//! consecutive class-`M` rounds after the trace ring filled (its first
//! `TRACE_CAP` pushes grow it) and after one `M` round absorbed the
//! one-off aggregate entries (histogram key, transition edge,
//! collapsed-sequence push).

use gather_bench::pool::WorkerPool;
use gather_config::Class;
use gather_sim::prelude::*;
use gather_workloads as workloads;
use gathering::WaitFreeGather;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation of the calling thread before
/// delegating to [`System`]. Deallocations are not counted: the audit asks
/// "did the round touch the heap", not "did memory usage grow". `try_with`
/// keeps allocations made while a thread's locals are torn down safe.
struct CountingAlloc;

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure delegation to `System`, plus a thread-local counter
// increment that neither allocates nor affects the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's allocation count so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bounded trace: aggregates cover the whole run, the ring stops
/// allocating once it holds this many records.
const TRACE_CAP: usize = 64;

/// The class-`M` creep workload on `n` robots, seeded `seed`.
fn creep_engine(n: usize, seed: u64, audit: bool, parts: Option<EngineParts>) -> Engine {
    let mut builder = Engine::builder(workloads::multiple(n, 3, seed))
        .algorithm(WaitFreeGather::default())
        .scheduler(RoundRobin::new(2.max(n / 4)))
        .motion(AlwaysDelta)
        .check_invariants(audit)
        .trace_capacity(TRACE_CAP);
    if let Some(parts) = parts {
        builder = builder.recycle(parts);
    }
    builder.build()
}

/// Runs up to `rounds` rounds (stopping at the gathered fixed point, as
/// `Engine::run` does) and returns `(steady rounds, allocations in them)`:
/// the trailing window of consecutive class-`M` rounds after round
/// `TRACE_CAP`, counted on the calling thread.
fn steady_window(engine: &mut Engine, rounds: u64) -> (u64, u64) {
    let mut executed = 0u64;
    let mut m_streak = 0u64;
    let mut steady_rounds = 0u64;
    let mut steady_start = allocations();
    for _ in 0..rounds {
        if engine.is_gathered() {
            break;
        }
        let class = engine.step().class;
        executed += 1;
        if class == Class::Multiple {
            m_streak += 1;
        } else {
            m_streak = 0;
        }
        if m_streak >= 2 && executed > TRACE_CAP as u64 {
            steady_rounds += 1;
        } else {
            steady_rounds = 0;
            steady_start = allocations();
        }
    }
    (steady_rounds, allocations() - steady_start)
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    for n in [8usize, 32, 64, 128] {
        // Enough rounds past the warm-up for a real window, few enough for
        // a debug build at n = 128.
        let rounds = if n <= 32 { 400 } else { 160 };
        for audit in [false, true] {
            let mut engine = creep_engine(n, 7, audit, None);
            let (steady, allocs) = steady_window(&mut engine, rounds);
            assert!(
                steady > 0,
                "n={n}, audit {audit}: the steady window never opened in {rounds} rounds"
            );
            assert_eq!(
                allocs, 0,
                "n={n}, audit {audit}: {allocs} heap allocations in {steady} steady-state rounds"
            );
        }
    }
}

#[test]
fn recycled_engines_do_not_allocate_in_steady_state() {
    // Sweep items run back to back on one persistent pool worker, each
    // engine built from the previous one's recycled parts. From the second
    // item on, recycling must not bring heap traffic back into the round
    // loop. The counts are the worker thread's own.
    let (n, items, rounds) = (32usize, 4usize, 400u64);
    let pool = WorkerPool::new(1);
    let parts_cell: Mutex<Option<EngineParts>> = Mutex::new(None);
    let windows: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::new());
    for item in 0..items {
        pool.run_batch(1, &|_| {
            let parts = parts_cell.lock().unwrap().take();
            let mut engine = creep_engine(n, 7 + item as u64, false, parts);
            let (steady, allocs) = steady_window(&mut engine, rounds);
            windows.lock().unwrap().push((item, steady, allocs));
            *parts_cell.lock().unwrap() = Some(engine.into_parts());
        });
    }
    let windows = windows.into_inner().unwrap();
    assert_eq!(windows.len(), items);
    for &(item, steady, allocs) in &windows[1..] {
        assert!(
            steady > 0,
            "item {item}: the steady window never opened in {rounds} rounds"
        );
        assert_eq!(
            allocs, 0,
            "item {item}: {allocs} heap allocations in {steady} steady-state rounds after a recycle"
        );
    }
}
