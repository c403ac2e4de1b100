//! Heap allocations on the wire's hot path, counted by a global allocator:
//! decoding a well-formed request line allocates nothing, and each encoder
//! allocates its one output string.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use star_wormhole::serve::protocol::{query_line, Query, SolveMode};
use star_wormhole::serve::Request;
use star_wormhole::{
    default_config_pool, encode_estimate, load_rate_grid, Evaluator as _, ModelBackend,
};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation against its thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn decoding_allocates_nothing_and_each_encoder_allocates_once() {
    let backend = ModelBackend::new();
    for (config, wire) in default_config_pool().into_iter().enumerate() {
        let scenario = wire.scenario();
        for (i, rate) in load_rate_grid(&scenario, 3).into_iter().enumerate() {
            let query = Query { id: (config * 10 + i) as u64, wire, rate, mode: SolveMode::Exact };
            let (line, n) = counted(|| query_line(&query));
            assert_eq!(n, 1, "query_line allocated {n} times for {line}");
            let (parsed, n) = counted(|| Request::parse(&line));
            assert_eq!(parsed, Ok(Request::Query(query)));
            assert_eq!(n, 0, "Request::parse allocated {n} times for {line}");

            let estimate = backend.evaluate(&scenario.at(rate));
            let (payload, n) = counted(|| encode_estimate(&estimate));
            assert_eq!(n, 1, "encode_estimate allocated {n} times for {payload}");
        }
    }
    for line in [r#"{"op":"stats","id":9}"#, r#" {"id":1, "op" : "shutdown"} "#] {
        let (parsed, n) = counted(|| Request::parse(line));
        assert!(parsed.is_ok(), "{line}: {parsed:?}");
        assert_eq!(n, 0, "Request::parse allocated {n} times for {line}");
    }
}
