//! The global pool must be lazy: serial work through
//! [`ExecPool::global_ordered`] never spawns the worker threads, so a
//! process that never opts into parallelism pays nothing for the pool.
//! (Integration test = own process, so no other test can have spawned the
//! global pool before us.)

use star_exec::ExecPool;

/// Names of this process's live threads (Linux `/proc`; skipped elsewhere).
fn thread_names() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .collect(),
    )
}

fn pool_worker_count() -> Option<usize> {
    Some(thread_names()?.iter().filter(|n| n.starts_with("star-exec")).count())
}

#[test]
fn serial_batches_never_instantiate_the_global_pool() {
    let items: Vec<u64> = (0..32).collect();
    let expect: Vec<u64> = items.iter().map(|i| i * 3).collect();
    // width 1 and tiny batches stay inline on the calling thread
    assert_eq!(ExecPool::global_ordered(1, &items, |_, &i| i * 3), expect);
    assert_eq!(ExecPool::global_ordered(0, &items[..1], |_, &i| i * 3), expect[..1]);
    if let Some(workers) = pool_worker_count() {
        assert_eq!(workers, 0, "serial work must not spawn pool workers");
    }
    // wider widths still answer correctly; on a single-hardware-thread
    // host they stay inline too, so the pool is only ever spawned by the
    // first request that can actually run in parallel
    assert_eq!(ExecPool::global_ordered(2, &items, |_, &i| i * 3), expect);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let expected = if cores == 1 { 0 } else { cores };
    // a worker names itself once it starts running, which may be after the
    // batch that spawned the pool has already been answered: wait for the
    // names to show up (bounded) before counting
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while pool_worker_count().is_some_and(|w| w < expected) && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    if let Some(workers) = pool_worker_count() {
        assert_eq!(workers, expected, "pool spawns only for genuinely parallel work");
    }
}
