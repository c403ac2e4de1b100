//! Integration tests for the unified execution engine: the persistent
//! [`ExecPool`] against serial evaluation on three kinds of work (sweep
//! runner, blocking sums, spectrum classes), panic propagation through the
//! pool, and the cross-process shard/merge round trip.

use star_wormhole::exec::shard::{partial_header, partial_rows};
use star_wormhole::graph::MinimalPathDag;
use star_wormhole::model::blocking::{total_blocking_delay, VcSplit};
use star_wormhole::model::occupancy::ChannelOccupancy;
use star_wormhole::workloads::{rate_indices, retain_shard};
use star_wormhole::{
    merge_shard_csvs, shard_sweeps, ExecPool, ModelBackend, ReportSink, Scenario, ShardSpec,
    SimBackend, SimBudget, StarGraph, SweepRunner, SweepSpec, TraversalSpectrum,
};

/// Work run on the pool must stay byte-identical to the serial evaluation,
/// for any width.
#[test]
fn pool_determinism_across_all_three_parallel_paths() {
    // 1. SweepRunner: (point × replicate) sharding over the pool
    let sweep = SweepSpec::new(
        "s4",
        Scenario::star(4).with_message_length(16).with_replicates(3).with_seed_base(11),
        vec![0.003, 0.005],
    );
    let sim = SimBackend::new(SimBudget::Quick);
    let one = SweepRunner::with_threads(1).run_one(&sim, &sweep);
    for threads in [0usize, 2, 7] {
        let many = SweepRunner::with_threads(threads).run_one(&sim, &sweep);
        assert_eq!(one, many, "SweepRunner, threads = {threads}");
    }

    // 2. blocking sums: one fixed-point iteration's per-class batch
    let spectrum = TraversalSpectrum::star(5);
    let profiles: Vec<_> = spectrum.classes().iter().map(|c| &c.adaptive_profile).collect();
    let split = VcSplit { adaptive: 2, escape_levels: 4, bonus_cards: true };
    let occupancy = ChannelOccupancy::new(0.006, 60.0, 6);
    let blocking = |_, profile: &&_| total_blocking_delay(split, &occupancy, profile, 12.0);
    let serial: Vec<f64> = profiles.iter().enumerate().map(|(i, p)| blocking(i, p)).collect();
    for threads in [0usize, 2, 5] {
        let pooled = ExecPool::global_ordered(threads, &profiles, blocking);
        assert_eq!(serial, pooled, "blocking sums, threads = {threads}");
    }

    // 3. spectrum classes: per-cycle-type path-DAG construction, each from
    // the class's relative source permutation (node 0 seen from the
    // representative)
    let s6 = StarGraph::new(6);
    let spectrum = TraversalSpectrum::star(6);
    let sources: Vec<_> =
        spectrum.classes().iter().map(|c| s6.permutation(c.representative).inverse()).collect();
    let profile = |_, source: &_| MinimalPathDag::build(source).adaptivity_profile();
    let serial: Vec<_> = sources.iter().enumerate().map(|(i, s)| profile(i, s)).collect();
    for (class, built) in spectrum.classes().iter().zip(&serial) {
        assert_eq!(&class.adaptive_profile, built, "the closed form is this very DAG");
    }
    for threads in [0usize, 3] {
        let pooled = ExecPool::global_ordered(threads, &sources, profile);
        assert_eq!(serial, pooled, "spectrum classes, threads = {threads}");
    }
}

/// A panic inside a pool-executed work item must reach the caller (and
/// leave the global pool healthy for the rest of the process).
#[test]
fn panic_in_pool_worker_propagates() {
    let items: Vec<usize> = (0..24).collect();
    let result = std::panic::catch_unwind(|| {
        ExecPool::global().run_ordered(4, &items, |_, &i| {
            assert!(i != 13, "replicate 13 diverged");
            i * 2
        })
    });
    assert!(result.is_err(), "the pool must re-throw the work-item panic");
    // the pool still serves batches afterwards
    let doubled = ExecPool::global().run_ordered(4, &items, |_, &i| i * 2);
    assert_eq!(doubled[23], 46);
}

/// The evaluator-level panic contract survives the pool refactor: an
/// unsupported scenario is still rejected with the pre-existing message.
#[test]
fn evaluator_panics_cross_the_pool_boundary() {
    let sweep = SweepSpec::new(
        "nhop-v3",
        Scenario::star(4).with_message_length(16).with_virtual_channels(3),
        vec![0.001],
    );
    // AssertUnwindSafe: the sweep is only read, and the panic fires before
    // any state it owns could be half-mutated
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // V = 3 < the 4 escape levels S4 needs: supports() is false, the
        // runner's up-front check panics before any pool work starts
        SweepRunner::with_threads(2).run_one(&ModelBackend::new(), &sweep)
    }));
    assert!(result.is_err());
}

/// Three `--shard K/N` runs of the same two-pass workload must merge into
/// the exact bytes of the unsharded run — the acceptance contract of
/// cross-process sharding.
#[test]
fn three_way_shard_merge_is_byte_identical() {
    let scenario = Scenario::star(4).with_message_length(16).with_replicates(2).with_seed_base(9);
    let full = vec![
        SweepSpec::new("s4", scenario.clone(), vec![0.002, 0.003, 0.004]),
        SweepSpec::new("s4v9", scenario.with_virtual_channels(9), vec![0.002, 0.003, 0.004]),
    ];
    let runner = SweepRunner::with_threads(2);
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    let dir = std::env::temp_dir().join("star-exec-engine-roundtrip");

    let mut unsharded = ReportSink::new(None);
    unsharded.extend_pass(&full, &runner.run_pass(&model, None, &full));
    unsharded.extend_pass(&full, &runner.run_pass(&sim, None, &full));
    let reference_path = unsharded.write_csv(&dir, "engine").unwrap();
    let reference = std::fs::read_to_string(reference_path).unwrap();
    assert_eq!(reference.lines().count(), 1 + 12, "2 passes × 2 sweeps × 3 rates");

    let partials: Vec<String> = (1..=3)
        .map(|k| {
            let shard = ShardSpec::parse(&format!("{k}/3")).unwrap();
            let mut sink = ReportSink::new(Some(shard));
            sink.extend_pass(&full, &runner.run_pass(&model, Some(shard), &full));
            sink.extend_pass(&full, &runner.run_pass(&sim, Some(shard), &full));
            let path = sink.write_csv(&dir, "engine").unwrap();
            std::fs::read_to_string(path).unwrap()
        })
        .collect();
    // the shards really divided the simulated work: each partial carries
    // only its slice of the rows
    for partial in &partials {
        assert!(partial.lines().count() < reference.lines().count());
    }
    let merged = merge_shard_csvs(&partials).unwrap();
    assert_eq!(merged, reference, "merged shards must equal the unsharded CSV byte for byte");
    std::fs::remove_dir_all(&dir).ok();
}

/// An incomplete, duplicated or cross-run shard set must fail the merge
/// loudly.
#[test]
fn merge_rejects_missing_duplicate_and_foreign_shards() {
    let fingerprint = |tag: &str| {
        let mut fp = star_wormhole::exec::shard::RunFingerprint::new();
        fp.add_str(tag);
        fp
    };
    let header = partial_header("a,b", fingerprint("this run"));
    let shard = |rows: &[(usize, String)]| format!("{header}\n{}\n", partial_rows(rows).join("\n"));
    let first = shard(&[(0, "1,x".into())]);
    let third = shard(&[(2, "3,z".into())]);
    assert!(merge_shard_csvs(&[first.clone(), third]).is_err(), "gap must be rejected");
    assert!(merge_shard_csvs(&[first.clone(), first.clone()]).is_err(), "duplicate rejected");
    // complementary indices and the same schema, but a different run
    let foreign = format!(
        "{}\n{}\n",
        partial_header("a,b", fingerprint("another run")),
        partial_rows(&[(1, "2,y".into())]).join("\n")
    );
    assert!(merge_shard_csvs(&[first, foreign]).is_err(), "cross-run mix must be rejected");
}

/// The chain-respecting pass slicer: chaining backends recompute the full
/// warm chain and keep a slice; independent backends skip unowned points.
#[test]
fn run_pass_respects_backend_granularity() {
    let full = vec![SweepSpec::new(
        "s4",
        Scenario::star(4).with_message_length(16).with_seed_base(3),
        vec![0.002, 0.004, 0.006, 0.008],
    )];
    let runner = SweepRunner::with_threads(2);
    let shard = ShardSpec::parse("1/2").unwrap();

    // warm-started model: values must equal the unsharded chain's exactly
    let model = ModelBackend::new();
    let reference = runner.run_pass(&model, None, &full);
    let sliced = runner.run_pass(&model, Some(shard), &full);
    assert_eq!(sliced[0].estimates.len(), 2, "shard 1/2 owns flat points 0 and 2");
    let indices = rate_indices(&full[0].rates, &sliced[0]);
    assert_eq!(indices, vec![0, 2]);
    for (estimate, ri) in sliced[0].estimates.iter().zip(indices) {
        assert_eq!(estimate, &reference[0].estimates[ri], "full-chain value expected");
    }

    // retain_shard is the filter run_pass applies for chaining backends
    let mut retained = reference.clone();
    retain_shard(shard, &mut retained);
    assert_eq!(retained[0].estimates, sliced[0].estimates);

    // independent sim backend: the sharded pass evaluates exactly the
    // owned points, and they match the unsharded run's values
    let sim = SimBackend::new(SimBudget::Quick);
    let sim_reference = runner.run_pass(&sim, None, &full);
    let sim_sliced = runner.run_pass(&sim, Some(shard), &full);
    assert_eq!(sim_sliced[0].estimates.len(), 2);
    for (estimate, ri) in
        sim_sliced[0].estimates.iter().zip(rate_indices(&full[0].rates, &sim_sliced[0]))
    {
        assert_eq!(estimate, &sim_reference[0].estimates[ri]);
    }
    // …and shard_sweeps is the slicer it used
    let sharded_specs = shard_sweeps(shard, &full);
    assert_eq!(sharded_specs[0].rates, vec![0.002, 0.006]);
}
