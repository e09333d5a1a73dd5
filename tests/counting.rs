//! Exact survivor counting over the lowered plan: pinned GEMM fixtures
//! (the numbers the paper's pruning discussion revolves around) and
//! footprint-cache soundness properties on seeded random spaces, each
//! cross-checked against a full enumeration by the compiled engine.

use std::sync::Arc;

use beast::gemm::{build_gemm_space, GemmSpaceParams};
use beast::prelude::*;
use beast_core::analyze::{analyze_with_counts, CountBudget, Counter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lower a space with default plan options.
fn lower(space: &Arc<Space>) -> LoweredPlan {
    let plan = Plan::new(space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

/// Ground truth: survivors found by a full sweep of the compiled engine.
fn sweep_count(lp: &LoweredPlan) -> u64 {
    Compiled::new(lp.clone()).run(CountVisitor::default()).unwrap().visitor.count
}

/// The flagship fixture: GEMM on the reduced(16) device has exactly 1824
/// survivors out of 8,259,231,744 dependent tuples (survival ≈ 2.2e-7 —
/// far thinner than ROADMAP's old 1824/432192 estimate, which is why
/// rejection sampling needs deep backtracking there). The counter must
/// agree with a full sweep, and its footprint cache must actually fire.
#[test]
fn gemm_reduced16_count_is_pinned() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let mut counter = Counter::new(&lp);
    let total = counter.total().unwrap();
    assert_eq!(total, Some(1824));
    assert_eq!(total, Some(sweep_count(&lp) as u128));
    assert!(
        counter.stats().cache_hits > 0,
        "footprint cache never fired on GEMM: {:?}",
        counter.stats()
    );
    assert_eq!(Counter::tuples(&lp).total().unwrap(), Some(8_259_231_744));
}

/// Same agreement on the reduced(32) device, where the survivor set is
/// larger and differently shaped.
#[test]
fn gemm_reduced32_count_matches_sweep() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(32)).unwrap());
    let expected = sweep_count(&lp) as u128;
    let mut counter = Counter::new(&lp);
    assert_eq!(counter.total().unwrap(), Some(expected));
}

/// Counting must beat enumeration on GEMM: the whole point of footprint
/// memoization is that the counter recurses into far fewer values than the
/// dependent tuple space holds.
#[test]
fn gemm_counting_is_cheaper_than_enumeration() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let mut counter = Counter::new(&lp);
    counter.total().unwrap();
    assert!(
        counter.stats().enumerated < 100_000,
        "counting did not beat enumeration (8.26e9 tuples): {:?}",
        counter.stats()
    );
}

/// The count-powered linter on reduced(16): BE009 reports the exact count
/// and rate, and the rate (≈2.2e-7) is far below 1e-4, so BE010 warns
/// that rejection sampling is impractical — exactly the finding the
/// direct sampler exists to answer.
#[test]
fn gemm_count_lints_report_the_exact_rate() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let report = analyze_with_counts(&lp);
    let be009 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "BE009")
        .expect("BE009 missing");
    assert!(be009.message.contains("1824"), "{}", be009.message);
    assert!(be009.message.contains("8259231744"), "{}", be009.message);
    let be010 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "BE010")
        .expect("BE010 missing");
    assert!(be010.message.contains("below 1e-4"), "{}", be010.message);
}

/// A seeded random constrained space: `dims` stepped ranges (some starting
/// at an earlier dimension's value), a derived product, and a mix of
/// threshold and divisibility constraints. Small enough that a full sweep
/// is instant; varied enough to exercise realization, residue filtering
/// and the footprint keys.
fn random_space(seed: u64) -> Arc<Space> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = rng.gen_range(1..4usize);
    let mut b = Space::builder(&format!("prop_{seed}"));
    for i in 0..dims {
        let name = format!("i{i}");
        let start = rng.gen_range(0..5i64);
        let step = rng.gen_range(1..4i64);
        let len = rng.gen_range(1..9i64);
        if i > 0 && rng.gen_bool(0.4) {
            // Dependent domain: start at the previous dimension's value.
            let prev = format!("i{}", i - 1);
            b = b.range_step(&name, var(&prev), lit(start + step * len), lit(step));
        } else {
            b = b.range_step(&name, lit(start), lit(start + step * len), lit(step));
        }
    }
    if dims >= 2 && rng.gen_bool(0.7) {
        b = b.derived("prod", var("i0") * var("i1"));
        b = b.constraint("prod_cap", ConstraintClass::Hard, var("prod").gt(rng.gen_range(5..40i64)));
    }
    for (c, i) in (0..dims).enumerate() {
        if rng.gen_bool(0.5) {
            let name = format!("c{c}");
            let v = format!("i{i}");
            if rng.gen_bool(0.5) {
                let m = rng.gen_range(2..5i64);
                b = b.constraint(&name, ConstraintClass::Hard, (var(&v) % m).ne(0));
            } else {
                b = b.constraint(&name, ConstraintClass::Hard, var(&v).gt(rng.gen_range(0..12i64)));
            }
        }
    }
    b.build().unwrap()
}

/// Footprint-cache soundness: on 40 seeded random spaces the memoized
/// count equals a brute-force enumeration by the engine, exactly.
#[test]
fn random_spaces_count_equals_enumeration() {
    for seed in 0..40u64 {
        let space = random_space(seed);
        let lp = lower(&space);
        let expected = sweep_count(&lp) as u128;
        let mut counter = Counter::new(&lp);
        assert_eq!(
            counter.total().unwrap(),
            Some(expected),
            "seed {seed}: count diverged from enumeration ({:?})",
            counter.stats()
        );
    }
}

/// Tuple mode (checks ignored) equals an unconstrained engine sweep on the
/// same seeded spaces: dependent domains still realize under outer values.
#[test]
fn random_spaces_tuple_count_equals_unconstrained_enumeration() {
    for seed in 0..20u64 {
        let space = random_space(seed);
        let lp = lower(&space);
        let survivors = sweep_count(&lp) as u128;
        let tuples = Counter::tuples(&lp).total().unwrap().unwrap();
        assert!(
            tuples >= survivors,
            "seed {seed}: fewer tuples ({tuples}) than survivors ({survivors})"
        );
        if space.constraints().is_empty() {
            assert_eq!(tuples, survivors, "seed {seed}: no constraints, counts must agree");
        }
    }
}

/// The tuple counter's work on dnn reduced(24) and reduced(32), pinned
/// exactly: the count, its cache traffic and the point where the default
/// budget gives up. `repro count` and the benchmark's reference counts
/// (`tuples: null` from DIM 32 on) rely on that abort point.
#[test]
fn gemm_tuple_count_stats_are_pinned() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(24)).unwrap());
    let mut tuples = Counter::tuples(&lp);
    assert_eq!(tuples.total().unwrap(), Some(165_294_930_944));
    let s = tuples.stats();
    assert_eq!((s.cache_hits, s.cache_misses, s.enumerated), (338_064, 307_057, 645_144));

    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(32)).unwrap());
    let mut tuples = Counter::tuples(&lp);
    assert_eq!(tuples.total().unwrap(), None);
    assert!(tuples.aborted());
    assert_eq!(tuples.stats().cache_misses, 500_006);
}

/// An exhausted budget reports `None`, never a wrong number.
#[test]
fn budget_exhaustion_is_explicit() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let mut counter = Counter::with_budget(
        &lp,
        CountBudget { max_enumerated: 50, ..CountBudget::default() },
    );
    assert_eq!(counter.total().unwrap(), None);
    assert!(counter.aborted());
}
