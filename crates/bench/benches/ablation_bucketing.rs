//! Ablation: the naive nested-loop intersection oracle (§3.2.2) vs the
//! residue-indexed batch kernel behind `intersect_in` (the Appendix A.3
//! `N²/k^m` refinement made operational).
//!
//! The paper predicts the win grows with the period `k` (more residue
//! classes → fewer colliding pairs). Coalescing (the Lemma 3.1 inverse) is measured
//! alongside, on the complement outputs it is designed to shrink.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itd_core::ExecContext;
use itd_workload::{random_relation, RelationSpec};

fn spec(n: usize, k: i64) -> RelationSpec {
    RelationSpec {
        tuples: n,
        temporal_arity: 2,
        period: k,
        data_arity: 0,
        constraint_density: 0.5,
        bound_steps: 5,
    }
}

fn bench_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_intersection_index");
    for &k in &[2i64, 4, 8, 16] {
        let n = 128usize;
        let a = random_relation(&spec(n, k), 1);
        let b = random_relation(&spec(n, k), 2);
        let ctx = ExecContext::serial();
        group.bench_with_input(BenchmarkId::new("oracle", k), &k, |bch, _| {
            bch.iter(|| a.intersect_unindexed_in(&b, &ctx).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("kernel", k), &k, |bch, _| {
            bch.iter(|| a.intersect_in(&b, &ctx).unwrap())
        });
    }
    group.finish();
}

fn bench_coalesce(c: &mut Criterion) {
    use itd_core::{Atom, GenRelation, GenTuple, Lrp, Schema};
    let mut group = c.benchmark_group("ablation_coalesce");
    for &k in &[4i64, 8, 16] {
        let r = GenRelation::new(
            Schema::new(1, 0),
            vec![GenTuple::builder()
                .lrps(vec![Lrp::new(0, k).unwrap()])
                .atoms([Atom::ge(0, 0)])
                .build()
                .unwrap()],
        )
        .unwrap();
        let comp = r.complement_temporal().unwrap();
        group.bench_with_input(BenchmarkId::new("coalesce", k), &comp, |bch, comp| {
            bch.iter(|| comp.compact().unwrap())
        });
    }
    group.finish();
}

fn bench_partial_projection(c: &mut Criterion) {
    use itd_core::{ops, Atom, GenTuple, Lrp};
    let mut group = c.benchmark_group("ablation_partial_projection");
    for &kc in &[7i64, 11, 13] {
        // Figure 2's coupled pair plus one unrelated column of coprime
        // period kc: full normalization fans out by lcm, partial does not.
        let t = GenTuple::builder()
            .lrps(vec![
                Lrp::new(3, 4).unwrap(),
                Lrp::new(1, 8).unwrap(),
                Lrp::new(2, kc).unwrap(),
            ])
            .atoms([
                Atom::diff_ge(0, 1, 0).unwrap(),
                Atom::diff_le(0, 1, 5),
                Atom::ge(1, 2),
                Atom::le(2, 1000),
            ])
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("full", kc), &t, |bch, t| {
            bch.iter(|| ops::project_tuple_full(t, &[0, 2], &[]).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("partial", kc), &t, |bch, t| {
            bch.iter(|| ops::project_tuple(t, &[0, 2], &[]).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_index,
    bench_coalesce,
    bench_partial_projection
);
criterion_main!(benches);
