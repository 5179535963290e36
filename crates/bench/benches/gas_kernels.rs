//! Criterion micro-benchmarks: lattice-gas update kernels.
//!
//! Measures the software cost of one generation for each gas model on
//! the reference engine — the quantity a host CPU brings to the table
//! against which the paper's hardware engines are the alternative.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lattice_core::{evolve_into, Boundary, Grid, Shape};
use lattice_gas::{init, FhpRule, FhpVariant, HppRule};

fn bench_models(c: &mut Criterion) {
    let shape = Shape::grid2(256, 256).unwrap();
    let n = shape.len() as u64;
    let mut group = c.benchmark_group("gas_generation_256x256");
    group.throughput(Throughput::Elements(n));
    group.sample_size(20);

    let hpp_grid = init::random_hpp(shape, 0.3, 1).unwrap();
    let hpp = HppRule::new();
    group.bench_function("hpp", |b| {
        let mut dst = Grid::new(shape);
        b.iter(|| evolve_into(&hpp_grid, &mut dst, &hpp, Boundary::Periodic, 0).unwrap());
    });

    for (name, variant) in
        [("fhp1", FhpVariant::I), ("fhp2", FhpVariant::II), ("fhp3", FhpVariant::III)]
    {
        let grid = init::random_fhp(shape, variant, 0.3, 1, true).unwrap();
        let rule = FhpRule::new(variant, 7).with_wrap(256, 256);
        group.bench_function(name, |b| {
            let mut dst = Grid::new(shape);
            b.iter(|| evolve_into(&grid, &mut dst, &rule, Boundary::Periodic, 0).unwrap());
        });
    }
    group.finish();
}

fn bench_bitparallel(c: &mut Criterion) {
    use lattice_gas::bitparallel::HppBitLattice;
    let shape = Shape::grid2(512, 512).unwrap();
    let grid = init::random_hpp(shape, 0.3, 4).unwrap();
    let mut group = c.benchmark_group("hpp_512x512_kernels");
    group.throughput(Throughput::Elements(shape.len() as u64));
    group.sample_size(20);
    let hpp = HppRule::new();
    group.bench_function("table_driven", |b| {
        let mut dst = Grid::new(shape);
        b.iter(|| evolve_into(&grid, &mut dst, &hpp, Boundary::Periodic, 0).unwrap());
    });
    group.bench_function("bit_parallel", |b| {
        let mut packed = HppBitLattice::from_grid(&grid).unwrap();
        b.iter(|| packed.step());
    });
    group.finish();

    // FHP-I: table-driven vs multi-spin-coded boolean algebra.
    use lattice_gas::fhp_bitparallel::FhpBitLattice;
    use lattice_gas::{FhpRule, FhpVariant};
    let fgrid = init::random_fhp(shape, FhpVariant::I, 0.3, 4, true).unwrap();
    let mut fgroup = c.benchmark_group("fhp1_512x512_kernels");
    fgroup.throughput(Throughput::Elements(shape.len() as u64));
    fgroup.sample_size(20);
    let frule = FhpRule::new(FhpVariant::I, 9).with_wrap(512, 512);
    fgroup.bench_function("table_driven", |b| {
        let mut dst = Grid::new(shape);
        b.iter(|| evolve_into(&fgrid, &mut dst, &frule, Boundary::Periodic, 0).unwrap());
    });
    fgroup.bench_function("bit_parallel", |b| {
        let mut packed = FhpBitLattice::from_grid(&fgrid, 7).unwrap();
        b.iter(|| packed.step());
    });
    fgroup.finish();
}

fn bench_tiled_locality(c: &mut Criterion) {
    // The software mirror of R = O(B·S^{1/d}): k generations in one
    // tiled pass vs k whole-lattice sweeps.
    use lattice_core::tiled::evolve_tiled;
    let shape = Shape::grid2(512, 512).unwrap();
    let grid = init::random_hpp(shape, 0.3, 4).unwrap();
    let hpp = HppRule::new();
    let k = 8u64;
    let mut group = c.benchmark_group("hpp_512x512_8gens");
    group.throughput(Throughput::Elements(k * shape.len() as u64));
    group.sample_size(10);
    group.bench_function("whole_lattice_sweeps", |b| {
        b.iter(|| {
            let mut cur = grid.clone();
            let mut nxt = Grid::new(shape);
            for t in 0..k {
                evolve_into(&cur, &mut nxt, &hpp, Boundary::Fixed(0), t).unwrap();
                std::mem::swap(&mut cur, &mut nxt);
            }
            cur
        });
    });
    for tile in [32usize, 64, 128] {
        group.bench_with_input(BenchmarkId::new("tiled", tile), &tile, |b, &tile| {
            b.iter(|| evolve_tiled(&grid, &hpp, 0, k, tile).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_models, bench_bitparallel, bench_tiled_locality);
criterion_main!(benches);
