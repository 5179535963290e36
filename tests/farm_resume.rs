//! Kill-and-resume through the durable checkpoint store: a farm run
//! that dies mid-stream must be reconstructible from `--checkpoint-dir`
//! bytes alone, and the resumed run must be bit-exact against an
//! uninterrupted reference — including FHP rules whose chirality
//! hashes absolute (row, col, t), so a wrong restored generation stamp
//! would shift the physics.

use lattice_engines::core::checkpoint::store::{
    reassemble, CheckpointStore, DiskBackend, GEN_FILES,
};
use lattice_engines::core::{evolve, Boundary, Shape};
use lattice_engines::farm::{FarmRecoveryConfig, LatticeFarm, ShardEngine};
use lattice_engines::gas::{init, FhpRule, FhpVariant, HppRule};

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lattice-resume-{tag}-{}", std::process::id()))
}

#[test]
fn killed_farm_resumes_bit_exact_from_disk() {
    let dir = temp_store_dir("fhp");
    let _ = std::fs::remove_dir_all(&dir);

    let shape = Shape::grid2(10, 23).unwrap();
    let g0 = init::random_fhp(shape, FhpVariant::III, 0.35, 17, false).unwrap();
    let rule = FhpRule::new(FhpVariant::III, 6);
    let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 1 }, 2);
    let cfg = FarmRecoveryConfig { checkpoint_every: 1, ..FarmRecoveryConfig::default() };

    // Leg 1: the run that gets "killed" after 6 of 10 generations.
    {
        let mut store = CheckpointStore::open(DiskBackend::open(&dir).unwrap()).unwrap();
        farm.run_with_recovery_audited(
            &rule,
            &g0,
            0,
            6,
            None,
            &cfg,
            |_, _| Ok(()),
            None,
            Some(&mut store),
        )
        .unwrap();
    } // everything in-memory is gone; only the directory survives

    // Leg 2: a fresh process-equivalent reconstructs the farm from disk.
    let mut store = CheckpointStore::open(DiskBackend::open(&dir).unwrap()).unwrap();
    let loaded = store.load_latest().unwrap().expect("snapshots were committed");
    assert!(!loaded.fell_back);
    let (mid, t) = reassemble::<u8>(&loaded.snapshot).unwrap();
    assert_eq!(t.get(), 6, "final state of leg 1 is durably recorded");
    assert_eq!(mid.shape(), shape);
    let done = farm
        .run_with_recovery_audited(
            &rule,
            &mid,
            t.get(),
            4,
            None,
            &cfg,
            |_, _| Ok(()),
            None,
            Some(&mut store),
        )
        .unwrap();

    let reference = evolve(&g0, &rule, Boundary::null(), 0, 10);
    assert_eq!(done.report.grid(), &reference, "resumed run must be bit-exact");

    // The completed run's final state is also durably recorded.
    let fin = store.load_latest().unwrap().unwrap();
    assert_eq!(fin.snapshot.time.get(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_falls_back_when_newest_generation_is_torn() {
    let dir = temp_store_dir("torn");
    let _ = std::fs::remove_dir_all(&dir);

    let shape = Shape::grid2(8, 18).unwrap();
    let g0 = init::random_hpp(shape, 0.4, 5).unwrap();
    let rule = HppRule::new();
    let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 2 }, 2);
    let cfg = FarmRecoveryConfig { checkpoint_every: 1, ..FarmRecoveryConfig::default() };

    {
        let mut store = CheckpointStore::open(DiskBackend::open(&dir).unwrap()).unwrap();
        farm.run_with_recovery_audited(
            &rule,
            &g0,
            0,
            4,
            None,
            &cfg,
            |_, _| Ok(()),
            None,
            Some(&mut store),
        )
        .unwrap();
    }

    // Tear the newest generation on disk (a crash mid-storm that the
    // backend's rename could not make atomic — e.g. lost journal).
    let mut newest: Option<(std::path::PathBuf, u64)> = None;
    for name in GEN_FILES {
        let p = dir.join(name);
        if let Ok(m) = std::fs::read(&p) {
            // Newest = higher seq, stored little-endian at offset 6.
            let seq = u64::from_le_bytes(m[6..14].try_into().unwrap());
            if newest.as_ref().map(|&(_, s)| seq > s).unwrap_or(true) {
                newest = Some((p, seq));
            }
        }
    }
    let (victim, _) = newest.expect("generation files exist");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    // Resume falls back to the previous good generation and still
    // reaches a bit-exact final state (it just replays more passes).
    let mut store = CheckpointStore::open(DiskBackend::open(&dir).unwrap()).unwrap();
    let loaded = store.load_latest().unwrap().unwrap();
    assert!(loaded.fell_back, "torn newest generation must be skipped");
    let (mid, t) = reassemble::<u8>(&loaded.snapshot).unwrap();
    assert!(t.get() < 4);
    let done = farm
        .run_with_recovery_audited(
            &rule,
            &mid,
            t.get(),
            8 - t.get(),
            None,
            &cfg,
            |_, _| Ok(()),
            None,
            Some(&mut store),
        )
        .unwrap();
    let reference = evolve(&g0, &rule, Boundary::null(), 0, 8);
    assert_eq!(done.report.grid(), &reference);
    let _ = std::fs::remove_dir_all(&dir);
}
