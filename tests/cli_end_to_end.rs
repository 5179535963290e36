//! End-to-end tests of the `lattice` binary: real process, real argv,
//! real stdout — the outermost layer of the stack.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn lattice(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lattice")).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs the binary like [`lattice`] but returns its exit code, and
/// kills it (failing the test) if it outlives `secs` — a command that
/// should be refused must not spin or start serving instead.
fn lattice_within(secs: u64, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lattice"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`lattice {}` still running after {secs} s", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("binary output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (ok, _, err) = lattice(&[]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, err) = lattice(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn gas_run_conserves_and_reports() {
    let (ok, out, _) = lattice(&[
        "gas",
        "--model",
        "fhp3",
        "--rows",
        "16",
        "--cols",
        "16",
        "--steps",
        "15",
        "--density",
        "0.4",
        "--seed",
        "9",
        "--periodic",
    ]);
    assert!(ok);
    assert!(out.contains("fhp3 on 16x16 (torus)"));
    // Mass line shows identical before/after (conservation).
    let mass_line = out.lines().find(|l| l.starts_with("mass")).unwrap();
    let parts: Vec<&str> = mass_line.split("->").collect();
    let before: u64 = parts[0].split_whitespace().last().unwrap().parse().unwrap();
    let after: u64 = parts[1].trim().parse().unwrap();
    assert_eq!(before, after);
}

#[test]
fn engine_run_reports_throughput() {
    let (ok, out, _) = lattice(&[
        "engine",
        "--arch",
        "spa",
        "--slice-width",
        "12",
        "--depth",
        "2",
        "--rows",
        "24",
        "--cols",
        "48",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("updates/tick"));
    assert!(out.contains("SR cells/stage"));
}

#[test]
fn design_recommends_an_architecture() {
    let (ok, out, _) = lattice(&["design", "--l", "500", "--rate", "4e7", "--budget", "64"]);
    assert!(ok);
    assert!(out.contains("WSA:   P = 4"));
    assert!(out.contains("recommended"));
}

#[test]
fn pebble_reports_bounds() {
    let (ok, out, _) = lattice(&["pebble", "--d", "1", "--r", "64", "--t", "16", "--s", "128"]);
    assert!(ok);
    assert!(out.contains("Hong-Kung I/O lower bound"));
    assert!(out.contains("tiled schedule"));
}

#[test]
fn checkpoint_roundtrip_through_the_binary() {
    let dir = std::env::temp_dir();
    let p1 = dir.join("lattice_e2e_a.lgc");
    let p2 = dir.join("lattice_e2e_b.lgc");
    let p1s = p1.to_string_lossy().into_owned();
    let p2s = p2.to_string_lossy().into_owned();

    let (ok, _, _) = lattice(&[
        "gas",
        "--model",
        "fhp1",
        "--rows",
        "10",
        "--cols",
        "12",
        "--steps",
        "4",
        "--seed",
        "42",
        "--periodic",
        "--save",
        &p1s,
    ]);
    assert!(ok);
    let (ok, out, _) = lattice(&[
        "resume",
        "--load",
        &p1s,
        "--model",
        "fhp1",
        "--steps",
        "4",
        "--seed",
        "42",
        "--periodic",
        "--save",
        &p2s,
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("now at 8"));

    // The resumed checkpoint equals an uninterrupted 8-step run.
    use lattice_engines::core::{checkpoint, evolve, Boundary, Shape};
    use lattice_engines::gas::{init, FhpRule, FhpVariant};
    let (resumed, t) = checkpoint::load::<u8>(&std::fs::read(&p2).unwrap()).unwrap();
    assert_eq!(t.get(), 8);
    let shape = Shape::grid2(10, 12).unwrap();
    let g0 = init::random_fhp(shape, FhpVariant::I, 0.3, 42, true).unwrap();
    let rule = FhpRule::new(FhpVariant::I, 42).with_wrap(10, 12);
    assert_eq!(resumed, evolve(&g0, &rule, Boundary::Periodic, 0, 8));

    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

#[test]
fn image_and_waveform_render() {
    let (ok, out, _) =
        lattice(&["image", "--chain", "median,threshold", "--rows", "10", "--cols", "20"]);
    assert!(ok);
    assert!(out.contains("applied median"));
    let (ok, out, _) = lattice(&["waveform", "--depth", "3", "--rows", "10", "--cols", "12"]);
    assert!(ok);
    assert!(out.contains("stage2"));
    assert!(out.contains("wavefront"));
}

#[test]
fn bad_flag_values_fail_cleanly() {
    let (ok, _, err) = lattice(&["gas", "--rows", "many"]);
    assert!(!ok);
    assert!(err.contains("bad value for --rows"));
    let (ok, _, err) = lattice(&["resume"]);
    assert!(!ok);
    assert!(err.contains("--load"));
}

#[test]
fn torus_partition_errors_name_the_axis_they_reject() {
    let farm = |grid: &str, rows: &str, cols: &str| {
        let args = ["farm", "--periodic", "--grid", grid, "--rows", rows, "--cols", cols];
        let (code, out, err) = lattice_within(60, &[&args[..], &["--depth", "2"]].concat());
        assert_eq!(code, Some(2), "{grid}: {err}");
        assert!(out.is_empty(), "{grid}: {out}");
        err
    };
    let rows = farm("3x1", "4", "8");
    assert!(rows.contains("torus board row 1 owns 1 rows but the halo is 2 deep"), "{rows}");
    assert!(rows.contains("(4 rows / 3 board rows, depth 2)"), "{rows}");
    let cols = farm("1x3", "8", "4");
    assert!(cols.contains("torus shard 1 owns 1 columns but the halo is 2 wide"), "{cols}");
    assert!(cols.contains("(4 cols / 3 shards, depth 2)"), "{cols}");
}

#[test]
fn every_subcommand_rejects_unknown_repeated_and_mismatched_flags() {
    const SUBCOMMANDS: [&str; 14] = [
        "gas",
        "engine",
        "resume",
        "design",
        "pebble",
        "image",
        "waveform",
        "fault-sim",
        "farm",
        "chaos",
        "serve",
        "request",
        "bench",
        "info",
    ];
    // An unknown flag is named, even ahead of a missing required one,
    // and nothing runs: `serve` must fail before it binds.
    for cmd in SUBCOMMANDS {
        let (code, out, err) = lattice_within(60, &[cmd, "--bogus", "1"]);
        assert_eq!(code, Some(2), "{cmd}: {err}");
        assert!(err.contains("--bogus"), "{cmd}: {err}");
        assert!(out.is_empty(), "{cmd}: {out}");
    }
    let refused: [&[&str]; 13] = [
        // Repeated flag.
        &["pebble", "--d", "2", "--d", "3"],
        // A switch given a value.
        &["gas", "--periodic", "yes"],
        // A value flag given bare.
        &["gas", "--rows"],
        // Flags of the other mode.
        &["fault-sim", "--farm-shards", "2"],
        &["fault-sim", "--farm-grid", "2x2"],
        &["fault-sim", "--stuck-board", "1"],
        &["fault-sim", "--overlap"],
        &["fault-sim", "--farm", "--stuck-chip", "1"],
        &["chaos", "--serve", "--rows", "40"],
        &["chaos", "--serve", "--cols", "40"],
        &["chaos", "--serve", "--io-rate", "0.2"],
        // A misspelling no longer runs on defaults.
        &["farm", "--stpes", "100"],
        &["bench", "--shard", "1"],
    ];
    for args in refused {
        let (code, out, err) = lattice_within(60, args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: {out}");
    }
}

#[test]
fn huge_steps_are_refused_promptly() {
    // The confinement margin is 2x --steps: a count whose double
    // overflows must be refused, not panic or wrap to a passing check.
    for args in [
        ["fault-sim", "--steps", "18446744073709551615"],
        ["chaos", "--steps", "9223372036854775808"],
    ] {
        let (code, out, err) = lattice_within(60, &args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("must exceed 2x --steps"), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: {out}");
    }
}

#[test]
fn out_of_range_densities_sizes_and_rates_are_refused() {
    // A density is a probability, a lattice edge, horizon or memory
    // holds at least one site, and a target rate is finite and positive:
    // anything else is refused before any work, with exit 2.
    for (args, message) in [
        (&["gas", "--density", "1.5"][..], "density must be in [0, 1], got 1.5"),
        (&["gas", "--density", "NaN"], "density must be in [0, 1], got NaN"),
        (&["gas", "--density", "-0.1"], "density must be in [0, 1], got -0.1"),
        (&["pebble", "--r", "0"], "pebble: --r must be at least 1"),
        (&["pebble", "--t", "0"], "pebble: --t must be at least 1"),
        (&["pebble", "--s", "0"], "pebble: --s must be at least 1"),
        (&["design", "--l", "0"], "design: --l must be at least 1"),
        (&["design", "--rate", "inf"], "design: --rate must be finite and positive, got inf"),
        (&["design", "--rate", "NaN"], "design: --rate must be finite and positive, got NaN"),
        (&["design", "--rate", "-5"], "design: --rate must be finite and positive, got -5"),
        (&["design", "--rate", "0"], "design: --rate must be finite and positive, got 0"),
    ] {
        let (code, out, err) = lattice_within(60, args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: {out}");
    }
    // The edges of the valid ranges and the defaults still run.
    for args in [
        &["gas"][..],
        &["gas", "--density", "0"],
        &["gas", "--density", "1"],
        &["pebble"],
        &["design"],
    ] {
        let (code, out, err) = lattice_within(60, args);
        assert_eq!(code, Some(0), "{args:?}: {err}");
        assert!(!out.is_empty(), "{args:?}");
    }
    let (code, out, err) = lattice_within(60, &["design", "--budget", "0"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("no architecture fits"), "{out}");
}

#[test]
fn links_too_slow_to_count_ticks_are_refused() {
    // A link so slow that the machine's tick count overflows a u64
    // must fail the run, not print a wrapped report; a capacity that
    // is not finite is refused before the farm is built.
    for args in [
        &["farm", "--link-bits", "1e-300"][..],
        &["farm", "--link-bits", "inf"],
        &["farm", "--grid", "2x2", "--tier-bits", "inf"],
    ] {
        let (code, out, err) = lattice_within(60, args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("overflows") || err.contains("finite"), "{args:?}: {err}");
        assert!(!out.contains("machine ticks"), "{args:?}: {out}");
    }
}
