//! Tiny-size smoke runs of every workload through the binary, parsing the
//! result line each mode prints.

use std::process::Command;

/// Run one tiny workload and return its stdout lines.
fn run(workload: &str, trace: u8) -> Vec<String> {
    let dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_uvf-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    stdout.lines().map(String::from).collect()
}

/// The `"name": {"value": v, "unit": "u"}` entries of a result line.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = line.split_once("\"metrics\": {").expect("metrics object").1;
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once(": {\"value\": ").expect("value");
            let (value, unit) = rest.split_once(", \"unit\": ").expect("unit");
            (
                name.trim_matches('"').to_string(),
                value.parse().expect("numeric value"),
                unit.trim_end_matches('}').trim_matches('"').to_string(),
            )
        })
        .collect()
}

fn check_workload(workload: &str) {
    let plain = run(workload, 0);
    let last = plain.last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    assert!(plain.iter().any(|l| l.starts_with("host: nproc=")));
    assert!(plain.iter().any(|l| l.starts_with("fingerprint ")));
    let names: Vec<(String, String)> = metrics(last)
        .into_iter()
        .map(|(n, v, u)| {
            assert!(v > 0.0, "{workload}: {n} = {v}");
            (n, u)
        })
        .collect();
    let expected = [
        ("wall_s", "s"),
        ("setup_s", "s"),
        ("sim_mbit_per_s", "Mbit/s"),
        ("peak_rss_mb", "MiB"),
    ];
    assert_eq!(names, expected.map(|(n, u)| (n.to_string(), u.to_string())));

    let traced = run(workload, 1);
    let last = traced.last().expect("output");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let layer = metrics(last);
    assert_eq!(layer.len(), 46, "{last}");
    let get = |name: &str| {
        layer
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    let unattributed = get("bench.unattributed_pct");
    assert!((0.0..100.0).contains(&unattributed), "{unattributed}");
    assert!(traced.iter().any(|l| l.starts_with("self-time tree")));
    if workload == "fleet_characterization" {
        assert!(get("characterize.sweep.calls") > 0.0);
        assert!(get("characterize.probe_sample.calls") > 0.0);
        assert_eq!(get("nn.eval.calls"), 0.0);
    } else {
        assert!(get("nn.eval.calls") > 0.0);
        assert!(get("nn.train.epochs") > 0.0);
        assert!((0.0..=1.0).contains(&get("nn.eval.unchanged_prefix_mac_share")));
    }
}

#[test]
fn fleet_characterization_smoke() {
    check_workload("fleet_characterization");
}

#[test]
fn layer_isolation_smoke() {
    check_workload("layer_isolation");
}

#[test]
fn mitigation_ladder_smoke() {
    check_workload("mitigation_ladder");
}
