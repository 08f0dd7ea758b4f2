//! `--workload all` runs every workload and prints one result line each,
//! and no workload reports a peak resident set inherited from another.

use std::process::Command;

fn value(line: &str, metric: &str) -> f64 {
    let at = line.find(&format!("\"{metric}\"")).expect("metric present");
    let rest = &line[at..];
    let v = rest.find("\"value\": ").expect("value present") + "\"value\": ".len();
    let end = rest[v..].find(',').expect("value ends") + v;
    rest[v..end].parse().expect("a number")
}

#[test]
fn every_workload_reports_its_own_peak_rss() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark starts");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), 3, "one result per workload:\n{stdout}");
    for l in &lines {
        assert!(l.contains("\"correct\": true"), "{l}");
    }
    // stream_short runs first and peaks near 256 MiB; long_homolog alone
    // peaks near 124 MiB.
    let first = value(lines[0], "peak_rss_mb");
    let second = value(lines[1], "peak_rss_mb");
    assert!(
        second < 0.75 * first,
        "long_homolog peak {second:.1} MiB, stream_short peak {first:.1} MiB"
    );
}
