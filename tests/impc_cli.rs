//! End-to-end tests of the `impc` compiler driver binary.

use std::process::Command;

fn impc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_impc"))
        .args(args)
        .output()
        .expect("impc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn kernel_path(name: &str) -> String {
    format!(
        "{}/../../examples/kernels/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn compiles_and_reports_stats() {
    let (stdout, stderr, ok) = impc(&[&kernel_path("saxpy.imp")]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("instruction blocks"), "{stdout}");
    assert!(stdout.contains("module latency"), "{stdout}");
    assert!(stdout.contains("instruction mix"), "{stdout}");
}

#[test]
fn disassembles() {
    let (stdout, _, ok) = impc(&[&kernel_path("softplus.imp"), "--disasm", "--policy", "dlp"]);
    assert!(ok);
    assert!(stdout.contains("instruction block 0"), "{stdout}");
    assert!(
        stdout.contains("lut "),
        "sigmoid must lower through the LUT: {stdout}"
    );
    assert!(
        stdout.contains("movs "),
        "select must lower to movs: {stdout}"
    );
}

#[test]
fn runs_with_midpoint_inputs() {
    let (stdout, stderr, ok) = impc(&[&kernel_path("saxpy.imp"), "--run"]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("executed with range-midpoint inputs"),
        "{stdout}"
    );
    assert!(stdout.contains("energy"), "{stdout}");
}

#[test]
fn rangecheck_passes_for_shipped_kernels() {
    for kernel in ["saxpy.imp", "softplus.imp", "l2norm.imp"] {
        let (stdout, _, ok) = impc(&[&kernel_path(kernel), "--rangecheck"]);
        assert!(ok, "{kernel}: {stdout}");
        assert!(
            stdout.contains("overflowing nodes at Q16.16: 0"),
            "{stdout}"
        );
    }
}

#[test]
fn bad_input_fails_cleanly() {
    let (_, stderr, ok) = impc(&["/nonexistent/kernel.imp"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");

    let (_, stderr, ok) = impc(&[&kernel_path("saxpy.imp"), "--policy", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"), "{stderr}");
}

#[test]
fn usage_without_arguments() {
    let (_, stderr, ok) = impc(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn policy_value_before_the_path_is_not_the_path() {
    let (stdout, stderr, ok) = impc(&["--policy", "ilp", &kernel_path("l2norm.imp")]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("instruction blocks"), "{stdout}");
}

#[test]
fn unknown_flags_are_rejected_with_usage() {
    let (stdout, stderr, ok) = impc(&[&kernel_path("saxpy.imp"), "--disasmm"]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("unknown argument `--disasmm`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn run_prints_outputs_in_fetch_order() {
    // l2norm fetches `per_dim`, then `total`; a hash-ordered listing
    // swaps them in about half of all runs.
    for _ in 0..8 {
        let (stdout, stderr, ok) = impc(&[&kernel_path("l2norm.imp"), "--run"]);
        assert!(ok, "stderr: {stderr}");
        let per_dim = stdout.find("  per_dim = ").expect("per_dim printed");
        let total = stdout.find("  total = ").expect("total printed");
        assert!(per_dim < total, "{stdout}");
    }
}
