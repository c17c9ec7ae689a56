//! `CompiledKernel` bit-identity golden: every field of the kernels the
//! compiler emits for a fixed matrix — the eight corpus kernels × three
//! optimization policies × two instance counts, plus the shipped
//! `examples/kernels/*.imp` under each policy — is digested and compared
//! against the checked-in `tests/golden/kernel_digest.txt`.
//!
//! A host-speed change to the compiler must leave this file
//! byte-identical: encoded instructions, cross-IB deps, input rows, LUT
//! contents, provenance, peak occupancy, the schedule, outputs, format and
//! parallel spec are all in the digest.
//! Compiles that fail digest the error instead.
//!
//! To regenerate after an *intentional* compiler change:
//! `KERNEL_DIGEST_GOLDEN_UPDATE=1 cargo test -p imp-compiler --test kernel_digest`

use imp_compiler::{compile, CompileError, CompileOptions, CompiledKernel, OptPolicy};
use imp_isa::LUT_ENTRIES;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/kernel_digest.txt"
);

const KERNELS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/kernels");

const POLICIES: [OptPolicy; 3] = [
    OptPolicy::MaxDlp,
    OptPolicy::MaxIlp,
    OptPolicy::MaxArrayUtil,
];

/// Instance counts of the corpus matrix: one group, and the 2,048-instance
/// size the simulator benchmark runs.
const INSTANCES: [usize; 2] = [8, 2048];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// A digest of every field of `kernel`.
fn digest(kernel: &CompiledKernel) -> u64 {
    let mut h = Fnv::new();
    h.u64(kernel.ibs.len() as u64);
    for ib in &kernel.ibs {
        h.bytes(ib.block.name().as_bytes());
        h.bytes(&ib.block.encode());
        h.debug(&ib.deps);
        h.debug(&ib.input_rows);
        h.debug(&ib.lut.kind());
        let entries: Vec<u8> = (0..LUT_ENTRIES).map(|i| ib.lut.entry(i)).collect();
        h.bytes(&entries);
        h.u64(ib.peak_rows as u64);
        h.u64(ib.peak_regs as u64);
        h.debug(&ib.provenance);
    }
    h.debug(&kernel.outputs);
    h.debug(&kernel.format);
    h.debug(&kernel.parallel);
    let s = &kernel.schedule;
    h.debug(&s.entries);
    h.u64(s.module_latency);
    h.debug(&s.ib_latencies);
    h.debug(&s.placements);
    h.debug(&s.buffer_refills);
    h.debug(&s.pipelining);
    h.debug(&kernel.stats());
    h.debug(&kernel.module);
    h.0
}

/// One golden line; `size` is the instance count the kernel was compiled
/// for (`default` for the shipped `.imp` files).
fn line(
    name: &str,
    policy: OptPolicy,
    size: &str,
    result: &Result<CompiledKernel, CompileError>,
) -> String {
    let result = match result {
        Ok(kernel) => format!(
            "ok {:016x} ibs={} insts={}",
            digest(kernel),
            kernel.stats().num_ibs,
            kernel.stats().total_instructions
        ),
        Err(err) => {
            let mut h = Fnv::new();
            h.bytes(err.to_string().as_bytes());
            format!("err {:016x}", h.0)
        }
    };
    format!("{name} {policy:?} {size} {result}\n")
}

fn digest_lines() -> String {
    let mut out = String::new();
    for workload in imp_workloads::all_workloads() {
        for policy in POLICIES {
            for n in INSTANCES {
                out += &line(
                    workload.name,
                    policy,
                    &n.to_string(),
                    &workload.compile(n, policy),
                );
            }
        }
    }
    let mut files: Vec<_> = std::fs::read_dir(KERNELS_DIR)
        .expect("examples/kernels")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "imp"))
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read kernel");
        let parsed = imp_dfg::textfmt::parse(&text).expect("shipped kernel parses");
        let name = path.file_name().expect("file name").to_string_lossy();
        for policy in POLICIES {
            let options = CompileOptions {
                policy,
                ranges: parsed.ranges.clone(),
                ..Default::default()
            };
            out += &line(&name, policy, "default", &compile(&parsed.graph, &options));
        }
    }
    out
}

#[test]
fn compiled_kernels_match_digest_golden() {
    let lines = digest_lines();
    if std::env::var_os("KERNEL_DIGEST_GOLDEN_UPDATE").is_some() {
        std::fs::write(GOLDEN_PATH, &lines).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — regenerate with KERNEL_DIGEST_GOLDEN_UPDATE=1");
    for (got, want) in lines.lines().zip(golden.lines()) {
        assert_eq!(got, want, "compiled-kernel digest drifted");
    }
    assert_eq!(
        lines.lines().count(),
        golden.lines().count(),
        "digest matrix size changed"
    );
}
