//! Corpus-clean and mutation tests for the static verifier.
//!
//! Every workload kernel must verify with zero error-severity findings;
//! each mutation corrupts exactly one invariant and must trigger exactly
//! the corresponding rule id.

use imp_compiler::module::vaddr;
use imp_compiler::schedule::{Placement, ScheduledInst};
use imp_compiler::{ArrayAvailability, CompiledKernel, OptPolicy, ParallelSpec};
use imp_isa::{Addr, GlobalAddr, Instruction, InstructionBlock};
use imp_verify::{verify_kernel, verify_structure, verify_with, Severity};

fn kernel(name: &str) -> CompiledKernel {
    imp_workloads::workload(name)
        .expect("known workload")
        .compile(64, OptPolicy::MaxIlp)
        .expect("workload compiles")
}

/// Rule ids of error-severity findings, deduplicated in order.
fn error_rules(report: &imp_verify::VerifyReport) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = Vec::new();
    for d in report.errors() {
        if !rules.contains(&d.rule) {
            rules.push(d.rule);
        }
    }
    rules
}

/// Replaces instruction `pc` of IB `ib` with `inst`, leaving the
/// schedule and dependence lists untouched so only the intended
/// invariant breaks.
fn replace_inst(kernel: &mut CompiledKernel, ib: usize, pc: usize, inst: Instruction) {
    let block = &kernel.ibs[ib].block;
    let mut instructions: Vec<Instruction> = block.instructions().to_vec();
    instructions[pc] = inst;
    kernel.ibs[ib].block = InstructionBlock::from_instructions(block.name(), instructions);
}

/// Finds the first instruction matching `pred`, across all IBs.
fn find_inst(kernel: &CompiledKernel, pred: impl Fn(&Instruction) -> bool) -> (usize, usize) {
    for (i, ib) in kernel.ibs.iter().enumerate() {
        for (pc, inst) in ib.block.instructions().iter().enumerate() {
            if pred(inst) {
                return (i, pc);
            }
        }
    }
    panic!("no instruction matching predicate");
}

#[test]
fn corpus_verifies_clean_at_deny() {
    for w in imp_workloads::all_workloads() {
        for policy in [
            OptPolicy::MaxDlp,
            OptPolicy::MaxIlp,
            OptPolicy::MaxArrayUtil,
        ] {
            let kernel = w.compile(64, policy).expect("workload compiles");
            let report = verify_kernel(&kernel);
            assert!(
                report.passes_deny(),
                "{} under {policy:?} fails Deny:\n{}",
                w.name,
                report.render()
            );
        }
    }
}

#[test]
fn isa01_out_of_range_operand() {
    let mut k = kernel("blackscholes");
    let (ib, pc) = find_inst(&k, |i| matches!(i, Instruction::Mul { .. }));
    let Instruction::Mul { b, dst, .. } = k.ibs[ib].block.instructions()[pc] else {
        unreachable!()
    };
    replace_inst(
        &mut k,
        ib,
        pc,
        Instruction::Mul {
            a: Addr::Mem(200),
            b,
            dst,
        },
    );
    let report = verify_kernel(&k);
    let rules = error_rules(&report);
    assert!(
        rules.contains(&"ISA01"),
        "got {rules:?}:\n{}",
        report.render()
    );
}

#[test]
fn isa01_shift_of_a_word_or_more() {
    for amount in [32u8, 200] {
        let mut k = kernel("blackscholes");
        let (ib, pc) = find_inst(&k, |i| {
            matches!(i, Instruction::ShiftL { .. } | Instruction::ShiftR { .. })
        });
        let inst = match k.ibs[ib].block.instructions()[pc] {
            Instruction::ShiftL { src, dst, .. } => Instruction::ShiftL { src, dst, amount },
            Instruction::ShiftR { src, dst, .. } => Instruction::ShiftR { src, dst, amount },
            _ => unreachable!(),
        };
        replace_inst(&mut k, ib, pc, inst);
        let report = verify_kernel(&k);
        let found: Vec<_> = report.errors().map(|d| (d.rule, d.ib, d.pc)).collect();
        assert_eq!(
            found,
            vec![("ISA01", Some(ib), Some(pc))],
            "{}",
            report.render()
        );
    }
}

#[test]
fn isa02_malformed_global_address() {
    let mut k = kernel("kmeans");
    let (ib, pc) = find_inst(&k, |i| matches!(i, Instruction::Movg { .. }));
    let Instruction::Movg { src, .. } = k.ibs[ib].block.instructions()[pc] else {
        unreachable!()
    };
    // Retarget the delivery at an IB the kernel does not have.
    let bad_ib = k.ibs.len() + 7;
    replace_inst(
        &mut k,
        ib,
        pc,
        Instruction::Movg {
            src,
            dst: vaddr::cross_ib(bad_ib, 0),
        },
    );
    let report = verify_kernel(&k);
    let rules = error_rules(&report);
    assert!(
        rules.contains(&"ISA02"),
        "got {rules:?}:\n{}",
        report.render()
    );
}

#[test]
fn isa02_movg_source_row_past_the_array() {
    let mut k = kernel("kmeans");
    let (ib, pc) = find_inst(&k, |i| matches!(i, Instruction::Movg { .. }));
    let Instruction::Movg { src, dst } = k.ibs[ib].block.instructions()[pc] else {
        unreachable!()
    };
    let src = GlobalAddr { row: 200, ..src };
    replace_inst(&mut k, ib, pc, Instruction::Movg { src, dst });
    let report = verify_kernel(&k);
    assert_eq!(error_rules(&report), vec!["ISA02"], "{}", report.render());
}

#[test]
fn isa02_movg_to_an_output_slot() {
    let mut k = kernel("kmeans");
    let (ib, pc) = find_inst(&k, |i| matches!(i, Instruction::Movg { .. }));
    let Instruction::Movg { src, .. } = k.ibs[ib].block.instructions()[pc] else {
        unreachable!()
    };
    let dst = vaddr::output_slot(0);
    replace_inst(&mut k, ib, pc, Instruction::Movg { src, dst });
    let report = verify_kernel(&k);
    assert_eq!(error_rules(&report), vec!["ISA02"], "{}", report.render());
}

#[test]
fn isa03_window_input_in_a_vector_kernel() {
    let w = imp_workloads::workload("hotspot").expect("known workload");
    let mut k = w.compile(64, OptPolicy::MaxDlp).expect("workload compiles");
    let ParallelSpec::Stencil { h, w } = k.parallel else {
        panic!("hotspot is a stencil kernel")
    };
    // Same instance count, but no grid for the window to slide over.
    k.parallel = ParallelSpec::Vector { n: h * w };
    let report = verify_kernel(&k);
    assert_eq!(error_rules(&report), vec!["ISA03"], "{}", report.render());
}

#[test]
fn verify_level_check_gates_by_level() {
    use imp_verify::VerifyLevel;
    let mut k = kernel("kmeans");
    let (ib, pc) = find_inst(&k, |i| matches!(i, Instruction::Movg { .. }));
    let Instruction::Movg { src, .. } = k.ibs[ib].block.instructions()[pc] else {
        unreachable!()
    };
    let bad_ib = k.ibs.len() + 7;
    let dst = vaddr::cross_ib(bad_ib, 0);
    replace_inst(&mut k, ib, pc, Instruction::Movg { src, dst });
    let avail = ArrayAvailability::all(k.ibs.len());
    let check = |level: VerifyLevel, t: Option<&imp_telemetry::Telemetry>| {
        level.check(&k, &k.schedule, &avail, t)
    };

    // Off never runs the rules; Warn without an observer need not.
    let telemetry = imp_telemetry::Telemetry::new();
    assert!(check(VerifyLevel::Off, Some(&telemetry)).is_ok());
    assert!(check(VerifyLevel::Warn, None).is_ok());
    assert!(!telemetry.snapshot().counters.contains_key("verify.runs"));

    // Warn records the findings and lets the kernel through.
    assert!(check(VerifyLevel::Warn, Some(&telemetry)).is_ok());
    let counters = telemetry.snapshot().counters;
    assert_eq!(counters["verify.runs"], 1);
    assert!(counters["verify.rule.ISA02"] > 0);

    // Deny refuses it with the full report, observed or not.
    let report = check(VerifyLevel::Deny, None).unwrap_err();
    assert!(error_rules(&report).contains(&"ISA02"));
    assert!(check(VerifyLevel::Deny, Some(&telemetry)).is_err());
    assert_eq!(telemetry.snapshot().counters["verify.runs"], 2);
}

#[test]
fn isa03_format_past_thirty_fraction_bits() {
    let mut k = kernel("blackscholes");
    k.format = imp_rram::QFormat(31);
    let report = verify_kernel(&k);
    assert_eq!(error_rules(&report), vec!["ISA03"], "{}", report.render());
    k.format = imp_rram::QFormat(30);
    assert!(verify_structure(&k, &k.schedule).is_clean());
}

#[test]
fn isa03_output_mixing_reduced_and_row_locs() {
    let mut k = kernel("blackscholes");
    k.outputs[0]
        .locs
        .push(imp_compiler::module::OutputLoc::Reduced { slot: 0 });
    let report = verify_kernel(&k);
    assert_eq!(error_rules(&report), vec!["ISA03"], "{}", report.render());
}

#[test]
fn isa03_reduced_output_slot_past_the_address_space() {
    use imp_compiler::module::OutputLoc;
    let mut k = kernel("blackscholes");
    let mut extra = k.outputs[0].clone();
    for slot in [4096, usize::MAX] {
        extra.locs = vec![OutputLoc::Reduced { slot }];
        k.outputs.push(extra.clone());
        let report = verify_kernel(&k);
        assert_eq!(error_rules(&report), vec!["ISA03"], "{}", report.render());
        k.outputs.pop();
    }
}

#[test]
fn isa03_stencil_grid_past_usize() {
    let mut k = kernel("hotspot");
    let side = 1 << (usize::BITS / 2);
    for (h, w) in [(side, side), (usize::MAX, 2)] {
        k.parallel = ParallelSpec::Stencil { h, w };
        let report = verify_kernel(&k);
        assert_eq!(error_rules(&report), vec!["ISA03"], "{}", report.render());
    }
    k.parallel = ParallelSpec::Stencil {
        h: side,
        w: side - 1,
    };
    assert!(verify_structure(&k, &k.schedule).is_clean());
}

#[test]
fn isa03_row_pressure() {
    let mut k = kernel("blackscholes");
    k.ibs[0].peak_rows = 131;
    let report = verify_kernel(&k);
    assert_eq!(error_rules(&report), vec!["ISA03"], "{}", report.render());
}

#[test]
fn df01_read_of_never_written_row() {
    let mut k = kernel("blackscholes");
    // A Mov from a row nothing defines: the replaced instruction's own
    // dst keeps downstream defs intact.
    let (ib, pc) = find_inst(&k, |i| matches!(i, Instruction::Mov { .. }));
    let Instruction::Mov { dst, .. } = k.ibs[ib].block.instructions()[pc] else {
        unreachable!()
    };
    let free_row = (0..128u8)
        .find(|r| {
            let never_input = k.ibs[ib].input_rows.iter().all(|(row, _)| row != r);
            let never_written = k.ibs[ib]
                .block
                .instructions()
                .iter()
                .all(|i| i.local_dst() != Some(Addr::Mem(*r)));
            let never_delivered = k.ibs.iter().all(|p| {
                p.block.instructions().iter().all(|i| match i {
                    Instruction::Movg { dst, .. } => vaddr::as_cross_ib(*dst) != Some((ib, *r)),
                    _ => true,
                })
            });
            never_input && never_written && never_delivered
        })
        .expect("some row is never defined");
    replace_inst(
        &mut k,
        ib,
        pc,
        Instruction::Mov {
            src: Addr::Mem(free_row),
            dst,
        },
    );
    let report = verify_kernel(&k);
    let rules = error_rules(&report);
    assert!(
        rules.contains(&"DF01"),
        "got {rules:?}:\n{}",
        report.render()
    );
}

#[test]
fn df03_dangling_dependence() {
    let mut k = kernel("kmeans");
    let (ib, pc) = find_inst(&k, |i| matches!(i, Instruction::Movg { .. }));
    // Point some instruction of another IB at a non-movg producer slot.
    let victim = (ib + 1) % k.ibs.len();
    k.ibs[victim].deps[0].push((ib, pc + 10_000));
    let report = verify_kernel(&k);
    let rules = error_rules(&report);
    assert!(
        rules.contains(&"DF03"),
        "got {rules:?}:\n{}",
        report.render()
    );
}

#[test]
fn sch01_duplicate_placement() {
    let mut k = kernel("kmeans");
    assert!(k.schedule.placements.len() >= 2, "needs a multi-IB kernel");
    k.schedule.placements[1] = k.schedule.placements[0];
    let report = verify_kernel(&k);
    let rules = error_rules(&report);
    assert!(
        rules.contains(&"SCH01"),
        "got {rules:?}:\n{}",
        report.render()
    );
}

#[test]
fn sch02_placement_on_retired_array() {
    let k = kernel("blackscholes");
    let p = k.schedule.placements[0];
    let mut avail = ArrayAvailability::all(64);
    avail.retire(p.cluster * 8 + p.array);
    let report = verify_with(&k, &k.schedule, &avail);
    let rules = error_rules(&report);
    assert!(
        rules.contains(&"SCH02"),
        "got {rules:?}:\n{}",
        report.render()
    );
}

#[test]
fn sch03_timing_hazard() {
    let mut k = kernel("blackscholes");
    // Pull one mid-block entry earlier than its predecessor completes.
    let idx = k
        .schedule
        .entries
        .iter()
        .position(|e| e.index > 0 && e.start > 2)
        .expect("a mid-block entry");
    let occ = k.schedule.entries[idx].end - k.schedule.entries[idx].start;
    k.schedule.entries[idx].start = 0;
    k.schedule.entries[idx].end = occ;
    let report = verify_kernel(&k);
    let rules = error_rules(&report);
    assert!(
        rules.contains(&"SCH03"),
        "got {rules:?}:\n{}",
        report.render()
    );
}

#[test]
fn sch04_missing_entry() {
    let mut k = kernel("blackscholes");
    k.schedule.entries.pop();
    let report = verify_kernel(&k);
    let rules = error_rules(&report);
    assert!(
        rules.contains(&"SCH04"),
        "got {rules:?}:\n{}",
        report.render()
    );
}

/// More IBs than the coverage check keeps cursors for in one pass over
/// the timetable: a complete timetable is clean, and a gap or a repeat in
/// a late IB is still found.
#[test]
fn sch04_coverage_beyond_64_ibs() {
    let w = imp_workloads::workload("hotspot").expect("known workload");
    let mut k = w.compile(64, OptPolicy::MaxDlp).expect("workload compiles");
    assert_eq!(k.ibs.len(), 1);
    let (num_ibs, len) = (130, k.ibs[0].block.len());
    k.ibs = vec![k.ibs[0].clone(); num_ibs];
    k.schedule.placements = (0..num_ibs).map(Placement::from_slot).collect();
    let entry = |ib, index| ScheduledInst {
        ib,
        index,
        start: 0,
        end: 0,
    };
    k.schedule.entries = (0..num_ibs)
        .flat_map(|ib| (0..len).map(move |index| entry(ib, index)))
        .collect();
    let report = verify_structure(&k, &k.schedule);
    assert!(report.is_clean(), "{}", report.render());

    let mut gap = k.schedule.clone();
    gap.entries.retain(|e| (e.ib, e.index) != (129, 3));
    let mut repeat = k.schedule.clone();
    repeat.entries.push(entry(100, 0));
    for (schedule, (ib, pc)) in [(gap, (129, 3)), (repeat, (100, 0))] {
        let report = verify_structure(&k, &schedule);
        let found: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.ib, d.pc))
            .collect();
        assert_eq!(found, vec![("SCH04", Some(ib), Some(pc))]);
    }
}

#[test]
fn ovf01_overflow_reported_with_provenance() {
    // Compile at a format so narrow the workload's intermediate values
    // cannot fit: every finding must carry a DFG node via provenance.
    let w = imp_workloads::workload("blackscholes").expect("known workload");
    let (graph, _, ranges) = w.build(64);
    let options = imp_compiler::CompileOptions {
        policy: OptPolicy::MaxIlp,
        expected_instances: 64,
        ranges,
        format: imp_rram::QFormat(30),
        ..Default::default()
    };
    let kernel = imp_compiler::compile(&graph, &options).expect("compiles");
    let report = verify_kernel(&kernel);
    let overflows: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "OVF01")
        .collect();
    assert!(
        !overflows.is_empty(),
        "Q2.30 must overflow somewhere:\n{}",
        report.render()
    );
    assert!(
        overflows.iter().all(|d| d.severity == Severity::Warning),
        "overflow findings are warnings"
    );
    assert!(
        overflows.iter().any(|d| d.node.is_some()),
        "at least one finding names its DFG node:\n{}",
        report.render()
    );
}

#[test]
fn reschedule_of_clean_kernel_verifies() {
    let k = kernel("kmeans");
    let mut avail = ArrayAvailability::all(64);
    // Retire an unused slot and one used slot; reschedule must produce a
    // schedule the verifier accepts against the reduced availability.
    let p = k.schedule.placements[0];
    avail.retire(p.cluster * 8 + p.array);
    avail.retire(63);
    let schedule = imp_compiler::schedule::schedule(&k.ibs, k.schedule.pipelining, &avail)
        .expect("reschedule fits");
    let report = verify_with(&k, &schedule, &avail);
    assert!(report.passes_deny(), "{}", report.render());
}

#[test]
fn report_renders_and_counts() {
    let mut k = kernel("blackscholes");
    k.ibs[0].peak_rows = 200;
    let report = verify_kernel(&k);
    assert!(!report.is_clean());
    assert!(!report.passes_deny());
    let text = report.render();
    assert!(text.contains("ISA03"), "{text}");
    let gaddr = GlobalAddr::new(0, 0, 0);
    assert_eq!(vaddr::as_cross_ib(gaddr), Some((0, 0)));
}
