//! Bare-metal tour of one ReRAM processing unit: hand-assemble a program
//! in the 13-instruction ISA and execute it directly on an array,
//! watching the in-situ analog operations at digit level.
//!
//! Computes per lane: `y = |a − b| · (a + b)` — subtraction by current
//! drain, n-ary addition by bit-line current summation, absolute value by
//! sign-predicated selective moves, multiplication by 2-bit operand
//! streaming through the bit-line DACs.
//!
//! ```sh
//! cargo run --example bare_metal
//! ```

use imp::isa::{assemble, disassemble, Instruction};
use imp::{AnalogSpec, QFormat};
use imp_rram::{MicroOp, OpTrace, ReramArray};

fn main() {
    // Integer-format array (Q0) so raw values read naturally.
    let spec = AnalogSpec {
        frac_bits: QFormat::INTEGER.frac_bits(),
        ..AnalogSpec::prototype()
    };
    let mut array = ReramArray::new(spec);

    // Host-side data load: row 0 = a, row 1 = b (eight SIMD lanes each).
    let a = [12, -7, 30, 5, 0, -20, 100, 1];
    let b = [5, 3, -30, 5, -9, -1, 50, 2];
    array.write_row(0, &a);
    array.write_row(1, &b);

    // The program, in assembler text.
    let program = assemble(
        "abs_diff_times_sum",
        "
        ; d = a - b              (current drain via the subtrahend word-line)
        sub {0} {1} m2
        ; sign mask of d         (arithmetic shift; all-ones when negative)
        shiftr m2 m3 #31
        mov m3 r127              ; latch per-lane predicate
        ; neg = 0 - d
        sub {} {2} m4
        ; |d|: start from d, overwrite negative lanes with -d
        mov m2 m5
        movs m4 m5 %0x00         ; %0x00 = dynamic mask from r127
        ; s = a + b              (n-ary bit-line current summation)
        add {0,1} m6
        ; y = |d| * s            (2-bit streamed multiplication)
        mul m5 m6 m7
        ",
    )
    .expect("assembles");

    println!(
        "program ({} instructions, {} bytes encoded):",
        program.len(),
        program.encode().len()
    );
    println!("{}", disassemble(&program));

    // Execute instruction by instruction, reporting cycles and ADC usage:
    // decode each into the op the array runs, execute it, and complete its
    // static activity with the ADC resolution its data needed.
    let mut total_cycles = 0u32;
    for inst in program.iter() {
        let op = MicroOp::decode(inst).expect("array-local");
        let adc_bits_used = array.execute_op(&op).expect("executes");
        let trace = OpTrace {
            adc_bits_used,
            ..OpTrace::of(inst)
        };
        total_cycles += trace.cycles;
        println!(
            "{:<24} {:>2} cycles, {:>4} ADC conversions @ {} bits",
            inst.to_string(),
            trace.cycles,
            trace.adc_conversions,
            trace.adc_bits_used
        );
    }

    let result = array.read_row(7);
    println!("\nresult row (lane-wise |a−b|·(a+b)):");
    for lane in 0..8 {
        let expect = (a[lane] - b[lane]).abs() * (a[lane] + b[lane]);
        println!(
            "  lane {lane}: a={:>4} b={:>4} → {:>6} (expect {expect})",
            a[lane], b[lane], result[lane]
        );
        assert_eq!(result[lane], expect);
    }
    println!(
        "\ntotal: {total_cycles} array cycles at 20 MHz = {:.2} µs",
        total_cycles as f64 / 20.0
    );

    // Round-trip through the binary encoding (≤ 34 bytes per instruction).
    let bytes = program.encode();
    let decoded = Instruction::decode_stream(&bytes).expect("decodes");
    assert_eq!(decoded.len(), program.len());
    println!("binary round-trip OK ({} bytes)", bytes.len());
}
