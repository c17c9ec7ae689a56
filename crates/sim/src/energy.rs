//! The Table 4 power/area model and activity-based energy accounting.
//!
//! Table 4 of the paper specifies per-component power and area for one
//! tile (64 ADCs' worth of converters, DACs, sample-and-hold, 64 ReRAM
//! arrays, shift-and-add, buffers, register file, crossbar bus, LUTs,
//! instruction buffers, router) summing to ≈101 mW and 0.12 mm²; with
//! 4,096 tiles plus 584 inter-tile routers the chip totals ≈416 W TDP and
//! ≈494 mm². This module reproduces those numbers from the components and
//! integrates *activity-based* energy: ADC energy scales with the
//! resolution an instruction actually needs (the paper reports a 2.07-bit
//! average against the 5-bit peak), which is why average power lands far
//! below TDP (Figure 14).

use imp_rram::{OpTrace, ARRAY_CYCLE_S, BATCH};

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Component name.
    pub name: &'static str,
    /// Parameter description (resolution, size, count…).
    pub params: &'static str,
    /// Power of the component population in one tile, in milliwatts.
    pub power_mw: f64,
    /// Area of the component population in one tile, in mm².
    pub area_mm2: f64,
}

/// The Table 4 component inventory for one tile.
pub fn tile_components() -> Vec<ComponentSpec> {
    vec![
        ComponentSpec {
            name: "ADC",
            params: "5 bits, 1.2 GSps, 64 × 2",
            power_mw: 64.0,
            area_mm2: 0.0753,
        },
        ComponentSpec {
            name: "DAC",
            params: "2 bits, 64 × 256",
            power_mw: 0.82,
            area_mm2: 0.0026,
        },
        ComponentSpec {
            name: "S+H",
            params: "64 × 128",
            power_mw: 0.16,
            area_mm2: 0.00025,
        },
        ComponentSpec {
            name: "ReRAM array",
            params: "64",
            power_mw: 19.2,
            area_mm2: 0.0016,
        },
        ComponentSpec {
            name: "S+A",
            params: "64",
            power_mw: 1.4,
            area_mm2: 0.0015,
        },
        ComponentSpec {
            name: "IR",
            params: "2KB",
            power_mw: 1.09,
            area_mm2: 0.0016,
        },
        ComponentSpec {
            name: "OR",
            params: "2KB",
            power_mw: 1.09,
            area_mm2: 0.0016,
        },
        ComponentSpec {
            name: "Register",
            params: "3KB",
            power_mw: 1.63,
            area_mm2: 0.0024,
        },
        ComponentSpec {
            name: "XB bus",
            params: "16B, 10 × 10",
            power_mw: 1.51,
            area_mm2: 0.0105,
        },
        ComponentSpec {
            name: "LUT",
            params: "8",
            power_mw: 6.8,
            area_mm2: 0.0056,
        },
        ComponentSpec {
            name: "Inst. Buf",
            params: "8 × 2KB",
            power_mw: 5.83,
            area_mm2: 0.0129,
        },
        ComponentSpec {
            name: "Router",
            params: "flit 16, 9 ports",
            power_mw: 0.82,
            area_mm2: 0.00434,
        },
        ComponentSpec {
            name: "Router S+A",
            params: "1",
            power_mw: 0.05,
            area_mm2: 0.000004,
        },
    ]
}

/// Total power of one tile in milliwatts (the paper rounds to 101 mW).
pub fn tile_power_mw() -> f64 {
    tile_components().iter().map(|c| c.power_mw).sum()
}

/// Total area of one tile in mm² (the paper rounds to 0.12 mm²).
pub fn tile_area_mm2() -> f64 {
    tile_components().iter().map(|c| c.area_mm2).sum()
}

/// Inter-tile router network power in watts (Table 4: 0.81 W).
pub const INTER_TILE_POWER_W: f64 = 0.81;

/// Inter-tile router network area in mm² (Table 4: 2.50 mm²).
pub const INTER_TILE_AREA_MM2: f64 = 2.50;

/// Chip TDP in watts for `tiles` tiles.
pub fn chip_tdp_w(tiles: usize) -> f64 {
    tiles as f64 * tile_power_mw() / 1000.0 + INTER_TILE_POWER_W
}

/// Chip area in mm² for `tiles` tiles.
pub fn chip_area_mm2(tiles: usize) -> f64 {
    tiles as f64 * tile_area_mm2() + INTER_TILE_AREA_MM2
}

/// Arrays per tile (64 = 8 clusters × 8 arrays).
const ARRAYS_PER_TILE: f64 = 64.0;

/// Per-array active power in watts for the array-local components, at
/// full (5-bit) ADC resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayPower {
    /// ADC power per array (scales with required resolution).
    pub adc_w: f64,
    /// DAC power per array.
    pub dac_w: f64,
    /// Sample-and-hold per array.
    pub sh_w: f64,
    /// Crossbar activation per array.
    pub xb_w: f64,
    /// Shift-and-add per array.
    pub sa_w: f64,
    /// Register-file share per array.
    pub reg_w: f64,
    /// LUT share per array.
    pub lut_w: f64,
}

impl ArrayPower {
    /// Derives per-array powers from the Table 4 tile inventory.
    pub fn from_table4() -> Self {
        let mw = |name: &str| {
            tile_components()
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.power_mw)
                .unwrap_or(0.0)
                / 1000.0
        };
        ArrayPower {
            adc_w: mw("ADC") / ARRAYS_PER_TILE,
            dac_w: mw("DAC") / ARRAYS_PER_TILE,
            sh_w: mw("S+H") / ARRAYS_PER_TILE,
            xb_w: mw("ReRAM array") / ARRAYS_PER_TILE,
            sa_w: mw("S+A") / ARRAYS_PER_TILE,
            reg_w: mw("Register") / ARRAYS_PER_TILE,
            lut_w: mw("LUT") / ARRAYS_PER_TILE,
        }
    }
}

/// Accumulated energy by component class, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// ADC conversions.
    pub adc_j: f64,
    /// DAC driving.
    pub dac_j: f64,
    /// Crossbar + sample-and-hold.
    pub array_j: f64,
    /// Shift-and-add and registers.
    pub digital_j: f64,
    /// LUT reads.
    pub lut_j: f64,
    /// Row write-backs.
    pub write_j: f64,
    /// Network (links, routers, reduction adders).
    pub noc_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.adc_j
            + self.dac_j
            + self.array_j
            + self.digital_j
            + self.lut_j
            + self.write_j
            + self.noc_j
    }
}

/// Energy of one ReRAM write pulse per row, in joules. Writes are the
/// expensive ReRAM operation; the constant is calibrated so a write
/// every-few-cycles stream stays within the per-array share of the
/// Table 4 tile budget (19.2 mW across 64 arrays).
pub const ROW_WRITE_J: f64 = 0.1e-9;

/// Network energy per flit-hop, in joules (derived from the router power
/// at 2 GHz with the paper's 5% activity factor assumption).
pub const FLIT_HOP_J: f64 = 2.0e-12;

/// The energy terms of one op that its data cannot change: all but the
/// ADC's, which scales with `adc_bits_used`. A term the op does not incur
/// is 0, which leaves a non-negative sum unchanged, so folding every op's
/// static terms once ([`EnergyMeter::record_static`]) and then adding only
/// ADC terms ([`AdcTally`]) is bit-identical to adding every term of each
/// op in turn (DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct OpEnergy {
    /// Seconds the op occupies the array.
    t: f64,
    /// ADC conversions.
    conversions: f64,
    array_j: f64,
    dac_j: f64,
    digital_j: f64,
    lut_j: f64,
    write_j: f64,
}

impl OpEnergy {
    /// The data-independent terms of `trace` under `power`.
    pub(crate) fn new(trace: &OpTrace, power: &ArrayPower) -> Self {
        let t = f64::from(trace.cycles) * ARRAY_CYCLE_S;
        let (array_j, dac_j) = if trace.crossbar_active {
            ((power.xb_w + power.sh_w) * t, power.dac_w * t)
        } else {
            (0.0, 0.0)
        };
        OpEnergy {
            t,
            conversions: f64::from(trace.adc_conversions),
            array_j,
            dac_j,
            digital_j: (power.sa_w + power.reg_w * f64::from(trace.regfile_accesses.min(1))) * t,
            lut_j: if trace.lut_reads > 0 {
                power.lut_w * t
            } else {
                0.0
            },
            write_j: f64::from(trace.row_writes) * ROW_WRITE_J,
        }
    }

    /// The ADC joules of the op when its conversions needed `adc_bits`
    /// bits: ADC power is proportional to resolution (§5.2, §7.3).
    #[inline]
    pub(crate) fn adc_j(&self, adc_bits: u8, power: &ArrayPower) -> f64 {
        let resolution_scale = f64::from(adc_bits) / 5.0;
        power.adc_w * resolution_scale * self.t
    }

    /// Whether the op converts anything, so has an ADC term.
    pub(crate) fn converts(&self) -> bool {
        self.conversions > 0.0
    }

    /// The joules of the whole op given its ADC term `adc_j` (0 when it
    /// converts nothing), in the one order telemetry sums them.
    pub(crate) fn op_j(&self, adc_j: f64) -> f64 {
        self.array_j + self.dac_j + adc_j + self.digital_j + self.lut_j + self.write_j
    }
}

/// The ADC terms of up to [`BATCH`] meters, one lane per instance group,
/// added lane by lane: each lane adds its group's terms in tape order, so
/// a lane's sums equal those of a meter fed that group's ops one by one.
/// Every tape walk books its ADC terms here; a single group's walk is a
/// tally one lane wide.
#[derive(Debug, Clone)]
pub(crate) struct AdcTally {
    adc_j: [f64; BATCH],
    adc_bit_samples: [f64; BATCH],
}

impl AdcTally {
    /// Every lane starting from `meter`'s ADC terms.
    pub(crate) fn new(meter: &EnergyMeter) -> Self {
        AdcTally {
            adc_j: [meter.breakdown.adc_j; BATCH],
            adc_bit_samples: [meter.adc_bit_samples; BATCH],
        }
    }

    /// Integrates a converting op whose conversions in lane `g` needed
    /// `adc_bits[g]` bits, and stores each lane's joules in `adc_j[g]`.
    pub(crate) fn record(
        &mut self,
        energy: &OpEnergy,
        adc_bits: &[u8],
        power: &ArrayPower,
        adc_j: &mut [f64; BATCH],
    ) {
        let lanes = self.adc_j.iter_mut().zip(&mut self.adc_bit_samples);
        for (((total, samples), &bits), lane_j) in lanes.zip(adc_bits).zip(adc_j) {
            *lane_j = energy.adc_j(bits, power);
            *total += *lane_j;
            *samples += f64::from(bits) * energy.conversions;
        }
    }

    /// Writes lane `lane`'s ADC terms into `meter`, which must hold the
    /// terms the tally started from.
    pub(crate) fn store(&self, lane: usize, meter: &mut EnergyMeter) {
        meter.breakdown.adc_j = self.adc_j[lane];
        meter.adc_bit_samples = self.adc_bit_samples[lane];
    }
}

/// Tracks activity-weighted energy and the average-ADC-resolution
/// statistic.
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    breakdown: EnergyBreakdown,
    adc_bit_samples: f64,
    adc_samples: f64,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Integrates the data-independent terms of one op.
    pub(crate) fn record_static(&mut self, energy: &OpEnergy) {
        self.breakdown.array_j += energy.array_j;
        self.breakdown.dac_j += energy.dac_j;
        self.breakdown.digital_j += energy.digital_j;
        self.breakdown.lut_j += energy.lut_j;
        self.breakdown.write_j += energy.write_j;
        self.adc_samples += energy.conversions;
    }

    /// Integrates network activity.
    pub fn record_noc(&mut self, stats: &imp_noc::NocStats) {
        self.breakdown.noc_j +=
            stats.flit_hops as f64 * FLIT_HOP_J + stats.reduction_adds as f64 * FLIT_HOP_J;
    }

    /// Adds another meter's accumulated activity into this one.
    ///
    /// The parallel engine gives every instance group its own sub-meter
    /// and merges them in ascending group order; because each float here
    /// is a plain sum and addition happens in the same fixed order, the
    /// merged totals are bit-identical whatever thread computed each
    /// sub-meter.
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.breakdown.adc_j += other.breakdown.adc_j;
        self.breakdown.dac_j += other.breakdown.dac_j;
        self.breakdown.array_j += other.breakdown.array_j;
        self.breakdown.digital_j += other.breakdown.digital_j;
        self.breakdown.lut_j += other.breakdown.lut_j;
        self.breakdown.write_j += other.breakdown.write_j;
        self.breakdown.noc_j += other.breakdown.noc_j;
        self.adc_bit_samples += other.adc_bit_samples;
        self.adc_samples += other.adc_samples;
    }

    /// The accumulated breakdown.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    /// Average ADC resolution used, in bits (the paper reports 2.07).
    pub fn avg_adc_bits(&self) -> f64 {
        if self.adc_samples == 0.0 {
            0.0
        } else {
            self.adc_bit_samples / self.adc_samples
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl EnergyMeter {
        /// The per-op reference: adds every term of one executed op's
        /// activity with a plain `+=` and returns the op's joules.
        fn record_op(&mut self, trace: &OpTrace, power: &ArrayPower) -> f64 {
            let energy = OpEnergy::new(trace, power);
            let adc_j = if energy.converts() {
                energy.adc_j(trace.adc_bits_used, power)
            } else {
                0.0
            };
            self.breakdown.adc_j += adc_j;
            self.breakdown.dac_j += energy.dac_j;
            self.breakdown.array_j += energy.array_j;
            self.breakdown.digital_j += energy.digital_j;
            self.breakdown.lut_j += energy.lut_j;
            self.breakdown.write_j += energy.write_j;
            self.adc_bit_samples += f64::from(trace.adc_bits_used) * energy.conversions;
            self.adc_samples += energy.conversions;
            energy.op_j(adc_j)
        }
    }

    #[test]
    fn tile_totals_match_paper() {
        // Table 4: "1 Tile Total 101 mW 0.12 mm²". Component rounding in
        // the paper leaves a few percent of slack.
        let p = tile_power_mw();
        assert!((95.0..=110.0).contains(&p), "tile power {p} mW");
        let a = tile_area_mm2();
        assert!((0.11..=0.13).contains(&a), "tile area {a} mm²");
    }

    #[test]
    fn chip_totals_match_paper() {
        // "Chip total 416 W, 494 mm²."
        let tdp = chip_tdp_w(4096);
        assert!((400.0..=440.0).contains(&tdp), "chip TDP {tdp} W");
        let area = chip_area_mm2(4096);
        assert!((480.0..=510.0).contains(&area), "chip area {area} mm²");
    }

    #[test]
    fn adc_dominates_tile_power() {
        // §7.3: "ADCs are the largest contributor to peak power."
        let components = tile_components();
        let adc = components.iter().find(|c| c.name == "ADC").unwrap();
        for c in &components {
            assert!(c.power_mw <= adc.power_mw, "{} exceeds ADC", c.name);
        }
    }

    #[test]
    fn adc_energy_scales_with_resolution() {
        let power = ArrayPower::from_table4();
        let mut low = EnergyMeter::new();
        let mut high = EnergyMeter::new();
        let base = OpTrace {
            cycles: 3,
            adc_conversions: 128,
            crossbar_active: true,
            ..OpTrace::default()
        };
        low.record_op(
            &OpTrace {
                adc_bits_used: 2,
                ..base
            },
            &power,
        );
        high.record_op(
            &OpTrace {
                adc_bits_used: 5,
                ..base
            },
            &power,
        );
        assert!(high.breakdown().adc_j > low.breakdown().adc_j * 2.0);
        assert_eq!(low.avg_adc_bits(), 2.0);
        assert_eq!(high.avg_adc_bits(), 5.0);
    }

    #[test]
    fn breakdown_totals() {
        let power = ArrayPower::from_table4();
        let mut meter = EnergyMeter::new();
        meter.record_op(
            &OpTrace {
                cycles: 18,
                adc_conversions: 2048,
                adc_bits_used: 4,
                crossbar_active: true,
                row_writes: 1,
                regfile_accesses: 1,
                lut_reads: 0,
            },
            &power,
        );
        let b = meter.breakdown();
        assert!(b.total_j() > 0.0);
        assert!(b.adc_j > 0.0 && b.array_j > 0.0 && b.write_j > 0.0);
        assert_eq!(b.lut_j, 0.0);
    }

    proptest! {
        #[test]
        fn static_terms_folded_first_then_adc_terms_equal_record_op(
            ops in prop::collection::vec(
                (1u32..20, prop_oneof![Just(0u32), Just(128u32), Just(2048u32)], 1u8..12, 0u32..3, 0u32..4, any::<bool>()),
                0..40,
            ),
        ) {
            // The simulator's fold: every op's static terms first, then
            // the ADC terms of the converting ops through a one-lane
            // tally, each in op order.
            let power = ArrayPower::from_table4();
            let traces: Vec<OpTrace> = ops
                .iter()
                .map(|&(cycles, adc_conversions, bits, row_writes, regfile_accesses, lut)| OpTrace {
                    cycles,
                    adc_conversions,
                    adc_bits_used: if adc_conversions > 0 { bits } else { 0 },
                    crossbar_active: adc_conversions > 0,
                    row_writes,
                    regfile_accesses,
                    lut_reads: if lut { 8 } else { 0 },
                })
                .collect();
            let mut reference = EnergyMeter::new();
            let reference_j: Vec<f64> = traces.iter().map(|t| reference.record_op(t, &power)).collect();
            let energies: Vec<OpEnergy> = traces.iter().map(|t| OpEnergy::new(t, &power)).collect();
            let mut folded = EnergyMeter::new();
            for energy in &energies {
                folded.record_static(energy);
            }
            let mut tally = AdcTally::new(&folded);
            let mut adc_j = [0.0; BATCH];
            let mut folded_j = Vec::new();
            for (energy, trace) in energies.iter().zip(&traces) {
                let lane_j = if energy.converts() {
                    tally.record(energy, &[trace.adc_bits_used], &power, &mut adc_j);
                    adc_j[0]
                } else {
                    0.0
                };
                folded_j.push(energy.op_j(lane_j).to_bits());
            }
            tally.store(0, &mut folded);
            let bits = |m: &EnergyMeter| {
                let b = m.breakdown();
                [b.adc_j, b.dac_j, b.array_j, b.digital_j, b.lut_j, b.write_j, m.avg_adc_bits()].map(f64::to_bits)
            };
            prop_assert_eq!(bits(&folded), bits(&reference));
            prop_assert_eq!(folded_j, reference_j.iter().map(|j| j.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn noc_energy_counts_flits() {
        let mut meter = EnergyMeter::new();
        meter.record_noc(&imp_noc::NocStats {
            flit_hops: 1000,
            reduction_adds: 10,
            ..Default::default()
        });
        let expect = 1010.0 * FLIT_HOP_J;
        assert!((meter.breakdown().noc_j - expect).abs() < 1e-18);
    }
}
