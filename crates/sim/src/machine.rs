//! Functional + timing execution of compiled kernels.

use crate::energy::{AdcTally, ArrayPower, EnergyBreakdown, EnergyMeter, OpEnergy};
use crate::fault::{
    mix_seed, mix_seed4, FaultConfig, FaultEvent, FaultKind, FaultPolicy, FaultSite, WatchdogConfig,
};
use crate::lifetime;
use crate::SimError;
use imp_compiler::module::{vaddr, OutputLoc};
use imp_compiler::perf::{self, Packing};
use imp_compiler::schedule::{schedule, Schedule};
use imp_compiler::ParallelSpec;
use imp_compiler::{ArrayAvailability, ChipCapacity, CompiledKernel, InputBinding};
use imp_dfg::{NodeId, Shape, Tensor};
use imp_isa::{Addr, Instruction, LANES, NUM_REGISTERS};
use imp_noc::{
    HTreeTopology, LinkFaultMap, Network, NocConfig, NocStats, TransportConfig, TransportEvent,
    TransportFaultKind,
};
use imp_rram::{
    AnalogSpec, ArrayBatch, DacVectors, FaultMap, FaultRates, Fixed, MicroOp, OpTrace, ReramArray,
    RramError, ARRAY_CYCLE_S, BATCH,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// How [`Machine::run`] spreads instance groups over host threads.
///
/// Whatever the choice, results are **bit- and cycle-identical**: every
/// group executes on private array and network state seeded purely from
/// `(fault_seed, slot, group, attempt)`, and per-group outcomes are
/// merged in ascending group order. Parallelism only changes wall-clock
/// time, never the [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Execute groups one at a time on the calling thread.
    Serial,
    /// One worker per host core (rayon's thread count, which honours the
    /// `RAYON_NUM_THREADS` environment variable), but no more workers than
    /// give each at least 16,384 executed instructions (tape steps ×
    /// instance groups), so a small run stays on the calling thread. The
    /// default.
    Auto,
    /// This many workers (values of 0 behave like 1): the groups split
    /// into this many contiguous shards, which run on at most rayon's
    /// thread count of OS threads, a thread taking several shards in turn
    /// when there are more shards than threads.
    Threads(usize),
}

impl Parallelism {
    /// The most worker shards this policy resolves to on this host; Auto
    /// gives a small run fewer (see [`Parallelism::Auto`]).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => rayon::current_num_threads().max(1),
            Parallelism::Threads(n) => n.max(1),
        }
    }

    /// The worker shards of a run that executes `work` instructions
    /// (tape steps × instance groups).
    fn shards(self, work: usize) -> usize {
        match self {
            Parallelism::Auto => auto_workers(work, self.workers()),
            other => other.workers(),
        }
    }
}

/// The fewest instructions (tape steps × instance groups)
/// [`Parallelism::Auto`] gives a worker; see DESIGN.md §6 for the
/// measurement.
const AUTO_WORK_PER_WORKER: usize = 16_384;

/// Auto's workers for a run of `work` instructions on a host that runs
/// `host_threads` at once: one per [`AUTO_WORK_PER_WORKER`], at least one
/// and at most the host's.
fn auto_workers(work: usize, host_threads: usize) -> usize {
    (work / AUTO_WORK_PER_WORKER).clamp(1, host_threads.max(1))
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Chip capacity (tiles/clusters/arrays).
    pub capacity: ChipCapacity,
    /// Analog periphery of every array. The machine replaces its
    /// [`frac_bits`](AnalogSpec::frac_bits) with the kernel's fixed-point
    /// format, so a value set there is never read.
    pub analog: AnalogSpec,
    /// Base seed for all per-array randomness — process-variation noise
    /// and fault-population generation. Each physical array slot derives
    /// its own stream via [`crate::fault::mix_seed`], so runs are
    /// deterministic in (seed, slot) regardless of group scheduling.
    pub fault_seed: u64,
    /// Fault injection and recovery policy. At [`FaultRates::none`] (the
    /// default) the fault model is off whatever the policy: no fault maps
    /// are generated, no attempt can detect a fault, and execution is
    /// bit-identical to a fault-free chip.
    pub faults: FaultConfig,
    /// Transport-level (H-tree) fault injection and recovery, its link
    /// fault map seeded from [`SimConfig::fault_seed`]. At
    /// [`LinkFaultRates::none`](imp_noc::LinkFaultRates::none) (the
    /// default) the map is clean under any policy, and transfers are bit-
    /// and cycle-identical to a perfect fabric.
    pub transport: TransportConfig,
    /// Execution watchdog. The default never times out.
    pub watchdog: WatchdogConfig,
    /// Host-thread scheduling of instance groups. Never changes results
    /// (see [`Parallelism`]); [`Parallelism::Auto`] by default.
    pub parallelism: Parallelism,
    /// Telemetry recorder for run counters, per-IB execution profiles and
    /// parallel-engine statistics; a snapshot is attached to every
    /// [`RunReport::telemetry`]. `None` (the default) disables simulator
    /// instrumentation entirely — the hot paths then perform one `Option`
    /// check and execution is bit-identical to an uninstrumented build.
    pub telemetry: Option<imp_telemetry::Telemetry>,
    /// Static verification level, applied through
    /// [`VerifyLevel::check`](imp_verify::VerifyLevel::check) by the
    /// session builder to the compiled kernel, and here to every schedule
    /// the remap policy's reschedule produces (at `Deny`, a failing one
    /// aborts the run with [`SimError::Verify`]).
    pub verify: imp_verify::VerifyLevel,
}

impl SimConfig {
    /// A 64-tile configuration for fast functional testing.
    pub fn functional() -> Self {
        SimConfig {
            capacity: ChipCapacity::small(),
            analog: AnalogSpec::prototype(),
            fault_seed: 0,
            faults: FaultConfig::default(),
            transport: TransportConfig::default(),
            watchdog: WatchdogConfig::default(),
            parallelism: Parallelism::Auto,
            telemetry: None,
            verify: imp_verify::VerifyLevel::Warn,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::functional()
    }
}

/// External-I/O bandwidth assumed for data loading into the arrays, in
/// bytes per second (the H-tree root gives "high-bandwidth communication
/// for external I/O", §2.1; 100 GB/s is DDR4-class).
pub const EXTERNAL_IO_BYTES_PER_S: f64 = 100.0e9;

/// Salt decorrelating the link fault map's seed from the array-level
/// fault streams derived from the same [`SimConfig::fault_seed`].
const TRANSPORT_SEED_SALT: u64 = 0x4e0c_4e0c_4e0c_4e0c;

/// Wraps one transport fault occurrence as a chip-level [`FaultEvent`].
fn transport_fault_event(site: FaultSite, ev: &TransportEvent) -> FaultEvent {
    FaultEvent {
        site,
        cycle: imp_noc::net_to_array_cycles(ev.net_time),
        kind: FaultKind::Transport(ev.kind),
    }
}

/// Results and measurements of one kernel execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Output tensors keyed by fetched node. Per-instance outputs have
    /// shape `[k, n]` (or `[n]` when the module produces one element, or
    /// the `[h, w]` grid for stencil kernels); reduced outputs have shape
    /// `[k]`.
    pub outputs: HashMap<NodeId, Tensor>,
    /// Variable write-backs produced by `Assign`/`AssignAdd` outputs.
    pub variable_updates: HashMap<String, Tensor>,
    /// Module instances executed.
    pub instances: usize,
    /// Kernel invocations (rounds) needed on this chip.
    pub rounds: u64,
    /// Total array cycles (rounds × module latency + reduction tail).
    pub cycles: u64,
    /// Estimated array cycles spent loading input rows through external
    /// I/O when IMP is used as an accelerator (§7.3 observes loading can
    /// reach 4× kernel time). Zero-cost in the memory-integrated
    /// scenario.
    pub load_cycles: u64,
    /// Wall-clock seconds at the 20 MHz array clock.
    pub seconds: f64,
    /// Activity-based energy.
    pub energy: EnergyBreakdown,
    /// Average power (energy / time).
    pub avg_power_w: f64,
    /// Average ADC resolution used, in bits.
    pub avg_adc_bits: f64,
    /// Network statistics.
    pub noc: NocStats,
    /// Row writes per module execution on the busiest array (wear).
    pub writes_per_exec: u64,
    /// §7.5 lifetime estimate under continuous execution.
    pub lifetime_years: f64,
    /// Instructions executed across all arrays.
    pub instructions_executed: u64,
    /// Every fault detection recorded across all execution attempts.
    /// Empty whenever [`SimConfig::faults`] and [`SimConfig::transport`]
    /// inject nothing (their default rates).
    pub fault_events: Vec<FaultEvent>,
    /// Extra execution attempts the recovery policy spent (retry
    /// re-executions and remap reschedules).
    pub retries: u32,
    /// Physical array slots the remap policy retired, ascending.
    pub retired_arrays: Vec<usize>,
    /// Array cycles spent on failed attempts and retry backoff. Included
    /// in [`RunReport::cycles`].
    pub fault_overhead_cycles: u64,
    /// Array cycles the accepted attempt spent on transport recovery
    /// (retransmission serialization, backoff, detour hops). Included in
    /// [`RunReport::cycles`]; zero whenever the link fault map of
    /// [`SimConfig::transport`] is clean.
    pub transport_overhead_cycles: u64,
    /// Telemetry snapshot taken at the end of this run (run counters,
    /// per-IB execution profiles, parallel-engine statistics), when
    /// [`SimConfig::telemetry`] is installed. Everything except wall
    /// times and the engine's worker topology is deterministic across
    /// [`Parallelism`] settings; see
    /// [`imp_telemetry::TelemetryReport::without_wall_times`].
    pub telemetry: Option<imp_telemetry::TelemetryReport>,
}

/// Everything one execution attempt produces; the recovery loop in
/// [`Machine::run`] decides whether to keep it or pay for another.
struct Attempt {
    /// The delivered reduction sums, one per slot.
    reduce_acc: Vec<i32>,
    rounds: u64,
    cycles: u64,
    writes_per_exec: u64,
    instructions_executed: u64,
    noc: NocStats,
    events: Vec<FaultEvent>,
    /// Transport faults survived during the attempt (CRC corruptions
    /// delivered under Silent, drops, detours). Kept separate from
    /// `events` so they inform the report without driving the
    /// *array-level* recovery loop — transport recovery already happened
    /// inside the network per [`imp_noc::TransportPolicy`].
    transport_events: Vec<FaultEvent>,
    transport_overhead_cycles: u64,
    /// Per-IB joules, merged in ascending group order; `None` when
    /// telemetry is disabled.
    ib_energy: Option<Vec<f64>>,
}

/// The simulated chip.
#[derive(Debug)]
pub struct Machine {
    config: SimConfig,
    /// Prototype network view: topology, timing config, and the link
    /// fault map. Workers clone it; it is never mutated after
    /// construction.
    network: Network,
    /// Table 4 per-component power, built once (hot-path hoist).
    power: ArrayPower,
}

impl Machine {
    /// Creates a machine whose H-tree runs at [`NocConfig::default`]
    /// timing.
    ///
    /// # Panics
    /// Panics if `config.capacity.tiles` is not a positive power of 8 (the
    /// H-tree's radix). [`imp_compiler::compile`] rejects such a chip with
    /// [`CompileError::BadCapacity`](imp_compiler::CompileError::BadCapacity),
    /// so a session built through the builder never reaches this panic.
    pub fn new(config: SimConfig) -> Self {
        let topology = HTreeTopology::new(config.capacity.tiles, 8);
        let mut network = Network::new(topology, NocConfig::default());
        let seed = mix_seed(config.fault_seed, TRANSPORT_SEED_SALT);
        let map = LinkFaultMap::generate(seed, &config.transport.rates, network.topology());
        network.set_transport(map, config.transport.policy);
        Machine {
            config,
            network,
            power: ArrayPower::from_table4(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Executes `kernel` over `inputs` (placeholder *and* variable
    /// tensors, keyed by name): [`Machine::run_inputs`] over the map.
    ///
    /// # Errors
    /// As [`Machine::run_inputs`].
    pub fn run(
        &mut self,
        kernel: &CompiledKernel,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<RunReport, SimError> {
        self.run_inputs(kernel, inputs.iter().map(|(name, t)| (name.as_str(), t)))
    }

    /// Executes `kernel` over borrowed `inputs`: placeholder *and*
    /// variable tensors as `(name, tensor)` pairs. Of two pairs with one
    /// name the later stands, so a caller may list variables before the
    /// feeds that override them.
    ///
    /// When [`SimConfig::faults`] injects faults, each attempt ends with
    /// the per-array integrity checks; detections are handled per the
    /// configured [`FaultPolicy`] — recorded, fatal, retried, or
    /// remapped around — and every event lands in
    /// [`RunReport::fault_events`].
    ///
    /// # Errors
    /// Missing, ill-shaped or non-finite inputs, array faults (e.g. ADC
    /// over-range), a kernel wider than the simulated chip (or wider than
    /// its healthy remainder under remap), a malformed hand-built kernel,
    /// or unrecovered fault detections ([`SimError::Faults`]).
    pub fn run_inputs<'a>(
        &mut self,
        kernel: &CompiledKernel,
        inputs: impl IntoIterator<Item = (&'a str, &'a Tensor)>,
    ) -> Result<RunReport, SimError> {
        let tel = self.config.telemetry.clone();
        let plan_span = tel.as_ref().map(|t| t.span("sim.plan"));
        let plan = RunPlan::new(kernel, inputs, self)?;
        drop(plan_span);
        let instances = plan.instances;

        let mut run_span = tel.as_ref().map(|t| t.span("sim.run"));
        // Per-IB energy attribution, merged in ascending group order by
        // `run_once` and accumulated across attempts here (failed
        // attempts burned real joules, exactly like the meter).
        let mut ib_energy_total: Vec<f64> = match &tel {
            Some(_) => vec![0.0; plan.num_ibs],
            None => Vec::new(),
        };

        let policy = self.config.faults.policy;
        let watchdog = self.config.watchdog;
        let mut avail = ArrayAvailability::all(self.config.capacity.arrays());
        // A remapped schedule and the tape lowered from it.
        let mut schedule_override: Option<(Schedule, Tape)> = None;
        // Energy accumulates across attempts: failed executions still
        // burned their joules.
        let mut meter = EnergyMeter::new();
        let mut retries = 0u32;
        let mut fault_overhead_cycles = 0u64;
        let mut fault_events: Vec<FaultEvent> = Vec::new();
        let mut instructions_executed = 0u64;
        let mut attempt_idx = 0u64;
        // The per-instance output buffer, hoisted out of the retry loop.
        // Every `(output, Row-loc element, instance)` cell is rewritten on
        // every attempt, and `Reduced` cells are never read, so the buffer
        // needs no clearing between attempts.
        let mut out_values: Vec<Vec<f64>> = kernel
            .outputs
            .iter()
            .map(|o| vec![0.0; o.locs.len() * instances])
            .collect();
        loop {
            let usable: Vec<usize> = avail.usable_slots().collect();
            let (sched, tape) = match &schedule_override {
                Some((sched, tape)) => (sched, tape),
                None => (&kernel.schedule, &plan.tape),
            };
            let attempt = self.run_once(
                &plan,
                tape,
                &usable,
                attempt_idx,
                &mut meter,
                &mut out_values,
            )?;
            instructions_executed += attempt.instructions_executed;
            fault_events.extend(attempt.events.iter().cloned());
            fault_events.extend(attempt.transport_events.iter().cloned());
            if let Some(per_ib) = &attempt.ib_energy {
                for (total, part) in ib_energy_total.iter_mut().zip(per_ib) {
                    *total += part;
                }
            }

            // Watchdog cycle budget: checked against total spend so far
            // (prior failed attempts plus this one), whatever the attempt's
            // outcome — a "successful" run that blew the budget inside a
            // retransmit storm still times out.
            let spent = fault_overhead_cycles + attempt.cycles;
            if spent > watchdog.max_cycles {
                return Err(SimError::Timeout {
                    limit_cycles: watchdog.max_cycles,
                    spent_cycles: spent,
                });
            }

            if attempt.events.is_empty() || matches!(policy, FaultPolicy::Silent) {
                // This attempt's outputs stand.
                let (outputs, variable_updates) =
                    assemble_outputs(kernel, &attempt.reduce_acc, out_values);
                let cycles = attempt.cycles + fault_overhead_cycles;
                let seconds = cycles as f64 * ARRAY_CYCLE_S;
                let energy = meter.breakdown();
                let avg_power_w = if seconds > 0.0 {
                    energy.total_j() / seconds
                } else {
                    0.0
                };
                let telemetry = tel.as_ref().map(|t| {
                    t.counter_add("sim.runs", 1);
                    t.counter_add("sim.instances", instances as u64);
                    t.counter_add("sim.rounds", attempt.rounds);
                    t.counter_add("sim.cycles", cycles);
                    t.counter_add("sim.instructions", instructions_executed);
                    t.counter_add("sim.retries", u64::from(retries));
                    t.counter_add("sim.fault_events", fault_events.len() as u64);
                    t.counter_add("sim.noc.messages", attempt.noc.messages);
                    t.counter_add(
                        "sim.transport_overhead_cycles",
                        attempt.transport_overhead_cycles,
                    );
                    t.record_value("sim.energy_j", energy.total_j());
                    t.set_ib_profiles(build_ib_profiles(kernel, sched, &ib_energy_total));
                    // Drop the run span before snapshotting so the
                    // report carries this run's own wall time.
                    drop(run_span.take());
                    t.snapshot()
                });
                return Ok(RunReport {
                    outputs,
                    variable_updates,
                    instances,
                    rounds: attempt.rounds,
                    cycles,
                    load_cycles: plan.load_cycles,
                    seconds,
                    energy,
                    avg_power_w,
                    avg_adc_bits: meter.avg_adc_bits(),
                    noc: attempt.noc,
                    writes_per_exec: attempt.writes_per_exec,
                    lifetime_years: lifetime::lifetime_years(
                        attempt.writes_per_exec,
                        kernel.module_latency(),
                    ),
                    instructions_executed,
                    fault_events,
                    retries,
                    retired_arrays: avail.retired_slots().collect(),
                    fault_overhead_cycles,
                    transport_overhead_cycles: attempt.transport_overhead_cycles,
                    telemetry,
                });
            }

            match policy {
                FaultPolicy::Silent => unreachable!("silent runs accept every attempt"),
                FaultPolicy::FailFast => return Err(SimError::Faults(attempt.events)),
                FaultPolicy::Retry {
                    max,
                    backoff_cycles,
                } => {
                    if retries >= max {
                        return Err(SimError::Faults(attempt.events));
                    }
                    fault_overhead_cycles += attempt.cycles + backoff_cycles;
                }
                FaultPolicy::Remap => {
                    // Every event names a slot that was in use, so each
                    // pass retires at least one new array — the loop is
                    // bounded by the chip size.
                    for event in &attempt.events {
                        avail.retire(event.site.physical_slot);
                    }
                    fault_overhead_cycles += attempt.cycles;
                    let resched = match schedule(&kernel.ibs, kernel.schedule.pipelining, &avail) {
                        Ok(sched) => sched,
                        Err(imp_compiler::CompileError::OutOfArrays { needed, usable }) => {
                            return Err(SimError::OutOfArrays {
                                needed,
                                available: usable,
                            });
                        }
                        Err(other) => {
                            return Err(SimError::MalformedKernel(format!(
                                "cannot reschedule around retired arrays: {other}"
                            )));
                        }
                    };
                    // Re-verify the remapped kernel: rescheduling must
                    // not move an IB onto a retired array or break the
                    // timetable's hazard invariants.
                    self.config
                        .verify
                        .check(kernel, &resched, &avail, tel.as_ref())
                        .map_err(SimError::Verify)?;
                    let tape = lower_tape(kernel, &resched, &self.power);
                    schedule_override = Some((resched, tape));
                }
            }
            // Watchdog progress ceiling: the policy wants another attempt;
            // refuse if the attempt budget is exhausted.
            if attempt_idx + 1 >= u64::from(watchdog.max_attempts) {
                return Err(SimError::Timeout {
                    limit_cycles: watchdog.max_cycles,
                    spent_cycles: fault_overhead_cycles,
                });
            }
            retries += 1;
            attempt_idx += 1;
        }
    }

    /// One complete execution attempt of `tape` (a schedule lowered by
    /// [`lower_tape`]) over the given usable arrays, with fault detection
    /// but no recovery decisions.
    ///
    /// This is the parallel engine's top half: it builds the shared
    /// read-only [`EngineCtx`], shards the instance groups over worker
    /// threads per [`SimConfig::parallelism`] (each worker owning a
    /// pooled set of arrays and private network timing views), then
    /// merges the per-group outcomes in ascending group order. Because
    /// every group's state and randomness derive only from
    /// `(fault_seed, slot, group, attempt)`, the merged attempt is bit-
    /// and cycle-identical whatever the worker count.
    fn run_once(
        &self,
        plan: &RunPlan,
        tape: &Tape,
        usable: &[usize],
        attempt_idx: u64,
        meter: &mut EnergyMeter,
        out_values: &mut [Vec<f64>],
    ) -> Result<Attempt, SimError> {
        let (n_slots, instances, num_ibs) = (plan.n_slots, plan.instances, plan.num_ibs);
        let Packing {
            groups: groups_total,
            groups_per_round,
            rounds,
        } = perf::pack(instances, num_ibs, usable.len());

        // Per-(round-local slot) fault populations, generated once per
        // attempt: a fault map is a property of the *physical array*
        // (seeded by its slot alone), so every group mapped onto the
        // same slot shares the one population. A slot whose map holds no
        // fault keeps none, and its arrays take the fault-free path,
        // whatever the recovery policy; rates that inject nothing
        // generate no map at all.
        let rates = &self.config.faults.rates;
        let injects = *rates != FaultRates::none();
        let fault_maps: Vec<Option<Arc<FaultMap>>> = (0..groups_per_round * num_ibs)
            .map(|i| {
                if !injects {
                    return None;
                }
                let seed = mix_seed(
                    self.config.fault_seed ^ 0xFA17_FA17_FA17_FA17,
                    usable[i] as u64,
                );
                let map = FaultMap::generate(seed, rates);
                (!map.is_clean()).then(|| Arc::new(map))
            })
            .collect();
        let ctx = EngineCtx {
            machine: self,
            plan,
            tape,
            usable,
            fault_maps,
            groups_per_round,
            attempt_idx,
        };

        // Contiguous shards keep each worker's groups cache-friendly; the
        // merge below re-serializes in ascending group order. The shards
        // run on at most one OS thread per host thread, each thread taking
        // a contiguous block of shards in turn. The calling thread runs
        // the first block, so a single thread spawns nothing.
        let work = tape.steps.len() * groups_total;
        let workers = self
            .config
            .parallelism
            .shards(work)
            .min(groups_total)
            .max(1);
        let chunk = groups_total.div_ceil(workers).max(1);
        let mut results: Vec<Option<Result<GroupOutcome, SimError>>> =
            (0..groups_total).map(|_| None).collect();
        let groups_span = self.config.telemetry.as_ref().map(|t| t.span("sim.groups"));
        let mut shards: Vec<Shard> = results
            .chunks_mut(chunk)
            .enumerate()
            .map(|(w, shard)| (w * chunk, shard))
            .collect();
        let per_thread = shards_per_thread(shards.len(), rayon::current_num_threads());
        rayon::scope(|s| {
            let mut blocks = shards.chunks_mut(per_thread);
            let first = blocks.next();
            for block in blocks {
                let ctx = &ctx;
                s.spawn(move |_| run_shards(ctx, block));
            }
            if let Some(block) = first {
                run_shards(&ctx, block);
            }
        });
        drop(groups_span);

        // Deterministic merge in ascending group order: wrapping adds for
        // the reduction slots, fixed-order float accumulation for energy,
        // per-group-contiguous event streams. The lowest-group error (the
        // one the serial engine would have hit first) wins.
        let merge_start = self
            .config
            .telemetry
            .as_ref()
            .map(|_| std::time::Instant::now());
        let mut ib_energy: Option<Vec<f64>> =
            self.config.telemetry.as_ref().map(|_| vec![0.0; num_ibs]);
        let mut reduce_acc = vec![0i32; n_slots];
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut transport_events: Vec<FaultEvent> = Vec::new();
        let mut noc = NocStats::default();
        let mut writes_per_exec = 0u64;
        let mut instructions_executed = 0u64;
        for (group, slot) in results.iter_mut().enumerate() {
            let outcome = slot.take().expect("every group executed")?;
            for (acc, &part) in reduce_acc.iter_mut().zip(&outcome.reduce_acc) {
                *acc = acc.wrapping_add(part);
            }
            let valid_lanes = GroupPlace::new(&ctx, group).valid_lanes;
            for (loc, values) in plan.row_outputs.iter().zip(&outcome.harvest) {
                let base = loc.elem * instances + group * LANES;
                out_values[loc.out][base..base + valid_lanes]
                    .copy_from_slice(&values[..valid_lanes]);
            }
            events.extend(outcome.events);
            transport_events.extend(outcome.transport_events);
            noc.merge(&outcome.noc);
            meter.merge(&outcome.meter);
            writes_per_exec = writes_per_exec.max(outcome.wear);
            instructions_executed += outcome.instructions;
            if let (Some(total), Some(part)) = (ib_energy.as_mut(), outcome.ib_energy.as_ref()) {
                for (t, p) in total.iter_mut().zip(part) {
                    *t += p;
                }
            }
        }
        if let (Some(t), Some(t0)) = (&self.config.telemetry, merge_start) {
            let merge_nanos = t0.elapsed().as_nanos();
            t.record_nanos("sim.engine.merge", merge_nanos);
            t.set_engine(imp_telemetry::EngineStats {
                workers,
                groups: groups_total,
                rounds,
                groups_per_worker: results.chunks(chunk).map(<[_]>::len).collect(),
                attempts: attempt_idx + 1,
                merge_nanos,
            });
        }

        // One in-network reduction per round, over the tiles the round's
        // groups occupy (for timing/energy of the H-tree adder tree). The
        // delivered sums replace the accumulators: transport corruption of
        // the reduction tree (flips under Silent, bad adders) lands in the
        // outputs exactly like it would on hardware.
        let mut reduce_tail_cycles = 0u64;
        if n_slots > 0 {
            let tiles: Vec<usize> = (0..groups_per_round)
                .map(|g| tile_of(&ctx, g, 0))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let site = FaultSite {
                round: rounds.saturating_sub(1),
                group: 0,
                ib: 0,
                physical_slot: usable[0],
            };
            // The reduction samples transport faults from its own
            // message-id band, above every group's band.
            let mut net = self.network.clone();
            net.reset();
            net.set_next_msg_id(groups_total as u64 * MSG_ID_STRIDE);
            let deadline = self.net_deadline();
            match net.reduce_transfer(&tiles, 0, &reduce_acc, 32 * n_slots, 0, deadline) {
                Ok(delivery) => {
                    for ev in &delivery.events {
                        transport_events.push(transport_fault_event(site, ev));
                    }
                    reduce_tail_cycles = imp_noc::net_to_array_cycles(delivery.time);
                    // A dropped reduction loses the sums entirely.
                    reduce_acc = delivery.payload.unwrap_or_else(|| vec![0i32; n_slots]);
                }
                Err(ev) => return Err(self.transport_error(site, ev)),
            }
            noc.merge(&net.stats());
        }
        meter.record_noc(&noc);

        let transport_overhead_cycles = imp_noc::net_to_array_cycles(noc.retransmit_cycles);
        let cycles = rounds * tape.module_latency + reduce_tail_cycles + transport_overhead_cycles;
        Ok(Attempt {
            reduce_acc,
            rounds,
            cycles,
            writes_per_exec,
            instructions_executed,
            noc,
            events,
            transport_events,
            transport_overhead_cycles,
            ib_energy,
        })
    }

    /// The deadline of every transfer: the watchdog's cycle budget, which
    /// cuts off retransmit storms inside the network.
    fn net_deadline(&self) -> Option<u64> {
        let limit = self.config.watchdog.max_cycles;
        Some(limit.saturating_mul(imp_noc::NET_CYCLES_PER_ARRAY_CYCLE))
    }

    /// Maps a fatal transport error to the right [`SimError`]: deadline
    /// overruns become [`SimError::Timeout`], everything else surfaces as
    /// an unrecovered fault.
    fn transport_error(&self, site: FaultSite, ev: TransportEvent) -> SimError {
        if let TransportFaultKind::DeadlineExceeded { spent_net_cycles } = ev.kind {
            return SimError::Timeout {
                limit_cycles: self.config.watchdog.max_cycles,
                spent_cycles: imp_noc::net_to_array_cycles(spent_net_cycles),
            };
        }
        SimError::Faults(vec![transport_fault_event(site, &ev)])
    }
}

/// Message-id band assigned to each instance group; the final in-network
/// reduction uses band `groups_total`. Transport fault sampling is a pure
/// function of `(message id, attempt, link)`, so disjoint per-group bands
/// decouple fault draws from the order in which groups execute.
const MSG_ID_STRIDE: u64 = 1 << 32;

/// Salt separating the transient-glitch stream from the ADC-noise stream
/// derived from the same `(fault_seed, slot, group, attempt)` tuple.
const TRANSIENT_STREAM_SALT: u64 = 0x7261_6E51_6C69_7463;

/// What every worker of one attempt reads: the attempt's own facts, and
/// the machine, the run's plan and the attempt's tape for the rest.
struct EngineCtx<'a> {
    machine: &'a Machine,
    plan: &'a RunPlan<'a>,
    tape: &'a Tape,
    usable: &'a [usize],
    /// Per-(round-local slot) fault maps, indexed
    /// `group_in_round * num_ibs + ib`; `None` where the slot holds no
    /// fault. Only arrays with a map are armed and checked.
    fault_maps: Vec<Option<Arc<FaultMap>>>,
    groups_per_round: usize,
    attempt_idx: u64,
}

/// One worker thread's private mutable state, re-initialized per group
/// or batch: a pooled array per IB, the per-IB lane batches its first
/// batch builds, and a pool of network timing views, empty until a
/// [`walk`] over a tape with `movg`s grows it to its groups.
struct Worker {
    arrays: Vec<ReramArray>,
    batches: Vec<ArrayBatch>,
    networks: Vec<Network>,
}

impl Worker {
    /// One blank array per IB, at the kernel's fixed-point format and
    /// holding the IB's LUT, and no network view yet.
    fn new(ctx: &EngineCtx) -> Self {
        let arrays = ctx
            .plan
            .kernel
            .ibs
            .iter()
            .map(|ib| {
                let mut array = ReramArray::new(ctx.plan.analog);
                array.set_lut(ib.lut.clone());
                array
            })
            .collect();
        Worker {
            arrays,
            batches: Vec::new(),
            networks: Vec::new(),
        }
    }
}

/// Everything one instance group's execution produces, merged by
/// [`Machine::run_once`] in ascending group order.
struct GroupOutcome {
    /// This group's contribution to each reduction slot (wrapping adds).
    reduce_acc: Vec<i32>,
    /// Per-instance outputs, every lane, in [`RunPlan::row_outputs`]
    /// order.
    harvest: Vec<[f64; LANES]>,
    events: Vec<FaultEvent>,
    transport_events: Vec<FaultEvent>,
    noc: NocStats,
    meter: EnergyMeter,
    wear: u64,
    instructions: u64,
    /// Per-IB joules this group burned in local array ops. `None` when
    /// telemetry is disabled — the hot loop then skips the attribution.
    ib_energy: Option<Vec<f64>>,
}

impl GroupOutcome {
    /// The outcome of a group before its first step: the tape's static
    /// energy and instruction count, nothing else yet.
    fn new(ctx: &EngineCtx) -> Self {
        let telemetry = &ctx.machine.config.telemetry;
        GroupOutcome {
            reduce_acc: vec![0i32; ctx.plan.n_slots],
            harvest: Vec::new(),
            events: Vec::new(),
            transport_events: Vec::new(),
            noc: NocStats::default(),
            meter: ctx.tape.static_energy.clone(),
            wear: 0,
            instructions: ctx.tape.steps.len() as u64,
            ib_energy: telemetry.as_ref().map(|_| vec![0.0; ctx.plan.num_ibs]),
        }
    }
}

/// Where instance group `group` runs: its round, its round-local index
/// (which picks its physical slots) and its valid lanes.
#[derive(Debug, Clone, Copy)]
struct GroupPlace {
    group: usize,
    round: u64,
    in_round: usize,
    valid_lanes: usize,
}

impl GroupPlace {
    fn new(ctx: &EngineCtx, group: usize) -> Self {
        GroupPlace {
            group,
            round: (group / ctx.groups_per_round) as u64,
            in_round: group % ctx.groups_per_round,
            valid_lanes: (ctx.plan.instances - group * LANES).min(LANES),
        }
    }

    /// The instance each lane loads. Pad lanes beyond the data replicate
    /// the group's last valid instance so non-linear ops stay in-domain;
    /// reductions only sum valid lanes.
    fn lane_instances(&self, ctx: &EngineCtx) -> [usize; LANES] {
        std::array::from_fn(|lane| {
            (self.group * LANES + lane.min(self.valid_lanes.saturating_sub(1)))
                .min(ctx.plan.instances.saturating_sub(1))
        })
    }

    /// Index of IB `ib`'s slot in the round-local slot tables.
    fn slot_index(&self, ctx: &EngineCtx, ib: usize) -> usize {
        self.in_round * ctx.plan.num_ibs + ib
    }

    /// The fault site of IB `ib` of this group.
    fn site(&self, ctx: &EngineCtx, ib: usize) -> FaultSite {
        FaultSite {
            round: self.round,
            group: self.group,
            ib,
            physical_slot: ctx.usable[self.slot_index(ctx, ib)],
        }
    }

    /// Whether the group may run in a batch: no analog noise and no fault
    /// map on any of its slots, so every conversion is exact and no array
    /// is armed.
    fn batchable(&self, ctx: &EngineCtx) -> bool {
        ctx.plan.analog.noise_prob <= 0.0
            && (0..ctx.plan.num_ibs).all(|ib| ctx.fault_maps[self.slot_index(ctx, ib)].is_none())
    }

    /// The network time this group's round starts at.
    fn round_base_net(&self, ctx: &EngineCtx) -> u64 {
        self.round * ctx.tape.module_latency * imp_noc::NET_CYCLES_PER_ARRAY_CYCLE
    }
}

/// The arrays one [`walk`] drives, one per IB: a single group's
/// [`ReramArray`]s, or the [`ArrayBatch`]es of up to [`BATCH`] groups.
/// Group `g` is the walk's `places[g]`.
trait GroupArrays {
    /// Executes `op` on IB `ib` of every group, storing group `g`'s ADC
    /// resolution in `adc_bits[g]`; `Ok(false)` when a batch declines the
    /// op (see [`ArrayBatch::execute_op`]).
    fn execute_op(
        &mut self,
        ib: usize,
        op: &MicroOp,
        adc_bits: &mut [u8; BATCH],
    ) -> Result<bool, RramError>;
    /// Row `row` of IB `ib` of group `g`.
    fn read_row(&self, g: usize, ib: usize, row: usize) -> [i32; LANES];
    /// Writes row `row` of IB `ib` of group `g`.
    fn write_row(&mut self, g: usize, ib: usize, row: usize, words: &[i32; LANES]);
    /// Row writes on group `g`'s busiest array.
    fn wear(&self, g: usize) -> u64;
}

impl GroupArrays for [ReramArray] {
    fn execute_op(
        &mut self,
        ib: usize,
        op: &MicroOp,
        adc_bits: &mut [u8; BATCH],
    ) -> Result<bool, RramError> {
        adc_bits[0] = self[ib].execute_op(op)?;
        Ok(true)
    }

    fn read_row(&self, _: usize, ib: usize, row: usize) -> [i32; LANES] {
        self[ib].read_row(row)
    }

    fn write_row(&mut self, _: usize, ib: usize, row: usize, words: &[i32; LANES]) {
        self[ib].write_row(row, words);
    }

    fn wear(&self, _: usize) -> u64 {
        let writes = self.iter().map(|a| a.crossbar().total_writes());
        writes.max().unwrap_or(0)
    }
}

impl GroupArrays for [ArrayBatch] {
    fn execute_op(
        &mut self,
        ib: usize,
        op: &MicroOp,
        adc_bits: &mut [u8; BATCH],
    ) -> Result<bool, RramError> {
        Ok(self[ib].execute_op(op, adc_bits))
    }

    fn read_row(&self, g: usize, ib: usize, row: usize) -> [i32; LANES] {
        self[ib].read_row(g, row)
    }

    fn write_row(&mut self, g: usize, ib: usize, row: usize, words: &[i32; LANES]) {
        self[ib].write_group_row(g, row, words);
    }

    fn wear(&self, g: usize) -> u64 {
        self.iter().map(|a| a.total_writes(g)).max().unwrap_or(0)
    }
}

/// Walks the tape once over `arrays`, staged with the groups at `places`,
/// and returns each group's outcome: the one home of the step semantics,
/// the energy and telemetry books, and the harvest.
///
/// Uses `networks[g]` as group `g`'s timing view, growing the pool and
/// resetting views `0..places.len()` only for a tape with `movg`s;
/// without them every group keeps the default `NocStats`.
///
/// Returns `Ok(None)` when the arrays decline an op. A failed transfer,
/// or an array error (which only one group's arrays raise), is `Err`.
fn walk<A: GroupArrays + ?Sized>(
    ctx: &EngineCtx,
    arrays: &mut A,
    places: &[GroupPlace],
    networks: &mut Vec<Network>,
) -> Result<Option<Vec<GroupOutcome>>, SimError> {
    let transfers = ctx.tape.transfers;
    if transfers {
        if networks.len() < places.len() {
            networks.resize_with(places.len(), || ctx.machine.network.clone());
        }
        for (network, place) in networks.iter_mut().zip(places) {
            network.reset();
            network.set_next_msg_id(place.group as u64 * MSG_ID_STRIDE);
        }
    }

    let mut outcomes: Vec<GroupOutcome> = places.iter().map(|_| GroupOutcome::new(ctx)).collect();
    let power = &ctx.machine.power;
    let telemetry_on = ctx.machine.config.telemetry.is_some();
    let deadline = ctx.machine.net_deadline();
    let mut tally = AdcTally::new(&ctx.tape.static_energy);
    let (mut adc_bits, mut adc_j) = ([0u8; BATCH], [0f64; BATCH]);
    for step in &ctx.tape.steps {
        match *step {
            Step::Op {
                ib,
                ref op,
                ref energy,
            } => {
                match arrays.execute_op(ib, op, &mut adc_bits) {
                    Ok(true) => {}
                    Ok(false) => return Ok(None),
                    Err(source) => {
                        let site = Some(places[0].site(ctx, ib));
                        return Err(SimError::Array { site, source });
                    }
                }
                if energy.converts() {
                    tally.record(energy, &adc_bits[..places.len()], power, &mut adc_j);
                }
                if telemetry_on {
                    for (outcome, &adc_j) in outcomes.iter_mut().zip(&adc_j) {
                        let adc_j = if energy.converts() { adc_j } else { 0.0 };
                        if let Some(per_ib) = outcome.ib_energy.as_mut() {
                            per_ib[ib] += energy.op_j(adc_j);
                        }
                    }
                }
            }
            Step::Movg {
                src_ib,
                src_row,
                dst_ib,
                dst_row,
                send_net,
            } => {
                let groups = places.iter().zip(&mut outcomes).zip(networks.iter_mut());
                for (g, ((place, outcome), network)) in groups.enumerate() {
                    let value = arrays.read_row(g, src_ib, src_row);
                    let src_tile = tile_of(ctx, place.in_round, src_ib);
                    let dst_tile = tile_of(ctx, place.in_round, dst_ib);
                    let site = place.site(ctx, dst_ib);
                    let now = place.round_base_net(ctx) + send_net;
                    let delivery = network
                        .transfer(src_tile, dst_tile, &value, 32, now, deadline)
                        .map_err(|ev| ctx.machine.transport_error(site, ev))?;
                    let events = delivery.events.iter();
                    let events = events.map(|ev| transport_fault_event(site, ev));
                    outcome.transport_events.extend(events);
                    // A dropped message leaves the stale destination row.
                    if let Some(words) = delivery.payload {
                        let mut row = [0i32; LANES];
                        row.copy_from_slice(&words);
                        arrays.write_row(g, dst_ib, dst_row, &row);
                    }
                }
            }
            Step::Reduce { ib, src_row, slot } => {
                for (g, (place, outcome)) in places.iter().zip(&mut outcomes).enumerate() {
                    let row = arrays.read_row(g, ib, src_row);
                    let acc = &mut outcome.reduce_acc[slot];
                    for &value in row.iter().take(place.valid_lanes) {
                        *acc = acc.wrapping_add(value);
                    }
                }
            }
        }
    }
    let format = ctx.plan.kernel.format;
    let convert = |word| Fixed::from_raw(word, format).to_f64();
    for (g, outcome) in outcomes.iter_mut().enumerate() {
        tally.store(g, &mut outcome.meter);
        let rows = ctx.plan.row_outputs.iter();
        outcome.harvest = rows
            .map(|loc| arrays.read_row(g, loc.ib, loc.row).map(convert))
            .collect();
        outcome.wear = arrays.wear(g);
        if transfers {
            outcome.noc = networks[g].stats();
        }
    }
    Ok(Some(outcomes))
}

/// Executes one instance group on `worker`, returning its complete
/// outcome. Pure in `(ctx, group)`: worker state is fully re-initialized
/// at entry (arrays reset to blank; network occupancy, stats,
/// and message-id band reset), so the result cannot depend on what the
/// worker ran before — the keystone of serial/parallel equivalence.
///
/// This is the one home of fault maps, analog noise, the ordered
/// conversion loops and array errors; [`run_batch`] runs only groups
/// that need none of them.
fn run_group(ctx: &EngineCtx, worker: &mut Worker, group: usize) -> Result<GroupOutcome, SimError> {
    let place = GroupPlace::new(ctx, group);
    let Worker {
        arrays, networks, ..
    } = worker;
    let fault_seed = ctx.machine.config.fault_seed;
    let lane_instances = place.lane_instances(ctx);
    for (ib_index, rows) in ctx.plan.rows.iter().enumerate() {
        let array = &mut arrays[ib_index];
        array.reset();
        let slot_index = place.slot_index(ctx, ib_index);
        let slot = ctx.usable[slot_index] as u64;
        // Deterministic, order-independent noise stream per
        // (physical array, group, attempt).
        array.set_fault_seed(mix_seed4(fault_seed, slot, group as u64, ctx.attempt_idx));
        if let Some(map) = &ctx.fault_maps[slot_index] {
            let salted = fault_seed ^ TRANSIENT_STREAM_SALT;
            let stream = mix_seed4(salted, slot, group as u64, ctx.attempt_idx);
            array.arm_faults(Arc::clone(map), stream);
        }
        for (row, input) in rows {
            array.write_row(*row, &input.words(&ctx.plan.feeds, &lane_instances));
        }
    }

    let outcomes = walk(ctx, &mut arrays[..], &[place], networks)?;
    let mut outcome = outcomes
        .and_then(|outcomes| outcomes.into_iter().next())
        .expect("a group's own arrays run every op");
    // Write-back-boundary integrity checks on every armed array: residue
    // scan over its crossbar, plus the latched ADC duplicate-conversion
    // disagreement flag. Free in cycles (overlapped with the write-back
    // stage, see [`crate::fault`]); only recovery costs time.
    let detect_cycle = (place.round + 1) * ctx.tape.module_latency;
    let armed = arrays
        .iter()
        .enumerate()
        .filter(|(_, a)| a.crossbar().fault_map().is_some());
    for (ib, array) in armed {
        let site = place.site(ctx, ib);
        let corrupted = array.crossbar().integrity_scan();
        if !corrupted.is_empty() {
            outcome.events.push(FaultEvent {
                site,
                cycle: detect_cycle,
                kind: FaultKind::Cell {
                    corrupted_columns: corrupted,
                },
            });
        }
        if array.adc_fault_detected() {
            outcome.events.push(FaultEvent {
                site,
                cycle: detect_cycle,
                kind: FaultKind::Adc,
            });
        }
    }
    Ok(outcome)
}

/// Batches narrower than this many groups run one group at a time in
/// [`run_group`]: below it a batch's per-op cost over few groups loses to
/// the per-group arrays (see DESIGN.md §6 for the measurement).
const BATCH_CROSSOVER: usize = 4;

/// Executes the `width` consecutive groups from `first` as one lane
/// batch on `worker`, every group's outcome equal to what [`run_group`]
/// returns for it. Each group must be [`GroupPlace::batchable`].
///
/// Returns `None` when some group would leave the clean fast path (an
/// ADC over-range, an unanalysable `dot`) or a transfer fails: the caller
/// then discards the batch and runs its groups through [`run_group`],
/// which reproduces the outcomes and errors in order.
fn run_batch(
    ctx: &EngineCtx,
    worker: &mut Worker,
    first: usize,
    width: usize,
) -> Option<Vec<GroupOutcome>> {
    let Worker {
        batches, networks, ..
    } = worker;
    if batches.is_empty() {
        let ibs = ctx.plan.kernel.ibs.iter();
        *batches = ibs
            .map(|ib| ArrayBatch::new(ctx.plan.analog, ib.lut.clone()))
            .collect();
    }
    let places: Vec<GroupPlace> = (first..first + width)
        .map(|group| GroupPlace::new(ctx, group))
        .collect();

    // Stage the input rows: an element feed whose groups are all full is
    // one contiguous run of instances, copied as is.
    let full = (first + width) * LANES <= ctx.plan.instances;
    let mut staged = [[0i32; LANES]; BATCH];
    for (array, rows) in batches.iter_mut().zip(&ctx.plan.rows) {
        array.reset(width);
        for (row, input) in rows {
            match *input {
                StagedInput::Element { feed, base } if full => {
                    let start = base + first * LANES;
                    let run = &ctx.plan.feeds[feed][start..start + width * LANES];
                    array.write_row(*row, run.as_chunks::<LANES>().0);
                }
                _ => {
                    for (words, place) in staged.iter_mut().zip(&places) {
                        *words = input.words(&ctx.plan.feeds, &place.lane_instances(ctx));
                    }
                    array.write_row(*row, &staged[..width]);
                }
            }
        }
    }
    walk(ctx, &mut batches[..], &places, networks)
        .ok()
        .flatten()
}

/// One logical worker shard: its first group and its groups' result
/// slots.
type Shard<'a> = (usize, &'a mut [Option<Result<GroupOutcome, SimError>>]);

/// How many consecutive shards one OS thread runs, so that `shards`
/// logical shards take one thread each but never more threads than the
/// `host_threads` the host runs at once.
fn shards_per_thread(shards: usize, host_threads: usize) -> usize {
    shards.div_ceil(host_threads.max(1)).max(1)
}

/// Runs `shards` in order on one pooled [`Worker`].
fn run_shards(ctx: &EngineCtx, shards: &mut [Shard]) {
    let mut worker = Worker::new(ctx);
    for (first_group, shard) in shards {
        run_shard(ctx, &mut worker, *first_group, shard);
    }
}

/// Runs one shard's groups `first_group..` into `shard`'s slots, in
/// order, on `worker`: each run of consecutive batchable groups in
/// batches of up to [`BATCH`], a batch narrower than [`BATCH_CROSSOVER`]
/// and every other group through [`run_group`].
fn run_shard(
    ctx: &EngineCtx,
    worker: &mut Worker,
    first_group: usize,
    shard: &mut [Option<Result<GroupOutcome, SimError>>],
) {
    let mut i = 0;
    while i < shard.len() {
        let limit = (shard.len() - i).min(BATCH);
        let width = (0..limit)
            .take_while(|&j| GroupPlace::new(ctx, first_group + i + j).batchable(ctx))
            .count();
        if width >= BATCH_CROSSOVER {
            if let Some(outcomes) = run_batch(ctx, worker, first_group + i, width) {
                for (slot, outcome) in shard[i..i + width].iter_mut().zip(outcomes) {
                    *slot = Some(Ok(outcome));
                }
                i += width;
                continue;
            }
        }
        for (j, slot) in shard[i..i + width.max(1)].iter_mut().enumerate() {
            *slot = Some(run_group(ctx, worker, first_group + i + j));
        }
        i += width.max(1);
    }
}

/// Builds the accepted attempt's output tensors and variable write-backs:
/// reduced outputs from the delivered sums, per-instance outputs by moving
/// their buffers out of `out_values`.
fn assemble_outputs(
    kernel: &CompiledKernel,
    reduce_acc: &[i32],
    out_values: Vec<Vec<f64>>,
) -> (HashMap<NodeId, Tensor>, HashMap<String, Tensor>) {
    let mut outputs = HashMap::new();
    let mut variable_updates = HashMap::new();
    for (output, data) in kernel.outputs.iter().zip(out_values) {
        let k = output.locs.len();
        let tensor = if output
            .locs
            .iter()
            .any(|l| matches!(l, OutputLoc::Reduced { .. }))
        {
            let data: Vec<f64> = output
                .locs
                .iter()
                .map(|loc| match loc {
                    OutputLoc::Reduced { slot } => {
                        Fixed::from_raw(reduce_acc[*slot], kernel.format).to_f64()
                    }
                    OutputLoc::Row { .. } => 0.0,
                })
                .collect();
            Tensor::from_vec(data, Shape::vector(k)).expect("reduced output shape")
        } else {
            let shape = match kernel.parallel {
                ParallelSpec::Stencil { h, w } if k == 1 => Shape::matrix(h, w),
                ParallelSpec::Vector { n } if k == 1 => Shape::vector(n),
                ParallelSpec::Vector { n } => Shape::matrix(k, n),
                ParallelSpec::None => Shape::vector(k),
                ParallelSpec::Stencil { h, w } => Shape::new(vec![k, h, w]),
            };
            Tensor::from_vec(data, shape).expect("output shape")
        };
        if let Some(name) = &output.assign_to {
            variable_updates.insert(name.clone(), tensor.clone());
        }
        outputs.insert(output.node, tensor);
    }
    (outputs, variable_updates)
}

/// Derives per-IB execution profiles from the static schedule: each
/// scheduled instruction's occupancy (`end - start`) is classified by
/// kind — `Movg` is NoC transfer, `ReduceSum` is reduction, everything
/// else is array compute — and the slack up to the module latency is
/// stall. Computed once per run (never inside the group hot loop); the
/// energy column comes from the worker-attributed per-IB joules.
fn build_ib_profiles(
    kernel: &CompiledKernel,
    sched: &Schedule,
    ib_energy: &[f64],
) -> Vec<imp_telemetry::IbProfile> {
    let mut profiles: Vec<imp_telemetry::IbProfile> = kernel
        .ibs
        .iter()
        .enumerate()
        .map(|(ib, cib)| imp_telemetry::IbProfile {
            ib,
            instructions: cib.block.instructions().len(),
            energy_j: ib_energy.get(ib).copied().unwrap_or(0.0),
            ..Default::default()
        })
        .collect();
    for entry in &sched.entries {
        let Some(profile) = profiles.get_mut(entry.ib) else {
            continue;
        };
        let occupancy = entry.end.saturating_sub(entry.start);
        match kernel.ibs[entry.ib].block.instructions()[entry.index] {
            Instruction::Movg { .. } => profile.transfer_cycles += occupancy,
            Instruction::ReduceSum { .. } => profile.reduction_cycles += occupancy,
            _ => profile.compute_cycles += occupancy,
        }
    }
    for profile in &mut profiles {
        let busy = profile.compute_cycles + profile.transfer_cycles + profile.reduction_cycles;
        profile.stall_cycles = sched.module_latency.saturating_sub(busy);
    }
    profiles
}

/// Physical tile of IB `ib` of round-local group `g` (groups packed
/// densely across the chip's *usable* arrays).
fn tile_of(ctx: &EngineCtx, group_in_round: usize, ib: usize) -> usize {
    let capacity = &ctx.machine.config.capacity;
    let flat = ctx.usable[group_in_round * ctx.plan.num_ibs + ib];
    (flat / (capacity.clusters_per_tile * capacity.arrays_per_cluster)) % capacity.tiles
}

/// Where one input row's lanes come from, resolved from its
/// [`InputBinding`] once per run so the per-group staging loop indexes
/// quantized feeds instead of looking tensors up by name.
enum StagedInput {
    /// Instance `i` reads element `base + i` of feed `feed`.
    Element { feed: usize, base: usize },
    /// Every instance reads the same value.
    Shared(i32),
    /// Instance `(r, c)` of the `h × w` grid reads element
    /// `(r+dr)·w + c+dc` of feed `feed`, zero beyond the boundary (SAME
    /// padding).
    Window {
        feed: usize,
        h: usize,
        w: usize,
        dr: isize,
        dc: isize,
    },
}

impl StagedInput {
    /// The words the lanes load from `feeds`, lane `l` reading instance
    /// `lane_instances[l]`. In bounds for every instance below the
    /// kernel's instance count: [`RunPlan::new`] checked the lengths.
    fn words(&self, feeds: &[Vec<i32>], lane_instances: &[usize; LANES]) -> [i32; LANES] {
        match *self {
            StagedInput::Element { feed, base } => {
                let data = &feeds[feed][base..];
                lane_instances.map(|instance| data[instance])
            }
            StagedInput::Shared(value) => [value; LANES],
            StagedInput::Window { feed, h, w, dr, dc } => {
                let data = &feeds[feed];
                lane_instances.map(|instance| {
                    let r = (instance / w) as isize + dr;
                    let c = (instance % w) as isize + dc;
                    if r < 0 || r >= h as isize || c < 0 || c >= w as isize {
                        0
                    } else {
                        data[r as usize * w + c as usize]
                    }
                })
            }
        }
    }
}

/// Elements of a feed that [`RunPlan::new`] scans and converts per
/// block: 8 KiB of `f64`, so the conversion reads what the finiteness scan
/// left in L1.
const QUANTIZE_BLOCK: usize = 1024;

/// Everything [`Machine::run`] checks, resolves and lowers from the
/// kernel and its feeds, once per run, so attempts and groups only
/// execute.
struct RunPlan<'k> {
    kernel: &'k CompiledKernel,
    instances: usize,
    /// The kernel's IBs, at least one.
    num_ibs: usize,
    /// Every array's analog spec: the machine's, at the kernel's
    /// fixed-point format.
    analog: AnalogSpec,
    /// Every supplied feed, quantized to the kernel's format.
    feeds: Vec<Vec<i32>>,
    /// Per IB: each input row and where its lanes come from.
    rows: Vec<Vec<(usize, StagedInput)>>,
    /// Reduction slots the kernel's outputs read.
    n_slots: usize,
    /// Every per-instance output location, in the kernel's order.
    row_outputs: Vec<RowOutput>,
    /// Accelerator-mode loading estimate: every group's input rows
    /// stream in through the external I/O port.
    load_cycles: u64,
    /// The kernel's own schedule, lowered.
    tape: Tape,
}

/// Element `elem` of output `out`, read from row `row` of IB `ib`.
struct RowOutput {
    out: usize,
    elem: usize,
    ib: usize,
    row: usize,
}

impl<'k> RunPlan<'k> {
    /// The one pre-run pass: checks the kernel's structure (the verifier's
    /// [`verify_structure`](imp_verify::verify_structure)) and its width
    /// against `machine`'s arrays, quantizes every feed, then resolves the
    /// input rows against the feeds and lowers the kernel's schedule.
    /// This is the one place input names and lengths are checked.
    ///
    /// Feeds are quantized in name order, each in one read: block by
    /// block ([`QUANTIZE_BLOCK`]), a finiteness scan and then
    /// [`Fixed::from_scaled_saturating`] into one exactly sized `Vec`.
    /// The first feed with a NaN or ±inf fails with the index of its first
    /// non-finite element; finite values saturate at the format's rails.
    /// Telemetry times the quantization as `sim.plan.inputs` and the
    /// lowering as `sim.plan.lower`.
    fn new<'a>(
        kernel: &'k CompiledKernel,
        inputs: impl IntoIterator<Item = (&'a str, &'a Tensor)>,
        machine: &Machine,
    ) -> Result<Self, SimError> {
        let structure = imp_verify::verify_structure(kernel, &kernel.schedule);
        // The first error in (ib, pc, rule) order.
        if let Some(d) = structure.diagnostics.first() {
            return Err(SimError::MalformedKernel(format!(
                "{} at {}: {}",
                d.rule,
                d.location(),
                d.message
            )));
        }
        // ISA03 bounds every reduction slot.
        let n_slots = kernel
            .outputs
            .iter()
            .flat_map(|o| o.locs.iter())
            .filter_map(|loc| match loc {
                OutputLoc::Reduced { slot } => Some(slot + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let num_ibs = kernel.ibs.len().max(1);
        let total_arrays = machine.config.capacity.arrays();
        if num_ibs > total_arrays {
            return Err(SimError::OutOfArrays {
                needed: num_ibs,
                available: total_arrays,
            });
        }

        // A later pair overrides an earlier one of the same name. Name
        // order, not a hash order, picks which non-finite feed is named.
        let mut named = BTreeMap::new();
        named.extend(inputs);
        let telemetry = machine.config.telemetry.as_ref();
        let inputs_span = telemetry.map(|t| t.span("sim.plan.inputs"));
        let mut index = HashMap::with_capacity(named.len());
        let mut feeds = Vec::with_capacity(named.len());
        let (format, scale) = (kernel.format, kernel.format.scale());
        for (name, tensor) in named {
            let data = tensor.data();
            // One read per feed: each block is scanned for finiteness and
            // converted while it is still in L1, and both loops are
            // branch-free per element, so they pack.
            let mut raw = Vec::with_capacity(data.len());
            for block in data.chunks(QUANTIZE_BLOCK) {
                if !block.iter().fold(true, |finite, v| finite & v.is_finite()) {
                    let index = data.iter().take_while(|v| v.is_finite()).count();
                    let name = name.to_string();
                    return Err(SimError::NonFiniteInput { name, index });
                }
                raw.extend(
                    block
                        .iter()
                        .map(|&v| Fixed::from_scaled_saturating(v * scale, format).raw()),
                );
            }
            index.insert(name, feeds.len());
            feeds.push(raw);
        }
        drop(inputs_span);
        let lookup = |name: &str| {
            index
                .get(name)
                .map(|&feed| (feed, feeds[feed].as_slice()))
                .ok_or_else(|| SimError::MissingInput(name.to_string()))
        };
        let shape_error = |name: &str, expect: String, got: usize| SimError::InputShape {
            name: name.to_string(),
            expect,
            got: format!("{got} elements"),
        };
        let shared = |name: &str, flat_idx: usize| {
            let (_, data) = lookup(name)?;
            data.get(flat_idx).copied().ok_or_else(|| {
                shape_error(
                    name,
                    format!("at least {} elements", flat_idx + 1),
                    data.len(),
                )
            })
        };

        // Lanes past the last instance replicate an earlier one, so the
        // highest instance any lane loads is `instances - 1` (instance 0 for
        // an empty kernel).
        let n = kernel.parallel.instances();
        let last_instance = n.saturating_sub(1);
        // ISA03 admits window inputs only in a stencil kernel, whose grid
        // they slide over.
        let (h, w) = match kernel.parallel {
            ParallelSpec::Stencil { h, w } => (h, w),
            ParallelSpec::None | ParallelSpec::Vector { .. } => (0, 0),
        };
        let mut rows = Vec::with_capacity(kernel.ibs.len());
        for ib in &kernel.ibs {
            let mut ib_rows = Vec::with_capacity(ib.input_rows.len());
            for (row, binding) in &ib.input_rows {
                let input = match binding {
                    InputBinding::Element {
                        name,
                        intra_idx,
                        intra_len,
                    } => {
                        let (feed, data) = lookup(name)?;
                        let base = intra_idx * n;
                        if base + last_instance >= data.len() {
                            let expect = format!(
                                "{} elements ({intra_len} intra × {n} instances)",
                                intra_len * n
                            );
                            return Err(shape_error(name, expect, data.len()));
                        }
                        StagedInput::Element { feed, base }
                    }
                    InputBinding::Shared { name, flat_idx } => {
                        StagedInput::Shared(shared(name, *flat_idx)?)
                    }
                    InputBinding::Window { name, dr, dc } => {
                        let (feed, data) = lookup(name)?;
                        if h * w == 0 || data.len() < h * w {
                            let expect = format!("a non-empty {h} × {w} grid ({} elements)", h * w);
                            return Err(shape_error(name, expect, data.len()));
                        }
                        StagedInput::Window {
                            feed,
                            h,
                            w,
                            dr: *dr,
                            dc: *dc,
                        }
                    }
                };
                ib_rows.push((usize::from(*row), input));
            }
            rows.push(ib_rows);
        }
        let row_outputs = kernel.outputs.iter().enumerate().flat_map(|(out, output)| {
            let locs = output.locs.iter().enumerate();
            locs.filter_map(move |(elem, loc)| match *loc {
                OutputLoc::Row { ib, row } => Some(RowOutput {
                    out,
                    elem,
                    ib,
                    row: usize::from(row),
                }),
                OutputLoc::Reduced { .. } => None,
            })
        });
        let bytes_per_group: usize = kernel.ibs.iter().map(|ib| ib.input_rows.len() * 32).sum();
        let groups = perf::pack(n, num_ibs, total_arrays).groups;
        let mut analog = machine.config.analog;
        analog.frac_bits = kernel.format.frac_bits();
        let lower_span = telemetry.map(|t| t.span("sim.plan.lower"));
        let tape = lower_tape(kernel, &kernel.schedule, &machine.power);
        drop(lower_span);
        Ok(RunPlan {
            kernel,
            instances: n,
            num_ibs,
            analog,
            feeds,
            rows,
            n_slots,
            row_outputs: row_outputs.collect(),
            load_cycles: perf::load_cycles(bytes_per_group * groups, EXTERNAL_IO_BYTES_PER_S),
            tape,
        })
    }
}

/// One step of the execution tape: a scheduled instruction decoded once
/// per run, with its array, operands and network endpoints resolved, so
/// the group loop only executes.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// An array-local instruction of IB `ib`, decoded. A `dot` whose
    /// streamed multiplicands were known when the tape was lowered carries
    /// their analysed DAC vectors. `energy` is the data-independent energy
    /// of the instruction's [`OpTrace::of`] activity.
    Op {
        ib: usize,
        op: MicroOp,
        energy: OpEnergy,
    },
    /// A `movg`: row `src_row` of IB `src_ib` sent to row `dst_row` of IB
    /// `dst_ib`, `send_net` network cycles into the round.
    Movg {
        src_ib: usize,
        src_row: usize,
        dst_ib: usize,
        dst_row: usize,
        send_net: u64,
    },
    /// A `reduce_sum`: the valid lanes of row `src_row` of IB `ib` added
    /// into reduction slot `slot`.
    Reduce {
        ib: usize,
        src_row: usize,
        slot: usize,
    },
}

/// A schedule lowered for execution, with the facts every attempt that
/// runs it shares.
struct Tape {
    /// The scheduled instructions, in schedule order.
    steps: Vec<Step>,
    /// The data-independent energy of every step, folded in tape order
    /// from 0: every group's meter starts from it and adds only its ADC
    /// terms (see [`OpEnergy`]).
    static_energy: EnergyMeter,
    /// Whether any step is a `movg`.
    transfers: bool,
    /// The schedule's module latency, at least one cycle.
    module_latency: u64,
}

/// Lowers `sched` over `kernel`, a pair
/// [`verify_structure`](imp_verify::verify_structure) accepts, into its
/// tape: the steps in schedule order, each array-local instruction costed
/// under `power`.
///
/// Lowering follows, per IB, the registers whose lane 0 holds a value
/// known before any group runs: only a `movi` makes a register known, and
/// any other write to it makes it unknown. A `dot` whose multiplicand
/// registers are all known then carries their [`DacVectors`], analysed
/// here once instead of in every group. Lanes other than 0 never matter:
/// `dot` streams lane 0 alone.
fn lower_tape(kernel: &CompiledKernel, sched: &Schedule, power: &ArrayPower) -> Tape {
    let mut known = vec![[None::<i32>; NUM_REGISTERS]; kernel.ibs.len()];
    let mut steps = Vec::with_capacity(sched.entries.len());
    let mut static_energy = EnergyMeter::new();
    for entry in &sched.entries {
        let ib = entry.ib;
        let regs = &mut known[ib];
        let inst = kernel.ibs[ib].block.instructions()[entry.index];
        steps.push(match inst {
            Instruction::Movg { src, dst } => {
                let (_, src_row) = vaddr::as_cross_ib(src).expect("ISA02 checked movg sources");
                let (dst_ib, dst_row) =
                    vaddr::as_cross_ib(dst).expect("ISA02 checked movg destinations");
                Step::Movg {
                    src_ib: ib,
                    src_row: usize::from(src_row),
                    dst_ib,
                    dst_row: usize::from(dst_row),
                    send_net: entry.start * imp_noc::NET_CYCLES_PER_ARRAY_CYCLE,
                }
            }
            // ISA02 admits only a slot some output reads, so below
            // `n_slots`.
            Instruction::ReduceSum { src, dst } => Step::Reduce {
                ib,
                src_row: src.index(),
                slot: vaddr::as_output_slot(dst).expect("ISA02 checked reduction slots"),
            },
            local => {
                let mut op = MicroOp::decode(&local).expect("array-local instructions decode");
                if let MicroOp::Dot {
                    rows,
                    regs: streamed,
                    dac,
                    ..
                } = &mut op
                {
                    let scalars = || rows.rows().zip(streamed.rows()).map(|(_, reg)| regs[reg]);
                    if scalars().all(|m| m.is_some()) {
                        *dac = DacVectors::analyse(scalars().map(Option::unwrap_or_default));
                    }
                }
                if let Some(Addr::Reg(reg)) = local.local_dst() {
                    regs[usize::from(reg)] = match op {
                        MicroOp::Movi { word, .. } => Some(word),
                        _ => None,
                    };
                }
                let energy = OpEnergy::new(&OpTrace::of(&local), power);
                static_energy.record_static(&energy);
                Step::Op { ib, op, energy }
            }
        });
    }
    Tape {
        transfers: steps.iter().any(|step| matches!(step, Step::Movg { .. })),
        steps,
        static_energy,
        module_latency: sched.module_latency.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_compiler::{compile, CompileOptions, OptPolicy};
    use imp_dfg::interp::Interpreter;
    use imp_dfg::range::Interval;
    use imp_dfg::{Graph, GraphBuilder};

    fn run_and_compare(
        graph: &Graph,
        kernel: &CompiledKernel,
        inputs: &HashMap<String, Tensor>,
        tolerance: f64,
    ) -> RunReport {
        let mut machine = Machine::new(SimConfig::functional());
        let report = machine.run(kernel, inputs).unwrap();
        let mut interp = Interpreter::new(graph);
        for (name, tensor) in inputs {
            interp.feed(name, tensor.clone());
        }
        let golden = interp.run().unwrap();
        for (&node, tensor) in &report.outputs {
            let reference = &golden[&node];
            assert_eq!(
                tensor.data().len(),
                reference.data().len(),
                "output size for {node}"
            );
            for (i, (&got, &want)) in tensor.data().iter().zip(reference.data()).enumerate() {
                assert!(
                    (got - want).abs() <= tolerance,
                    "{node}[{i}]: simulated {got} vs reference {want}"
                );
            }
        }
        report
    }

    fn vec_input(name: &str, data: Vec<f64>) -> HashMap<String, Tensor> {
        let shape = Shape::vector(data.len());
        [(name.to_string(), Tensor::from_vec(data, shape).unwrap())]
            .into_iter()
            .collect()
    }

    /// Compiled kernels load `dot` multiplicands with `movi`,
    /// so lowering analyses the DAC vectors of every corpus `dot` once per
    /// run instead of once per group.
    #[test]
    fn every_corpus_dot_is_analysed_when_lowered() {
        let mut dots = 0;
        for w in imp_workloads::all_workloads() {
            for (policy, n) in [(OptPolicy::MaxDlp, 2048), (OptPolicy::MaxIlp, 64)] {
                let kernel = w.compile(n, policy).unwrap();
                let inputs = w.inputs(n, 1);
                let inputs = inputs.iter().map(|(name, t)| (name.as_str(), t));
                let machine = Machine::new(SimConfig::functional());
                let plan = RunPlan::new(&kernel, inputs, &machine).unwrap();
                for step in &plan.tape.steps {
                    if let Step::Op {
                        op: op @ MicroOp::Dot { dac, .. },
                        ..
                    } = step
                    {
                        assert!(dac.is_some(), "{} {policy:?}: {op:?}", w.name);
                        dots += 1;
                    }
                }
            }
        }
        assert!(dots > 0, "the corpus has dots");
    }

    /// `Threads(n)` keeps its `n` shards but never runs them on more OS
    /// threads than the host runs at once; checked on the pure helper, so
    /// the test itself starts no thread.
    #[test]
    fn auto_gives_each_worker_enough_work() {
        assert_eq!(auto_workers(0, 2), 1);
        assert_eq!(auto_workers(AUTO_WORK_PER_WORKER - 1, 8), 1);
        assert_eq!(auto_workers(2 * AUTO_WORK_PER_WORKER - 1, 8), 1);
        assert_eq!(auto_workers(2 * AUTO_WORK_PER_WORKER, 8), 2);
        assert_eq!(auto_workers(100 * AUTO_WORK_PER_WORKER, 8), 8);
        assert_eq!(auto_workers(100 * AUTO_WORK_PER_WORKER, 0), 1);
        // The engine sweep's 64-group blackscholes point stays serial.
        let w = imp_workloads::workload("blackscholes").unwrap();
        let kernel = w.compile(64 * LANES, OptPolicy::MaxDlp).unwrap();
        let inputs = w.inputs(64 * LANES, 5);
        let inputs = inputs.iter().map(|(name, t)| (name.as_str(), t));
        let machine = Machine::new(SimConfig::functional());
        let plan = RunPlan::new(&kernel, inputs, &machine).unwrap();
        assert_eq!(Parallelism::Auto.shards(plan.tape.steps.len() * 64), 1);
    }

    /// A worker's network views are cloned only by a walk of a tape with
    /// `movg`s, one per group of the walk.
    #[test]
    fn a_walk_clones_network_views_only_for_movgs() {
        const N: usize = 5 * LANES - 3;
        for (name, policy, transfers) in [
            ("blackscholes", OptPolicy::MaxDlp, false),
            ("kmeans", OptPolicy::MaxIlp, true),
        ] {
            let w = imp_workloads::workload(name).unwrap();
            let kernel = w.compile(N, policy).unwrap();
            let inputs = w.inputs(N, 3);
            let inputs = inputs.iter().map(|(name, t)| (name.as_str(), t));
            let machine = Machine::new(SimConfig::functional());
            let plan = RunPlan::new(&kernel, inputs, &machine).unwrap();
            assert_eq!(plan.tape.transfers, transfers, "{name}");
            let usable: Vec<usize> = (0..machine.config.capacity.arrays()).collect();
            let groups_per_round = perf::pack(N, plan.num_ibs, usable.len()).groups_per_round;
            let ctx = EngineCtx {
                machine: &machine,
                plan: &plan,
                tape: &plan.tape,
                usable: &usable,
                fault_maps: vec![None; groups_per_round * plan.num_ibs],
                groups_per_round,
                attempt_idx: 0,
            };
            let mut worker = Worker::new(&ctx);
            assert!(worker.networks.is_empty(), "{name}");
            run_group(&ctx, &mut worker, 4).unwrap();
            assert_eq!(worker.networks.len(), usize::from(transfers), "{name}");
            let batched = run_batch(&ctx, &mut worker, 0, 5).expect("a clean batch");
            assert_eq!(worker.networks.len(), 5 * usize::from(transfers), "{name}");
            let sent = |outcome: &GroupOutcome| outcome.noc.messages > 0;
            assert!(batched.iter().all(|o| sent(o) == transfers), "{name}");
        }
    }

    #[test]
    fn shards_run_on_at_most_the_hosts_threads() {
        for shards in 1..=70 {
            for host in 0..=9 {
                let per_thread = shards_per_thread(shards, host);
                let threads = shards.div_ceil(per_thread);
                assert!(
                    threads <= host.max(1),
                    "{shards} shards on {host}: {threads}"
                );
                if host >= shards {
                    assert_eq!(per_thread, 1, "{shards} shards on {host}");
                }
            }
        }
        assert_eq!(shards_per_thread(64, 2), 32);
        assert_eq!(shards_per_thread(0, 2), 1);
    }

    #[test]
    fn elementwise_arithmetic_matches_reference() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(20)).unwrap();
        let sq = g.square(x).unwrap();
        let two = g.scalar(2.0);
        let tx = g.mul(x, two).unwrap();
        let y = g.add(sq, tx).unwrap(); // x² + 2x
        g.fetch(y);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let inputs = vec_input("x", (0..20).map(|i| i as f64 / 4.0 - 2.0).collect());
        let report = run_and_compare(&graph, &kernel, &inputs, 1e-3);
        assert_eq!(report.instances, 20);
        assert!(report.cycles > 0);
        assert!(report.energy.total_j() > 0.0);
    }

    #[test]
    fn select_abs_less_match_reference() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(16)).unwrap();
        let a = g.abs(x).unwrap();
        let zero = g.scalar(0.5);
        let c = g.less(x, zero).unwrap();
        let y = g.select(c, a, x).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let inputs = vec_input("x", (0..16).map(|i| (i as f64) - 8.0).collect());
        run_and_compare(&graph, &kernel, &inputs, 1e-3);
    }

    #[test]
    fn division_matches_reference() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::vector(16)).unwrap();
        let b = g.placeholder("b", Shape::vector(16)).unwrap();
        let q = g.div(a, b).unwrap();
        g.fetch(q);
        let graph = g.finish();
        let mut options = CompileOptions::default();
        options.ranges.insert("a".into(), Interval::new(-4.0, 4.0));
        options.ranges.insert("b".into(), Interval::new(0.5, 2.0));
        let kernel = compile(&graph, &options).unwrap();
        let mut inputs = vec_input("a", (0..16).map(|i| (i as f64) / 2.0 - 4.0).collect());
        inputs.extend(vec_input(
            "b",
            (0..16).map(|i| 0.5 + 1.5 * (i as f64) / 16.0).collect(),
        ));
        run_and_compare(&graph, &kernel, &inputs, 5e-3);
    }

    #[test]
    fn sqrt_matches_reference() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(16)).unwrap();
        let s = g.sqrt(x).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let mut options = CompileOptions::default();
        options.ranges.insert("x".into(), Interval::new(0.0, 16.0));
        let kernel = compile(&graph, &options).unwrap();
        let inputs = vec_input("x", (0..16).map(|i| i as f64).collect());
        // rsqrt-seeded NR: a few ×1e-2 absolute error at this range.
        run_and_compare(&graph, &kernel, &inputs, 5e-2);
    }

    #[test]
    fn exp_matches_reference() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(16)).unwrap();
        let e = g.exp(x).unwrap();
        g.fetch(e);
        let graph = g.finish();
        let mut options = CompileOptions::default();
        options.ranges.insert("x".into(), Interval::new(-2.0, 2.0));
        let kernel = compile(&graph, &options).unwrap();
        let inputs = vec_input("x", (0..16).map(|i| (i as f64) / 4.0 - 2.0).collect());
        // 8-bit seed ⇒ ~0.5% relative accuracy; e² ≈ 7.4 ⇒ ≤ ~0.1 abs.
        run_and_compare(&graph, &kernel, &inputs, 0.1);
    }

    #[test]
    fn sigmoid_matches_reference() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(16)).unwrap();
        let s = g.sigmoid(x).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let mut options = CompileOptions::default();
        options.ranges.insert("x".into(), Interval::new(-8.0, 8.0));
        let kernel = compile(&graph, &options).unwrap();
        let inputs = vec_input("x", (0..16).map(|i| (i as f64) - 8.0).collect());
        run_and_compare(&graph, &kernel, &inputs, 0.05);
    }

    #[test]
    fn intra_module_sum_and_dot() {
        // y[j] = Σ_i W[j][i]·x[i] via MatMul (shared × parallel).
        let mut g = GraphBuilder::new();
        let w = g.placeholder("w", Shape::matrix(2, 4)).unwrap();
        let x = g.placeholder("x", Shape::matrix(4, 24)).unwrap();
        let y = g.matmul(w, x).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(
            "w".to_string(),
            Tensor::from_vec(
                vec![0.5, -1.0, 2.0, 0.25, 1.0, 1.0, -0.5, 3.0],
                Shape::matrix(2, 4),
            )
            .unwrap(),
        );
        inputs.insert(
            "x".to_string(),
            Tensor::from_fn(Shape::matrix(4, 24), |i| ((i % 17) as f64) / 4.0 - 2.0),
        );
        run_and_compare(&graph, &kernel, &inputs, 1e-2);
    }

    #[test]
    fn cross_instance_reduction() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![2, 40])).unwrap();
        let r = g.sum(x, 1).unwrap();
        g.fetch(r);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let inputs = [(
            "x".to_string(),
            Tensor::from_fn(Shape::new(vec![2, 40]), |i| (i as f64) / 8.0),
        )]
        .into_iter()
        .collect();
        let report = run_and_compare(&graph, &kernel, &inputs, 1e-2);
        assert!(report.noc.reduction_adds > 0 || report.noc.messages > 0);
    }

    #[test]
    fn multi_ib_kernels_match_reference() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![6, 32])).unwrap();
        let sq = g.square(x).unwrap();
        let s = g.sum(sq, 0).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let options = CompileOptions {
            policy: OptPolicy::MaxIlp,
            ..Default::default()
        };
        let kernel = compile(&graph, &options).unwrap();
        assert!(kernel.ibs.len() > 1, "MaxILP should split IBs");
        assert!(kernel.stats().cross_ib_moves > 0);
        let inputs = [(
            "x".to_string(),
            Tensor::from_fn(Shape::new(vec![6, 32]), |i| ((i % 13) as f64) / 3.0 - 2.0),
        )]
        .into_iter()
        .collect();
        let report = run_and_compare(&graph, &kernel, &inputs, 1e-2);
        assert!(
            report.noc.messages > 0,
            "cross-IB movg should hit the network"
        );
    }

    #[test]
    fn stencil_convolution_matches_reference() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::matrix(8, 8)).unwrap();
        let f = g
            .constant(
                Tensor::from_vec(
                    vec![0.0, 0.125, 0.0, 0.125, 0.5, 0.125, 0.0, 0.125, 0.0],
                    Shape::matrix(3, 3),
                )
                .unwrap(),
            )
            .unwrap();
        let y = g.conv2d(x, f).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let inputs = [(
            "x".to_string(),
            Tensor::from_fn(Shape::matrix(8, 8), |i| ((i * 7) % 11) as f64 / 2.0),
        )]
        .into_iter()
        .collect();
        run_and_compare(&graph, &kernel, &inputs, 1e-2);
    }

    #[test]
    fn variables_update() {
        let mut g = GraphBuilder::new();
        let v = g.variable("acc", Tensor::zeros(Shape::vector(10))).unwrap();
        let x = g.placeholder("x", Shape::vector(10)).unwrap();
        let u = g.assign_add(v, x).unwrap();
        g.fetch(u);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let mut machine = Machine::new(SimConfig::functional());
        let mut inputs = vec_input("x", (0..10).map(f64::from).map(|v| v / 2.0).collect());
        inputs.insert("acc".to_string(), Tensor::filled(1.0, Shape::vector(10)));
        let report = machine.run(&kernel, &inputs).unwrap();
        let updated = &report.variable_updates["acc"];
        for (i, &v) in updated.data().iter().enumerate() {
            assert!((v - (1.0 + i as f64 / 2.0)).abs() < 1e-3);
        }
    }

    #[test]
    fn a_later_input_of_the_same_name_overrides_an_earlier_one() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        let y = g.add(x, x).unwrap();
        g.fetch(y);
        let kernel = compile(&g.finish(), &CompileOptions::default()).unwrap();
        let mut machine = Machine::new(SimConfig::functional());
        let nan = Tensor::filled(f64::NAN, Shape::vector(4));
        let ones = Tensor::filled(1.0, Shape::vector(4));
        let report = machine
            .run_inputs(&kernel, [("x", &nan), ("x", &ones)])
            .unwrap();
        assert_eq!(report.outputs[&y].data(), &[2.0; 4]);
        let result = machine.run_inputs(&kernel, [("x", &ones), ("x", &nan)]);
        assert!(
            matches!(result, Err(SimError::NonFiniteInput { ref name, index: 0 }) if name == "x"),
            "{result:?}"
        );
    }

    #[test]
    fn missing_input_is_error() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        g.fetch(x);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let mut machine = Machine::new(SimConfig::functional());
        let result = machine.run(&kernel, &HashMap::new());
        assert!(matches!(result, Err(SimError::MissingInput(name)) if name == "x"));
    }

    #[test]
    fn reduction_spans_rounds() {
        // A cross-instance sum over more instances than one round holds:
        // the router accumulators must carry across rounds.
        let n = 40_000usize;
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(n)).unwrap();
        let total = g.sum(x, 0).unwrap();
        g.fetch(total);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let inputs = [("x".to_string(), Tensor::filled(0.25, Shape::vector(n)))]
            .into_iter()
            .collect();
        let mut machine = Machine::new(SimConfig::functional());
        let report = machine.run(&kernel, &inputs).unwrap();
        assert!(report.rounds > 1);
        let got = report.outputs[&total].data()[0];
        assert!((got - n as f64 * 0.25).abs() < 1.0, "sum {got}");
    }

    #[test]
    fn rounds_scale_with_instances() {
        let mut g = GraphBuilder::new();
        // 64-tile functional chip: 4096 arrays × 8 lanes = 32768 slots.
        let n = 40_000usize;
        let x = g.placeholder("x", Shape::vector(n)).unwrap();
        let y = g.add(x, x).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let kernel = compile(&graph, &CompileOptions::default()).unwrap();
        let mut machine = Machine::new(SimConfig::functional());
        let inputs = [(
            "x".to_string(),
            Tensor::from_fn(Shape::vector(n), |i| (i % 100) as f64),
        )]
        .into_iter()
        .collect();
        let report = machine.run(&kernel, &inputs).unwrap();
        assert_eq!(report.rounds, 2);
        assert!(report.avg_adc_bits > 0.0);
        assert!(report.lifetime_years > 0.0);
        // Loading estimate: 40k instances × 2 input rows × 32 B over
        // 100 GB/s ≈ tens of µs of array time — nonzero, same order as
        // the 2-round kernel time (the §7.3 loading observation).
        assert!(report.load_cycles > 0);
    }
}
