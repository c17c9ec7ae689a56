//! Functional + timing execution of compiled kernels.

use crate::energy::{ArrayPower, EnergyBreakdown, EnergyMeter};
use crate::fault::{
    mix_seed, mix_seed4, FaultConfig, FaultEvent, FaultKind, FaultPolicy, FaultSite, WatchdogConfig,
};
use crate::lifetime;
use crate::SimError;
use imp_compiler::module::{as_cross_ib, as_output_slot, OutputLoc, RegBinding};
use imp_compiler::perf::{self, Packing};
use imp_compiler::schedule::Schedule;
use imp_compiler::ParallelSpec;
use imp_compiler::{ArrayAvailability, ChipCapacity, CompiledKernel, InputBinding};
use imp_dfg::{NodeId, Shape, Tensor};
use imp_isa::{Instruction, LANES};
use imp_noc::{
    HTreeTopology, LinkFaultMap, Network, NocConfig, NocStats, TransportConfig, TransportEvent,
    TransportFaultKind,
};
use imp_rram::{AnalogSpec, FaultMap, Fixed, ReramArray, ARRAY_CYCLE_S};
use std::collections::HashMap;

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
    /// `RAYON_NUM_THREADS` environment variable). The default.
    Auto,
    /// Exactly this many workers (values of 0 behave like 1).
    Threads(usize),
}

impl Parallelism {
    /// The number of worker shards this policy resolves to on this host.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => rayon::current_num_threads().max(1),
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Chip capacity (tiles/clusters/arrays).
    pub capacity: ChipCapacity,
    /// Analog periphery of every array.
    pub analog: AnalogSpec,
    /// Network timing parameters.
    pub noc: NocConfig,
    /// Base seed for all per-array randomness — process-variation noise
    /// and fault-population generation. Each physical array slot derives
    /// its own stream via [`crate::fault::mix_seed`], so runs are
    /// deterministic in (seed, slot) regardless of group scheduling.
    pub fault_seed: u64,
    /// Fault injection and recovery policy. `None` (the default)
    /// disables the fault model entirely: no fault maps are generated
    /// and execution is bit-identical to a fault-free chip.
    pub faults: Option<FaultConfig>,
    /// Transport-level (H-tree) fault injection and recovery. `None`
    /// (the default) keeps the loss-free network; transfers are then
    /// bit- and cycle-identical to a perfect fabric. The link fault map
    /// is seeded from [`SimConfig::fault_seed`].
    pub transport: Option<TransportConfig>,
    /// Execution watchdog. `None` (the default) never times out.
    pub watchdog: Option<WatchdogConfig>,
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
            noc: NocConfig::default(),
            fault_seed: 0,
            faults: None,
            transport: None,
            watchdog: None,
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
    /// Empty whenever [`SimConfig::faults`] is `None`.
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
    /// [`RunReport::cycles`]; zero whenever [`SimConfig::transport`] is
    /// `None` or the fault map is clean.
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
    outputs: HashMap<NodeId, Tensor>,
    variable_updates: HashMap<String, Tensor>,
    rounds: u64,
    cycles: u64,
    load_cycles: u64,
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
    /// Creates a machine.
    ///
    /// # Panics
    /// Panics if `config.capacity.tiles` is not a positive power of 8 (the
    /// H-tree's radix). [`imp_compiler::compile`] rejects such a chip with
    /// [`CompileError::BadCapacity`](imp_compiler::CompileError::BadCapacity),
    /// so a session built through the builder never reaches this panic.
    pub fn new(config: SimConfig) -> Self {
        let topology = HTreeTopology::new(config.capacity.tiles, 8);
        let mut network = Network::new(topology, config.noc);
        if let Some(transport) = &config.transport {
            let seed = mix_seed(config.fault_seed, TRANSPORT_SEED_SALT);
            let map = LinkFaultMap::generate(seed, &transport.rates, network.topology());
            network.set_transport(map, transport.policy);
        }
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
    /// tensors, keyed by name).
    ///
    /// When [`SimConfig::faults`] is set, each attempt ends with the
    /// per-array integrity checks; detections are handled per the
    /// configured [`FaultPolicy`] — recorded, fatal, retried, or
    /// remapped around — and every event lands in
    /// [`RunReport::fault_events`].
    ///
    /// # Errors
    /// Missing, ill-shaped or non-finite inputs, array faults (e.g. ADC
    /// over-range), a kernel wider than the simulated chip (or wider than
    /// its healthy remainder under remap), a malformed hand-built kernel,
    /// or unrecovered fault detections ([`SimError::Faults`]).
    pub fn run(
        &mut self,
        kernel: &CompiledKernel,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<RunReport, SimError> {
        let total_arrays = self.config.capacity.arrays();
        let plan = RunPlan::new(kernel, inputs, total_arrays)?;
        let instances = kernel.parallel.instances();
        let num_ibs = kernel.ibs.len().max(1);

        let tel = self.config.telemetry.clone();
        let mut run_span = tel.as_ref().map(|t| t.span("sim.run"));
        // Per-IB energy attribution, merged in ascending group order by
        // `run_once` and accumulated across attempts here (failed
        // attempts burned real joules, exactly like the meter).
        let mut ib_energy_total: Vec<f64> = match &tel {
            Some(_) => vec![0.0; num_ibs],
            None => Vec::new(),
        };

        let policy = self
            .config
            .faults
            .as_ref()
            .map_or(FaultPolicy::Silent, |c| c.policy);
        let mut avail = ArrayAvailability::all(total_arrays);
        let mut schedule_override: Option<Schedule> = None;
        // Energy accumulates across attempts: failed executions still
        // burned their joules.
        let mut meter = EnergyMeter::new();
        let mut retries = 0u32;
        let mut fault_overhead_cycles = 0u64;
        let mut fault_events: Vec<FaultEvent> = Vec::new();
        let mut instructions_executed = 0u64;
        let mut attempt_idx = 0u64;
        // Attempt-invariant state, hoisted out of the retry loop: the
        // per-IB array templates (LUT + register preloads over a pristine
        // crossbar) and the per-instance output buffer. Every `(output,
        // Row-loc element, instance)` cell is rewritten on every attempt,
        // and `Reduced` cells are never read, so the buffer needs no
        // clearing between attempts.
        let templates = self.build_templates(kernel, &plan.preloads);
        let mut out_values: Vec<Vec<f64>> = kernel
            .outputs
            .iter()
            .map(|o| vec![0.0; o.locs.len() * instances])
            .collect();
        loop {
            let usable: Vec<usize> = avail.usable_slots().collect();
            let sched = schedule_override.as_ref().unwrap_or(&kernel.schedule);
            let attempt = self.run_once(
                kernel,
                &plan,
                instances,
                &usable,
                sched,
                attempt_idx,
                &mut meter,
                &templates,
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
            if let Some(watchdog) = &self.config.watchdog {
                let spent = fault_overhead_cycles + attempt.cycles;
                if spent > watchdog.max_cycles {
                    return Err(SimError::Timeout {
                        limit_cycles: watchdog.max_cycles,
                        spent_cycles: spent,
                    });
                }
            }

            if attempt.events.is_empty() || matches!(policy, FaultPolicy::Silent) {
                // This attempt's outputs stand.
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
                    outputs: attempt.outputs,
                    variable_updates: attempt.variable_updates,
                    instances,
                    rounds: attempt.rounds,
                    cycles,
                    load_cycles: attempt.load_cycles,
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
                    let resched = match imp_compiler::reschedule(kernel, &avail) {
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
                    schedule_override = Some(resched);
                }
            }
            // Watchdog progress ceiling: the policy wants another attempt;
            // refuse if the attempt budget is exhausted.
            if let Some(watchdog) = &self.config.watchdog {
                if attempt_idx + 1 >= u64::from(watchdog.max_attempts) {
                    return Err(SimError::Timeout {
                        limit_cycles: watchdog.max_cycles,
                        spent_cycles: fault_overhead_cycles,
                    });
                }
            }
            retries += 1;
            attempt_idx += 1;
        }
    }

    /// One complete execution attempt over the given usable arrays and
    /// schedule, with fault detection but no recovery decisions.
    ///
    /// This is the parallel engine's top half: it builds the shared
    /// read-only [`EngineCtx`], shards the instance groups over worker
    /// threads per [`SimConfig::parallelism`] (each worker owning a
    /// pooled set of arrays and a private network timing view), then
    /// merges the per-group outcomes in ascending group order. Because
    /// every group's state and randomness derive only from
    /// `(fault_seed, slot, group, attempt)`, the merged attempt is bit-
    /// and cycle-identical whatever the worker count.
    #[allow(clippy::too_many_arguments)]
    fn run_once(
        &self,
        kernel: &CompiledKernel,
        plan: &RunPlan,
        instances: usize,
        usable: &[usize],
        sched: &Schedule,
        attempt_idx: u64,
        meter: &mut EnergyMeter,
        templates: &[ReramArray],
        out_values: &mut [Vec<f64>],
    ) -> Result<Attempt, SimError> {
        let n_slots = plan.n_slots;
        let num_ibs = kernel.ibs.len().max(1);
        // The watchdog's cycle budget doubles as a per-transfer deadline,
        // cutting off retransmit storms inside the network.
        let net_deadline = self.config.watchdog.as_ref().map(|w| {
            w.max_cycles
                .saturating_mul(imp_noc::NET_CYCLES_PER_ARRAY_CYCLE)
        });
        let Packing {
            groups: groups_total,
            groups_per_round,
            rounds,
        } = perf::pack(instances, num_ibs, usable.len());
        let module_latency = sched.module_latency.max(1);

        // Per-(round-local slot) fault populations, generated once per
        // attempt: a fault map is a property of the *physical array*
        // (seeded by its slot alone), so every group mapped onto the
        // same slot sees the same population.
        let fault_maps: Vec<FaultMap> = match &self.config.faults {
            Some(cfg) => (0..groups_per_round * num_ibs)
                .map(|i| {
                    FaultMap::generate(
                        mix_seed(
                            self.config.fault_seed ^ 0xFA17_FA17_FA17_FA17,
                            usable[i] as u64,
                        ),
                        &cfg.rates,
                    )
                })
                .collect(),
            None => Vec::new(),
        };

        let ctx = EngineCtx {
            kernel,
            plan,
            usable,
            sched,
            templates,
            fault_maps,
            faults_on: self.config.faults.is_some(),
            instances,
            groups_per_round,
            num_ibs,
            module_latency,
            net_deadline,
            attempt_idx,
            telemetry_on: self.config.telemetry.is_some(),
            fault_seed: self.config.fault_seed,
            arrays_per_tile: self.config.capacity.clusters_per_tile
                * self.config.capacity.arrays_per_cluster,
            tiles: self.config.capacity.tiles,
            watchdog_limit: self.config.watchdog.as_ref().map_or(0, |w| w.max_cycles),
            network_proto: &self.network,
            power: &self.power,
        };

        let workers = self.config.parallelism.workers().min(groups_total).max(1);
        let mut results: Vec<Option<Result<GroupOutcome, SimError>>> =
            (0..groups_total).map(|_| None).collect();
        if workers == 1 {
            let mut worker = Worker::new(&ctx);
            for (group, slot) in results.iter_mut().enumerate() {
                *slot = Some(run_group(&ctx, &mut worker, group));
            }
        } else {
            // Contiguous shards keep each worker's groups cache-friendly;
            // the merge below re-serializes in ascending group order.
            let chunk = groups_total.div_ceil(workers);
            rayon::scope(|s| {
                for (w, shard) in results.chunks_mut(chunk).enumerate() {
                    let ctx = &ctx;
                    s.spawn(move |_| {
                        let mut worker = Worker::new(ctx);
                        for (i, slot) in shard.iter_mut().enumerate() {
                            let group = w * chunk + i;
                            *slot = Some(run_group(ctx, &mut worker, group));
                        }
                    });
                }
            });
        }

        // Deterministic merge in ascending group order: wrapping adds for
        // the reduction slots, fixed-order float accumulation for energy,
        // per-group-contiguous event streams. The lowest-group error (the
        // one the serial engine would have hit first) wins.
        let merge_start = self
            .config
            .telemetry
            .as_ref()
            .map(|_| std::time::Instant::now());
        let mut ib_energy: Option<Vec<f64>> = self
            .config
            .telemetry
            .as_ref()
            .map(|_| vec![0.0; kernel.ibs.len().max(1)]);
        let mut reduce_acc = vec![0i32; n_slots];
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut transport_events: Vec<FaultEvent> = Vec::new();
        let mut noc = NocStats::default();
        let mut writes_per_exec = 0u64;
        let mut instructions_executed = 0u64;
        for (group, slot) in results.into_iter().enumerate() {
            let outcome = slot.expect("every group executed")?;
            for (acc, &part) in reduce_acc.iter_mut().zip(&outcome.reduce_acc) {
                *acc = acc.wrapping_add(part);
            }
            for (out_idx, elem, values) in outcome.harvest {
                let base = elem * instances + group * LANES;
                out_values[out_idx][base..base + values.len()].copy_from_slice(&values);
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
            let groups_per_worker = if workers == 1 {
                vec![groups_total]
            } else {
                let chunk = groups_total.div_ceil(workers);
                (0..workers)
                    .map(|w| groups_total.saturating_sub(w * chunk).min(chunk))
                    .filter(|&g| g > 0)
                    .collect()
            };
            t.set_engine(imp_telemetry::EngineStats {
                workers,
                groups: groups_total,
                rounds,
                groups_per_worker,
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
            match net.reduce_transfer(&tiles, 0, &reduce_acc, 32 * n_slots, 0, net_deadline) {
                Ok(delivery) => {
                    for ev in &delivery.events {
                        transport_events.push(transport_fault_event(site, ev));
                    }
                    reduce_tail_cycles = imp_noc::net_to_array_cycles(delivery.time);
                    // A dropped reduction loses the sums entirely.
                    reduce_acc = delivery.payload.unwrap_or_else(|| vec![0i32; n_slots]);
                }
                Err(ev) => return Err(transport_error(ctx.watchdog_limit, site, ev)),
            }
            noc.merge(&net.stats());
        }
        meter.record_noc(&noc);

        let transport_overhead_cycles = imp_noc::net_to_array_cycles(noc.retransmit_cycles);
        let cycles = rounds * module_latency + reduce_tail_cycles + transport_overhead_cycles;
        // Accelerator-mode loading estimate: every group's input rows and
        // register preloads stream in through the external I/O port.
        let bytes_per_group: usize = kernel
            .ibs
            .iter()
            .map(|ib| (ib.input_rows.len() + ib.reg_preloads.len()) * 32)
            .sum();
        let load_cycles =
            perf::load_cycles(bytes_per_group * groups_total, EXTERNAL_IO_BYTES_PER_S);

        // Assemble output tensors.
        let format = kernel.format;
        let mut outputs = HashMap::new();
        let mut variable_updates = HashMap::new();
        for (out_idx, output) in kernel.outputs.iter().enumerate() {
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
                            Fixed::from_raw(reduce_acc[*slot], format).to_f64()
                        }
                        OutputLoc::Row { .. } => 0.0,
                    })
                    .collect();
                Tensor::from_vec(data, Shape::vector(k)).expect("reduced output shape")
            } else {
                let data = out_values[out_idx].clone();
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

        Ok(Attempt {
            outputs,
            variable_updates,
            rounds,
            cycles,
            load_cycles,
            writes_per_exec,
            instructions_executed,
            noc,
            events,
            transport_events,
            transport_overhead_cycles,
            ib_energy,
        })
    }

    /// Builds the per-IB immutable template arrays for this kernel: the
    /// analog spec at the kernel's fixed-point format, the LUT contents,
    /// and the register preloads — all group-independent — over a
    /// pristine crossbar. Workers clone these once, then
    /// [`ReramArray::reset_from_template`] restores pooled arrays between
    /// groups instead of rebuilding them.
    fn build_templates(
        &self,
        kernel: &CompiledKernel,
        preloads: &[Vec<(usize, i32)>],
    ) -> Vec<ReramArray> {
        let mut analog = self.config.analog;
        analog.frac_bits = kernel.format.frac_bits();
        kernel
            .ibs
            .iter()
            .zip(preloads)
            .map(|(ib, preloads)| {
                let mut array = ReramArray::new(analog);
                array.set_lut(ib.lut.clone());
                // Register preloads (broadcast across lanes; `dot` streams
                // lane 0, per-lane values are never needed for weights).
                for &(reg, raw) in preloads {
                    array.write_reg(reg, [raw; LANES]);
                }
                array
            })
            .collect()
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

/// Read-only state shared by every worker during one attempt.
struct EngineCtx<'a> {
    kernel: &'a CompiledKernel,
    /// Quantized feeds, resolved input rows and the reduction-slot count;
    /// see [`RunPlan::new`].
    plan: &'a RunPlan,
    usable: &'a [usize],
    sched: &'a Schedule,
    templates: &'a [ReramArray],
    /// Per-(round-local slot) fault maps, indexed
    /// `group_in_round * num_ibs + ib`; empty when the fault model is off.
    fault_maps: Vec<FaultMap>,
    faults_on: bool,
    instances: usize,
    groups_per_round: usize,
    num_ibs: usize,
    module_latency: u64,
    net_deadline: Option<u64>,
    attempt_idx: u64,
    /// Whether telemetry is installed; workers then attribute per-IB
    /// energy into their [`GroupOutcome`].
    telemetry_on: bool,
    fault_seed: u64,
    arrays_per_tile: usize,
    tiles: usize,
    watchdog_limit: u64,
    network_proto: &'a Network,
    power: &'a ArrayPower,
}

/// One worker shard's private mutable state: a pooled array per IB and a
/// private network timing view, both fully re-initialized per group.
struct Worker {
    arrays: Vec<ReramArray>,
    network: Network,
}

impl Worker {
    fn new(ctx: &EngineCtx) -> Self {
        Worker {
            arrays: ctx.templates.to_vec(),
            network: ctx.network_proto.clone(),
        }
    }
}

/// Everything one instance group's execution produces, merged by
/// [`Machine::run_once`] in ascending group order.
struct GroupOutcome {
    /// This group's contribution to each reduction slot (wrapping adds).
    reduce_acc: Vec<i32>,
    /// Per-instance outputs: `(output idx, elem idx, valid-lane values)`.
    harvest: Vec<(usize, usize, Vec<f64>)>,
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

/// Executes one instance group on `worker`, returning its complete
/// outcome. Pure in `(ctx, group)`: worker state is fully re-initialized
/// at entry (arrays reset from the templates; network occupancy, stats,
/// and message-id band reset), so the result cannot depend on what the
/// worker ran before — the keystone of serial/parallel equivalence.
fn run_group(ctx: &EngineCtx, worker: &mut Worker, group: usize) -> Result<GroupOutcome, SimError> {
    let kernel = ctx.kernel;
    let num_ibs = ctx.num_ibs;
    let valid_lanes = (ctx.instances - group * LANES).min(LANES);
    // The round this group belongs to (for network timestamps).
    let round = (group / ctx.groups_per_round) as u64;
    let group_in_round = group % ctx.groups_per_round;

    worker.network.reset();
    worker.network.set_next_msg_id(group as u64 * MSG_ID_STRIDE);

    // Pad lanes beyond the data replicate the group's first instance so
    // non-linear ops stay in-domain; reductions only sum valid lanes.
    let lane_instances: [usize; LANES] = std::array::from_fn(|lane| {
        (group * LANES + lane.min(valid_lanes.saturating_sub(1)))
            .min(ctx.instances.saturating_sub(1))
    });
    for (ib_index, rows) in ctx.plan.rows.iter().enumerate() {
        let array = &mut worker.arrays[ib_index];
        array.reset_from_template(&ctx.templates[ib_index]);
        let slot = ctx.usable[group_in_round * num_ibs + ib_index] as u64;
        // Deterministic, order-independent noise stream per
        // (physical array, group, attempt).
        array.set_fault_seed(mix_seed4(
            ctx.fault_seed,
            slot,
            group as u64,
            ctx.attempt_idx,
        ));
        if ctx.faults_on {
            array.install_faults(&ctx.fault_maps[group_in_round * num_ibs + ib_index]);
            array.rearm_transients_stream(mix_seed4(
                ctx.fault_seed ^ TRANSIENT_STREAM_SALT,
                slot,
                group as u64,
                ctx.attempt_idx,
            ));
        }
        for (row, input) in rows {
            array.write_row(*row, &input.words(&ctx.plan.feeds, &lane_instances));
        }
    }

    let mut outcome = GroupOutcome {
        reduce_acc: vec![0i32; ctx.plan.n_slots],
        harvest: Vec::new(),
        events: Vec::new(),
        transport_events: Vec::new(),
        noc: NocStats::default(),
        meter: EnergyMeter::new(),
        wear: 0,
        instructions: ctx.sched.entries.len() as u64,
        ib_energy: ctx.telemetry_on.then(|| vec![0.0f64; ctx.num_ibs]),
    };
    let arrays = &mut worker.arrays;
    let round_base_net = round * ctx.module_latency * imp_noc::NET_CYCLES_PER_ARRAY_CYCLE;
    for entry in &ctx.sched.entries {
        let inst = kernel.ibs[entry.ib].block.instructions()[entry.index];
        match inst {
            Instruction::Movg { src, dst } => {
                let (src_ib, src_row) = as_cross_ib(src).expect("ISA02 checked movg sources");
                let (dst_ib, dst_row) = as_cross_ib(dst).expect("ISA02 checked movg destinations");
                let value = arrays[src_ib].read_row(usize::from(src_row));
                let src_tile = tile_of(ctx, group_in_round, src_ib);
                let dst_tile = tile_of(ctx, group_in_round, dst_ib);
                let now = round_base_net + entry.start * imp_noc::NET_CYCLES_PER_ARRAY_CYCLE;
                let site = FaultSite {
                    round,
                    group,
                    ib: dst_ib,
                    physical_slot: ctx.usable[group_in_round * num_ibs + dst_ib],
                };
                match worker
                    .network
                    .transfer(src_tile, dst_tile, &value, 32, now, ctx.net_deadline)
                {
                    Ok(delivery) => {
                        for ev in &delivery.events {
                            outcome
                                .transport_events
                                .push(transport_fault_event(site, ev));
                        }
                        // A dropped message (Silent over a dead
                        // link) leaves the stale destination row.
                        if let Some(words) = delivery.payload {
                            let mut row = [0i32; LANES];
                            row.copy_from_slice(&words);
                            arrays[dst_ib].write_row(usize::from(dst_row), &row);
                        }
                    }
                    Err(ev) => return Err(transport_error(ctx.watchdog_limit, site, ev)),
                }
            }
            Instruction::ReduceSum { src, dst } => {
                // ISA02 admits only a slot some output reads, so below
                // `n_slots`.
                let slot = as_output_slot(dst).expect("ISA02 checked reduction slots");
                let row = arrays[entry.ib].read_row(src.index());
                for &value in row.iter().take(valid_lanes) {
                    outcome.reduce_acc[slot] = outcome.reduce_acc[slot].wrapping_add(value);
                }
            }
            ref local => {
                let op_trace =
                    arrays[entry.ib]
                        .execute_local(local)
                        .map_err(|source| SimError::Array {
                            site: Some(FaultSite {
                                round,
                                group,
                                ib: entry.ib,
                                physical_slot: ctx.usable[group_in_round * num_ibs + entry.ib],
                            }),
                            source,
                        })?;
                let op_j = outcome.meter.record_op(&op_trace, ctx.power);
                if let Some(per_ib) = outcome.ib_energy.as_mut() {
                    per_ib[entry.ib] += op_j;
                }
            }
        }
    }
    // Write-back-boundary integrity checks: residue scan over every
    // crossbar, plus the latched ADC duplicate-conversion disagreement
    // flag. Free in cycles (overlapped with the write-back stage, see
    // [`crate::fault`]); only recovery costs time.
    if ctx.faults_on {
        let detect_cycle = (round + 1) * ctx.module_latency;
        for (ib, array) in arrays.iter().enumerate() {
            let site = FaultSite {
                round,
                group,
                ib,
                physical_slot: ctx.usable[group_in_round * num_ibs + ib],
            };
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
    }
    // Harvest per-instance outputs.
    for (out_idx, output) in kernel.outputs.iter().enumerate() {
        for (elem, loc) in output.locs.iter().enumerate() {
            if let OutputLoc::Row { ib, row } = *loc {
                let values = arrays[ib].read_row(row as usize);
                let converted: Vec<f64> = values
                    .iter()
                    .take(valid_lanes)
                    .map(|&word| Fixed::from_raw(word, kernel.format).to_f64())
                    .collect();
                outcome.harvest.push((out_idx, elem, converted));
            }
        }
    }
    outcome.wear = arrays
        .iter()
        .map(|a| a.crossbar().total_writes())
        .max()
        .unwrap_or(0);
    outcome.noc = worker.network.stats();
    Ok(outcome)
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

/// Maps a fatal transport error to the right [`SimError`]: deadline
/// overruns become [`SimError::Timeout`], everything else surfaces as an
/// unrecovered fault.
fn transport_error(watchdog_limit: u64, site: FaultSite, ev: TransportEvent) -> SimError {
    if let TransportFaultKind::DeadlineExceeded { spent_net_cycles } = ev.kind {
        return SimError::Timeout {
            limit_cycles: watchdog_limit,
            spent_cycles: imp_noc::net_to_array_cycles(spent_net_cycles),
        };
    }
    SimError::Faults(vec![transport_fault_event(site, &ev)])
}

/// Physical tile of IB `ib` of round-local group `g` (groups packed
/// densely across the chip's *usable* arrays).
fn tile_of(ctx: &EngineCtx, group_in_round: usize, ib: usize) -> usize {
    let flat = ctx.usable[group_in_round * ctx.num_ibs + ib];
    (flat / ctx.arrays_per_tile) % ctx.tiles
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

/// Everything [`Machine::run`] checks and resolves before any group
/// executes, so the group loop only executes.
struct RunPlan {
    /// Every supplied feed, quantized to the kernel's format.
    feeds: Vec<Vec<i32>>,
    /// Per IB: each input row and where its lanes come from.
    rows: Vec<Vec<(usize, StagedInput)>>,
    /// Per IB: each preloaded register and its word.
    preloads: Vec<Vec<(usize, i32)>>,
    /// Reduction slots the kernel's outputs read.
    n_slots: usize,
}

impl RunPlan {
    /// The one pre-run pass: checks the kernel's structure (the verifier's
    /// [`verify_structure`](imp_verify::verify_structure)) and its width
    /// against the chip's `total_arrays`, quantizes every feed (rejecting
    /// NaN and ±inf; finite values saturate at the format's rails), then
    /// resolves the register preloads and input rows against the feeds.
    /// This is the one place input names and lengths are checked.
    fn new(
        kernel: &CompiledKernel,
        inputs: &HashMap<String, Tensor>,
        total_arrays: usize,
    ) -> Result<RunPlan, SimError> {
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
        let num_ibs = kernel.ibs.len().max(1);
        if num_ibs > total_arrays {
            return Err(SimError::OutOfArrays {
                needed: num_ibs,
                available: total_arrays,
            });
        }

        let mut index = HashMap::with_capacity(inputs.len());
        let mut feeds = Vec::with_capacity(inputs.len());
        for (name, tensor) in inputs {
            let mut raw = Vec::with_capacity(tensor.data().len());
            for (i, &v) in tensor.data().iter().enumerate() {
                if !v.is_finite() {
                    let name = name.clone();
                    return Err(SimError::NonFiniteInput { name, index: i });
                }
                raw.push(Fixed::from_f64_saturating(v, kernel.format).raw());
            }
            index.insert(name.as_str(), feeds.len());
            feeds.push(raw);
        }
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

        let preloads = kernel
            .ibs
            .iter()
            .map(|ib| {
                ib.reg_preloads
                    .iter()
                    .map(|(reg, binding)| {
                        let raw = match binding {
                            RegBinding::Const(raw) => *raw,
                            RegBinding::Shared { name, flat_idx } => shared(name, *flat_idx)?,
                        };
                        Ok((usize::from(*reg), raw))
                    })
                    .collect()
            })
            .collect::<Result<_, SimError>>()?;

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
        Ok(RunPlan {
            feeds,
            rows,
            preloads,
            n_slots,
        })
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
        assert!(kernel.stats.cross_ib_moves > 0);
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
