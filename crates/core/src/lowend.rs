//! The Section 10.1 pipeline: allocate → encode → verify → simulate.

use crate::faults::PipelineFaults;
use crate::telemetry::Telemetry;
use dra_adjgraph::DiffParams;
use dra_encoding::{insert_set_last_reg, verify_function, EncodingConfig};
use dra_ir::parse::ParseError;
use dra_ir::liveness::MAX_PREGS;
use dra_ir::{Function, Inst, Program, Reg};
use dra_isa::code_size_bits;
use dra_regalloc::{
    check_allocation, check_function_encoding, remap_function, AllocConfig, AllocationRecord,
    Allocator, AllocatorStats, CheckError, CheckStats, Coalescing, DenseIrc, Ospill, RemapCache,
    RemapConfig, RemapStats,
};
use dra_sim::{simulate, LowEndConfig};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// The five experimental setups of Section 10.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Iterated register coalescing with the 8 directly-encodable
    /// registers (`RegN = DiffN = 8`; no differential encoding).
    Baseline,
    /// Baseline allocation with 12 registers, then post-pass differential
    /// remapping (Section 5).
    Remapping,
    /// Differential select inside the allocator (Section 6).
    Select,
    /// Optimal-spill allocation with 8 registers, direct encoding
    /// (the `O-spill` comparator).
    OSpill,
    /// Differential coalesce on the optimal-spill pipeline (Section 7).
    Coalesce,
    /// Section 8.2 selective enabling (an extension beyond the paper's
    /// five evaluated setups): differential encoding per *function*, only
    /// where register pressure exceeds the direct registers — low-pressure
    /// functions stay direct-encoded and repair-free.
    Adaptive,
}

impl Approach {
    /// All five setups in the paper's presentation order.
    pub const ALL: [Approach; 5] = [
        Approach::Baseline,
        Approach::Remapping,
        Approach::Select,
        Approach::OSpill,
        Approach::Coalesce,
    ];

    /// Parse a user- or wire-supplied approach name (the inverse of
    /// [`Approach::label`], case-insensitive, with the common aliases the
    /// CLI has always taken). Shared by `drac`'s argument parsing and the
    /// `dra-serve-v1` request decoder.
    pub fn parse(s: &str) -> Option<Approach> {
        Some(match s.to_ascii_lowercase().as_str() {
            "baseline" => Approach::Baseline,
            "remapping" | "remap" => Approach::Remapping,
            "select" => Approach::Select,
            "o-spill" | "ospill" => Approach::OSpill,
            "coalesce" => Approach::Coalesce,
            "adaptive" => Approach::Adaptive,
            _ => return None,
        })
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Approach::Baseline => "baseline",
            Approach::Remapping => "remapping",
            Approach::Select => "select",
            Approach::OSpill => "O-spill",
            Approach::Coalesce => "coalesce",
            Approach::Adaptive => "adaptive",
        }
    }

    /// Does this approach use differential encoding (RegN > DiffN)?
    /// (`Adaptive` decides per function and handles its own repairs.)
    pub fn is_differential(self) -> bool {
        matches!(
            self,
            Approach::Remapping | Approach::Select | Approach::Coalesce
        )
    }

    /// Does this approach have a *differential path* that can degrade to
    /// direct encoding? The direct approaches (`Baseline`, `O-spill`) are
    /// already at the bottom of the lattice — there is nothing to fall
    /// back to.
    pub fn can_degrade(self) -> bool {
        self.is_differential() || self == Approach::Adaptive
    }
}

/// Machine and encoding parameters of the low-end experiment.
#[derive(Clone, Debug)]
pub struct LowEndSetup {
    /// Registers for the direct-encoded setups (`RegN = DiffN = 8`).
    pub direct_regs: u16,
    /// Differential parameters for the differential setups
    /// (`RegN = 12, DiffN = 8` in Figures 11–14).
    pub diff: DiffParams,
    /// Call-clobbered physical registers (calling-convention pressure).
    pub call_clobbers: Vec<dra_ir::PReg>,
    /// The simulated machine.
    pub machine: LowEndConfig,
    /// Entry arguments for simulation.
    pub args: Vec<i64>,
    /// Random restarts for the remapping search (the paper uses 1000).
    pub remap_starts: u32,
    /// Worker threads for the remapping restarts (`0` = one per CPU).
    /// The search result is identical at any thread count.
    pub remap_threads: usize,
    /// Worker threads for the batch driver ([`crate::batch`]) when running
    /// many (benchmark, approach) cells (`0` = one per CPU). Like
    /// `remap_threads`, results are identical at any thread count.
    pub batch_threads: usize,
    /// Enable the degradation lattice: a per-function differential-path
    /// failure (allocation, repair, verification) falls back to direct
    /// encoding for that function, and a simulation failure of a
    /// differential artifact falls back to a direct recompile of the whole
    /// program — recorded in [`RemapStats::degraded`] and the `degrade.*`
    /// counters instead of failing the run. Off (`false`) turns every such
    /// failure back into a hard [`PipelineError`].
    pub degrade: bool,
    /// Panic re-attempts per batch cell before it is recorded as failed
    /// (see [`crate::batch::run_batch_isolated`]).
    pub cell_retries: u32,
    /// Deterministic fault injection plan (clean by default); see
    /// [`PipelineFaults`].
    pub faults: PipelineFaults,
    /// Run the symbolic allocation checker over every compiled function:
    /// each engine's [`AllocationRecord`] is replayed through
    /// [`check_allocation`] after the full pipeline (including remapping),
    /// and differential functions additionally replay their register
    /// fields through the decoder ([`check_function_encoding`]). A
    /// rejection is a [`PipelineError::Check`] — subject to the same
    /// degradation lattice as a verification failure. Off by default
    /// (`drac --check` turns it on).
    pub check: bool,
}

impl Default for LowEndSetup {
    fn default() -> Self {
        LowEndSetup {
            direct_regs: 8,
            diff: DiffParams::new(12, 8),
            call_clobbers: vec![dra_ir::PReg(0), dra_ir::PReg(1)],
            machine: LowEndConfig::default(),
            args: vec![],
            remap_starts: 1000,
            remap_threads: 0,
            batch_threads: 0,
            degrade: true,
            cell_retries: 1,
            faults: PipelineFaults::default(),
            check: false,
        }
    }
}

impl LowEndSetup {
    /// The remapping configuration this setup implies (the search-wide
    /// evaluation budget is [`dra_regalloc::DEFAULT_EVAL_BUDGET`]).
    pub fn remap_config(&self) -> RemapConfig {
        let mut cfg = RemapConfig::new(self.diff);
        cfg.starts = self.remap_starts;
        cfg.threads = self.remap_threads;
        // The allocator keeps values that live across calls out of the
        // clobbered registers; an unpinned permutation could move such a
        // value *into* one. Pinning the clobbers preserves the allocator's
        // calling-convention guarantees through the search.
        cfg.pinned = self.call_clobbers.clone();
        cfg
    }
}

/// Everything measured about one compiled-and-simulated benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct LowEndRun {
    /// Which setup produced it.
    pub approach: Approach,
    /// Static spill instructions.
    pub spill_insts: usize,
    /// Static `set_last_reg` instructions.
    pub set_last_regs: usize,
    /// Total static instructions (including spills and repairs).
    pub total_insts: usize,
    /// Code size in bits under the LEAF16 geometry.
    pub code_bits: u64,
    /// Cycles on the 5-stage machine.
    pub cycles: u64,
    /// Dynamic spill accesses.
    pub dynamic_spills: u64,
    /// Dynamic `set_last_reg` fetches.
    pub dynamic_set_last_regs: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// The program's result (must agree across approaches).
    pub ret_value: Option<i64>,
    /// Per-function remapping-search statistics (empty for approaches that
    /// never remap).
    pub remap: Vec<RemapStats>,
    /// Dynamic block trace of the entry function (for decode round-trips).
    pub entry_trace: Vec<dra_ir::BlockId>,
    /// Per-(function, block) execution counts (profile feedback).
    pub block_counts: std::collections::HashMap<(u32, u32), u64>,
    /// Per-stage spans and work counters recorded while producing this
    /// run (see [`crate::telemetry`] for the determinism contract).
    pub telemetry: Telemetry,
    /// The compiled program (for further inspection).
    pub program: Program,
}

impl LowEndRun {
    /// Static spill instructions as a percentage of all instructions
    /// (the Figure 11 metric).
    pub fn spill_percent(&self) -> f64 {
        100.0 * self.spill_insts as f64 / self.total_insts.max(1) as f64
    }

    /// Static `set_last_reg` percentage (the Figure 12 metric).
    pub fn cost_percent(&self) -> f64 {
        100.0 * self.set_last_regs as f64 / self.total_insts.max(1) as f64
    }
}

/// Pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// The program text failed to parse (see
    /// [`crate::CompileSession::compile_source`]).
    Parse(ParseError),
    /// The parsed program failed structural validation.
    Validate {
        /// Index of the offending function.
        func: usize,
        /// The validator's diagnostic.
        message: String,
    },
    /// Register allocation failed.
    Alloc(dra_regalloc::AllocError),
    /// The encoded program failed decode verification.
    Encoding(dra_encoding::DecodeError),
    /// Simulation failed.
    Sim(dra_sim::SimError),
    /// The symbolic allocation checker rejected a compiled function
    /// ([`LowEndSetup::check`]).
    Check(CheckError),
    /// A precomputed per-function pressure slice didn't cover the
    /// program's functions (stale cache entry or caller error).
    PressureMismatch {
        /// Functions in the program being compiled.
        funcs: usize,
        /// Entries in the supplied pressures slice.
        pressures: usize,
    },
    /// A failure injected by [`PipelineFaults`] (fault-injection runs
    /// only; never produced by a clean pipeline).
    Injected {
        /// Pipeline stage the fault was injected into.
        stage: &'static str,
        /// Index of the targeted function.
        func: usize,
    },
    /// A batch cell panicked through every retry; the panic was contained
    /// by [`crate::batch::run_batch_isolated`] and recorded here instead
    /// of aborting the matrix.
    Panic {
        /// The innermost telemetry stage active when the cell panicked.
        stage: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl PipelineError {
    /// A stable, wire-safe discriminator for structured error reporting
    /// (the `error.kind` field of `dra-serve-v1` responses).
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineError::Parse(_) => "parse",
            PipelineError::Validate { .. } => "validate",
            PipelineError::Alloc(_) => "alloc",
            PipelineError::Encoding(_) => "encoding",
            PipelineError::Sim(_) => "sim",
            PipelineError::Check(_) => "check",
            PipelineError::PressureMismatch { .. } => "pressure",
            PipelineError::Injected { .. } => "injected",
            PipelineError::Panic { .. } => "panic",
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse: {e}"),
            PipelineError::Validate { func, message } => {
                write!(f, "validate: function {func}: {message}")
            }
            PipelineError::Alloc(e) => write!(f, "allocation: {e}"),
            PipelineError::Encoding(e) => write!(f, "encoding: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation: {e}"),
            PipelineError::Check(e) => write!(f, "checker: {e}"),
            PipelineError::PressureMismatch { funcs, pressures } => write!(
                f,
                "pressure table has {pressures} entries for a {funcs}-function program"
            ),
            PipelineError::Injected { stage, func } => {
                write!(f, "injected fault: stage {stage}, function {func}")
            }
            PipelineError::Panic { stage, message } => {
                write!(f, "cell panicked in stage {stage}: {message}")
            }
        }
    }
}

impl Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<dra_regalloc::AllocError> for PipelineError {
    fn from(e: dra_regalloc::AllocError) -> Self {
        PipelineError::Alloc(e)
    }
}

impl From<dra_encoding::DecodeError> for PipelineError {
    fn from(e: dra_encoding::DecodeError) -> Self {
        PipelineError::Encoding(e)
    }
}

impl From<dra_sim::SimError> for PipelineError {
    fn from(e: dra_sim::SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<CheckError> for PipelineError {
    fn from(e: CheckError) -> Self {
        PipelineError::Check(e)
    }
}

/// Record an engine's statistics under the telemetry names the
/// engine-specific arms have always used.
fn record_allocator_stats(t: &mut Telemetry, s: &AllocatorStats) {
    let irc = match s {
        AllocatorStats::Irc(s) => {
            t.count("alloc.rounds", s.rounds as u64);
            t.count("alloc.spilled_vregs", s.spilled_vregs as u64);
            t.count("alloc.moves_coalesced", s.moves_coalesced as u64);
            s
        }
        AllocatorStats::Ospill(s) => {
            t.count("alloc.pressure_spills", s.pressure_spills as u64);
            t.count("alloc.coloring_spills", s.coloring_spills as u64);
            t.count("alloc.moves_coalesced", s.moves_coalesced as u64);
            return;
        }
        AllocatorStats::Coalesce(s) => {
            t.count("alloc.pressure_spills", s.pressure_spills as u64);
            t.count("alloc.coloring_spills", s.coloring_spills as u64);
            t.count("alloc.moves_coalesced", s.moves_coalesced as u64);
            // The final coloring pass is a full IRC run; surface its
            // per-stage work counters alongside the direct approaches'.
            &s.irc
        }
    };
    // The IRC engine's per-stage work counters are schedule-invariant:
    // pure worklist step counts, no wall-clock contribution.
    t.count("irc.simplify", irc.simplify_steps);
    t.count("irc.coalesce", irc.coalesce_steps);
    t.count("irc.freeze", irc.freeze_steps);
    t.count("irc.spill", irc.spill_selects);
    t.span_ns("alloc.liveness", irc.liveness_nanos);
    t.span_ns("alloc.build", irc.build_nanos);
    t.span_ns("alloc.color", irc.color_nanos);
}

/// Record one function's remapping-search work counters and wall-clock
/// span.
///
/// Every counter here is a pure function of the input (the multistart's
/// budget split and tie-break are schedule-invariant), so aggregates are
/// identical at any `remap_threads` / batch thread count; only the `remap`
/// span varies with the wall clock.
fn record_remap(t: &mut Telemetry, st: &RemapStats) {
    t.count("remap.functions", 1);
    t.count("remap.evaluations", st.evaluations);
    t.count("remap.starts_run", st.starts_run as u64);
    t.count(&format!("remap.win.{}", st.winner.label()), 1);
    if st.certified {
        t.count("remap.certified", 1);
    }
    t.span_ns("remap", st.search_nanos);
}

fn record_repair(t: &mut Telemetry, s: &dra_encoding::RepairStats) {
    t.count("repair.inserted", s.inserted as u64);
    t.count("repair.out_of_range", s.out_of_range as u64);
    t.count("repair.inconsistency", s.inconsistency as u64);
}

/// Run the symbolic checker on one compiled function: the substitution
/// check against its [`AllocationRecord`] and, when `enc` is supplied
/// (differential functions), the decoder replay of its register fields.
/// Records the `checker` span and the `checker.*` work counters.
fn check_function(
    f: &Function,
    rec: Option<&AllocationRecord>,
    enc: Option<&EncodingConfig>,
    t: &mut Telemetry,
) -> Result<(), PipelineError> {
    let result = t.time("checker", || {
        let mut stats = CheckStats::default();
        if let Some(rec) = rec {
            stats.merge(&check_allocation(f, rec)?);
        }
        if let Some(enc) = enc {
            stats.merge(&check_function_encoding(f, enc)?);
        }
        Ok::<_, CheckError>(stats)
    });
    match result {
        Ok(stats) => {
            t.count("checker.functions", 1);
            t.count("checker.insts", stats.insts as u64);
            t.count("checker.deleted_moves", stats.deleted_moves as u64);
            t.count("checker.fields_replayed", stats.fields_replayed as u64);
            t.count("checker.violations", 0); // ensure the key exists
            Ok(())
        }
        Err(e) => {
            t.count(
                "checker.violations",
                match &e {
                    CheckError::Violations(v) => v.len() as u64,
                    _ => 1,
                },
            );
            Err(PipelineError::Check(e))
        }
    }
}

/// Map a differential-path failure to its `degrade.*` cause counter.
fn degrade_counter(e: &PipelineError) -> &'static str {
    match e {
        PipelineError::Alloc(_) => "degrade.alloc",
        PipelineError::Encoding(_) => "degrade.verify",
        PipelineError::Check(_) => "degrade.check",
        PipelineError::Injected { .. } => "degrade.injected",
        _ => "degrade.other",
    }
}

/// How one function compiles: the allocation engine, its register file,
/// and whether the result is differential-encoded (remapped, repaired and
/// decode-verified) or direct.
struct Plan {
    engine: &'static dyn Allocator,
    cfg: AllocConfig,
    differential: bool,
}

impl Plan {
    /// The one place an approach becomes an engine and a register file
    /// (Figure 4). `Adaptive` decides per function (Section 8.2): a
    /// function whose MAXLIVE, from `pressure`, fits the direct registers
    /// compiles as `Baseline`, a pressured one as `Select`.
    fn of(approach: Approach, setup: &LowEndSetup, pressure: impl FnOnce() -> usize) -> Plan {
        let approach = match approach {
            Approach::Adaptive if pressure() > setup.direct_regs as usize => Approach::Select,
            Approach::Adaptive => Approach::Baseline,
            a => a,
        };
        let (engine, mut cfg): (&'static dyn Allocator, AllocConfig) = match approach {
            Approach::Remapping => (&DenseIrc, AllocConfig::baseline(setup.diff.reg_n())),
            Approach::Select => (&DenseIrc, AllocConfig::differential(setup.diff)),
            Approach::OSpill => (&Ospill, AllocConfig::baseline(setup.direct_regs)),
            Approach::Coalesce => (&Coalescing, AllocConfig::differential(setup.diff)),
            Approach::Baseline | Approach::Adaptive => {
                (&DenseIrc, AllocConfig::baseline(setup.direct_regs))
            }
        };
        cfg.call_clobbers = setup.call_clobbers.clone();
        Plan {
            engine,
            cfg,
            differential: approach.is_differential(),
        }
    }

    /// The bottom of the degradation lattice: direct encoding
    /// (`RegN = DiffN =` [`LowEndSetup::direct_regs`]), repair-free.
    fn direct(setup: &LowEndSetup) -> Plan {
        Plan::of(Approach::Baseline, setup, || 0)
    }
}

/// Compile function `fi` in place under `plan`: allocate, then — for a
/// differential plan — remap, repair and decode-verify, then run the
/// symbolic checker when [`LowEndSetup::check`] is set. Returns the remap
/// statistics of a differential plan. `remaps` is the compile session's
/// search cache. The [`PipelineFaults`] alloc and verify injection points
/// target differential plans only.
fn compile_function(
    f: &mut Function,
    fi: usize,
    plan: &Plan,
    setup: &LowEndSetup,
    remaps: &RemapCache,
    t: &mut Telemetry,
) -> Result<Option<RemapStats>, PipelineError> {
    let injected = |targets: &BTreeSet<usize>, stage: &'static str| {
        if plan.differential && targets.contains(&fi) {
            Err(PipelineError::Injected { stage, func: fi })
        } else {
            Ok(())
        }
    };
    injected(&setup.faults.fail_alloc_funcs, "alloc")?;
    let (s, rec) = t.time("alloc", || plan.engine.allocate_fn(f, &plan.cfg, setup.check))?;
    record_allocator_stats(t, &s);
    let enc = EncodingConfig::new(setup.diff);
    let mut remap = None;
    if plan.differential {
        // Figure 4: remapping may always run after any allocator.
        let rs = remap_function(f, &setup.remap_config(), Some(remaps));
        record_remap(t, &rs);
        remap = Some(rs);
        let repair = t.time("repair", || insert_set_last_reg(f, &enc));
        record_repair(t, &repair);
        injected(&setup.faults.fail_verify_funcs, "verify")?;
        t.time("verify", || verify_function(f, &enc))?;
    }
    if setup.check {
        check_function(f, rec.as_ref(), plan.differential.then_some(&enc), t)?;
    }
    Ok(remap)
}

/// [`crate::CompileSession::compile_program`] without a session: the same
/// body with a fresh remapping search cache per call, plus `pressures`
/// (each function's precomputed MAXLIVE, rejected as
/// [`PipelineError::PressureMismatch`] unless it covers `p.funcs`). Only
/// the benchmark harness, which times one compile per call, and the
/// `PressureMismatch` test, the one caller that passes `pressures`, may
/// call it; everything else compiles through a session.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_program_telemetry(
    p: &mut Program,
    approach: Approach,
    setup: &LowEndSetup,
    pressures: Option<&[usize]>,
    t: &mut Telemetry,
) -> Result<Vec<RemapStats>, PipelineError> {
    compile_program(p, approach, setup, pressures, &RemapCache::new(), t)
}

/// Compile `p` in place under `approach`, recording per-stage spans and
/// work counters into `t` (see [`crate::telemetry`] for the names and the
/// determinism contract). `pressures` optionally supplies each function's
/// precomputed MAXLIVE (in `p.funcs` order; see
/// [`crate::batch::SourceCache`]); only `Adaptive` consults it, and `None`
/// computes it on demand. `remaps` is the compile session's search cache.
///
/// Returns the per-function remapping-search statistics, in function
/// order, for the functions compiled differentially.
///
/// When [`LowEndSetup::degrade`] is set (the default) and the approach
/// has a differential path, each differential function is compiled on a
/// clone: a failure anywhere in its differential path counts `degrade.*`
/// and recompiles the pristine function direct-encoded, marked with
/// [`RemapStats::degraded_marker`]. The happy path is byte-identical to a
/// `degrade = false` compile and costs one program's worth of clones.
///
/// A `pressures` slice that doesn't cover `p.funcs` is rejected up front
/// as [`PipelineError::PressureMismatch`] — for any approach, since a
/// mismatched table always signals a stale cache entry or caller error
/// even when the approach would not consult it. The pressure check is
/// *not* subject to degradation: it indicts the caller, not the
/// differential path. Neither is [`PipelineError::Validate`] for a
/// function that names a physical register at or above the register count
/// of its plan, or of the direct plan it degrades to: no allocator can
/// honour such a pre-colouring.
pub(crate) fn compile_program(
    p: &mut Program,
    approach: Approach,
    setup: &LowEndSetup,
    pressures: Option<&[usize]>,
    remaps: &RemapCache,
    t: &mut Telemetry,
) -> Result<Vec<RemapStats>, PipelineError> {
    if let Some(ps) = pressures {
        if ps.len() != p.funcs.len() {
            return Err(PipelineError::PressureMismatch {
                funcs: p.funcs.len(),
                pressures: ps.len(),
            });
        }
    }
    let degrade = setup.degrade && approach.can_degrade();
    let mut remap_stats = Vec::new();
    let mut degraded = 0;
    for (fi, f) in p.funcs.iter_mut().enumerate() {
        let top = highest_preg(f);
        let plan = Plan::of(approach, setup, || match pressures {
            Some(ps) => ps[fi],
            // Liveness tracks only MAX_PREGS physical registers; such a
            // function is rejected below under whichever plan it gets.
            None if top.is_some_and(|r| r as usize >= MAX_PREGS) => 0,
            None => dra_ir::liveness::max_pressure_of(f),
        });
        fits_register_file(top, fi, &plan)?;
        if !(degrade && plan.differential) {
            remap_stats.extend(compile_function(f, fi, &plan, setup, remaps, t)?);
            continue;
        }
        let mut attempt = f.clone();
        match compile_function(&mut attempt, fi, &plan, setup, remaps, t) {
            Ok(rs) => {
                *f = attempt;
                remap_stats.extend(rs);
            }
            Err(e) => {
                degraded += 1;
                t.count(degrade_counter(&e), 1);
                let direct = Plan::direct(setup);
                fits_register_file(top, fi, &direct)?;
                compile_function(f, fi, &direct, setup, remaps, t)?;
                remap_stats.push(RemapStats::degraded_marker());
            }
        }
    }
    if degraded > 0 {
        t.count("degrade.programs", 1);
        t.count("degrade.functions", degraded);
    }
    Ok(remap_stats)
}

/// Reject function `fi` when `top`, the highest physical register it
/// names, lies outside the register file `plan` allocates into.
fn fits_register_file(top: Option<u8>, fi: usize, plan: &Plan) -> Result<(), PipelineError> {
    match top {
        Some(r) if u16::from(r) >= plan.cfg.k => Err(PipelineError::Validate {
            func: fi,
            message: format!(
                "pre-coloured register r{r} is outside the {}-register file",
                plan.cfg.k
            ),
        }),
        _ => Ok(()),
    }
}

/// The highest physical register number `f` names, if it names any.
fn highest_preg(f: &Function) -> Option<u8> {
    f.iter_insts()
        .flat_map(Inst::accesses)
        .filter_map(|r| match r {
            Reg::Phys(p) => Some(p.number()),
            Reg::Virt(_) => None,
        })
        .max()
}

/// The one body behind every [`crate::CompileSession`] run: compile a copy
/// of `source` (with `pressures` and the session's search cache `remaps`
/// as in [`compile_program`]), simulate it, and assemble the
/// [`LowEndRun`], recording into `t`.
///
/// A simulation failure of a differential artifact (including one
/// injected via [`PipelineFaults::fail_sim`]) is the last rung of the
/// degradation lattice: with [`LowEndSetup::degrade`] on, `source` is
/// recompiled direct-encoded and that is simulated instead — counted as
/// `degrade.sim` (plus `degrade.programs`/`degrade.functions`) and marked
/// in every [`RemapStats`] slot.
pub(crate) fn compile_and_simulate(
    source: &Program,
    pressures: Option<&[usize]>,
    approach: Approach,
    setup: &LowEndSetup,
    remaps: &RemapCache,
    mut t: Telemetry,
) -> Result<LowEndRun, PipelineError> {
    let mut program = source.clone();
    let mut remap = compile_program(&mut program, approach, setup, pressures, remaps, &mut t)?;
    let attempt = if setup.faults.fail_sim && approach.can_degrade() {
        Err(PipelineError::Injected {
            stage: "simulate",
            func: 0,
        })
    } else {
        t.time("simulate", || simulate(&program, &setup.machine, &setup.args))
            .map_err(PipelineError::Sim)
    };
    let sim = match attempt {
        Ok(sim) => sim,
        Err(e) if !(setup.degrade && approach.can_degrade()) => return Err(e),
        Err(e) => {
            t.count("degrade.sim", 1);
            t.count("degrade.programs", 1);
            t.count(degrade_counter(&e), 0); // ensure the cause key exists

            // The differential artifact is unrunnable: rebuild the whole
            // program with the direct plan (`Baseline`) and simulate that.
            program = source.clone();
            let direct = Approach::Baseline;
            compile_program(&mut program, direct, setup, None, remaps, &mut t)?;
            t.count("degrade.functions", program.funcs.len() as u64);
            remap = vec![RemapStats::degraded_marker(); program.funcs.len()];
            t.time("simulate", || simulate(&program, &setup.machine, &setup.args))?
        }
    };
    for (name, value) in sim.counters() {
        t.count(name, value);
    }
    Ok(LowEndRun {
        approach,
        remap,
        spill_insts: program.count_insts(|i| i.is_spill()),
        set_last_regs: program.count_insts(|i| i.is_set_last_reg()),
        total_insts: program.num_insts(),
        code_bits: code_size_bits(&program, &setup.machine.geometry),
        cycles: sim.cycles,
        dynamic_spills: sim.spill_accesses,
        dynamic_set_last_regs: sim.set_last_regs,
        icache_misses: sim.icache_misses,
        dcache_misses: sim.dcache_misses,
        ret_value: sim.ret_value,
        entry_trace: sim.entry_trace,
        block_counts: sim.block_counts,
        telemetry: t,
        program,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CompileSession;
    use dra_workloads::benchmark_names;

    #[test]
    fn all_approaches_compile_and_agree_on_crc32() {
        let session = CompileSession::new(LowEndSetup::default());
        let runs: Vec<_> = Approach::ALL
            .iter()
            .map(|&a| session.compile_bench("crc32", a).unwrap().0)
            .collect();
        let expected = runs[0].ret_value;
        for r in &runs {
            assert_eq!(
                r.ret_value,
                expected,
                "{} computed a different answer",
                r.approach.label()
            );
        }
    }

    #[test]
    fn differential_approaches_reduce_spills_on_pressured_bench() {
        let session = CompileSession::new(LowEndSetup::default());
        let base = session.compile_bench("sha", Approach::Baseline).unwrap().0;
        let select = session.compile_bench("sha", Approach::Select).unwrap().0;
        assert!(
            select.spill_insts < base.spill_insts,
            "12 registers must beat 8: {} vs {}",
            select.spill_insts,
            base.spill_insts
        );
        assert!(select.set_last_regs > 0, "differential encoding has a cost");
        assert_eq!(base.set_last_regs, 0, "baseline is direct-encoded");
    }

    #[test]
    fn remapping_has_higher_cost_than_select() {
        // Figure 12's headline: the post-pass generates far more
        // set_last_regs than the integrated approaches.
        let session = CompileSession::new(LowEndSetup::default());
        let slrs = |name, a| session.compile_bench(name, a).unwrap().0.set_last_regs;
        let mut remap_total = 0usize;
        let mut select_total = 0usize;
        for name in ["sha", "blowfish", "fft"] {
            remap_total += slrs(name, Approach::Remapping);
            select_total += slrs(name, Approach::Select);
        }
        assert!(
            remap_total > select_total,
            "remapping {remap_total} vs select {select_total}"
        );
    }

    #[test]
    fn every_benchmark_runs_under_baseline_and_coalesce() {
        let session = CompileSession::new(LowEndSetup::default());
        for name in benchmark_names() {
            let (b, _) = session
                .compile_bench(name, Approach::Baseline)
                .unwrap_or_else(|e| panic!("{name} baseline: {e}"));
            let (c, _) = session
                .compile_bench(name, Approach::Coalesce)
                .unwrap_or_else(|e| panic!("{name} coalesce: {e}"));
            assert_eq!(b.ret_value, c.ret_value, "{name} result mismatch");
        }
    }

    #[test]
    fn metrics_are_consistent() {
        let session = CompileSession::new(LowEndSetup::default());
        let (r, _) = session.compile_bench("bitcount", Approach::Select).unwrap();
        assert!(r.spill_percent() >= 0.0 && r.spill_percent() <= 100.0);
        assert!(r.cost_percent() >= 0.0 && r.cost_percent() <= 100.0);
        assert!(r.code_bits >= 16 * r.total_insts as u64);
        assert!(r.cycles > 0);
    }
}
