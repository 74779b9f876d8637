//! The low-end compile path shared by corpus-mix and paper-matrix: the
//! counts one compiled program yields, the traced composition of the
//! path from public calls, and the layer metrics derived from it.

use crate::common::Outcome;
use crate::stats::ratio;
use crate::trace::Tracer;
use dra_core::lowend::compile_program_telemetry;
use dra_core::{Approach, LowEndRun, LowEndSetup, Telemetry};
use dra_ir::parse::parse_program;
use dra_ir::validate::{validate_function, validate_program};
use dra_isa::code_size_bits;
use dra_sim::simulate;
use std::collections::BTreeMap;

/// The paper's code-quality counts (lower is better).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Encoded code size in bits.
    pub code_bits: u64,
    /// Dynamic `set_last_reg` fetches.
    pub dyn_set_last_regs: u64,
    /// Dynamic spill loads and stores.
    pub dyn_spills: u64,
}

impl Quality {
    /// Add `o` in.
    pub fn add(&mut self, o: &Quality) {
        self.sim_cycles += o.sim_cycles;
        self.code_bits += o.code_bits;
        self.dyn_set_last_regs += o.dyn_set_last_regs;
        self.dyn_spills += o.dyn_spills;
    }

    /// The four counts by metric name.
    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("sim_cycles", self.sim_cycles),
            ("code_bits", self.code_bits),
            ("dyn_set_last_regs", self.dyn_set_last_regs),
            ("dyn_spills", self.dyn_spills),
        ]
    }

    /// Report as the end-to-end code-quality metrics and as determinism
    /// counts under `ref.`.
    pub fn report(&self, out: &mut Outcome) {
        for (name, v) in self.named() {
            out.e2e.insert(name, v as f64);
            out.count(format!("ref.{name}"), v);
        }
    }
}

/// Work counters that are pure functions of the input.
pub const WORK_COUNTERS: [&str; 5] = [
    "remap.evaluations",
    "irc.simplify",
    "irc.coalesce",
    "irc.freeze",
    "irc.spill",
];

/// What one compiled program yields that must repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgResult {
    /// Code quality.
    pub quality: Quality,
    /// [`WORK_COUNTERS`], in order.
    pub work: [u64; 5],
    /// Checker violations.
    pub violations: u64,
    /// The program's result.
    pub ret: Option<i64>,
}

impl ProgResult {
    fn from_parts(t: &Telemetry, quality: Quality, ret: Option<i64>) -> ProgResult {
        ProgResult {
            quality,
            work: WORK_COUNTERS.map(|k| t.counter(k)),
            violations: t.counter("checker.violations"),
            ret,
        }
    }

    /// From a finished pipeline run.
    pub fn of_run(r: &LowEndRun) -> ProgResult {
        let quality = Quality {
            sim_cycles: r.cycles,
            code_bits: r.code_bits,
            dyn_set_last_regs: r.dynamic_set_last_regs,
            dyn_spills: r.dynamic_spills,
        };
        ProgResult::from_parts(&r.telemetry, quality, r.ret_value)
    }
}

/// Totals over `rs` as determinism counts named `<prefix>.<count>`.
pub fn total_counts(prefix: &str, rs: &[ProgResult]) -> BTreeMap<String, u64> {
    let mut q = Quality::default();
    let mut work = [0u64; 5];
    for r in rs {
        q.add(&r.quality);
        for (w, v) in work.iter_mut().zip(r.work) {
            *w += v;
        }
    }
    let mut out: BTreeMap<String, u64> = q
        .named()
        .into_iter()
        .map(|(k, v)| (format!("{prefix}.{k}"), v))
        .collect();
    for (k, v) in WORK_COUNTERS.iter().zip(work) {
        out.insert(format!("{prefix}.{k}"), v);
    }
    out
}

/// Span time and sizes accumulated over traced compiles.
#[derive(Default)]
pub struct LayerAcc {
    /// Instructions of the parsed input programs.
    pub insts_in: u64,
    /// Instructions of the compiled programs.
    pub static_out: u64,
    /// Simulated instructions fetched.
    pub fetched: u64,
    /// `parse_program` time.
    pub parse_ns: u64,
    /// `validate_*` time.
    pub validate_ns: u64,
    /// `compile_program_telemetry` time.
    pub compile_ns: u64,
    /// `simulate` time.
    pub simulate_ns: u64,
    /// Whole-job time.
    pub job_ns: u64,
    /// Telemetry `compile_program_telemetry` returned, merged.
    pub telemetry: Telemetry,
}

impl LayerAcc {
    /// Add `o` in.
    pub fn merge(&mut self, o: &LayerAcc) {
        self.insts_in += o.insts_in;
        self.static_out += o.static_out;
        self.fetched += o.fetched;
        self.parse_ns += o.parse_ns;
        self.validate_ns += o.validate_ns;
        self.compile_ns += o.compile_ns;
        self.simulate_ns += o.simulate_ns;
        self.job_ns += o.job_ns;
        self.telemetry.merge(&o.telemetry);
    }

    /// The timing layer metrics; `busy_ns` is workers × batch wall time.
    pub fn report(&self, out: &mut Outcome, busy_ns: f64) {
        let t = &self.telemetry;
        let per_inst = |ns: u64| ratio(ns as f64, self.insts_in as f64);
        let l = &mut out.layers;
        l.insert("parse.ns_per_inst", per_inst(self.parse_ns));
        l.insert("validate.ns_per_inst", per_inst(self.validate_ns));
        l.insert("compile.ns_per_inst", per_inst(self.compile_ns));
        l.insert(
            "alloc.liveness.ns_per_inst",
            per_inst(t.span("alloc.liveness")),
        );
        l.insert("alloc.build.ns_per_inst", per_inst(t.span("alloc.build")));
        l.insert("alloc.color.ns_per_inst", per_inst(t.span("alloc.color")));
        l.insert("repair.ns_per_inst", per_inst(t.span("repair")));
        l.insert("verify.ns_per_inst", per_inst(t.span("verify")));
        l.insert(
            "checker.ns_per_inst",
            ratio(t.span("checker") as f64, t.counter("checker.insts") as f64),
        );
        l.insert(
            "remap.ns_per_eval",
            ratio(
                t.span("remap") as f64,
                t.counter("remap.evaluations") as f64,
            ),
        );
        l.insert(
            "simulate.ns_per_fetched",
            ratio(self.simulate_ns as f64, self.fetched as f64),
        );
        l.insert(
            "simulate.share",
            ratio(self.simulate_ns as f64, self.job_ns as f64),
        );
        l.insert(
            "sim.dyn_per_static",
            ratio(self.fetched as f64, self.static_out as f64),
        );
        l.insert("batch.busy_share", ratio(self.job_ns as f64, busy_ns));
    }
}

/// The work-count layer metrics, from the telemetry of a fixed input
/// set (so they repeat exactly). Checker violations and degraded
/// functions are 0 on every passing run (a violation fails it), so they
/// are printed as a note rather than declared as metrics.
pub fn report_work(out: &mut Outcome, t: &Telemetry) {
    let functions = t.counter("remap.functions") as f64;
    let identity = t.counter("remap.win.identity") as f64;
    let l = &mut out.layers;
    for k in WORK_COUNTERS {
        l.insert(k, t.counter(k) as f64);
    }
    l.insert("repair.inserted", t.counter("repair.inserted") as f64);
    l.insert(
        "remap.improved_share",
        ratio(functions - identity, functions),
    );
    out.notes.push(format!(
        "checker.violations = {}, degrade.functions = {}",
        t.counter("checker.violations"),
        t.counter("degrade.functions")
    ));
}

/// One program through the low-end path composed from public calls,
/// each wrapped in its own span under a `job` span.
pub fn traced_compile(
    tracer: &Tracer,
    job: u64,
    text: &str,
    approach: Approach,
    setup: &LowEndSetup,
) -> Result<(ProgResult, LayerAcc), String> {
    let root = tracer.begin("job", None, job);
    let mut acc = LayerAcc::default();
    let result = (|| {
        let (parsed, ns) = tracer.span("parse", Some(root), job, || parse_program(text));
        acc.parse_ns = ns;
        let mut p = parsed.map_err(|e| format!("parse: {e}"))?;
        acc.insts_in = p.num_insts() as u64;
        let (valid, ns) = tracer.span("validate", Some(root), job, || {
            p.funcs
                .iter()
                .try_for_each(validate_function)
                .and_then(|()| validate_program(&p))
        });
        acc.validate_ns = ns;
        valid.map_err(|e| format!("validate: {e}"))?;
        let mut t = Telemetry::new();
        let (compiled, ns) = tracer.span("compile", Some(root), job, || {
            compile_program_telemetry(&mut p, approach, setup, None, &mut t)
        });
        acc.compile_ns = ns;
        compiled.map_err(|e| e.to_string())?;
        let (sim, ns) = tracer.span("simulate", Some(root), job, || {
            simulate(&p, &setup.machine, &setup.args)
        });
        acc.simulate_ns = ns;
        let sim = sim.map_err(|e| format!("simulation: {e}"))?;
        let (code_bits, _) = tracer.span("size", Some(root), job, || {
            code_size_bits(&p, &setup.machine.geometry)
        });
        acc.static_out = p.num_insts() as u64;
        acc.fetched = sim.insts_fetched;
        let quality = Quality {
            sim_cycles: sim.cycles,
            code_bits,
            dyn_set_last_regs: sim.set_last_regs,
            dyn_spills: sim.spill_accesses,
        };
        let r = ProgResult::from_parts(&t, quality, sim.ret_value);
        acc.telemetry = t;
        Ok(r)
    })();
    acc.job_ns = tracer.end(root);
    result.map(|r| (r, acc))
}
