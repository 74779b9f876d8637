//! Regression guards for the reproduced scientific claims: the orderings
//! behind Figures 11–14 must hold on a fast benchmark subset, so future
//! changes to allocators, encoder, simulator, or workloads cannot silently
//! drift away from the paper's shapes.

use dra_core::lowend::{Approach, LowEndRun, LowEndSetup};
use dra_core::CompileSession;
use std::sync::Arc;

const SUBSET: &[&str] = &["qsort", "dijkstra", "stringsearch", "adpcm", "bitcount"];

/// `name` under `approach` in `session`, panicking with the cell on error.
fn run(session: &CompileSession, name: &str, approach: Approach) -> Arc<LowEndRun> {
    let (run, _) = session
        .compile_bench(name, approach)
        .unwrap_or_else(|e| panic!("{name}/{}: {e}", approach.label()));
    run
}

fn runs(session: &CompileSession, approach: Approach) -> Vec<Arc<LowEndRun>> {
    SUBSET.iter().map(|n| run(session, n, approach)).collect()
}

fn avg(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

#[test]
fn figure11_ordering_differential_cuts_spills() {
    let session = CompileSession::new(LowEndSetup::default());
    let base = avg(runs(&session, Approach::Baseline).iter().map(|r| r.spill_percent()));
    let select = avg(runs(&session, Approach::Select).iter().map(|r| r.spill_percent()));
    let coalesce = avg(runs(&session, Approach::Coalesce).iter().map(|r| r.spill_percent()));
    assert!(
        select < base * 0.6,
        "select must cut spills hard: {select:.2} vs baseline {base:.2}"
    );
    assert!(
        coalesce < base * 0.6,
        "coalesce must cut spills hard: {coalesce:.2} vs baseline {base:.2}"
    );
}

#[test]
fn figure12_ordering_remapping_pays_most() {
    let session = CompileSession::new(LowEndSetup::default());
    let remap = avg(runs(&session, Approach::Remapping).iter().map(|r| r.cost_percent()));
    let select = avg(runs(&session, Approach::Select).iter().map(|r| r.cost_percent()));
    let coalesce = avg(runs(&session, Approach::Coalesce).iter().map(|r| r.cost_percent()));
    assert!(
        remap > select && remap > coalesce,
        "post-pass remapping must pay the most repairs: {remap:.2} vs {select:.2}/{coalesce:.2}"
    );
}

#[test]
fn figure13_remapping_grows_code_most() {
    let session = CompileSession::new(LowEndSetup::default());
    let mut remap_worse = 0;
    for n in SUBSET {
        let base = run(&session, n, Approach::Baseline);
        let remap = run(&session, n, Approach::Remapping);
        let select = run(&session, n, Approach::Select);
        let rr = remap.code_bits as f64 / base.code_bits as f64;
        let rs = select.code_bits as f64 / base.code_bits as f64;
        if rr >= rs {
            remap_worse += 1;
        }
    }
    assert!(
        remap_worse >= SUBSET.len() - 1,
        "remapping should grow code at least as much as select almost everywhere"
    );
}

#[test]
fn figure14_ordering_integrated_approaches_win() {
    let session = CompileSession::new(LowEndSetup::default());
    let mut base_total = 0u64;
    let mut remap_total = 0u64;
    let mut select_total = 0u64;
    let mut coalesce_total = 0u64;
    for n in SUBSET {
        base_total += run(&session, n, Approach::Baseline).cycles;
        remap_total += run(&session, n, Approach::Remapping).cycles;
        select_total += run(&session, n, Approach::Select).cycles;
        coalesce_total += run(&session, n, Approach::Coalesce).cycles;
    }
    assert!(
        select_total < base_total && coalesce_total < base_total,
        "integrated approaches must beat the baseline: {select_total}/{coalesce_total} vs {base_total}"
    );
    assert!(
        select_total <= remap_total && coalesce_total <= remap_total,
        "integrated approaches must beat the post-pass: {select_total}/{coalesce_total} vs {remap_total}"
    );
}

#[test]
fn adaptive_beats_plain_select_on_cycles() {
    let session = CompileSession::new(LowEndSetup::default());
    let mut select_total = 0u64;
    let mut adaptive_total = 0u64;
    for n in SUBSET {
        select_total += run(&session, n, Approach::Select).cycles;
        adaptive_total += run(&session, n, Approach::Adaptive).cycles;
    }
    assert!(
        adaptive_total <= select_total,
        "selective enabling must not lose: {adaptive_total} vs {select_total}"
    );
}
