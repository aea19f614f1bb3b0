//! Shadow-instrumented runs must be bit-identical to the fast path:
//! same validation scalar, same launch ledger (`Session::ledger_digest`
//! over the clock, comm time, and every record's name, priced times,
//! items, effective bytes and boundary flag), same modelled elapsed
//! time, and the same real/elided transfer counts.
//!
//! This is the verifier's "first, do no harm" guarantee — attaching it
//! may cost time, but it must never change what the session computes
//! or prices. A verifier also sees only its own thread: runs elsewhere
//! in the process, verified or not, neither reach its findings nor
//! take shadow ids from it.

use miniapps::{App, CloverLeaf2d, Mgcfd};
use ops_dsl::prelude::*;
use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Barrier;
use std::time::Duration;
use sycl_sim::{quirks::apps, PlatformId, Session, SessionConfig, Toolchain};
use verify::{has_errors, Diagnostic, Pass, Severity, Verifier};

fn live(app: &str) -> Session {
    Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app)).unwrap()
}

/// Run `app` plain and under a verifier, and assert the verifier found
/// no errors and changed nothing the session computes or prices.
fn assert_shadow_run_matches_fast_path(app_name: &str, run: impl Fn(&Session) -> f64) {
    let plain_s = live(app_name);
    let plain = run(&plain_s);

    let shadow_s = live(app_name);
    let verifier = Verifier::attach(&shadow_s);
    let shadow = run(&shadow_s);
    let diags = verifier.finish(&shadow_s);

    assert!(!has_errors(&diags), "{diags:?}");
    assert_eq!(
        plain.to_bits(),
        shadow.to_bits(),
        "instrumentation changed the computed result"
    );
    assert_eq!(
        plain_s.ledger_digest(),
        shadow_s.ledger_digest(),
        "instrumentation changed the priced ledger"
    );
    assert_eq!(
        plain_s.elapsed().to_bits(),
        shadow_s.elapsed().to_bits(),
        "instrumentation changed the modelled time"
    );
    assert_eq!(
        plain_s.transfer_stats(),
        shadow_s.transfer_stats(),
        "instrumentation changed which transfers are elided"
    );
}

#[test]
fn cloverleaf2d_shadow_run_is_bit_identical_to_the_fast_path() {
    assert_shadow_run_matches_fast_path(apps::CLOVERLEAF2D, |s| {
        CloverLeaf2d::test().run(s).validation
    });
}

#[test]
fn mgcfd_shadow_run_is_bit_identical_to_the_fast_path() {
    assert_shadow_run_matches_fast_path(apps::MGCFD, |s| Mgcfd::test().run(s).validation);
}

fn kernels(s: &Session) -> HashSet<String> {
    s.records().iter().map(|r| r.name.to_string()).collect()
}

/// A plain CloverLeaf run on a second thread, overlapping an attached
/// MG-CFD run, takes no shadow ids and leaks no kernel into the MG-CFD
/// verifier's findings.
#[test]
fn an_unattached_thread_never_reaches_an_attached_verifier() {
    let gate = Barrier::new(2);
    let shadow_s = live(apps::MGCFD);
    let verifier = Verifier::attach(&shadow_s);
    let ((ops_id, op2_id, clover_kernels), diags) = std::thread::scope(|s| {
        let plain = s.spawn(|| {
            let block = Block::new_2d(4, 4, 1);
            let ops_id = ops_dsl::Dat::<f64>::zeroed(&block, "probe").meta().id;
            let op2_id = op2_dsl::DatU::<f64>::zeroed("probe", 4, 1).id();
            gate.wait();
            let plain_s = live(apps::CLOVERLEAF2D);
            CloverLeaf2d::test().run(&plain_s);
            (ops_id, op2_id, kernels(&plain_s))
        });
        gate.wait();
        Mgcfd::test().run(&shadow_s);
        let diags = verifier.finish(&shadow_s);
        (plain.join().unwrap(), diags)
    });

    assert_eq!(
        ops_id, 0,
        "an ops dat took an id from another thread's verifier"
    );
    assert_eq!(
        op2_id, 0,
        "an op2 dat took an id from another thread's verifier"
    );
    let mgcfd_kernels = kernels(&shadow_s);
    let leaked: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| clover_kernels.contains(&d.kernel) && !mgcfd_kernels.contains(&d.kernel))
        .collect();
    assert!(
        leaked.is_empty(),
        "CloverLeaf kernels in MG-CFD findings: {leaked:?}"
    );
    assert!(!has_errors(&diags), "{diags:?}");
}

/// Run one loop that writes `b` without declaring it, named `kernel`.
fn undeclared_write(s: &Session, kernel: &str) {
    let block = Block::new_3d(8, 8, 1, 2);
    let mut a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let mut b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    a.fill_with(|_, _, _| 1.0);
    let r = a.reader();
    let w = b.writer();
    ParLoop::new(kernel, block.interior())
        .read(a.meta(), Stencil::point())
        .flops(1.0)
        .run(s, |tile| {
            for (i, j, k) in tile.iter() {
                w.set(i, j, k, 2.0 * r.at(i, j, k));
            }
        });
}

/// Attach a verifier, wait until the other thread has attached one
/// too, run a seeded defect named `kernel`, and return the findings.
fn verify_while_other_attached(kernel: &str, tx: Sender<()>, rx: Receiver<()>) -> Vec<Diagnostic> {
    let s = live("fixture_write");
    let v = Verifier::attach(&s);
    tx.send(()).unwrap();
    rx.recv_timeout(Duration::from_secs(30))
        .expect("the other thread could not attach its verifier while this one was attached");
    undeclared_write(&s, kernel);
    v.finish(&s)
}

/// Two verifiers attached at once on two threads each finish with
/// their own defect and not the other's.
#[test]
fn two_verifiers_on_two_threads_keep_their_own_findings() {
    let (tx_a, rx_b) = channel();
    let (tx_b, rx_a) = channel();
    let (diags_a, diags_b) = std::thread::scope(|s| {
        let b = s.spawn(|| verify_while_other_attached("sneaky_b", tx_b, rx_b));
        let a = verify_while_other_attached("sneaky_a", tx_a, rx_a);
        (a, b.join().unwrap())
    });
    for (diags, own, other) in [
        (&diags_a, "sneaky_a", "sneaky_b"),
        (&diags_b, "sneaky_b", "sneaky_a"),
    ] {
        assert!(
            diags.iter().any(|d| d.severity == Severity::Error
                && d.pass == Pass::Access
                && d.kernel == own
                && d.detail.contains("`b`")),
            "{own} missing from its verifier: {diags:?}"
        );
        assert!(
            diags.iter().all(|d| d.kernel != other),
            "{other} leaked into {own}'s verifier: {diags:?}"
        );
    }
}
