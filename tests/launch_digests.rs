//! Pinned launch digests: the full observable result of every app at
//! fixed sizes on A100 + native CUDA. Each cell pins the ledger digest
//! (clock, comm time and every record), the launch digest (records
//! only), the clock and the validation scalar by bit pattern, and the
//! real/elided transfer counts.
//!
//! Any change to how launches or data movement are priced, executed or
//! committed moves one of these values, so a refactor of the launch path
//! must leave every line unchanged. After an *intended* model change,
//! paste the table the failure message prints over `PINNED`.
//!
//! `TRANSFER_PINNED` does the same for data movement: the priced seconds
//! of one 64 MiB copy on each platform's link, per direction and host
//! allocation, so a failure names the exact link that moved. Every
//! other ladder size is held to the interconnect model.

use miniapps::{Acoustic, App, CloverLeaf2d, CloverLeaf3d, Mgcfd, OpenSbli, Rtm, SbliVariant};
use op2_dsl::Ordering;
use sycl_sim::{PlatformId, Scheme, Session, SessionConfig, Toolchain};

/// One pinned run: a label, the app, its scheme (MG-CFD only) and
/// whether the session dry-runs.
struct Cell {
    label: &'static str,
    app: Box<dyn App>,
    scheme: Option<Scheme>,
    dry: bool,
}

fn cell(label: &'static str, app: impl App + 'static, scheme: Option<Scheme>, dry: bool) -> Cell {
    Cell {
        label,
        app: Box::new(app),
        scheme,
        dry,
    }
}

/// MG-CFD on the benchmark's kind of numbering: a seed-shuffled mesh
/// whose levels each span more than one exec chunk, so every colour and
/// block runs across several lanes. Atomics is left out: its add order
/// over several chunks varies from run to run.
fn mgcfd_shuffled() -> Mgcfd {
    Mgcfd {
        grid: Some((24, 24, 12)),
        levels: 3,
        ordering: Ordering::Shuffled(5),
        ..Mgcfd::test()
    }
}

/// Every app at `::test()` size (MG-CFD under all three schemes, and
/// shuffled under both colourings), then one dry-run `::paper()` cell
/// per app.
fn cells() -> Vec<Cell> {
    vec![
        cell("cloverleaf2d/test", CloverLeaf2d::test(), None, false),
        cell("cloverleaf3d/test", CloverLeaf3d::test(), None, false),
        cell(
            "opensbli_sa/test",
            OpenSbli::test(SbliVariant::StoreAll),
            None,
            false,
        ),
        cell(
            "opensbli_sn/test",
            OpenSbli::test(SbliVariant::StoreNone),
            None,
            false,
        ),
        cell("rtm/test", Rtm::test(), None, false),
        cell("acoustic/test", Acoustic::test(), None, false),
        cell(
            "mgcfd/atomics/test",
            Mgcfd::test(),
            Some(Scheme::Atomics),
            false,
        ),
        cell(
            "mgcfd/global/test",
            Mgcfd::test(),
            Some(Scheme::GlobalColor),
            false,
        ),
        cell(
            "mgcfd/hier/test",
            Mgcfd::test(),
            Some(Scheme::HierColor),
            false,
        ),
        cell(
            "mgcfd/global/shuffled",
            mgcfd_shuffled(),
            Some(Scheme::GlobalColor),
            false,
        ),
        cell(
            "mgcfd/hier/shuffled",
            mgcfd_shuffled(),
            Some(Scheme::HierColor),
            false,
        ),
        cell("cloverleaf2d/paper", CloverLeaf2d::paper(), None, true),
        cell("cloverleaf3d/paper", CloverLeaf3d::paper(), None, true),
        cell(
            "opensbli_sa/paper",
            OpenSbli::paper(SbliVariant::StoreAll),
            None,
            true,
        ),
        cell(
            "opensbli_sn/paper",
            OpenSbli::paper(SbliVariant::StoreNone),
            None,
            true,
        ),
        cell("rtm/paper", Rtm::paper(), None, true),
        cell("acoustic/paper", Acoustic::paper(), None, true),
        cell(
            "mgcfd/hier/paper",
            Mgcfd::paper(),
            Some(Scheme::HierColor),
            true,
        ),
    ]
}

/// Run one cell on a fresh session and render everything it pins.
fn observe(c: &Cell) -> String {
    let mut cfg = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(c.app.name());
    if let Some(s) = c.scheme {
        cfg = cfg.scheme(s);
    }
    if c.dry {
        cfg = cfg.dry_run();
    }
    let session = Session::create(cfg).expect("A100 + native CUDA runs every app");
    let run = c.app.run(&session);
    let stats = session.transfer_stats();
    format!(
        "{} ledger={:016x} launch={:016x} elapsed={:016x} validation={:016x} real={} elided={}",
        c.label,
        session.ledger_digest(),
        session.launch_digest(),
        session.elapsed().to_bits(),
        run.validation.to_bits(),
        stats.real,
        stats.elided,
    )
}

const PINNED: &[&str] = &[
    "cloverleaf2d/test ledger=05787d8e011ea11d launch=827269d438a86faf elapsed=3f6281854fdaa613 validation=40a3c20000000000 real=12 elided=0",
    "cloverleaf3d/test ledger=2359a4094048d29a launch=ca75d1e2e3770ad3 elapsed=3f5ec63c92a0dad4 validation=40c00c0000000002 real=11 elided=0",
    "opensbli_sa/test ledger=f616607c33997a61 launch=f8331241a5f1fdd7 elapsed=3f6dec33760afea7 validation=40b0000000000000 real=16 elided=0",
    "opensbli_sn/test ledger=805e2bedd92c08b3 launch=88766fdb6c20d186 elapsed=3f67c5317bb8dc05 validation=40b0000000000000 real=11 elided=0",
    "rtm/test ledger=cb20fb2e358fd3b7 launch=b71906b663091fca elapsed=3f3a6e635a45e2c9 validation=3fef2e1a772d588b real=4 elided=0",
    "acoustic/test ledger=6c5ff4ce0c9186aa launch=097f39357fcc1fb3 elapsed=3f26db1e42e38286 validation=4001f32b31cee70a real=4 elided=0",
    "mgcfd/atomics/test ledger=ada8b4c400a010f0 launch=81403a9ee6602f37 elapsed=3f34f66b9607e581 validation=40ba4ba3516557cf real=7 elided=0",
    "mgcfd/global/test ledger=0a55f8377039a3e8 launch=73e6f6cf201e0570 elapsed=3f451f6379b5e682 validation=40ba4ba3516557cf real=7 elided=0",
    "mgcfd/hier/test ledger=1f172be1f293e155 launch=29fed93f77f3adda elapsed=3f398b5fd7dca575 validation=40ba4ba3516557cf real=7 elided=0",
    "mgcfd/global/shuffled ledger=51541316a22d26e3 launch=7df4c3d5292877dc elapsed=3f483ed3e1763631 validation=40e3b8f2294adbed real=7 elided=0",
    "mgcfd/hier/shuffled ledger=ca3be4a35ff3ee7f launch=08df7ab0e8bc2a1f elapsed=3f3fbe749bda7a10 validation=40e3b8f2294adbed real=7 elided=0",
    "cloverleaf2d/paper ledger=afbd3f0c015f67cb launch=fb1f9d1c03927a59 elapsed=3ff0053b025410e5 validation=7ff8000000000000 real=12 elided=0",
    "cloverleaf3d/paper ledger=5605c89a0190d281 launch=e63eb625721595c3 elapsed=3fecab58ed0309e6 validation=7ff8000000000000 real=11 elided=0",
    "opensbli_sa/paper ledger=ac8529db6ee1e2be launch=c003f4264a85caff elapsed=3ff15ee2892cb819 validation=7ff8000000000000 real=16 elided=0",
    "opensbli_sn/paper ledger=12adca9b4f561ec0 launch=f2702f4f126c73bd elapsed=3fe38db6a40f5bee validation=7ff8000000000000 real=11 elided=0",
    "rtm/paper ledger=f5352fc2c11716c9 launch=9fb6cbf0664c1908 elapsed=3fa1b9173344a3a7 validation=7ff8000000000000 real=4 elided=0",
    "acoustic/paper ledger=aeb52e963d30ab97 launch=5cd618d703ae72ec elapsed=3ffad21685b1bb74 validation=7ff8000000000000 real=4 elided=0",
    "mgcfd/hier/paper ledger=f68e8f82a116948a launch=68f42f4b6abc2db4 elapsed=3fc58de519d49e73 validation=7ff8000000000000 real=9 elided=0",
];

#[test]
fn every_app_reproduces_its_pinned_launch_digests() {
    let got: Vec<String> = cells().iter().map(observe).collect();
    if got != PINNED {
        let table: String = got.iter().map(|l| format!("    \"{l}\",\n")).collect();
        panic!("launch digests moved; the new values are:\n{table}");
    }
}

const TRANSFER_PINNED: &[&str] = &[
    "a100/h2d/pinned secs=3f661278970247fe",
    "a100/d2h/pinned secs=3f66fd0895bcac2e",
    "a100/d2d/device secs=3f11c9808a675180",
    "a100/h2d/pageable secs=3f7907a4f242c118",
    "a100/d2h/pageable secs=3f7b875c349c2f70",
    "mi250x/h2d/pinned secs=3f5eb07f82c3fa5e",
    "mi250x/d2h/pinned secs=3f603e3656b95a64",
    "mi250x/d2d/device secs=3f125a2948092460",
    "mi250x/h2d/pageable secs=3f73abc6ab76c949",
    "mi250x/d2h/pageable secs=3f752e6ae1a195d3",
    "max1100/h2d/pinned secs=3f66149175f65ebc",
    "max1100/d2h/pinned secs=3f67fe170400ed0c",
    "max1100/d2d/device secs=3f1cc1235ca68e00",
    "max1100/h2d/pageable secs=3f76f398aa7245d9",
    "max1100/d2h/pageable secs=3f7908b161bccc77",
    "xeon8360y/h2d/pinned secs=3f3dbfd206746659",
    "xeon8360y/d2h/pinned secs=3f3dbfd206746659",
    "xeon8360y/d2d/device secs=3f2dc8358244c14c",
    "xeon8360y/h2d/pageable secs=3f3dbfd206746659",
    "xeon8360y/d2h/pageable secs=3f3dbfd206746659",
    "genoax/h2d/pinned secs=3f2f6c95838a82f8",
    "genoax/d2h/pinned secs=3f2f6c95838a82f8",
    "genoax/d2d/device secs=3f1f7d5c7b2b38e8",
    "genoax/h2d/pageable secs=3f2f6c95838a82f8",
    "genoax/d2h/pageable secs=3f2f6c95838a82f8",
    "altra/h2d/pinned secs=3f4a5a1c23502b4e",
    "altra/d2h/pinned secs=3f4a5a1c23502b4e",
    "altra/d2d/device secs=3f3a5e4de13858c8",
    "altra/h2d/pageable secs=3f4a5a1c23502b4e",
    "altra/d2h/pageable secs=3f4a5a1c23502b4e",
];

/// Every point of the transfer curves `TRANSFER.json` reports
/// ([`bench_harness::transfer::curves`]: each link priced through the
/// session's comm path) must equal the interconnect model, and a
/// 64 MiB copy per link is pinned by bits: a change to how transfers
/// are recorded, replayed or committed that leaves the model alone
/// still fails here.
#[test]
fn every_transfer_reproduces_its_pinned_price() {
    use bench_harness::transfer::{curves, LADDER};
    for c in curves(&LADDER) {
        let link = machine_model::Platform::get(c.platform).interconnect;
        for &(bytes, secs) in &c.points {
            let model = link.transfer_time(c.dir, c.pinned, bytes);
            let drift = (secs - model).abs() / model;
            assert!(
                drift <= 1e-9,
                "{}/{}/{} {bytes} B: priced at {secs:e} s but the interconnect model says {model:e} s",
                c.platform.label(),
                c.dir.label(),
                c.alloc(),
            );
        }
    }
    let got: Vec<String> = curves(&[64.0 * 1024.0 * 1024.0])
        .iter()
        .map(|c| {
            let (_, secs) = c.points[0];
            let (p, d, a) = (c.platform.label(), c.dir.label(), c.alloc());
            format!("{p}/{d}/{a} secs={:016x}", secs.to_bits())
        })
        .collect();
    if got != TRANSFER_PINNED {
        let moved: Vec<&str> = got
            .iter()
            .zip(TRANSFER_PINNED)
            .filter(|(g, p)| g != p)
            .map(|(g, _)| g.split(' ').next().unwrap_or(g))
            .collect();
        let table: String = got.iter().map(|l| format!("    \"{l}\",\n")).collect();
        panic!("transfer prices moved ({moved:?}); the new values are:\n{table}");
    }
}
