//! Differential test for the record-path refactor: the legacy string-keyed
//! path (a fresh `Arc<str>` per recorded call, one string-hashed map)
//! replayed next to the interned `CallId` path, over real application runs.
//!
//! [`LegacyMirror`] receives every event the primary table receives — the
//! monitor forwards each `update`/`span`/`update_pseudo` to it when
//! installed — and books it the way the pre-interning monitor did. The two
//! paths must then render **byte-identical** banner, region report, and XML
//! for the same run: the refactor changed representation, not results.
//!
//! Runs are single-rank so per-signature float accumulation order is the
//! same on both sides (one thread-local delta cell, flushed once at
//! profile time, merges into the empty map — i.e. verbatim).

use ipm_repro::apps::{
    run_amber, run_cluster, run_hpl, run_paratec, AmberConfig, BlasBackend, ClusterConfig,
    HplConfig, ParatecConfig, RankCtx,
};
use ipm_repro::ipm::{Banner, Export, IpmConfig, LegacyMirror, RankProfile, RegionReport, Xml};
use std::sync::Arc;

/// Run `app` monitored with the mirror riding along; return the primary
/// profile and a clone of it with the mirror's entries swapped in.
fn mirrored_run<R: Send>(
    cfg: IpmConfig,
    command: &str,
    app: impl Fn(&mut RankCtx) -> R + Send + Sync,
) -> (RankProfile, RankProfile) {
    let cluster = ClusterConfig::dirac(1, 1)
        .with_ipm(cfg)
        .with_command(command);
    let mirror = LegacyMirror::new();
    let hook = Arc::clone(&mirror);
    let run = run_cluster(&cluster, move |ctx| {
        let ipm = ctx.ipm.as_ref().expect("monitored run");
        // nothing is recorded before the app body (library constructors
        // make no monitored calls), so the mirror sees the whole stream
        assert!(
            ipm.profile().entries.is_empty(),
            "events recorded before the mirror could attach"
        );
        ipm.install_mirror(Arc::clone(&hook));
        app(ctx)
    });
    let primary = run.profiles.into_iter().next().expect("one rank");
    let mut legacy = primary.clone();
    legacy.entries = mirror.profile_entries();
    (primary, legacy)
}

/// Banner, region report, and XML for one profile.
fn renderings(p: &RankProfile) -> (String, String, String) {
    (
        Export::from_profile(p.clone())
            .max_rows(0)
            .to(Banner)
            .expect("banner"),
        Export::from_profile(p.clone())
            .max_rows(0)
            .to(RegionReport)
            .expect("region report"),
        Export::from_profile(p.clone()).to(Xml).expect("xml"),
    )
}

fn assert_paths_agree(primary: &RankProfile, legacy: &RankProfile) {
    // entry-level equality first: names, bytes, regions, details, stats
    assert_eq!(
        primary.entries, legacy.entries,
        "interned path and string-keyed path disagree on the table"
    );
    let (banner_a, region_a, xml_a) = renderings(primary);
    let (banner_b, region_b, xml_b) = renderings(legacy);
    assert_eq!(banner_a, banner_b, "banner must be byte-identical");
    assert_eq!(region_a, region_b, "region report must be byte-identical");
    assert_eq!(xml_a, xml_b, "XML log must be byte-identical");
}

/// The MD (PMEMD-like) workload: kernels, transfers, host idle, regions.
#[test]
fn md_profiles_are_identical_across_record_paths() {
    let (primary, legacy) = mirrored_run(IpmConfig::default(), "pmemd.cuda", |ctx| {
        run_amber(ctx, AmberConfig::tiny()).expect("md")
    });
    assert!(
        primary.entries.iter().any(|e| e.name == "cudaLaunch"),
        "md run recorded no launches — differential test is vacuous"
    );
    assert!(
        primary.entries.iter().any(|e| e.name.starts_with('@')),
        "md run produced no pseudo entries (exec/idle) — pseudo path untested"
    );
    assert_paths_agree(&primary, &legacy);
}

/// The Linpack workload: raw kernel launches, event-API synchronization,
/// byte-attributed MPI and async copies.
#[test]
fn hpl_profiles_are_identical_across_record_paths() {
    let (primary, legacy) = mirrored_run(IpmConfig::default(), "xhpl.cuda", |ctx| {
        run_hpl(ctx, HplConfig::tiny()).expect("hpl")
    });
    assert!(
        primary
            .entries
            .iter()
            .any(|e| e.name.starts_with("MPI_") && e.bytes > 0),
        "hpl run recorded no byte-attributed MPI calls"
    );
    assert_paths_agree(&primary, &legacy);
}

/// The PARATEC workload with the thunking-CUBLAS backend: every zgemm
/// routes through the numlib facade with byte attribution.
#[test]
fn paratec_profiles_are_identical_across_record_paths() {
    let (primary, legacy) = mirrored_run(IpmConfig::default(), "paratec.mpi", |ctx| {
        run_paratec(ctx, ParatecConfig::tiny(BlasBackend::CublasThunking)).expect("paratec")
    });
    assert!(
        primary
            .entries
            .iter()
            .any(|e| e.name.starts_with("cublas") && e.bytes > 0),
        "paratec run recorded no byte-attributed cublas calls"
    );
    assert_paths_agree(&primary, &legacy);
}

/// Host-timing-only configuration exercises the non-pseudo half of the
/// path (no KTT booking), with regions still present.
#[test]
fn host_only_md_is_identical_across_record_paths() {
    let (primary, legacy) = mirrored_run(IpmConfig::host_timing_only(), "pmemd.cuda", |ctx| {
        run_amber(ctx, AmberConfig::tiny()).expect("md")
    });
    assert_paths_agree(&primary, &legacy);
}
