//! Keeps the README "browser fleet" example honest: this is the snippet
//! from README.md, verbatim, as a regression test.

use xqib::appserver::{run_sim, SimConfig};

#[test]
fn readme_fleet_example() {
    // the full chaos menu — lossy links, failing seat disks, a replication
    // partition, two mid-run leader crashes — over a mixed fleet of real
    // XQIB browsers running the paper's §6 scenario pages
    let (report, cluster) = run_sim(&SimConfig::chaotic_fleet(7));

    // no acked update, cart ops included, is ever lost across failover…
    assert_eq!(report.missing_acked_updates(&cluster), Vec::<String>::new());
    // …every fetch yields exactly one observable outcome per browser…
    assert_eq!(report.outcome_mismatches(), Vec::<usize>::new());
    // …and once chaos clears, every degraded render converges
    assert_eq!(report.unconverged(), Vec::<usize>::new());

    // §6.1's offload claim, measured: repeat whole-document visits are
    // client-cache hits, so the origin sees a fraction of the fetches
    let fleet = &report.metrics.fleet;
    assert!(fleet.origin_requests < fleet.behind_calls);

    // the whole run is bit-identical given the seed
    let (again, _cluster) = run_sim(&SimConfig::chaotic_fleet(7));
    assert_eq!(report, again);
}
