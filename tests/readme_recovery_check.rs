//! Keeps the README "crash recovery" example honest: this is the snippet
//! from README.md, verbatim, as a regression test.

use xqib::appserver::{AppServer, DurabilityConfig};
use xqib::storage::VirtualDisk;

#[test]
fn readme_recovery_example() {
    let disk = VirtualDisk::new();
    let mut server = AppServer::new_durable(
        "<library><article id=\"a1\"/></library>",
        disk.clone(),
        DurabilityConfig::default(),
    )
    .unwrap();
    let r = server.handle(
        "/update?xq=insert node <note>draft</note> \
                       into doc('corpus.xml')/library",
    );
    assert_eq!(r.status, 200);

    disk.crash(); // power loss: unsynced tails are torn off, bit rot per plan

    let mut server = AppServer::recover(disk, DurabilityConfig::default()).unwrap();
    assert_eq!(server.db.durability_stats().recoveries, 1);
    let r = server.handle("/query?xq=count(doc('corpus.xml')//note)");
    assert_eq!(r.body, "1"); // the journaled update survived the crash
}
