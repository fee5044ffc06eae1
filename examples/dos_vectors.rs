//! The paper's §VI DoS vectors, quantified: how much server memory or
//! state can an attacker pin per octet sent, and what the corresponding
//! mitigation buys.
//!
//! ```sh
//! cargo run --release --example dos_vectors
//! ```

use h2attack::vectors::{
    capped_victim, connection_window_freeze, priority_churn, slow_receiver, table_thrash,
    vulnerable_victim,
};
use h2ready::scope::Target;
use h2ready::server::{ServerProfile, SiteSpec};

fn main() {
    let victim = Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark());

    println!("== slow receiver (flow control as a memory pin) ==");
    for streams in [1u32, 4, 16, 64] {
        let report = slow_receiver(&victim, streams).report;
        println!(
            "  {streams:>3} streams: attacker sent {:>5} B, pinned {:>9} B  ({}x amplification)",
            report.attacker_octets, report.server_cost, report.amplification
        );
    }
    let freeze = connection_window_freeze(&victim, 16);
    println!(
        "  connection-window freeze variant: leaked {} B, pinned {} B \
         (window minimums cannot stop this one)",
        freeze.leaked_octets, freeze.report.server_cost
    );

    println!("\n== HPACK dynamic-table pressure ==");
    for requests in [50u32, 200, 800] {
        let report = table_thrash(&vulnerable_victim(), 1 << 26, requests);
        println!(
            "  obedient victim, {requests:>3} requests: encoder table {:>7} B",
            report.server_cost
        );
    }
    let capped = table_thrash(&capped_victim(), 1 << 26, 800);
    println!(
        "  capped victim (4 KiB ceiling),  800 requests: encoder table {:>7} B",
        capped.server_cost
    );

    println!("\n== priority-tree churn ==");
    for depth in [64u32, 256, 1_024] {
        let churn = priority_churn(&victim, depth, 20);
        println!(
            "  chain depth {depth:>5}: {:>5} frames ({:>6} B) -> {:>5} tree nodes \
             ({} after pruning)",
            churn.report.attacker_frames,
            churn.report.attacker_octets,
            churn.report.server_cost,
            churn.nodes_after_prune
        );
    }
    println!(
        "\nEvery vector uses only protocol-legal frames — the paper's point that\n\
         HTTP/2's new machinery must be provisioned and policed, not just implemented."
    );
}
