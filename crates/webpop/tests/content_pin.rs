//! Pins the bytes of generated site content.
//!
//! Probe reports, `repro_scale0.1.txt` and perfbench digests depend on
//! body *lengths* only, so a change to how bodies are filled could alter
//! every served byte without any of them noticing. This test hashes path,
//! length and body of every resource of a fixed set of generated sites
//! and testbed sites, and compares the hash against a value computed
//! before the body fill was rewritten as doubling copies.

use h2server::SiteSpec;
use webpop::{ExperimentSpec, Population};

/// The hash as computed with the per-octet body fill of commit 049b79e.
const PINNED: u64 = 0x385a_eeeb_f817_d2ef;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_site(h: &mut Fnv, site: &SiteSpec) {
    for (path, resource) in &site.resources {
        h.write(path.as_bytes());
        h.write(&(resource.body.len() as u64).to_le_bytes());
        h.write(&resource.body);
    }
}

#[test]
fn generated_content_bytes_are_pinned() {
    let mut h = Fnv::new();
    for spec in [ExperimentSpec::first(), ExperimentSpec::second()] {
        let population = Population::new(spec, 0.01);
        for i in 0..64 {
            hash_site(&mut h, &population.site(i).site);
        }
    }
    hash_site(&mut h, &SiteSpec::benchmark());
    hash_site(&mut h, &SiteSpec::page_with_tree());
    assert_eq!(h.0, PINNED, "generated content bytes changed");
}
