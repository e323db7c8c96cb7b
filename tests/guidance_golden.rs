//! Golden briefings: the guidance cycle's markdown on the four trial
//! cohorts (`scaled_to_visits(4..=7, 2520)`, the cohorts the
//! `trial_guide` benchmark rotates) is pinned by its CRC-32. A change
//! to how `mining` or `predict` compute — counting instead of
//! scanning, codes instead of labels — must leave every byte of the
//! briefing as it was.

use clinical_types::wire::crc32;
use dd_dgms::DdDgms;
use discri::{generate, CohortConfig};

const VISITS: usize = 2520;

/// `(cohort seed, crc32 of render_markdown())`.
const GOLDEN: [(u64, u32); 4] = [
    (4, 0x6e2b_4ab3),
    (5, 0xb403_45d5),
    (6, 0x764f_edf9),
    (7, 0xf2af_fd10),
];

fn briefing(seed: u64) -> String {
    let cohort = generate(&CohortConfig::scaled_to_visits(seed, VISITS));
    let mut system = DdDgms::from_raw_attendances(&cohort.attendances).unwrap();
    system.run_guidance_cycle().unwrap().render_markdown()
}

#[test]
fn trial_briefings_match_their_golden_digests() {
    let digests: Vec<(u64, u32)> = GOLDEN
        .iter()
        .map(|&(seed, _)| (seed, crc32(briefing(seed).as_bytes())))
        .collect();
    let shown: Vec<String> = digests
        .iter()
        .map(|(seed, d)| format!("{seed}:{d:08x}"))
        .collect();
    assert_eq!(digests, GOLDEN, "digests now {}", shown.join(" "));
}
