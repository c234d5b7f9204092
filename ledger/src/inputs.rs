//! Workload inputs: the campaign specs each workload submits, derived
//! from the harness seed. The program under test only ever sees the
//! generated spec documents.

use hmpt_fleet::spec::{CampaignSection, CampaignSpec};
use hmpt_sim::zoo::Zoo;

/// The default cross-platform matrix, verbatim.
pub const ZOO_TOML: &str = include_str!("../../examples/zoo.toml");

/// Machines a served tenant draws from: the non-cxl presets (cxl-far
/// alone costs more than a whole job stream).
const SERVED_MACHINES: [&str; 4] = ["xeon-max", "xeon-max-quad", "hbm-flat", "small-hbm"];
const SERVED_WORKLOADS: [&str; 7] = ["mg", "bt", "lu", "sp", "ua", "is", "kwave"];
const SERVED_BUDGETS: [&str; 3] = ["none", "16", "8"];

/// Tenants of the served workload, one closed-loop client each.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Distinct specs the stream draws from: four per workload.
const SERVED_POOL: usize = 4 * SERVED_WORKLOADS.len();
/// Jobs each tenant submits per stream: the stream is four whole copies
/// of the pool, 112 jobs, so eleven lie beyond p90.
pub const JOBS_PER_TENANT: usize = 2 * SERVED_POOL;

/// The campaign seed a harness seed selects. Seed 0 keeps the spec
/// defaults, so its rows can be held against the pinned baseline.
fn campaign_section(seed: u64) -> Option<CampaignSection> {
    (seed != 0)
        .then(|| CampaignSection { seed: Some(3u64.wrapping_add(seed)), ..Default::default() })
}

/// The zoo matrix as `zoo-cold` runs it: spec defaults (parallel
/// cells, cache on, verify on), no snapshot.
pub fn zoo_cold(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::parse(ZOO_TOML).expect("examples/zoo.toml parses");
    spec.campaign = campaign_section(seed);
    spec
}

/// The paper's Table II batch on every standard zoo machine, batch
/// defaults (compare pass and online check on).
pub fn table2(seed: u64) -> Vec<CampaignSpec> {
    Zoo::standard()
        .entries()
        .iter()
        .map(|entry| CampaignSpec {
            mode: Some("batch".into()),
            machine: Some(entry.name.clone()),
            campaign: campaign_section(seed),
            ..Default::default()
        })
        .collect()
}

/// The served job stream: the pool of distinct spec documents, and per
/// tenant the pool indices it submits, in order.
///
/// Each pool spec is two machines × one workload × two budgets. A job's
/// cost is mostly its (machine, workload) campaigns — simulated on
/// first sight, re-simulated by every job's verify pass — so the pool
/// holds every such pair exactly twice: each workload's four specs pair
/// its machines along two perfect matchings. The seed picks the
/// matchings, the budgets and the order of the stream, a shuffle of
/// whole copies of the pool. Every seed thus does the same work.
pub fn served(seed: u64) -> (Vec<CampaignSpec>, Vec<Vec<usize>>) {
    let mut rng = SplitMix(seed ^ 0x5eed_1ed6_e700_0000);
    let mut pool = Vec::with_capacity(SERVED_POOL);
    for workload in SERVED_WORKLOADS {
        let mut m: Vec<usize> = (0..SERVED_MACHINES.len()).collect();
        rng.shuffle(&mut m);
        for mut pair in [[m[0], m[1]], [m[2], m[3]], [m[0], m[2]], [m[1], m[3]]] {
            pair.sort_unstable();
            pool.push(CampaignSpec {
                mode: Some("matrix".into()),
                zoo: Some(pair.iter().map(|&i| SERVED_MACHINES[i].to_string()).collect()),
                workloads: Some(vec![workload.to_string()]),
                budgets: Some(rng.pick(&SERVED_BUDGETS, 2)),
                ..Default::default()
            });
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(TENANTS.len() * JOBS_PER_TENANT);
    while order.len() < TENANTS.len() * JOBS_PER_TENANT {
        let mut copy: Vec<usize> = (0..SERVED_POOL).collect();
        rng.shuffle(&mut copy);
        order.extend(copy);
    }
    let mut streams = vec![Vec::new(); TENANTS.len()];
    for (i, spec) in order.into_iter().enumerate() {
        streams[i % TENANTS.len()].push(spec);
    }
    (pool, streams)
}

/// SplitMix64: a tiny, dependency-free seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items, in their original order.
    fn pick(&mut self, items: &[&str], k: usize) -> Vec<String> {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx.sort_unstable();
        idx.into_iter().map(|i| items[i].to_string()).collect()
    }
}
