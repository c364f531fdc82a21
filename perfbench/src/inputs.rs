//! Everything the workload seed decides: the order queries are replayed
//! in, which top users the search sessions replay, and the handshake
//! seeds of the sessions. The dataset itself is the fixed AOL-calibrated
//! `Dataset::standard()`; windows are warmed from its training split and
//! requests replay its test split.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use xsearch_bench::Dataset;

/// SplitMix64 finalizer: derives independent per-item values from the
/// workload seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `window` training queries, cycling through the training split from a
/// seed-chosen offset: the warm-up that fills one history window.
pub fn window(train: &[String], window: usize, seed: u64) -> impl Iterator<Item = &str> {
    let offset = (mix(seed, 0x51DE) % train.len() as u64) as usize;
    (0..window).map(move |i| train[(offset + i) % train.len()].as_str())
}

/// The test split shuffled by the seed and dealt round-robin to
/// `sessions` sessions (the echo workloads' request streams).
pub fn dealt_test_queries(data: &Dataset, sessions: usize, seed: u64) -> Vec<Vec<String>> {
    let mut test: Vec<String> = data.split.test.iter().map(|r| r.query.clone()).collect();
    test.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0x7E57)));
    let mut streams = vec![Vec::new(); sessions];
    for (i, q) in test.into_iter().enumerate() {
        streams[i % sessions].push(q);
    }
    streams
}

/// One top user per session, chosen by the seed; each session replays
/// its user's test queries in time order from a seed-chosen offset.
pub fn user_test_queries(data: &Dataset, sessions: usize, seed: u64) -> Vec<Vec<String>> {
    let mut by_user: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for r in &data.split.test {
        by_user.entry(r.user.0).or_default().push(r.query.clone());
    }
    let mut users: Vec<Vec<String>> = by_user.into_values().collect();
    users.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0x05E2)));
    assert!(users.len() >= sessions, "fewer test users than sessions");
    users
        .into_iter()
        .take(sessions)
        .enumerate()
        .map(|(i, mut queries)| {
            let offset = (mix(seed, i as u64) % queries.len() as u64) as usize;
            queries.rotate_left(offset);
            queries
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }

    #[test]
    fn window_cycles_the_training_split() {
        let train: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let w: Vec<&str> = window(&train, 7, 1).collect();
        assert_eq!(w.len(), 7);
        assert_eq!(w[0], w[3]);
        assert_eq!(w[1], w[4]);
    }
}
